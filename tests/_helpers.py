"""Shared generators for randomized tests."""

from fractions import Fraction
import random

from schurfit import DataSet, Exponents
from schurfit.numeric import Scalar
from schurfit.symfunc import _jacobi_trudi_indices, _kind, det, elem_sym_all


def rational(rng, lo=-9, hi=9, max_den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def exact_scalar(rng, complex_=False, **kw):
    if complex_:
        return Scalar.from_exact(rational(rng, **kw), rational(rng, **kw))
    return Scalar.from_exact(rational(rng, **kw))


def distinct_rationals(rng, count, lo=-9, hi=9, max_den=4):
    seen = set()
    out = []
    while len(out) < count:
        v = rational(rng, lo, hi, max_den)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def random_exponents(rng, n, dmax=8):
    degrees = sorted(rng.sample(range(dmax + 1), n), reverse=True)
    return Exponents(degrees)


def random_dataset(rng, m, exact=True, complex_=False, weighted=False):
    """Data set with distinct x values (keeps denominators nonzero a.s.)."""
    xs = distinct_rationals(rng, m)
    if complex_:
        x = [Scalar.from_exact(v, rational(rng)) for v in xs]
    else:
        x = [Scalar.from_exact(v) for v in xs]
    y = [exact_scalar(rng, complex_) for _ in range(m)]
    w = None
    if weighted:
        w = [Scalar.from_exact(Fraction(rng.randint(1, 5), rng.randint(1, 3))) for _ in range(m)]
    data = DataSet(x, y, w)
    if not exact:
        data = DataSet(
            [v.to_float() for v in x],
            [v.to_float() for v in y],
            [v.to_float() for v in w] if w else None,
        )
    return data


def well_conditioned_dataset(rng, m, weighted=False):
    """Float data with |x| in [0.5, 2], for oracle comparisons."""
    x = []
    seen = set()
    while len(x) < m:
        v = rng.uniform(0.5, 2.0) * rng.choice((-1, 1))
        if v not in seen:
            seen.add(v)
            x.append(Scalar.from_float(v))
    y = [Scalar.from_float(rng.uniform(-3, 3)) for _ in range(m)]
    w = [Scalar.from_float(rng.uniform(0.5, 2.0)) for _ in range(m)] if weighted else None
    return DataSet(x, y, w)


def scalars_equal(a, b):
    return all(u == v for u, v in zip(a, b)) and len(a) == len(b)


def max_rel_diff(a, b):
    worst = 0.0
    for u, v in zip(a, b):
        diff = abs(u - v)
        scale = max(abs(u), abs(v), 1e-300)
        ratio = diff / scale
        worst = max(worst, ratio) if ratio == ratio else float("inf")  # NaN fails
    return worst


def rows_and_det(lam, z):
    """s_lam(z) as `det` of the dual Jacobi-Trudi rows of elem_sym_all(z), the
    reference for the straight-line Schur code."""
    exact, zero, one = _kind(z)
    parts = lam.normalized()
    if not parts:
        return one
    if len(parts) > len(z):
        return zero
    return det(jacobi_trudi_rows(lam, z), exact)


def jacobi_trudi_rows(lam, z):
    """The dual Jacobi-Trudi matrix of s_lam(z), for a nonempty lam with at
    most len(z) parts, filled from elem_sym_all(z) and `_kind`'s zero."""
    e, zero = elem_sym_all(z), _kind(z)[1]
    return [[e[k] if k is not None else zero for k in row] for row in _jacobi_trudi_indices(lam.normalized(), len(z))]
