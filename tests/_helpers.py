"""Shared generators for randomized tests."""

from fractions import Fraction
from itertools import combinations
import random

from schurfit import DataSet, Exponents, incremental, regress
from schurfit.numeric import Scalar, format_scalar
from schurfit.partitions import conjugate
from schurfit.symfunc import det, elem_sym_all, schur, vandermonde


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


def write_dataset(handle, data):
    """Write a data set as the CSV the CLI reads (comma separated, lossless
    for exact values)."""
    cols = ["x", "y"] + (["w"] if data.w is not None else [])
    handle.write(",".join(cols) + "\n")
    for k in range(data.m):
        row = [format_scalar(data.x[k]), format_scalar(data.y[k])]
        if data.w is not None:
            row.append(format_scalar(data.w[k]))
        handle.write(",".join(row) + "\n")


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


def kind(z):
    """(exact, zero, one) of point z: a Scalar point's mode with its Scalar
    zero and one; for a native point, exact unless its first entry is a float
    or complex, the ints 0 and 1, exact identities in every type."""
    if z and isinstance(z[0], Scalar):
        return z[0].exact, Scalar.zero(z[0].exact), Scalar.one(z[0].exact)
    return not (z and isinstance(z[0], (float, complex))), 0, 1


def rows_and_det(lam, z):
    """s_lam(z) as `det` of the dual Jacobi-Trudi rows of elem_sym_all(z), the
    reference for the straight-line Schur code."""
    exact, zero, one = kind(z)
    parts = lam.normalized()
    if not parts:
        return one
    if len(parts) > len(z):
        return zero
    return det(jacobi_trudi_rows(lam, z), exact)


def jacobi_trudi_rows(lam, z):
    """The dual Jacobi-Trudi matrix (e_{lam'_i - i + j}) of s_lam(z), for a
    nonempty lam with at most len(z) parts, filled from elem_sym_all(z) where
    0 <= lam'_i - i + j <= len(z) and with `kind`'s zero elsewhere."""
    e, zero, lam_conj = elem_sym_all(z), kind(z)[1], conjugate(lam)
    ks = [[c - i + j for j in range(len(lam_conj))] for i, c in enumerate(lam_conj)]
    return [[e[k] if 0 <= k <= len(z) else zero for k in row] for row in ks]


def subset_columns(x, w, fixed, lams, size):
    """(label, u) for each `size`-subset of the points x that holds the last
    `fixed` of them, in lexicographic order: label lists the subset's 1-based
    point numbers and u_i = w_l * s_{lams[i]}(x_l) * V(x_l), V times the
    weights in subset order.  The subset loop the generated walker in
    `regress` replaces, kept as its reference."""
    if size < fixed:
        return []
    m = len(x) - fixed
    out = []
    for head in combinations(range(m), size - fixed):
        subset = head + tuple(range(m, len(x)))
        pts = tuple(x[k] for k in subset)
        v = vandermonde(pts)
        if w is not None:
            for k in subset:
                v = v * w[k]
        out.append((tuple(k + 1 for k in subset), [schur(lam, pts) * v for lam in lams]))
    return out


def hermitian_sums(x, w, fixed, lams, size):
    """The upper triangle, row by row, of the sum of u u* over
    `subset_columns`, each entry started at the int 0, and the number of
    subsets."""
    n = len(lams)
    acc = [[0] * n for _ in range(n)]
    columns = subset_columns(x, w, fixed, lams, size)
    for _, u in columns:
        u_conj = [v.conjugate() for v in u]
        for i in range(n):
            for j in range(i, n):
                acc[i][j] = acc[i][j] + u[i] * u_conj[j]
    return [acc[i][j] for i in range(n) for j in range(i, n)], len(columns)


def scalar_bookkeeping(state, x_new, y_new, w_new=None):
    """(D, S, T, N) of `state` after appending (x_new, y_new, w_new), kept as
    the Scalar bookkeeping that `incremental.update` once did around the
    kernel's native sums: each increment made a Scalar (float ones by
    `Scalar.from_float`, exact ones as Fractions of the lift), S's lower
    triangle by `Scalar.conj`, each added to the stored Scalar with Scalar
    `+`, and N summed as Scalars from `Scalar.zero`.  The reference for the
    native bookkeeping, which must store the same values of the same
    types."""
    lifted = regress._lift(incremental._appended(state, x_new, y_new, w_new), 1)
    d, n, exact = tuple(state.d), len(state.d), state.exact
    powers = regress._powers(d, lifted) if exact else None
    dsum, upper, _ = regress._raw_sums(d, lifted, powers=powers)
    t = regress._moment_sums(d, lifted, len(lifted.x) - 1, powers)

    def wrap(v, scale):
        if not exact:
            return Scalar.from_float(v.real, v.imag)
        return Scalar.from_exact(Fraction(v.real, scale), Fraction(v.imag, scale))

    scales = [regress._lift_factor(lifted, d[:i] + d[i + 1 :]) for i in range(n)]
    r, upper = [[None] * n for _ in range(n)], iter(upper)
    for i in range(n):
        for j in range(i, n):
            r[i][j] = wrap(next(upper), scales[i] * scales[j])
            r[j][i] = r[i][j].conj()
    dt = [wrap(tj, lifted.xscale**dj * lifted.yscale * lifted.wscale**2) for tj, dj in zip(t, d)]
    denom = state.denom + wrap(dsum, regress._lift_factor(lifted, d) ** 2)
    s = [[sij + rij for sij, rij in zip(srow, rrow)] for srow, rrow in zip(state.s, r)]
    t = [tj + dtj for tj, dtj in zip(state.t, dt)]
    n_vec = []
    for i in range(n):
        acc = Scalar.zero(exact)
        for j in range(n):
            acc = acc + s[i][j] * t[j] if (i + j) % 2 == 0 else acc - s[i][j] * t[j]
        n_vec.append(acc)
    return denom, s, t, n_vec
