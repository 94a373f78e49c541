"""Independent cross-checks of the closed form, kept out of the runtime.

Nothing that ``import schurfit`` or the ``schurfit`` command loads imports
this module; the tests do, to check the production routes against routes
that share as little with them as possible:

- `schur_bialternant`, the alternating ratio a_{lam+delta}(z) / V(z), and
  `schur_tableaux`, the sum over semistandard Young tableaux, against
  `symfunc.schur`'s dual Jacobi-Trudi determinant;
- `alternating`, the determinant of (z_i ** mu_j), behind the bialternant;
- `brute_force_min`, a grid search of the sum of squared errors, against
  `regress.fit` on one- and two-term real float models.

The Schur routes take the same points as `schur`, and like it compute on
native numbers: a point of Scalars passes the same boundary, `symfunc`'s
`_unwrap` and `_wrap`, once per call.  The tableaux route is deliberately
brute force and guarded to desk-scale inputs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .numeric import Scalar, scalar_pow
from .symfunc import _unwrap, _wrap, det, vandermonde

SSYT_MAX_WEIGHT = 12
SSYT_MAX_VARS = 6


def _exact(z):
    """The mode of a native point: exact unless its first entry is a float
    or complex; the empty point is exact."""
    return not (z and isinstance(z[0], (float, complex)))


def alternating(mu, z):
    """Determinant of the matrix (z_i ** mu_j) for a strictly decreasing mu."""
    if len(mu) != len(z):
        raise ValueError("exponent tuple and point must have equal length")
    if any(a <= b for a, b in zip(mu, list(mu)[1:])):
        raise ValueError(f"exponents must be strictly decreasing: {tuple(mu)}")
    mode, z = _unwrap(z)
    rows = [[scalar_pow(zi, e) for e in mu] for zi in z]
    return _wrap(mode, det(rows, _exact(z)))


def schur_bialternant(lam, z):
    """s_lam(z) as the alternating ratio a_{lam+delta}(z) / V(z).

    Requires pairwise distinct entries; exact points divide exactly, so int
    points give an int or a Fraction, never a float.
    """
    mode, z = _unwrap(z)
    r = len(z)
    for i in range(r):
        for j in range(i + 1, r):
            if not z[i] - z[j]:
                raise ZeroDivisionError(
                    f"bialternant needs distinct entries; z[{i}] == z[{j}]"
                )
    parts = lam.normalized()
    if len(parts) > r:
        return _wrap(mode, 0)
    if r == 0:
        return 1
    padded = parts + (0,) * (r - len(parts))
    mu = tuple(p + (r - 1 - i) for i, p in enumerate(padded))
    a = alternating(mu, z)
    if _exact(z) and type(a) is int:  # int / int would round to a float, as in `det`
        a = Fraction(a)
    return _wrap(mode, a / vandermonde(z))


@lru_cache(maxsize=None)
def _ssyt_contents(parts, r):
    """Content vectors (c_1, ..., c_r) with multiplicity over all semistandard
    tableaux of the given shape filled from {1, ..., r}."""
    cells = [(i, j) for i, row_len in enumerate(parts) for j in range(row_len)]
    counts: dict[tuple, int] = {}
    fill = {}

    def place(pos):
        if pos == len(cells):
            content = [0] * r
            for v in fill.values():
                content[v - 1] += 1
            key = tuple(content)
            counts[key] = counts.get(key, 0) + 1
            return
        i, j = cells[pos]
        lo = 1
        if j > 0:
            lo = max(lo, fill[(i, j - 1)])  # rows weakly increase
        if i > 0:
            lo = max(lo, fill[(i - 1, j)] + 1)  # columns strictly increase
        for v in range(lo, r + 1):
            fill[(i, j)] = v
            place(pos + 1)
        fill.pop((i, j), None)

    place(0)
    return counts


def schur_tableaux(lam, z):
    """s_lam(z) as a sum of monomials over semistandard Young tableaux.

    Test oracle only; refuses shapes beyond |lam| <= 12 or more than 6
    variables.  The tableau counts are ints, so every point computes in its
    own type.
    """
    parts = lam.normalized()
    r = len(z)
    if sum(parts) > SSYT_MAX_WEIGHT or r > SSYT_MAX_VARS:
        raise ValueError(
            f"tableaux enumeration refused: |lam|={sum(parts)} (max "
            f"{SSYT_MAX_WEIGHT}), vars={r} (max {SSYT_MAX_VARS})"
        )
    mode, z = _unwrap(z)
    total = 0
    for content, count in sorted(_ssyt_contents(parts, r).items()):
        term = count
        for zi, ci in zip(z, content):
            if ci:
                term = term * scalar_pow(zi, ci)
        total = total + term
    return _wrap(mode, total)


def brute_force_min(d, data):
    """Grid-refinement minimizer of the (real) sum of squared errors.

    Sanity oracle for n <= 2 with real float data only: more terms, exact
    data, or an x, y or w with a nonzero imaginary part raise ValueError.
    Ten rounds search a 21-per-axis grid: the first spans [-10, 10] per
    coefficient, and each later one is centred on the previous round's best
    point with a fifth of its span, so the last grid's spacing is 0.2^9,
    about 5e-7, and no coefficient beyond 12.5 in size is reached.
    """
    n = len(d)
    if n > 2:
        raise ValueError("brute-force search is limited to one or two terms")
    if data.exact:
        raise ValueError("brute-force search works on float data")
    if any(v.im for v in (*data.x, *data.y, *(data.w or ()))):
        raise ValueError("brute-force search works on real data")
    xs = [float(v.re) for v in data.x]
    ys = [float(v.re) for v in data.y]
    ws = [float(v.mag_sq().re) for v in data.w] if data.w is not None else [1.0] * data.m

    def sse(coeffs):
        total = 0.0
        for xk, yk, wk in zip(xs, ys, ws):
            pred = sum(c * xk**dj for c, dj in zip(coeffs, d))
            total += wk * (pred - yk) ** 2
        return total

    best = [0.0] * n
    span = 10.0
    steps = 10
    for _ in range(10):
        grid = [
            [best[i] + span * (t - steps) / steps for t in range(2 * steps + 1)]
            for i in range(n)
        ]
        if n == 1:
            candidates = ([g0] for g0 in grid[0])
        else:
            candidates = ([g0, g1] for g0 in grid[0] for g1 in grid[1])
        best = min(candidates, key=sse)
        span *= 0.2
    return [Scalar.from_float(v) for v in best]
