"""Closed-form least squares for models sum_i a_i x^{d_i}.

The coefficients come out of subset sums of Schur and Vandermonde values:
numerators N_i as signed combinations of the minor sums S_{i,j} with the
moment sums T_j, and a shared real denominator D.  All aggregates are
division-free; the only division is the final a_i = N_i / D, so exact mode
never rounds.  Weights enter as w_l factors on every subset term, per the
weighted normal equation.

`_aggregates` gives D, S and T of a batch.  A point appended to a stream in
`incremental` is a batch too: the stream's points with the new one last, of
which every subset must hold that last point, so the same call gives the
increments.  Every subset sum -- D, S and the B matrix -- runs through one
kernel: `_subset_columns` yields the vector u_i = w_l s_{lam_i}(x_l) V(x_l)
for each subset l in lexicographic order, and `_hermitian_sum` adds up u u*.
B's columns are the signed u vectors; the pseudoinverse B B* A* uses
B B* = (-1)^(i+j) S_{i,j} / D and so never builds B.

The kernel computes on plain numbers: `_lift` converts points and weights
once per public call to float or complex, or scales exact ones to int or
Gaussian-int pairs, and `_wrap` turns each sum or B entry back into a Scalar,
undoing that scaling with one exact division; the rest of the module works on
Scalars.  The kernel calls `schur` and `vandermonde` by the names bound here,
where a tracer can wrap them.
"""

from __future__ import annotations

from cmath import isfinite
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations
from fractions import Fraction
from math import hypot, inf, isqrt, lcm, sqrt
from sys import float_info
from operator import attrgetter

from .numeric import Scalar, ScalarModeError, _Gaussian, scalar_pow
from .partitions import lambda_drop, lambda_from_degrees
from .symfunc import schur, vandermonde


class InsufficientDataError(ValueError):
    """Fewer data points than model terms: the subset sums are empty."""


class NonUniqueSolutionError(ArithmeticError):
    """The denominator vanishes, so the normal equation has no unique solution."""


class DataSet:
    """Paired sample vectors x, y with optional nonzero weights w."""

    __slots__ = ("x", "y", "w")

    def __init__(self, x, y, w=None):
        self.x = list(x)
        self.y = list(y)
        self.w = list(w) if w is not None else None
        if len(self.x) < 1:
            raise ValueError("need at least one data point")
        if len(self.y) != len(self.x):
            raise ValueError("x and y must have equal length")
        if self.w is not None and len(self.w) != len(self.x):
            raise ValueError("w must match x in length")
        mode = self.x[0].exact
        for s in self.x + self.y + (self.w or []):
            if s.exact is not mode:
                raise ScalarModeError("data set mixes exact and float scalars")
        if self.w is not None:
            for k, wk in enumerate(self.w):
                if not wk:
                    raise ValueError(f"weight {k + 1} is zero; weights must be nonzero")

    @property
    def m(self):
        return len(self.x)

    @property
    def exact(self):
        return self.x[0].exact

    def weight_sq(self, k):
        """|w_k|^2 (k is 0-based), or 1 when unweighted."""
        if self.w is None:
            return Scalar.one(self.exact)
        return self.w[k].mag_sq()


@dataclass
class FitResult:
    """Solution of one least-squares fit.

    `numerators` and `denominator` are the raw aggregates N_i and D with
    a_i = N_i / D.  `residual_sq` is the squared minimal distance, exact in
    exact mode.  `residual` is the minimal distance as a float, which is inf
    or 0 only when the distance itself is beyond the float range; see
    `_residual_root`.
    """

    coefficients: list
    denominator: Scalar
    numerators: list
    residual_sq: Scalar
    residual: float
    evaluations: int = 0


@dataclass
class BMatrix:
    """The n x C(m, n-1) matrix whose columns are indexed by (n-1)-subsets.

    Invariant: entries[i][c] * denominator_root = (-1)^(i+1) * w_l *
    s_{lam[i+1]}(x_l) * V(x_l) for column subset l = columns[c].  Float mode
    stores normalized entries (denominator_root = sqrt(D)); exact mode keeps
    the raw numerators and defers the irrational root, exposing
    denominator_root_sq = D instead.  `normalized` reads the mode off D.
    """

    entries: list
    columns: list
    denominator_root_sq: Scalar

    @property
    def normalized(self):
        return not self.denominator_root_sq.exact

    @property
    def denominator_root(self):
        return sqrt(float(self.denominator_root_sq.re))


def design_matrix(d, x):
    """The m x n matrix A with A[k][j] = x_k ** d_j."""
    return [[scalar_pow(xk, dj) for dj in d] for xk in x]


def _require_points(n, data):
    if data.m < n:
        raise InsufficientDataError(
            f"need at least {n} points for {n} model terms, got {data.m}"
        )


def _drops(d):
    return [lambda_drop(d, i) for i in range(1, len(d) + 1)]


# points and weights in the kernel's number type, and the factors by which
# exact points and weights were scaled to integers; see `_lift`
_Lifted = namedtuple("_Lifted", "x w fixed exact xscale wscale")


def _lift(points, fixed=0):
    """x and w of `points` (a DataSet or a stream's points), lifted to one
    number type; y is left to the Scalar arithmetic of `_moment_sums`.

    Every point shares the mode `points.exact`: each was checked once, where
    it entered, by `DataSet`, by `incremental._appended` or, for a restored
    snapshot, by parsing in one mode.  The lift reads the mode off
    `points.exact` and checks nothing.

    Real float data becomes float and complex float data complex.  Exact x
    is scaled by xscale, the lcm of the denominators of its real and
    imaginary parts, and exact w by wscale, the same lcm over the weights, so
    real exact data becomes int and Gaussian exact data `_Gaussian` with int
    parts; float data keeps the scales 1.  In the record, fixed (0 or 1)
    counts the trailing points that every subset must hold.
    """
    exact = points.exact
    gaussian = any(s.im for s in (*points.x, *(points.w or ())))
    if not exact:
        lift = complex if gaussian else attrgetter("re")
        w = None if points.w is None else [lift(v) for v in points.w]
        return _Lifted([lift(v) for v in points.x], w, fixed, False, 1, 1)
    x, xscale = _scaled(points.x, gaussian)
    w, wscale = (None, 1) if points.w is None else _scaled(points.w, gaussian)
    return _Lifted(x, w, fixed, True, xscale, wscale)


def _scaled(values, gaussian):
    """Exact `values` times the lcm of the denominators of their parts, as
    ints or, if `gaussian`, `_Gaussian`s, and that lcm."""
    scale = lcm(*(part.denominator for v in values for part in (v.re, v.im)))
    if gaussian:
        return [_Gaussian(int(v.re * scale), int(v.im * scale)) for v in values], scale
    return [int(v.re * scale) for v in values], scale


def _lift_factor(lifted, lam, size):
    """The factor by which the lift scales u = w_l s_lam(x_l) V(x_l) on
    `size`-point subsets: u is homogeneous of degree |lam| + C(size, 2) in x
    and of degree size in w."""
    return lifted.xscale ** (lam.weight + size * (size - 1) // 2) * lifted.wscale**size


def _wrap(v, exact, scale=1):
    """A kernel value as a Scalar of the data's mode; exact values are
    divided by `scale` to undo the lift."""
    if exact:
        return Scalar.from_exact(Fraction(v.real, scale), Fraction(v.imag, scale))
    return Scalar.from_float(v.real, v.imag)


def _subset_columns(lifted, lams, size):
    """Yield (subset, u) for each subset of `size` lifted points in
    lexicographic order, with u_i = w_l * s_{lams[i]}(x_l) * V(x_l) over the
    subset's points x_l, in the lifted number type.

    Only the subsets that hold the last `lifted.fixed` points count; `subset`
    lists 0-based indices, those fixed points last.  `combinations` over the
    indices and over the points themselves walk the same order, so they are
    zipped and the points come without indexing.  Each subset costs one
    `vandermonde` call and one `schur` call per partition, which run
    straight-line code for narrow bands (see `symfunc`).
    """
    x, w, fixed = lifted[:3]
    if size < fixed:
        return
    m = len(x) - fixed
    tail, tail_pts = tuple(range(m, len(x))), tuple(x[m:])
    heads = combinations(range(m), size - fixed)
    for head, head_pts in zip(heads, combinations(x[:m], size - fixed)):
        subset, pts = head + tail, head_pts + tail_pts
        v = vandermonde(pts)
        if w is not None:
            for k in subset:
                v = v * w[k]
        yield subset, [schur(lam, pts) * v for lam in lams]


def _hermitian_sum(lifted, lams, size):
    """Sum of u u* over the kernel's columns of `size`-point subsets as an
    n x n Scalar matrix, n = len(lams), and the count n^2 * #columns.

    The sum runs in the lifted type and each entry (i, j) is wrapped once,
    divided by the lift's scaling of u_i conj(u_j).  Only the upper triangle
    is multiplied out; the lower one is its conjugate.
    """
    n = len(lams)
    acc = [[0] * n for _ in range(n)]
    count = 0
    for _, u in _subset_columns(lifted, lams, size):
        u_conj = [v.conjugate() for v in u]
        for i in range(n):
            row, ui = acc[i], u[i]
            for j in range(i, n):
                row[j] = row[j] + ui * u_conj[j]
        count += 1
    scales = [_lift_factor(lifted, lam, size) for lam in lams]
    out = [
        [_wrap(v, lifted.exact, scales[i] * scales[j]) for j, v in enumerate(row)]
        for i, row in enumerate(acc)
    ]
    for i in range(1, n):
        for j in range(i):
            out[i][j] = out[j][i].conj()
    return out, count * n * n


def _denominator_sum(d, lifted):
    """D = sum over n-subsets of |w_l s_lam(x_l) V(x_l)|^2 and its term count."""
    total, count = _hermitian_sum(lifted, [lambda_from_degrees(d)], len(d))
    return total[0][0], count


def _minor_matrix(d, lifted):
    """All minor sums S_{i,j} at once, plus the number of summand evaluations.

    Each (n-1)-subset contributes the n^2 products
    s_{lam[i]}(x_l) * conj(s_{lam[j]}(x_l)) * |V(x_l)|^2 (weighted by |w_l|^2).
    """
    return _hermitian_sum(lifted, _drops(d), len(d) - 1)


def _moment_sums(d, points, start):
    """T_j = sum_k |w_k|^2 conj(x_k)^{d_j} y_k over the points from the
    0-based index `start` on."""
    t = [Scalar.zero(points.exact) for _ in d]
    for k in range(start, len(points.x)):
        xbar, yk = points.x[k].conj(), points.y[k]
        wy = yk if points.w is None else points.w[k].mag_sq() * yk
        for j, dj in enumerate(d):
            t[j] = t[j] + scalar_pow(xbar, dj) * wy
    return t


def _signed_numerators(s, t):
    """N_i = sum_j (-1)^(i+j) S_{i,j} T_j (1-based signs)."""
    n = len(t)
    out = []
    for i in range(n):
        acc = Scalar.zero(t[0].exact)
        for j in range(n):
            term = s[i][j] * t[j]
            acc = acc + term if (i + j) % 2 == 0 else acc - term
        out.append(acc)
    return out


def _finite(what, values):
    """`values`, or OverflowError naming `what` if one is a float inf or nan:
    the fit has left the float range, and neither a report nor a snapshot
    could carry it."""
    if any(not v.exact and not isfinite(v.value) for v in values):
        raise OverflowError(f"{what} is not finite in float arithmetic")
    return values


def _checked_numerators(dvalue, s, t):
    """N from S and T (`_signed_numerators`), once D, S, T and then N are
    found finite (`_finite`)."""
    _finite("the denominator D", [dvalue])
    _finite("a minor sum S", [v for row in s for v in row])
    _finite("a moment sum T", t)
    return _finite("a numerator N", _signed_numerators(s, t))


def _aggregates(d, points, fixed=0):
    """D, S, T and the evaluation count of `points` (a DataSet or a stream's
    points), from one lift.  With fixed=1, the increments from appending the
    last point instead: D and S summed over the subsets that hold it, and T
    of that point alone.
    """
    lifted = _lift(points, fixed)
    dvalue, evals_d = _denominator_sum(d, lifted)
    s, evals_s = _minor_matrix(d, lifted)
    t = _moment_sums(d, points, len(points.x) - 1 if fixed else 0)
    return dvalue, s, t, evals_d + evals_s


def _quotients(d, x, numerators, dvalue):
    """a_i = N_i / D, or None when D vanishes (see `_zero_denominator`);
    OverflowError if a float a_i is not finite."""
    if _zero_denominator(dvalue, d, x):
        return None
    return _finite("a coefficient", [ni / dvalue for ni in numerators])


def _zero_denominator(dvalue, d, x):
    """Degeneracy test: exact zero, or float |D| below a scale-aware floor."""
    if dvalue.exact:
        return not dvalue
    scale = max((abs(xk) for xk in x), default=1.0)
    n = len(d)
    floor = 1e-12 * scale ** (2 * lambda_from_degrees(d).weight + n * (n - 1))
    return abs(float(dvalue.re)) <= floor


def denominator(d, data):
    """The real non-negative denominator D = det((WA)*WA) as a subset sum."""
    _require_points(len(d), data)
    total, _ = _denominator_sum(d, _lift(data))
    return total


def minor_sum(d, data, i, j):
    """S_{i,j}: the (j,i) minor of the Gram matrix as an (n-1)-subset sum
    (i, j are 1-based)."""
    n = len(d)
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError("minor indices out of range")
    if data.m < n - 1:
        raise InsufficientDataError(
            f"need at least {n - 1} points for the minor sums, got {data.m}"
        )
    s, _ = _minor_matrix(d, _lift(data))
    return s[i - 1][j - 1]


def fit(d, data):
    """Least-squares coefficients of the model sum_i a_i x^{d_i}.

    Exact mode returns the exact rational solution.  Uses weights from the
    data set when present.  In float mode, a D, S, T, N or coefficient
    beyond the float range raises OverflowError.
    """
    n = len(d)
    _require_points(n, data)
    dvalue, s, t, evaluations = _aggregates(d, data)
    numerators = _checked_numerators(dvalue, s, t)
    a = _quotients(d, data.x, numerators, dvalue)
    if a is None:
        raise NonUniqueSolutionError(
            "denominator vanishes: the model matrix is rank deficient "
            f"(need at least {n} distinct positive real x values, or more "
            "generally an injective design matrix)"
        )
    r = _residuals(d, data, a)
    residual_sq = _weighted_sq_sum(data, r)
    return FitResult(
        coefficients=a,
        denominator=dvalue,
        numerators=numerators,
        residual_sq=residual_sq,
        residual=_residual_root(data, r, residual_sq),
        evaluations=evaluations,
    )


def fit_weighted(d, data):
    """Weighted fit; requires explicit weights on the data set."""
    if data.w is None:
        raise ValueError("fit_weighted requires a data set with weights")
    return fit(d, data)


def _residuals(d, data, a):
    """The residuals r_k = y_k - sum_j a_j x_k^{d_j}."""
    out = []
    for yk, row in zip(data.y, design_matrix(d, data.x)):
        for aj, pj in zip(a, row):
            yk = yk - aj * pj
        out.append(yk)
    return out


def _weighted_sq_sum(data, r):
    """The squared minimal distance ||y - A a||_W^2, summed directly as
    sum_k |w_k|^2 |r_k|^2 over the residuals r.

    The shorter identity ||y||_W^2 - Re<(WA)* W y | a> is a difference of two
    nearly equal numbers; in binary64 it can leave pure rounding noise, even a
    negative value, where the fit is exact.
    """
    total = Scalar.zero(data.exact)
    for k, rk in enumerate(r):
        total = total + rk.mag_sq() * data.weight_sq(k)
    return total


def _residual_root(data, r, residual_sq):
    """The minimal distance ||y - A a||_W as a float, from the residuals r and
    their weighted square sum; inf or 0 only when the distance itself is
    beyond the float range.

    A square inside the normal float range gives its plain root.  Outside it,
    an exact square p/q has the root isqrt(p q) / q, which keeps every digit
    because a nonzero p q is then at least 2^1022.  A float square there, inf
    or rounded towards 0, has lost the distance, which is taken again from
    the weighted |r_k| by `math.hypot`, scaled by the largest of them.
    """
    s = residual_sq.re
    try:
        root_sq = float(s)
    except OverflowError:  # an exact square beyond the float range
        root_sq = inf
    if float_info.min <= root_sq < inf:
        return sqrt(root_sq)
    if residual_sq.exact:
        try:
            return isqrt(s.numerator * s.denominator) / s.denominator
        except OverflowError:
            return inf
    return hypot(*(abs(rk) * (1.0 if data.w is None else abs(data.w[k])) for k, rk in enumerate(r)))


def _checked_denominator(d, data):
    """D of a batch and its lifted points; raises when D vanishes or, in
    float mode, is not finite."""
    _require_points(len(d), data)
    lifted = _lift(data)
    dvalue, _ = _denominator_sum(d, lifted)
    _finite("the denominator D", [dvalue])
    if _zero_denominator(dvalue, d, data.x):
        raise NonUniqueSolutionError("denominator vanishes: B is undefined")
    return dvalue, lifted


def _append_b_columns(b, d, lifted):
    """Append the column (-1)^(i+1) u_i (1-based i) for each kernel column of
    (n-1)-subsets (see `_subset_columns`), labelled by its 1-based points;
    float mode divides by sqrt(D) before wrapping, exact mode by the lift's
    scaling of u_i."""
    root = b.denominator_root if b.normalized else None
    lams, size = _drops(d), len(d) - 1
    scales = [_lift_factor(lifted, lam, size) for lam in lams]
    for subset, u in _subset_columns(lifted, lams, size):
        b.columns.append(tuple(k + 1 for k in subset))
        for i, row in enumerate(b.entries):
            e = -u[i] if i % 2 == 0 else u[i]
            row.append(_wrap(e if root is None else e / root, lifted.exact, scales[i]))


def b_matrix(d, data):
    """The wide matrix B of Eq-(5)-style columns over (n-1)-subsets.

    Column order is the lexicographic subset order.  Exact mode keeps raw
    numerator entries (the square root of D is irrational in general);
    float mode divides through by sqrt(D).
    """
    dvalue, lifted = _checked_denominator(d, data)
    b = BMatrix(entries=[[] for _ in d], columns=[], denominator_root_sq=dvalue)
    _append_b_columns(b, d, lifted)
    return b


def pseudoinverse(d, data):
    """The solution operator B B* A* (times W*W when weighted) as n x m.

    B B* = (-1)^(i+j) S_{i,j} / D, so B itself is never built: each entry is
    a signed minor-sum combination with one final division by D, and no
    square root ever appears.
    """
    dvalue, lifted = _checked_denominator(d, data)
    s, _ = _minor_matrix(d, lifted)
    out = [[None] * data.m for _ in range(len(d))]
    for k, row in enumerate(design_matrix(d, data.x)):
        col = _signed_numerators(s, [v.conj() for v in row])
        wsq = data.weight_sq(k)
        for i, ci in enumerate(col):
            out[i][k] = ci * wsq / dvalue
    return out


def projection_residual(d, data):
    """Projection P = A B (AB)* onto the model column space, and the squared
    minimal distance ||y - A a||_W^2 of a = A^+ y, summed as `fit` sums it."""
    aplus = pseudoinverse(d, data)
    n = len(d)
    m = data.m
    mode = data.exact
    a_mat = design_matrix(d, data.x)
    p = [[Scalar.zero(mode) for _ in range(m)] for _ in range(m)]
    for r in range(m):
        for c in range(m):
            acc = Scalar.zero(mode)
            for j in range(n):
                acc = acc + a_mat[r][j] * aplus[j][c]
            p[r][c] = acc
    a = [Scalar.zero(mode) for _ in range(n)]
    for j in range(n):
        for c in range(m):
            a[j] = a[j] + aplus[j][c] * data.y[c]
    return p, _weighted_sq_sum(data, _residuals(d, data, a))
