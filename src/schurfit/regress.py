"""Closed-form least squares for models sum_i a_i x^{d_i}.

The coefficients come out of subset sums of Schur and Vandermonde values:
numerators N_i as signed combinations of the minor sums S_{i,j} with the
moment sums T_j, and a shared real denominator D.  All aggregates are
division-free; the only division is the final a_i = N_i / D, so exact mode
never rounds.  Weights enter as w_l factors on every subset term, per the
weighted normal equation.

Every subset sum -- D, S, the B matrix and the streaming increments in
`incremental` -- runs through one kernel: `_subset_columns` yields the vector
u_i = w_l s_{lam_i}(x_l) V(x_l) for each subset l in lexicographic order, and
`_hermitian_sum` adds up u u*.  B's columns are the signed u vectors; the
pseudoinverse B B* A* uses B B* = (-1)^(i+j) S_{i,j} / D and so never builds B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import sqrt

from .numeric import Scalar, ScalarModeError, scalar_pow
from .partitions import Exponents, lambda_drop, lambda_from_degrees
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
                if wk.is_zero():
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
    a_i = N_i / D, retained so a fit can seed the incremental updater.
    `residual_sq` is the exact squared minimal distance.
    """

    coefficients: list
    denominator: Scalar
    numerators: list
    residual_sq: Scalar
    evaluations: int = 0

    @property
    def residual(self):
        return sqrt(max(float(self.residual_sq.re), 0.0))


@dataclass
class BMatrix:
    """The n x C(m, n-1) matrix whose columns are indexed by (n-1)-subsets.

    Invariant: entries[i][c] * denominator_root = (-1)^(i+1) * w_l *
    s_{lam[i+1]}(x_l) * V(x_l) for column subset l = columns[c].  Float mode
    stores normalized entries (denominator_root = sqrt(D)); exact mode keeps
    the raw numerators and defers the irrational root, exposing
    denominator_root_sq = D instead.
    """

    entries: list
    columns: list
    denominator_root_sq: Scalar
    normalized: bool

    @property
    def denominator_root(self):
        return sqrt(float(self.denominator_root_sq.re))


def design_matrix(d, x):
    """The m x n matrix A with A[k][j] = x_k ** d_j."""
    return [[scalar_pow(xk, dj) for dj in d] for xk in x]


def gram(d, data):
    """The Hermitian n x n matrix (WA)*WA of weighted conjugate power sums."""
    n = len(d)
    mode = data.exact
    pows = design_matrix(d, data.x)
    g = [[Scalar.zero(mode) for _ in range(n)] for _ in range(n)]
    for k in range(data.m):
        wsq = data.weight_sq(k)
        row = pows[k]
        for i in range(n):
            ci = row[i].conj() * wsq
            for j in range(n):
                g[i][j] = g[i][j] + ci * row[j]
    return g


def _require_points(n, data):
    if data.m < n:
        raise InsufficientDataError(
            f"need at least {n} points for {n} model terms, got {data.m}"
        )


def _drops(d):
    return [lambda_drop(d, i) for i in range(1, len(d) + 1)]


def _subset_columns(points, lams, r, extra=None):
    """Yield (subset, u) for each r-subset of `points` in lexicographic order,
    with u_i = w_l * s_{lams[i]}(x_l) * V(x_l) over the subset's points x_l.

    `points` is anything with x, w and exact (a DataSet or a streaming state).
    `extra` = (x, w or None) joins every subset as one more point; `subset`
    holds only the 0-based indices into `points`.  No subsets when r < 0.
    """
    if r < 0:
        return
    mode = points.exact
    x, w = points.x, points.w
    tail, w_tail = ((), None) if extra is None else ((extra[0],), extra[1])
    for subset in combinations(range(len(x)), r):
        pts = tuple(x[k] for k in subset) + tail
        v = vandermonde(pts, mode)
        if w is not None:
            for k in subset:
                v = v * w[k]
        if w_tail is not None:
            v = v * w_tail
        yield subset, [schur(lam, pts, mode) * v for lam in lams]


def _hermitian_sum(columns, n, mode):
    """Sum of u u* over the (subset, u) columns, and the count n^2 * #columns.

    Only the upper triangle is multiplied out: the diagonal is |u_i|^2 and the
    lower triangle is the conjugate of the upper one.
    """
    zero = Scalar.zero(mode)
    acc = [[zero] * n for _ in range(n)]
    count = 0
    for _, u in columns:
        for i in range(n):
            row, ui = acc[i], u[i]
            row[i] = row[i] + ui.mag_sq()
            for j in range(i + 1, n):
                row[j] = row[j] + ui * u[j].conj()
        count += 1
    for i in range(1, n):
        for j in range(i):
            acc[i][j] = acc[j][i].conj()
    return acc, count * n * n


def _denominator_sum(d, points, extra=None):
    """D = sum over n-subsets of |w_l s_lam(x_l) V(x_l)|^2 and its term count;
    with `extra`, only the n-subsets made of n-1 points plus that point."""
    r = len(d) - (extra is not None)
    total, count = _hermitian_sum(
        _subset_columns(points, [lambda_from_degrees(d)], r, extra), 1, points.exact
    )
    return total[0][0], count


def _minor_matrix(d, points, extra=None):
    """All minor sums S_{i,j} at once, plus the number of summand evaluations.

    Each (n-1)-subset contributes the n^2 products
    s_{lam[i]}(x_l) * conj(s_{lam[j]}(x_l)) * |V(x_l)|^2 (weighted by |w_l|^2).
    With `extra`, only the (n-1)-subsets that end in that point count.
    """
    n = len(d)
    r = n - 1 - (extra is not None)
    return _hermitian_sum(_subset_columns(points, _drops(d), r, extra), n, points.exact)


def _moment_sums(d, data):
    """T_j = sum_k |w_k|^2 conj(x_k)^{d_j} y_k."""
    n = len(d)
    mode = data.exact
    t = [Scalar.zero(mode) for _ in range(n)]
    for k in range(data.m):
        xbar = data.x[k].conj()
        wy = data.weight_sq(k) * data.y[k]
        for j, dj in enumerate(d):
            t[j] = t[j] + scalar_pow(xbar, dj) * wy
    return t


def _signed_numerators(s, t):
    """N_i = sum_j (-1)^(i+j) S_{i,j} T_j (1-based signs)."""
    n = len(t)
    mode = t[0].exact if n else True
    out = []
    for i in range(n):
        acc = Scalar.zero(mode)
        for j in range(n):
            term = s[i][j] * t[j]
            acc = acc + term if (i + j) % 2 == 0 else acc - term
        out.append(acc)
    return out


def _aggregates(d, data):
    """D, S, T, the signed numerators N and the evaluation count of a batch."""
    dvalue, evals_d = _denominator_sum(d, data)
    s, evals_s = _minor_matrix(d, data)
    t = _moment_sums(d, data)
    return dvalue, s, t, _signed_numerators(s, t), evals_d + evals_s


def _zero_denominator(dvalue, d, x):
    """Degeneracy test: exact zero, or float |D| below a scale-aware floor."""
    if dvalue.exact:
        return dvalue.is_zero()
    scale = max((abs(xk) for xk in x), default=1.0)
    if scale == 0.0:
        scale = 1.0
    n = len(d)
    floor = 1e-12 * scale ** (2 * lambda_from_degrees(d).weight + n * (n - 1))
    return abs(float(dvalue.re)) <= floor


def denominator(d, data):
    """The real non-negative denominator D = det((WA)*WA) as a subset sum."""
    _require_points(len(d), data)
    total, _ = _denominator_sum(d, data)
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
    s, _ = _minor_matrix(d, data)
    return s[i - 1][j - 1]


def fit(d, data):
    """Least-squares coefficients of the model sum_i a_i x^{d_i}.

    Exact mode returns the exact rational solution.  Uses weights from the
    data set when present.
    """
    n = len(d)
    _require_points(n, data)
    dvalue, _, t, numerators, evaluations = _aggregates(d, data)
    if _zero_denominator(dvalue, d, data.x):
        raise NonUniqueSolutionError(
            "denominator vanishes: the model matrix is rank deficient "
            f"(need at least {n} distinct positive real x values, or more "
            "generally an injective design matrix)"
        )
    a = [ni / dvalue for ni in numerators]
    residual_sq = _residual_sq(data, t, a)
    return FitResult(
        coefficients=a,
        denominator=dvalue,
        numerators=numerators,
        residual_sq=residual_sq,
        evaluations=evaluations,
    )


def fit_weighted(d, data):
    """Weighted fit; requires explicit weights on the data set."""
    if data.w is None:
        raise ValueError("fit_weighted requires a data set with weights")
    return fit(d, data)


def _residual_sq(data, t, a):
    """||y||_W^2 - Re<(WA)* W y | a>, the squared minimal distance."""
    mode = data.exact
    ysq = Scalar.zero(mode)
    for k in range(data.m):
        ysq = ysq + data.y[k].mag_sq() * data.weight_sq(k)
    inner = Scalar.zero(mode)
    for tj, aj in zip(t, a):
        inner = inner + tj.conj() * aj
    return (ysq - inner).real_part()


def _checked_denominator(d, data):
    _require_points(len(d), data)
    dvalue, _ = _denominator_sum(d, data)
    if _zero_denominator(dvalue, d, data.x):
        raise NonUniqueSolutionError("denominator vanishes: B is undefined")
    return dvalue


def _append_b_columns(b, columns, tail):
    """Append the column (-1)^(i+1) u_i (1-based i) for each (subset, u) in
    `columns`, labelled by the 1-based subset followed by `tail`; float mode
    divides by sqrt(D)."""
    root = Scalar.from_float(b.denominator_root) if b.normalized else None
    for subset, u in columns:
        b.columns.append(tuple(k + 1 for k in subset) + tail)
        for i, row in enumerate(b.entries):
            e = -u[i] if i % 2 == 0 else u[i]
            row.append(e if root is None else e / root)


def b_matrix(d, data):
    """The wide matrix B of Eq-(5)-style columns over (n-1)-subsets.

    Column order is the lexicographic subset order.  Exact mode keeps raw
    numerator entries (the square root of D is irrational in general);
    float mode divides through by sqrt(D).
    """
    n = len(d)
    dvalue = _checked_denominator(d, data)
    b = BMatrix(
        entries=[[] for _ in range(n)],
        columns=[],
        denominator_root_sq=dvalue,
        normalized=not data.exact,
    )
    _append_b_columns(b, _subset_columns(data, _drops(d), n - 1), ())
    return b


def pseudoinverse(d, data):
    """The solution operator B B* A* (times W*W when weighted) as n x m.

    B B* = (-1)^(i+j) S_{i,j} / D, so B itself is never built: each entry is
    a signed minor-sum combination with one final division by D, and no
    square root ever appears.
    """
    dvalue = _checked_denominator(d, data)
    s, _ = _minor_matrix(d, data)
    out = [[None] * data.m for _ in range(len(d))]
    for k, row in enumerate(design_matrix(d, data.x)):
        col = _signed_numerators(s, [v.conj() for v in row])
        wsq = data.weight_sq(k)
        for i, ci in enumerate(col):
            out[i][k] = ci * wsq / dvalue
    return out


def projection_residual(d, data):
    """Projection P = A B (AB)* onto the model column space, and the squared
    minimal distance <y | (1 - P) y> (weighted inner product when weighted)."""
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
    resid = Scalar.zero(mode)
    for k in range(m):
        pk = Scalar.zero(mode)
        for c in range(m):
            pk = pk + p[k][c] * data.y[c]
        resid = resid + data.y[k].conj() * (data.y[k] - pk) * data.weight_sq(k)
    return p, resid.real_part()
