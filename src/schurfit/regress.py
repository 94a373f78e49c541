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
increments.  Every subset sum -- D, S, the stream increments and the B
matrix -- runs through one generated walker, `_walker`, compiled once per
(number of partitions, subset size, fixed points, weighted): straight-line
code that walks the subsets in lexicographic order, forms the vector
u_i = w_l s_{lam_i}(x_l) V(x_l) for each subset l, and either keeps the
upper triangle of the sum of u u* in locals (`_hermitian_sum`) or lists the
u vectors with their labels, which `_append_b_columns` turns into B's signed
columns.  The pseudoinverse B B* A* uses B B* = (-1)^(i+j) S_{i,j} / D and so
never builds B.

The walker computes on plain numbers: `_lift` converts points, weights and
targets once per public call to float or complex, or scales exact ones to
int or Gaussian-int pairs, and `_wrap` turns each sum or B entry back into a
Scalar, undoing that scaling with one exact division.  The moment sums T and
the residual norm are summed on the same lifted numbers and wrapped once
each; D, S, T, the numerators and the coefficients are Scalars.  The walker
calls `schur` and `vandermonde` once per subset and partition, as the
callers pass them from the names bound here, read at call time, where a
tracer can wrap them.
"""

from __future__ import annotations

from cmath import isfinite
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations
from fractions import Fraction
from functools import lru_cache
from math import comb, hypot, inf, isqrt, lcm, sqrt
from sys import float_info

from .numeric import Scalar, ScalarModeError, _Gaussian, scalar_pow
from .partitions import lambda_drop, lambda_from_degrees
from .symfunc import _compiled, schur, vandermonde


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


# points, weights and targets in the kernel's number type, and the factors by
# which exact ones were scaled to integers; see `_lift`
_Lifted = namedtuple("_Lifted", "x w y fixed exact xscale wscale yscale")


def _lift(points, fixed=0):
    """x, w and y of `points` (a DataSet or a stream's points), lifted to
    native numbers; a y of None, as `incremental.extend_b_matrix` passes,
    stays None.

    Every point shares the mode `points.exact`: each was checked once, where
    it entered, by `DataSet`, by `incremental._appended` or, for a restored
    snapshot, by parsing in one mode.  The lift reads the mode off
    `points.exact` and checks nothing.

    x and w share one number kind, complex if any x or w is, since the walker
    multiplies them; y takes its own, as it meets them only in products.
    Exact x is scaled by xscale, the lcm of the denominators of its real and
    imaginary parts, w by wscale and y by yscale, the same lcm over the
    weights and over the targets; float data keeps the scales 1 (see
    `_native`).  In the record, fixed (0 or 1) counts the trailing points
    that every subset must hold.
    """
    exact = points.exact
    gaussian = any(s.im for s in (*points.x, *(points.w or ())))
    x, xscale = _native(points.x, gaussian, exact)
    w, wscale = (None, 1) if points.w is None else _native(points.w, gaussian, exact)
    y, yscale = (None, 1) if points.y is None else _native(points.y, any(s.im for s in points.y), exact)
    return _Lifted(x, w, y, fixed, exact, xscale, wscale, yscale)


def _native(values, gaussian, exact):
    """Scalar `values` as native numbers of one type, and the factor by
    which they were scaled: float values become float or, if `gaussian`,
    complex, with the factor 1; exact values are multiplied by the lcm of the
    denominators of their parts, to ints or, if `gaussian`, `_Gaussian`s
    with int parts."""
    if not exact:
        if gaussian:
            return [complex(v.value) for v in values], 1
        return [v.value.real for v in values], 1
    scale = lcm(*(part.denominator for v in values for part in (v.re, v.im)))
    up = lambda part: part.numerator * (scale // part.denominator)
    if gaussian:
        return [_Gaussian(up(v.re), up(v.im)) for v in values], scale
    return [up(v.re) for v in values], scale


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


@lru_cache(maxsize=None)
def _walker(n, size, fixed, weighted, columns=False):
    """The subset walk of n partitions over `size`-point subsets, compiled
    once per signature into straight-line code, as a function of (x, w, lams,
    schur, vandermonde): the lifted points and weights, the n partitions, and
    the Schur and Vandermonde functions to call.

    It walks the subsets that hold the last `fixed` points in lexicographic
    order, with `combinations` over the other points, and the weights beside
    them, so points and weights come without indexing.  Each subset x_l costs
    one `vandermonde` call, times the subset's weights in subset order, and one
    `schur` call per partition: u_i = schur(lams[i], x_l) * v.  The walk
    returns the n(n+1)/2 upper-triangle sums of u_i conj(u_j), row by row,
    each kept in its own local from the int 0 on, and the number of subsets.
    With `columns` it returns instead one (label, u_0, ..., u_{n-1}) per
    subset, the label being the subset's 1-based point numbers.
    """
    k = size - fixed  # points chosen besides the fixed ones
    pairs = [f"s{i}_{j}" for i in range(n) for j in range(i, n)]
    lines = [
        "def walk(x, w, lams, schur, vandermonde):",
        "    " + "".join(f"lam{i}, " for i in range(n)) + "= lams",
        f"    m = len(x) - {fixed}",
        "    out = []" if columns else f"    {' = '.join(pairs)} = 0",
    ]
    if k >= 0:
        targets, sources = ["head" if fixed else "pts"], [f"combinations(x[:m], {k})"]
        if weighted and k:
            targets.append("(" + "".join(f"q{i}, " for i in range(k)) + ")")
            sources.append(f"combinations(w[:m], {k})")
        if columns:
            targets.append("label")
            sources.append(f"combinations(range(1, m + 1), {k})")
        if fixed:
            lines.append("    tail, tail_label = tuple(x[m:]), tuple(range(m + 1, len(x) + 1))")
        if fixed and weighted:
            lines.append("    " + "".join(f"q{i}, " for i in range(k, size)) + "= w[m:]")
        if len(sources) == 1:
            lines.append(f"    for {targets[0]} in {sources[0]}:")
        else:
            lines.append(f"    for {', '.join(targets)} in zip({', '.join(sources)}):")
        if fixed:
            lines.append("        pts = head + tail")
        lines.append("        v = vandermonde(pts)")
        if weighted:
            lines += [f"        v = v * q{i}" for i in range(size)]
        lines += [f"        u{i} = schur(lam{i}, pts) * v" for i in range(n)]
        if columns:
            label = "label + tail_label" if fixed else "label"
            lines.append(f"        out.append(({label}, {''.join(f'u{i}, ' for i in range(n))}))")
        else:
            lines += [f"        c{i} = u{i}.conjugate()" for i in range(n)]
            lines += [f"        s{i}_{j} = s{i}_{j} + u{i} * c{j}" for i in range(n) for j in range(i, n)]
    if columns:
        lines.append("    return out")
    else:
        lines.append(f"    return ({''.join(f'{s}, ' for s in pairs)}), {'comb(m, %d)' % k if k >= 0 else 0}")
    signature = f"n={n} size={size} fixed={fixed} weighted={weighted} columns={columns}"
    return _compiled("walk", signature, lines, combinations=combinations, comb=comb)


def _hermitian_sum(lifted, lams, size):
    """Sum of u u* over the `size`-point subsets of the lifted points (see
    `_walker`) as an n x n Scalar matrix, n = len(lams), and the count
    n^2 * #subsets.

    The walk reads `schur` and `vandermonde` here, at call time, where a
    tracer can wrap them.  The sum runs in the lifted type and each entry
    (i, j) is wrapped once, divided by the lift's scaling of u_i conj(u_j).
    Only the upper triangle is summed; the lower one is its conjugate.
    """
    n = len(lams)
    walk = _walker(n, size, lifted.fixed, lifted.w is not None)
    upper, count = walk(lifted.x, lifted.w, lams, schur, vandermonde)
    scales = [_lift_factor(lifted, lam, size) for lam in lams]
    out = [[None] * n for _ in range(n)]
    sums = iter(upper)
    for i in range(n):
        for j in range(i, n):
            out[i][j] = _wrap(next(sums), lifted.exact, scales[i] * scales[j])
            if j > i:
                out[j][i] = out[i][j].conj()
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


def _moment_sums(d, lifted, start):
    """T_j = sum_k |w_k|^2 conj(x_k)^{d_j} y_k over the lifted points from the
    0-based index `start` on, each summed in the lifted type and wrapped once,
    divided by the lift's scaling xscale^{d_j} yscale wscale^2."""
    x, w, y = lifted.x, lifted.w, lifted.y
    t = [0] * len(d)
    for k in range(start, len(x)):
        xbar, wy = x[k].conjugate(), y[k]
        if w is not None:
            wy = _mag_sq(w[k]) * wy
        for j, dj in enumerate(d):
            t[j] = t[j] + scalar_pow(xbar, dj) * wy
    scale = lifted.yscale * lifted.wscale**2
    return [_wrap(tj, lifted.exact, lifted.xscale**dj * scale) for tj, dj in zip(t, d)]


def _mag_sq(v):
    """|v|^2 of a native number, as `Scalar.mag_sq` forms it."""
    return v.real * v.real + v.imag * v.imag


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


def _aggregates(d, lifted):
    """D, S, T and the evaluation count of the lifted points (see `_lift`).
    With lifted.fixed = 1, the increments from appending the last point
    instead: D and S summed over the subsets that hold it, and T of that
    point alone.
    """
    dvalue, evals_d = _denominator_sum(d, lifted)
    s, evals_s = _minor_matrix(d, lifted)
    t = _moment_sums(d, lifted, len(lifted.x) - 1 if lifted.fixed else 0)
    return dvalue, s, t, evals_d + evals_s


def _quotients(d, x, numerators, dvalue):
    """a_i = N_i / D, or None when D vanishes (see `_zero_denominator`);
    OverflowError if a float a_i, or the degeneracy floor, is not finite."""
    if _zero_denominator(dvalue, d, x):
        return None
    return _finite("a coefficient", [ni / dvalue for ni in numerators])


def _zero_denominator(dvalue, d, x):
    """Degeneracy test: D exactly zero in either mode, or a float |D| below a
    scale-aware floor; OverflowError if that floor leaves the float range."""
    if dvalue.exact or not dvalue:
        return not dvalue
    scale = max((abs(xk) for xk in x), default=1.0)
    n = len(d)
    try:
        floor = 1e-12 * scale ** (2 * lambda_from_degrees(d).weight + n * (n - 1))
    except OverflowError:
        raise OverflowError("the degeneracy floor of D is not finite in float arithmetic") from None
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
    data set when present.  In float mode, a D, S, T, N, coefficient or
    degeneracy floor of D beyond the float range raises OverflowError.
    """
    n = len(d)
    _require_points(n, data)
    lifted = _lift(data)
    dvalue, s, t, evaluations = _aggregates(d, lifted)
    numerators = _checked_numerators(dvalue, s, t)
    a = _quotients(d, data.x, numerators, dvalue)
    if a is None:
        raise NonUniqueSolutionError(
            "denominator vanishes: the model matrix is rank deficient "
            f"(need at least {n} distinct positive real x values, or more "
            "generally an injective design matrix)"
        )
    residual_sq, r = _residual_sum(d, lifted, a)
    return FitResult(
        coefficients=a,
        denominator=dvalue,
        numerators=numerators,
        residual_sq=residual_sq,
        residual=_residual_root(lifted.w, r, residual_sq),
        evaluations=evaluations,
    )


def _residual_sum(d, lifted, a):
    """The squared minimal distance ||y - A a||_W^2 of the coefficients `a`
    as a Scalar, summed directly as sum_k |w_k|^2 |r_k|^2 on the lifted
    points, and the lifted residuals R_k.

    With a_j = A_j / q over one common denominator q (q = 1 in float mode),
    R_k = r_k yscale q xscale^{d_1} = Y_k q xscale^{d_1} - sum_j yscale
    xscale^{d_1 - d_j} A_j X_k^{d_j} is an int or Gaussian int in exact mode,
    and the sum is wrapped once, divided by (wscale yscale q xscale^{d_1})^2.
    Float mode multiplies by no scale: every scale is 1 there, and a product
    of a complex number with the int 1 can flip the sign of a zero part.

    The shorter identity ||y||_W^2 - Re<(WA)* W y | a> is a difference of two
    nearly equal numbers; in binary64 it can leave pure rounding noise, even a
    negative value, where the fit is exact.
    """
    exact, w = lifted.exact, lifted.w
    c, q = _native(a, any(aj.im for aj in a), exact)
    scale = q * lifted.xscale ** d[0]
    if exact:
        c = [lifted.yscale * lifted.xscale ** (d[0] - dj) * cj for cj, dj in zip(c, d)]
    r, total = [], 0
    for k, (xk, rk) in enumerate(zip(lifted.x, lifted.y)):
        if exact:
            rk = rk * scale
        for cj, dj in zip(c, d):
            rk = rk - cj * scalar_pow(xk, dj)
        r.append(rk)
        sq = _mag_sq(rk)
        total = total + (sq if w is None else sq * _mag_sq(w[k]))
    return _wrap(total, exact, (lifted.wscale * lifted.yscale * scale) ** 2), r


def _residual_root(w, r, residual_sq):
    """The minimal distance ||y - A a||_W as a float, from the lifted weights
    w (or None) and residuals r and their weighted square sum; inf or 0 only
    when the distance itself is beyond the float range.

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
    return hypot(*(abs(rk) * (1.0 if w is None else abs(w[k])) for k, rk in enumerate(r)))


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
    """Append the column (-1)^(i+1) u_i (1-based i) for each (n-1)-subset
    that the walker lists (see `_walker`), labelled by its 1-based points;
    float mode divides by sqrt(D) before wrapping, exact mode by the lift's
    scaling of u_i.  Like `_hermitian_sum`, it passes the walker `schur` and
    `vandermonde` as bound here at call time."""
    root = b.denominator_root if b.normalized else None
    lams, size = _drops(d), len(d) - 1
    scales = [_lift_factor(lifted, lam, size) for lam in lams]
    walk = _walker(len(lams), size, lifted.fixed, lifted.w is not None, columns=True)
    for label, *u in walk(lifted.x, lifted.w, lams, schur, vandermonde):
        b.columns.append(label)
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
    square root ever appears.  In float mode an entry beyond the float range
    raises OverflowError (`_finite`).  The projection onto the model's column
    space is `design_matrix(d, data.x)` times this operator.
    """
    dvalue, lifted = _checked_denominator(d, data)
    s, _ = _minor_matrix(d, lifted)
    out = [[None] * data.m for _ in range(len(d))]
    for k, row in enumerate(design_matrix(d, data.x)):
        col = _signed_numerators(s, [v.conj() for v in row])
        wsq = data.weight_sq(k)
        for i, ci in enumerate(col):
            out[i][k] = ci * wsq / dvalue
    return [_finite("an entry of the pseudoinverse", row) for row in out]
