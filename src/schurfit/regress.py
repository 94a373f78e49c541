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
(number kind, number of partitions, subset size, fixed points, weighted):
straight-line code that walks the subsets in lexicographic order, forms the
vector u_i = w_l s_{lam_i}(x_l) V(x_l) for each subset l, and either keeps
the upper triangle of the sum of u u* in locals (`_hermitian_sum`, which
sums D on the n-subsets with lam and S on the (n-1)-subsets with the drops'
partitions, both read off the exponents) or lists the u vectors with their
labels, which `_append_b_columns` turns into B's signed columns.  Its one
body is written by `symfunc._assign` in the code
kind that the number kind sets.  Real data takes no conjugates.  For exact
Gaussian data, the slow kind when every step makes a `_Gaussian`, the same
statements run on int pairs, each Schur value, V and weight unpacked into
int locals, and make one `_Gaussian` of each sum or B entry.  The
pseudoinverse B B* A* uses B B* = (-1)^(i+j) S_{i,j} / D and so never
builds B.

The walker computes on plain numbers: `_lift` converts points, weights and
targets once per public call to float or complex, or scales exact ones to
int or Gaussian-int pairs, and `_wrap` turns each sum or B entry back into a
Scalar, undoing that scaling with one exact division.  The moment sums T and
the residual norm are summed on the same lifted numbers and wrapped once
each; D, S, T, the numerators and the coefficients are Scalars.  The walker
calls `schur` and `vandermonde` once per subset and partition, as the
callers pass them from the names bound here, read at call time, where a
tracer can wrap them.  The lifted points of one walk share one type, float,
complex, int or `_Gaussian`, and `symfunc` keeps code tables per point type,
built for the type's mode, so a walk's Schur calls never re-decide a band's
route.
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
from .partitions import lambda_from_degrees
from .symfunc import _assign, _compiled, _split, _value, schur, vandermonde


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


@lru_cache(maxsize=None)
def _partitions_of(d):
    """The walks' partitions of the exponent tuple d, made once per tuple:
    (lam,) for D and the n partitions lam[i] of its drops for S.  Each
    partition keeps its own table of generated Schur code
    (`Partition._codes`), which a new one would fill again on every fit."""
    return (lambda_from_degrees(d),), tuple(lambda_from_degrees(d[:i] + d[i + 1 :]) for i in range(len(d)))


# points, weights and targets in the kernel's number type, and the factors by
# which exact ones were scaled to integers; see `_lift`
_Lifted = namedtuple("_Lifted", "x w y fixed exact kind xscale wscale yscale")


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
    that every subset must hold, and kind is the type of the lifted x and w:
    float, complex, int or `_Gaussian`.
    """
    exact = points.exact
    gaussian = any(s.im for s in (*points.x, *(points.w or ())))
    x, xscale = _native(points.x, gaussian, exact)
    w, wscale = (None, 1) if points.w is None else _native(points.w, gaussian, exact)
    y, yscale = (None, 1) if points.y is None else _native(points.y, any(s.im for s in points.y), exact)
    kind = (_Gaussian if exact else complex) if gaussian else (int if exact else float)
    return _Lifted(x, w, y, fixed, exact, kind, xscale, wscale, yscale)


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
def _walker(kind, n, size, fixed, weighted, columns=False):
    """The subset walk of n partitions over `size`-point subsets of lifted
    points of the number type `kind`, compiled once per signature into
    straight-line code, as a function of (x, w, lams, schur, vandermonde):
    the lifted points and weights, the n partitions, and the Schur and
    Vandermonde functions to call.

    It walks the subsets that hold the last `fixed` points in lexicographic
    order, with `combinations` over the other points, and the weights beside
    them, so points and weights come without indexing.  Each subset x_l costs
    one `vandermonde` call, times the subset's weights in subset order, and one
    `schur` call per partition: u_i = schur(lams[i], x_l) * v.  The walk
    returns the n(n+1)/2 upper-triangle sums of u_i conj(u_j), row by row,
    each kept in its own local from the int 0 on, and the number of subsets.
    With `columns` it returns instead one (label, u_0, ..., u_{n-1}) per
    subset, the label being the subset's 1-based point numbers.

    Every statement is written by `symfunc._assign`, in the code kind of
    the points.  For float and int points it is "real", which writes
    u_i conj(u_j) as u_i * u_j: their Schur values, V and weights are real.
    For `_Gaussian` points, whose u are `_Gaussian`s whenever a subset holds
    two points or a weight, it is "pairs": the walk unpacks each Schur
    value, V and weight into its int parts and keeps u and the sums as pairs
    of int locals; each sum becomes one `_Gaussian` at the end, or stays the
    int 0 if no subset was walked.  Other walks are "complex", with
    .conjugate() calls.
    """
    k = size - fixed  # points chosen besides the fixed ones
    pairs = kind is _Gaussian and k >= 0 and (size > 1 or weighted and size > 0)
    code = "pairs" if pairs else "real" if kind in (float, int) else "complex"
    ij = [(i, j) for i in range(n) for j in range(i, n)]
    sums, weights = [f"s{i}_{j}" for i, j in ij], [f"q{i}" for i in range(size if weighted else 0)]
    lines = [
        "def walk(x, w, lams, schur, vandermonde):",
        "    " + "".join(f"lam{i}, " for i in range(n)) + "= lams",
        f"    m = len(x) - {fixed}",
        "    out = []" if columns else f"    {' = '.join(f'{s}r = {s}i' if pairs else s for s in sums)} = 0",
    ]
    body = "        "
    if k >= 0:
        targets, sources = ["head" if fixed else "pts"], [f"combinations(x[:m], {k})"]
        if weights and k:
            targets.append("(" + "".join(f"{q}, " for q in weights[:k]) + ")")
            sources.append(f"combinations(w[:m], {k})")
        if columns:
            targets.append("label")
            sources.append(f"combinations(range(1, m + 1), {k})")
        if fixed:
            lines.append("    tail, tail_label = tuple(x[m:]), tuple(range(m + 1, len(x) + 1))")
        if fixed and weights:
            lines += ["    " + "".join(f"{q}, " for q in weights[k:]) + "= w[m:]", *_split(weights[k:], code)]
        if len(sources) == 1:
            lines.append(f"    for {targets[0]} in {sources[0]}:")
        else:
            lines.append(f"    for {', '.join(targets)} in zip({', '.join(sources)}):")
        if weights and k:
            lines += _split(weights[:k], code, body)
        if fixed:
            lines.append(f"{body}pts = head + tail")
        lines += [f"{body}v = vandermonde(pts)", *_split(["v"], code, body)]
        for q in weights:
            _assign(lines, "v", [(1, "v", q)], code, body)
        for i in range(n):
            lines += [f"{body}t{i} = schur(lam{i}, pts)", *_split([f"t{i}"], code, body)]
            _assign(lines, f"u{i}", [(1, f"t{i}", "v")], code, body)
        if columns:
            label = "label + tail_label" if fixed else "label"
            u = "".join(_value(f"u{i}", code) + ", " for i in range(n))
            lines.append(f"{body}out.append(({label}, {u}))")
        else:
            for i, j in ij:
                _assign(lines, f"s{i}_{j}", [(1, f"s{i}_{j}"), (1, f"u{i}", f"~u{j}")], code, body)
    if columns:
        lines.append("    return out")
    else:
        # u_i conj(u_i) is real, so `_assign` never sets the imaginary part
        # of a diagonal pair sum; it is 0 in the type of the real part: int,
        # or Fraction after a division in `det` (an elimination of order 4 or
        # more on the e-form or the h-form).  An empty walk's sums stay 0.
        lines += [f"    s{i}_{i}i = 0 * s{i}_{i}r" for i in range(n) if pairs]
        values = "".join(f"{_value(s, code)}, " for s in sums)
        count = f"comb(m, {k})" if k >= 0 else "0"
        lines.append(f"    return (({values}) if m >= {k} else ({'0, ' * len(sums)})), {count}")
    signature = f"n={n} size={size} fixed={fixed} weighted={weighted} columns={columns} {kind.__name__}"
    return _compiled("walk", signature, lines, combinations=combinations, comb=comb)


def _hermitian_sum(d, lifted, size):
    """The sum of u u* over the `size`-point subsets of the lifted points
    (see `_walker`) for the exponents d, as an n x n Scalar matrix, and the
    count n^2 * #subsets.  On the len(d)-point subsets u = w_l s_lam(x_l)
    V(x_l), and the 1 x 1 sum is D; on the (len(d) - 1)-point subsets
    u_i = w_l s_{lam[i]}(x_l) V(x_l) for the n partitions of d's drops, and
    the sums are the minor sums S_{i,j}.  The partitions come from
    `_partitions_of`, made once per exponent tuple.

    The walk, the one compiled for the lifted kind, reads `schur` and
    `vandermonde` here, at call time, where a tracer can wrap them.  The sum
    runs in the lifted type, on int pairs for Gaussian data, and each entry
    (i, j) is wrapped once, divided by the lift's scaling of u_i conj(u_j).
    Only the upper triangle is summed; the lower one is its conjugate.
    """
    lams = _partitions_of(tuple(d))[size < len(d)]
    n = len(lams)
    walk = _walker(lifted.kind, n, size, lifted.fixed, lifted.w is not None)
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


def _moment_sums(d, lifted, start):
    """T_j = sum_k |w_k|^2 conj(x_k)^{d_j} y_k over the lifted points from the
    0-based index `start` on, each summed in the lifted type, or on int pairs
    for Gaussian data (`_pair_pow`), and wrapped once, divided by the lift's
    scaling xscale^{d_j} yscale wscale^2."""
    x, w, y = lifted.x, lifted.w, lifted.y
    t, ti = [0] * len(d), [0] * len(d)
    for k in range(start, len(x)):
        xbar, wy = x[k].conjugate(), y[k]
        if w is not None:
            wy = _mag_sq(w[k]) * wy
        for j, dj in enumerate(d):
            if lifted.kind is _Gaussian:
                (p, q), c, e = _pair_pow(xbar.real, xbar.imag, dj), wy.real, wy.imag
                t[j], ti[j] = t[j] + p * c - q * e, ti[j] + p * e + q * c
            else:
                t[j] = t[j] + scalar_pow(xbar, dj) * wy
    if lifted.kind is _Gaussian:
        t = map(_Gaussian, t, ti)
    scale = lifted.yscale * lifted.wscale**2
    return [_wrap(tj, lifted.exact, lifted.xscale**dj * scale) for tj, dj in zip(t, d)]


def _pair_pow(a, b, e):
    """(a + b i)^e for ints a, b and e >= 0 as an int pair, by the repeated
    squaring of `scalar_pow` without a `_Gaussian` per step."""
    re, im = 1, 0
    while e:
        if e & 1:
            re, im = re * a - im * b, re * b + im * a
        a, b, e = a * a - b * b, 2 * a * b, e >> 1
    return re, im


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
    [[dvalue]], evals_d = _hermitian_sum(d, lifted, len(d))
    s, evals_s = _hermitian_sum(d, lifted, len(d) - 1)
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
    try:  # D has degree 2 |lam| + n (n - 1) = 2 sum(d) in x
        floor = 1e-12 * scale ** (2 * sum(d))
    except OverflowError:
        raise OverflowError("the degeneracy floor of D is not finite in float arithmetic") from None
    return abs(float(dvalue.re)) <= floor


def denominator(d, data):
    """The real non-negative denominator D = det((WA)*WA) as a subset sum."""
    _require_points(len(d), data)
    [[total]], _ = _hermitian_sum(d, _lift(data), len(d))
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
    s, _ = _hermitian_sum(d, _lift(data), n - 1)
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
        if lifted.kind is _Gaussian:  # on int pairs (`_pair_pow`)
            re, im = rk.real, rk.imag
            for cj, dj in zip(c, d):
                p, q = _pair_pow(xk.real, xk.imag, dj)
                re, im = re - cj.real * p + cj.imag * q, im - cj.real * q - cj.imag * p
            rk = _Gaussian(re, im)
        else:
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
    [[dvalue]], _ = _hermitian_sum(d, lifted, len(d))
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
    lams, size = _partitions_of(tuple(d))[1], len(d) - 1
    scales = [_lift_factor(lifted, lam, size) for lam in lams]
    walk = _walker(lifted.kind, len(lams), size, lifted.fixed, lifted.w is not None, columns=True)
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
    s, _ = _hermitian_sum(d, lifted, len(d) - 1)
    out = [[None] * data.m for _ in range(len(d))]
    for k, row in enumerate(design_matrix(d, data.x)):
        col = _signed_numerators(s, [v.conj() for v in row])
        wsq = data.weight_sq(k)
        for i, ci in enumerate(col):
            out[i][k] = ci * wsq / dvalue
    return [_finite("an entry of the pseudoinverse", row) for row in out]
