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
matrix -- sums over subsets l the vector u_i = w_l s_{lam_i}(x_l) V(x_l),
with lam from the exponents d on the n-point subsets (D = sum |u|^2) and
the partitions of d's drops on the (n-1)-point subsets (S_{i,j} = sum
u_i conj(u_j)).  Each u_i is a minor of the weighted design matrix WA:
w_l s_lam(x_l) V(x_l) = det(w_k x_k^{d_j}) over the points k of l, the
paper's identity.  So exact points take `_minors_walk`, generated code that
walks the subsets in lexicographic order as nested loops over the lifted
rows w_k X_k^{d_j} and builds the minors of each prefix from those of the
prefix one row shorter, by Laplace expansion along the new row: one walk
gives D and S, or B's columns, with no Schur or Vandermonde call and no
division.  Float and complex points take the subset walkers instead, since
the expansion cancels in binary64; so do exact points of more than
MINORS_MAX_TERMS terms, for which the walk's code of 2^n statements would
take seconds to compile.  A batch takes `_walker`, generated code that calls
`schur` and `vandermonde` once per subset and partition; the subsets of an
appended point take `_appended_walker`, one generated loop nest that inlines
the straight-line Schur and V statements of `symfunc`, each in the outermost
loop that binds the points it reads, to the same bits, and calls neither
name.  Each walk keeps the upper triangle of its sums in locals (`_sums`) or
lists the u vectors with their subsets' labels, which `_append_b_columns`
turns into B's signed columns.  Their statements are
written by `symfunc._assign` in the code kind that the number kind sets:
real data takes no conjugates, and the minors of exact Gaussian data are
pairs of int locals, which make one `_Gaussian` of each sum or B entry.
The pseudoinverse B B* A* uses B B* = (-1)^(i+j) S_{i,j} / D and so never
builds B.

The walks compute on plain numbers, and a value becomes a Scalar only where
it is stored or reported.  `_lift` converts points, weights and targets once
per batch call to float or complex, or scales exact ones to int or
Gaussian-int pairs.  A stream keeps the lift of its points, and an append
extends it by the new point alone (`_extended`), lifted as `_lift` would
lift it among the others; a point that would change how they lift, such as
an exact part with a new denominator, lifts every point again.  `_normal`
brings each sum back to the native value of a Scalar, undoing that scaling
with one exact division, and `_wrap` makes it a Scalar.  The moment sums T
and the residual norm are summed on the same lifted numbers.  `_aggregates`
gives D, S and T as such native values, on which an append adds its
increments and derives N (`incremental`), a float fit derives N and wraps
only the D and N it reports, and `pseudoinverse` forms each entry, wrapped
once; the one Scalar operation per coefficient is a_i = N_i / D
(`_quotients`).  An exact fit (`_exact_fit`) goes further: the lift scales
every term of a numerator N_i alike, so N_i, a_i = N_i / D and the residuals
are formed on the lifted ints, and each value it reports is wrapped once,
one Fraction per nonzero part.  Exact powers X_k^{d_j} and the rows built of
them are raised once per lift and kept in it (`_kept`), where a stream's
lift keeps them from one append to the next; a float fit raises the powers
of its real points once (`_powers`).  The rows, T and the residuals share
them.  `_walker` calls `schur` and `vandermonde` as the names bound here,
read at call time, where a tracer can wrap them, so a traced batch fit
counts its subsets from those calls; an append's subsets are counted by its
loop nest's trip counts, in the evaluation count.  The lifted points of one
walk share one type, float, complex, int or `_Gaussian`, and `symfunc` keeps
code tables per point type, built for the type's mode, so a walk's Schur
calls never re-decide a band's route.
"""

from __future__ import annotations

from cmath import isfinite
from collections import namedtuple
from dataclasses import dataclass
from itertools import combinations
from fractions import Fraction
from functools import lru_cache
from math import comb, hypot, inf, isqrt, lcm, sqrt
from operator import attrgetter
from sys import float_info

from .numeric import Scalar, ScalarModeError, _Gaussian, scalar_pow
from .partitions import lambda_from_degrees
from .symfunc import UNROLL_MAX_POINTS, _assign, _band, _compiled, _determinant, _elementary, _offsets, _schur_of, _top
from .symfunc import _value, _vandermonde_of, schur, vandermonde


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
    """`_walker`'s partitions of the exponent tuple d, made once per tuple:
    (lam,) for D and the n partitions lam[i] of its drops for S.  Each
    partition keeps its own table of generated Schur code
    (`Partition._codes`), which a new one would fill again on every fit."""
    return (lambda_from_degrees(d),), tuple(lambda_from_degrees(d[:i] + d[i + 1 :]) for i in range(len(d)))


# points, weights and targets in the kernel's number type, the factors by
# which exact ones were scaled to integers (see `_lift`), and the powers and
# rows that `_kept` raises of exact ones
_Lifted = namedtuple("_Lifted", "x w y fixed exact kind xscale wscale yscale powers rows", defaults=(None, None))


def _lift(points, fixed=0):
    """x, w and y of `points` (a DataSet or a stream's points), lifted to
    native numbers; a y of None, as `incremental.extend_b_matrix` passes,
    stays None.

    Every point shares the mode `points.exact`: each was checked once, where
    it entered, by `DataSet`, by `incremental._appended` or, for a restored
    snapshot, by parsing in one mode.  The lift reads the mode off
    `points.exact` and checks nothing.

    x and w share one number kind, complex if the value of any x or w has a
    nonzero imaginary part (`_complex`), since the walker multiplies them; y
    takes its own, as it meets them only in products.
    Exact x is scaled by xscale, the lcm of the denominators of its real and
    imaginary parts, w by wscale and y by yscale, the same lcm over the
    weights and over the targets; float data keeps the scales 1 (see
    `_native`).  In the record, fixed (0 or 1) counts the trailing points
    that every subset must hold, and kind is the type of the lifted x and w:
    float, complex, int or `_Gaussian`.  It holds no powers or rows until
    `_kept` raises them.
    """
    exact = points.exact
    x, w, y = ([s.value for s in v] if v is not None else None for v in (points.x, points.w, points.y))
    gaussian = _complex(x) or w is not None and _complex(w)
    x, xscale = _native(x, gaussian, exact)
    w, wscale = (None, 1) if w is None else _native(w, gaussian, exact)
    y, yscale = (None, 1) if y is None else _native(y, _complex(y), exact)
    kind = (_Gaussian if exact else complex) if gaussian else (int if exact else float)
    return _Lifted(x, w, y, fixed, exact, kind, xscale, wscale, yscale)


def _complex(values):
    """Whether a native value has a nonzero imaginary part."""
    return any(map(attrgetter("imag"), values))


def _native(values, gaussian, exact):
    """Native `values` as numbers of one type, and the factor by which they
    were scaled: float values become float or, if `gaussian`, complex, with
    the factor 1; exact values, Fractions or `_Gaussian`s of Fractions, are
    multiplied by the lcm of the denominators of their parts, to ints or, if
    `gaussian`, `_Gaussian`s with int parts.  One pass reads each part's
    numerator and denominator together, a Fraction being its own real
    part."""
    if not exact:
        return ([complex(v) for v in values] if gaussian else [v.real for v in values]), 1
    if gaussian:
        ratios = [(v.as_integer_ratio(), (0, 1)) if type(v) is Fraction else (v.real.as_integer_ratio(), v.imag.as_integer_ratio()) for v in values]
        scale = lcm(*(q for pair in ratios for _, q in pair))
        return [_Gaussian(a * (scale // b), c * (scale // e)) for (a, b), (c, e) in ratios], scale
    ratios = [(v if type(v) is Fraction else v.real).as_integer_ratio() for v in values]
    scale = lcm(*(q for _, q in ratios))
    return [p * (scale // q) for p, q in ratios], scale


def _extended(d, lifted, x, w, y):
    """`lifted` with one more point last, of the native values x, w and y,
    each lifted as `_lift` lifts it among the others, and with fixed = 1; a
    y of None, as `incremental.extend_b_matrix` passes, leaves y out.  The
    kept powers and rows (`_kept`) grow by the new point's, raised for the
    exponents d.  Every list is a new one, so `lifted` stays as it was.

    None if the point would change how the other points lift: a weight on
    unweighted points or the reverse, a complex x or w on real ones, a
    complex y on real targets, or an exact part whose denominator does not
    divide the scale of its vector."""
    exact, kind, ys = lifted.exact, lifted.kind, lifted.y
    gaussian = kind is complex or kind is _Gaussian
    ygaussian = bool(ys) and type(ys[0]) in (complex, _Gaussian)
    if (w is None) != (lifted.w is None) or not gaussian and (x.imag or w is not None and w.imag):
        return None
    if y is not None and y.imag and not ygaussian:
        return None
    scales, powers, rows = (lifted.xscale, lifted.wscale, lifted.yscale), None, None
    if exact:
        new = []
        for v, vgaussian, scale in zip((x, w, y), (gaussian, gaussian, ygaussian), scales):
            if v is not None:
                (v,), own = _native([v], vgaussian, exact)
                if scale % own:
                    return None
                v = [v if own == scale else v * (scale // own)]
            new.append(v)
        point = _kept(d, _Lifted(*new, 1, exact, kind, *scales))
        x, w, y = new
        powers, rows = lifted.powers + point.powers, point.rows and lifted.rows + point.rows
    else:  # as `_native` lifts float values, each alone, with the scale 1
        x = [complex(x) if gaussian else x.real]
        w = None if w is None else [complex(w) if gaussian else w.real]
        y = None if y is None else [complex(y) if ygaussian else y.real]
    return _Lifted(lifted.x + x, w and lifted.w + w, y and ys + y, 1, exact, kind, *scales, powers, rows)


def _lift_factor(lifted, degrees):
    """The factor by which the lift scales a minor det(w_k x_k^{d_j}) of the
    weighted design matrix over the columns of `degrees` (a u of `_sums` or
    `_append_b_columns`): each of its len(degrees) rows carries one weight,
    and each column j the power d_j of x."""
    return lifted.xscale ** sum(degrees) * lifted.wscale ** len(degrees)


def _normal(v, exact, scale=1):
    """A kernel value as the native value of a Scalar of the data's mode:
    exact values are divided by `scale` to undo the lift, one Fraction per
    nonzero part, and a real one stays a Fraction; float values keep float
    parts, complex only when the imaginary part is nonzero, as
    `Scalar.from_float` forms them."""
    if exact:
        re = Fraction(v.real, scale)
        return _Gaussian(re, Fraction(v.imag, scale)) if v.imag else re
    return v if v.imag else float(v.real)


def _wrap(v, exact, scale=1):
    """A kernel value as a Scalar of the data's mode (`_normal`)."""
    return Scalar(_normal(v, exact, scale), exact)


def _for(targets, sources):
    """The head of a loop that binds each of `targets` to the items of its
    source, zipped if there is more than one."""
    loop = sources[0] if len(sources) == 1 else f"zip({', '.join(sources)})"
    return f"for {', '.join(targets)} in {loop}:"


@lru_cache(maxsize=None)
def _walker(kind, n, size, weighted, columns=False):
    """The subset walk of n partitions over all `size`-point subsets of
    lifted points of the number type `kind`, compiled once per signature
    into straight-line code, as a function of (x, w, lams, schur,
    vandermonde): the lifted points and weights, the n partitions, and the
    Schur and Vandermonde functions to call.  A batch takes it; the subsets
    of an appended point take `_appended_walker`.

    It walks the subsets in lexicographic order, with `combinations` over
    the points, and the weights beside them, so points and weights come
    without indexing.  Each subset x_l costs one `vandermonde` call, times
    the subset's weights in subset order, and one `schur` call per
    partition: u_i = schur(lams[i], x_l) * v.  The walk returns the
    n(n+1)/2 upper-triangle sums of u_i conj(u_j), row by row, each kept in
    its own local from the int 0 on, and the number of subsets.  With
    `columns` it returns instead one (label, u_0, ..., u_{n-1}) per subset,
    the label being the subset's 1-based point numbers.

    Every statement is written by `symfunc._assign`: in the "real" code kind
    for float and int points, which writes u_i conj(u_j) as u_i * u_j, their
    Schur values, V and weights being real, and in the "complex" kind, with
    .conjugate() calls, for complex and `_Gaussian` points.  Exact points
    reach it only with more than MINORS_MAX_TERMS terms (see `_sums`).
    """
    code = "real" if kind in (float, int) else "complex"
    ij = [(i, j) for i in range(n) for j in range(i, n)]
    sums, weights = [f"s{i}_{j}" for i, j in ij], [f"q{i}" for i in range(size if weighted else 0)]
    lines = [
        "def walk(x, w, lams, schur, vandermonde):",
        "    " + "".join(f"lam{i}, " for i in range(n)) + "= lams",
        "    m = len(x)",
        "    out = []" if columns else f"    {' = '.join(sums)} = 0",
    ]
    body = "        "
    targets, sources = ["pts"], [f"combinations(x, {size})"]
    if weights:
        targets.append("(" + "".join(f"{q}, " for q in weights) + ")")
        sources.append(f"combinations(w, {size})")
    if columns:
        targets.append("label")
        sources.append(f"combinations(range(1, m + 1), {size})")
    lines += ["    " + _for(targets, sources), f"{body}v = vandermonde(pts)"]
    for q in weights:
        _assign(lines, "v", [(1, "v", q)], code, body)
    for i in range(n):
        lines.append(f"{body}t{i} = schur(lam{i}, pts)")
        _assign(lines, f"u{i}", [(1, f"t{i}", "v")], code, body)
    if columns:
        lines.append(f"{body}out.append((label, {''.join(f'u{i}, ' for i in range(n))}))")
        lines.append("    return out")
    else:
        for i, j in ij:
            _assign(lines, f"s{i}_{j}", [(1, f"s{i}_{j}"), (1, f"u{i}", f"~u{j}")], code, body)
        lines.append(f"    return ({''.join(f'{s}, ' for s in sums)}), comb(m, {size})")
    signature = f"n={n} size={size} weighted={weighted} columns={columns} {kind.__name__}"
    return _compiled("walk", signature, lines, combinations=combinations, comb=comb)


@lru_cache(maxsize=None)
def _appended_walker(kind, lams, size, weighted, columns=False):
    """The walk of the partitions `lams` over the `size`-point subsets that
    hold the last of the lifted points, the appended one, of the number type
    `kind`: what `_walker` sums or lists over all subsets, here as one loop
    nest, compiled once per signature into a function of (x, w), the lifted
    points and weights.

    The appended point is the last of each subset, as in the subsets'
    lexicographic order, and is bound before the loops; the loops bind the
    other points of the subset in order, from the first m points,
    m = len(x) - 1, each stopping where too few points are left to complete
    a subset.  The statements of a
    subset are those that `symfunc` writes into the straight-line V and
    Schur code and `_walker` around its calls: V's factors, one e_k
    recursion for all partitions (`symfunc._elementary`), each band's
    cofactors (`symfunc._determinant`), the weight products, u_i and the
    sums.  Every local is assigned once, and each statement goes in the
    outermost loop that binds every point it reads, so e.g. the e_k of a
    prefix are formed once for all subsets that extend it.  A statement
    that only copies a local is not written; its readers read that local.
    So each statement is the operation it is in `_walker`'s calls, on the
    same operands, and every sum, u and float bit is theirs.

    A band with no straight-line code -- wider than 3, on more than
    UNROLL_MAX_POINTS points, or on `_Gaussian` points -- calls its compiled
    function from `symfunc`'s tables on the subset, and so does V on such
    points.  Subsets of more than UNROLL_MAX_POINTS points, with nothing to
    inline, take one `combinations` loop, as Python nests at most 20 blocks.
    The walk returns the sums and the number of subsets, counted from the
    loops' trip counts, or with `columns` the (label, u_0, ..., u_{n-1}) of
    each subset, as `_walker` does.
    """
    n, k = len(lams), size - 1  # k points besides the appended one
    code = "real" if kind in (float, int) else "complex"
    ij = [(i, j) for i in range(n) for j in range(i, n)]
    sums = [f"s{i}_{j}" for i, j in ij]
    signature = f"append {' '.join(str(lam._normalized) for lam in lams)} size={size} weighted={weighted} columns={columns} {kind.__name__}"
    if k < 0:  # no subset holds the appended point
        empty = "[]" if columns else "(" + "0, " * len(sums) + "), 0"
        return _compiled("walk", signature, ["def walk(x, w):", f"    return {empty}"])
    nested = size <= UNROLL_MAX_POINTS
    inline = nested and kind is not _Gaussian
    deep = k if nested else min(k, 1)  # the innermost loop, 0 if there is none
    z, q = [f"z{j}" for j in range(size)], [f"q{j}" for j in range(size if weighted else 0)]
    level = {"one": 0, "zero": 0, **dict.fromkeys(sums, 0)}  # the loop that binds each local
    for j in range(size):
        level[z[j]] = level[f"q{j}"] = 0 if j == k else j + 1 if nested else 1
    alias, steps, scope = {}, [], {}
    ref = lambda f: "~" + alias.get(f[1:], f[1:]) if f[0] == "~" else alias.get(f, f)

    def put(target, terms):
        terms = [(c, *map(ref, fs)) for c, *fs in terms]
        level[target] = max((level[f.lstrip("~")] for _, *fs in terms for f in fs), default=0)
        line = []
        _assign(line, target, terms, code, "")
        source = line[0].split(" = ", 1)[1]
        if source.isidentifier():
            alias[target] = source
        else:
            steps.append((level[target], line[0]))

    def call(target, function, value):  # the subset's points as a tuple, pts, first
        if not scope:
            steps.append((deep, f"pts = ({''.join(f'{p}, ' for p in z)})" if nested else f"pts = head + ({z[k]},)"))
        scope[function] = value
        level[target] = deep
        steps.append((deep, f"{target} = {function}(pts)"))

    if inline:
        v = "one"
        for t, (i, j) in enumerate([(i, j) for i in range(size) for j in range(i + 1, size)]):
            put(f"d{i}_{j}", [(1, z[i]), (-1, z[j])])
            put(f"v{t}", [(1, v, f"d{i}_{j}")])
            v = f"v{t}"
        narrow = [_offsets(lam._normalized) for lam in lams if 0 < len(lam._normalized) <= size and lam._normalized[0] <= 3]
        names = _elementary(size, max((_top(c, size) for c in narrow), default=0), put)
    else:
        call("v", "vandermonde", _vandermonde_of(kind, size))
        v = "v"
    for j, qj in enumerate(q):
        put(f"w{j}", [(1, v, qj)])
        v = f"w{j}"
    u = []
    for i, lam in enumerate(lams):
        parts, t = lam._normalized, f"t{i}"
        if not parts or len(parts) > size:  # s_() = 1; s_lam = 0 on fewer than l(lam) points
            t = "zero" if parts else "one"
        elif inline and parts[0] <= 3:
            _determinant(_band(_offsets(parts), size, names), t, put, code, f"c{i}_")
        else:
            call(t, f"band{i}", _schur_of(lam, kind, size))
        put(f"u{i}", [(1, t, v)])
        u.append(ref(f"u{i}"))
    if columns:
        labels = [f"i{j} + 1" for j in range(1, k)] + ["j"] * (k > 0) + ["m + 1"] if nested else ["*label", "m + 1"]
        steps.append((deep, f"out.append((({''.join(f'{a}, ' for a in labels)}), {''.join(f'{a}, ' for a in u)}))"))
    else:
        for s, (i, j) in zip(sums, ij):
            put(s, [(1, s), (1, f"u{i}", f"~u{j}")])
    lines = ["def walk(x, w):", "    m = len(x) - 1", f"    {', '.join([z[k], *q[k:]])} = {', '.join(['x[m]', 'w[m]'][: 1 + weighted])}"]
    lines += ["    out = []" if columns else f"    {' = '.join(sums)} = 0", f"    count = {int(k == 0)}"]
    read = {word.strip("(),~*-") for _, line in steps for word in line.split()}
    lines += [f"    {name} = {value}" for name, value in (("one", 1), ("zero", 0)) if name in read]
    indent, start, first = "    ", "0", "1"  # the loop's first index, and its 1-based label
    for depth in range(deep + 1):
        if depth and not nested:  # one loop over the subsets of the other points
            targets, sources = ["head"], [f"combinations(x[:m], {k})"]
            if weighted:
                targets.append("(" + "".join(f"{p}, " for p in q[:k]) + ")")
                sources.append(f"combinations(w[:m], {k})")
            if columns:
                targets.append("label")
                sources.append(f"combinations(range(1, m + 1), {k})")
            lines += [indent + _for(targets, sources), f"{indent}    count += 1"]
        elif depth and depth < k:
            bound, values = [z[depth - 1], *q[depth - 1 : depth]], [f"x[i{depth}]", f"w[i{depth}]"][: 1 + weighted]
            lines += [f"{indent}for i{depth} in range({start}, m - {k - depth}):", f"{indent}    {', '.join(bound)} = {', '.join(values)}"]
            start, first = f"i{depth} + 1", f"i{depth} + 2"
        elif depth:  # the innermost loop, whose trip count is the count of its subsets
            targets, sources = [z[k - 1]], ["rest"]
            if weighted:
                targets.append(q[k - 1])
                sources.append(f"w[{start}:m]")
            if columns:
                targets.insert(0, "j")
                sources.insert(0, f"range({first}, m + 1)")
            lines += [f"{indent}rest = x[{start}:m]", f"{indent}count += len(rest)", indent + _for(targets, sources)]
        indent += "    " * (depth > 0)
        lines += [indent + line for at, line in steps if at == depth]
    lines.append("    return out" if columns else f"    return ({''.join(f'{s}, ' for s in sums)}), count")
    return _compiled("walk", signature, lines, combinations=combinations, **scope)


@lru_cache(maxsize=None)
def _appended_walk(kind, d, size, weighted, columns):
    """`_appended_walker` of the partitions of the exponent tuple d, found by
    d: the key of `_appended_walker` holds Partitions, each hashed by a
    Python call on every lookup, where d's ints hash in C."""
    return _appended_walker(kind, _partitions_of(d)[size < len(d)], size, weighted, columns)


def _walked(d, lifted, size, columns=False):
    """The walk over the `size`-point subsets of the lifted points for the
    partitions of the exponent tuple d (`_partitions_of`): `_appended_walker`'s
    for the subsets that hold an appended point, else `_walker`'s, passed
    `schur` and `vandermonde` as bound here, read at call time, where a
    tracer can wrap them."""
    weighted = lifted.w is not None
    if lifted.fixed:
        return _appended_walk(lifted.kind, d, size, weighted, columns)(lifted.x, lifted.w)
    lams = _partitions_of(d)[size < len(d)]
    return _walker(lifted.kind, len(lams), size, weighted, columns)(lifted.x, lifted.w, lams, schur, vandermonde)


# The most terms for which exact sums take `_minors_walk`.  Its code holds
# one statement per column set of each prefix, 2^n in all, so its compile
# time doubles with each term: 0.05 s at n = 10 (0.15 s as Gaussian pairs),
# 0.8 s as pairs at n = 12, and 4 s and 0.5 GB at n = 14.  At n = 10, D and
# S on 10 exact points take 2.4 ms against 28 ms through Schur calls
# (Python 3.11, one process on a 2-core host).
MINORS_MAX_TERMS = 10


def _powers(d, lifted):
    """X_k^{d_j} of each lifted point k and exponent j, raised once (see
    `_kept`) and shared by the rows (`_rows`), the moment sums and the
    residuals: ints, or int pairs for `_Gaussian` points (`_pair_pow`); for
    float points `scalar_pow`'s repeated squaring, the bits that the moment
    sums, on conj(x) = x, and the residuals each got raising them on their
    own; None for complex points, whose moment sums raise conj(x) and whose
    residuals raise x."""
    if lifted.kind is complex:
        return None
    if lifted.kind is _Gaussian:
        return [[_pair_pow(xk.real, xk.imag, dj) for dj in d] for xk in lifted.x]
    if lifted.kind is float:
        return [[scalar_pow(xk, dj) for dj in d] for xk in lifted.x]
    return [[xk**dj for dj in d] for xk in lifted.x]


def _rows(d, lifted, powers=None):
    """The rows w_k (X_k^{d_0}, ..., X_k^{d_(n-1)}) of the weighted design
    matrix on the exact lifted points, from their `_powers`, a weight of 1
    where there is none: tuples of ints, or for Gaussian points flat tuples
    of the int parts, (re, im) per entry, that `_minors_walk` unpacks into
    pairs of locals."""
    powers, w = powers or _powers(d, lifted), lifted.w or [1] * len(lifted.x)
    if lifted.kind is _Gaussian:
        return [tuple(part for p, q in row for part in (wk.real * p - wk.imag * q, wk.real * q + wk.imag * p)) for row, wk in zip(powers, w)]
    return [tuple(wk * p for p in row) for row, wk in zip(powers, w)]


def _kept(d, lifted):
    """`lifted` holding, for the exponents d, the `_powers` of its exact
    points and, for at most MINORS_MAX_TERMS terms, their `_rows`: what the
    minors walk, the moment sums and the exact fit read of them, raised once.
    A lift that holds them is returned as it is, and so is a float one: the
    subset walkers read no powers, and a float fit puts its own in."""
    if not lifted.exact or lifted.powers is not None:
        return lifted
    powers = _powers(d, lifted)
    return lifted._replace(powers=powers, rows=_rows(d, lifted, powers) if len(d) <= MINORS_MAX_TERMS else None)


@lru_cache(maxsize=None)
def _minors_walk(n, fixed, kind, columns=False):
    """D and S of n terms, or B's columns, from the minors of the exact lifted
    rows (`_rows`), compiled once per signature into code that takes the
    rows; the weights are in the rows, so the code does not depend on them.

    The walk visits the subsets that hold the last `fixed` rows in
    lexicographic order, as nested loops over the other rows, and at depth r
    keeps the C(n, r) minors of the current prefix of r rows, one local per
    column set, each built from the minors of the prefix one row shorter by
    Laplace expansion along the new row: sum_t (-1)^(r+t) p[c_t]
    M(C - c_t), one multiply-add per term.  A row's entries are the depth-1
    minors.  A fixed row is the first of every prefix, unpacked once; as
    det(tail, head) = (-1)^(n-2) det(head, tail) on the n - 1 rows of S,
    that depth's terms take that sign.  So the minor without column i at
    depth n - 1 is u_i = w_l s_{lam[i]}(x_l) V(x_l), signs included, and
    the one minor at depth n is D's u.  A loop stops where too few rows are
    left to complete an (n-1)-subset, so no prefix is built that no subset
    extends.

    The walk returns D, the n(n+1)/2 upper-triangle sums of u_i conj(u_j)
    row by row, and the count C(m, n) + n^2 C(m, n - 1) of the terms
    summed, for m rows besides the fixed one, each sum an int or, for
    `_Gaussian` points, whose code is "pairs", a `_Gaussian`; a sum over no
    subset stays the int 0, and S over the empty subset of a one-term model
    is the int 1.  With `columns` it stops at depth n - 1 and returns one
    (label, u_0, ..., u_{n-1}) per (n-1)-subset, the label being its 1-based
    row numbers.
    """
    code = "pairs" if kind is _Gaussian else "real"
    parts = lambda names: [p + q for p in names for q in "ri"] if code == "pairs" else names
    ij = [(i, j) for i in range(n) for j in range(i, n)]
    sums = ["d"] + [f"s{i}_{j}" for i, j in ij]
    lines = ["def walk(rows):", f"    m = len(rows) - {fixed}", "    out = []" if columns else f"    {' = '.join(parts(sums))} = 0"]
    indent, start, labels = "    ", "0", []
    for depth in range(max(fixed, 1), n if columns else n + 1):
        row = [f"r{depth}_{c}" for c in range(n)]
        unpack = "".join(f"{p}, " for p in parts(row))
        if depth == fixed:
            lines.append(f"    {unpack}= rows[m]")
        elif depth == n:  # D's loop, which needs no label
            lines.append(f"{indent}for {unpack}in rows[{start}:m]:")
        else:  # a loop that leaves rows for the rest of an (n-1)-subset
            lines += [f"{indent}for i{depth} in range({start}, m - {n - 1 - depth}):", f"{indent}    {unpack}= rows[i{depth}]"]
            start = f"i{depth} + 1"
            labels.append(start)
        indent += "    " if depth > fixed else ""
        if depth == 1:
            minors = {(c,): p for c, p in enumerate(row)}
        else:
            sign = -1 if fixed and depth == n - 1 and n % 2 else 1
            built = {cols: "m" + "_".join(map(str, cols)) for cols in combinations(range(n), depth)}
            for cols, name in built.items():
                terms = [(sign * (-1) ** (depth + t), row[c], minors[cols[: t - 1] + cols[t:]]) for t, c in enumerate(cols, 1)]
                _assign(lines, name, sorted(terms, key=lambda term: -term[0]), code, indent)
            minors = built
        if depth == n - 1:
            u = [minors[tuple(c for c in range(n) if c != i)] for i in range(n)]
            if columns:
                label = "(" + "".join(f"{i}, " for i in labels) + ("m + 1, " if fixed else "") + ")"
                lines.append(f"{indent}out.append(({label}, {''.join(f'{_value(v, code)}, ' for v in u)}))")
            else:
                for s, (i, j) in zip(sums[1:], ij):
                    _assign(lines, s, [(1, s), (1, u[i], "~" + u[j])], code, indent)
        if depth == n:
            u = minors[tuple(range(n))]
            _assign(lines, "d", [(1, "d"), (1, u, "~" + u)], code, indent)
    if columns:
        lines.append("    return out" if n + fixed > 1 else "    return [((), 1)]")
    else:
        # rows besides the fixed one in each D and S subset; as pairs, a sum
        # over no subset would be _Gaussian(0, 0), and S over the empty
        # subset of a one-term model is the int 1
        kd, ks = n - fixed, n - 1 - fixed
        value = lambda s, k: f"({_value(s, code)} if m >= {k} else 0)" if code == "pairs" and k else _value(s, code)
        values = [value("d", kd)] + ["1" if n + fixed == 1 else "0" if ks < 0 else value(s, ks) for s in sums[1:]]
        count = f"comb(m, {kd})" + (f" + {n * n} * comb(m, {ks})" if ks >= 0 else "")
        lines.append(f"    return ({''.join(f'{v}, ' for v in values)}), {count}")
    signature = f"n={n} fixed={fixed} columns={columns} {kind.__name__}"
    return _compiled("walk", signature, lines, comb=comb)


def _raw_sums(d, lifted, with_d=True, with_s=True):
    """D and the upper triangle of the minor sums S, row by row, of the
    exponents d over the lifted points (see `_lift`), as the walk sums them
    in the lifted type, and the number of terms summed, C(m, n) for D and
    n^2 C(m, n - 1) for S; with lifted.fixed = 1, those of the subsets that
    hold the last point.

    D sums |u|^2 over the n-point subsets, u = w_l s_lam(x_l) V(x_l), and
    S_{i,j} sums u_i conj(u_j) over the (n-1)-point subsets, u_i = w_l
    s_{lam[i]}(x_l) V(x_l) for the partitions of d's drops.  Exact points of
    at most MINORS_MAX_TERMS terms take one `_minors_walk` on the rows that
    their lift keeps (`_kept`), which gives both; other points take the
    walk of `_walked` once for each sum asked for, and a sum not asked for
    is None.  Each sum carries the lift's scaling (`_lift_factor`) of its u.
    """
    n = len(d)
    if lifted.exact and n <= MINORS_MAX_TERMS:
        (dsum, *upper), count = _minors_walk(n, lifted.fixed, lifted.kind)(lifted.rows)
        return dsum, upper, count
    dsum, upper, count = None, None, 0
    if with_d:
        (dsum,), count = _walked(d, lifted, n)
    if with_s:
        upper, subsets = _walked(d, lifted, n - 1)
        count += n * n * subsets
    return dsum, upper, count


def _hermitian(upper, n):
    """The n x n matrix whose upper triangle holds `upper`, row by row, and
    whose lower one its conjugates."""
    s, k = [], 0
    for i in range(n):
        s.append([s[j][i].conjugate() for j in range(i)] + list(upper[k : k + n - i]))
        k += n - i
    return s


def _sums(d, lifted, with_d=True, with_s=True):
    """D and the upper triangle of S, row by row, of `_raw_sums` (None where
    not asked for) as native values, each divided by the lift's scaling and
    brought to a Scalar's form once (`_normal`), and the number of terms
    summed; `_hermitian` makes the matrix S of the triangle."""
    lifted = _kept(d, lifted)
    dsum, upper, count = _raw_sums(d, lifted, with_d, with_s)
    if not lifted.exact:  # float values carry no scaling
        dvalue = None if dsum is None else _normal(dsum, False)
        return dvalue, None if upper is None else [_normal(v, False) for v in upper], count
    n = len(d)
    dvalue = None if dsum is None else _normal(dsum, True, _lift_factor(lifted, d) ** 2)
    if upper is not None:
        scales = [_lift_factor(lifted, d[:i] + d[i + 1 :]) for i in range(n)]
        ij = [(i, j) for i in range(n) for j in range(i, n)]
        upper = [_normal(v, True, scales[i] * scales[j]) for v, (i, j) in zip(upper, ij)]
    return dvalue, upper, count


def _moment_sums(d, lifted):
    """T_j = sum_k |w_k|^2 conj(x_k)^{d_j} y_k over the lifted points, or with
    lifted.fixed = 1 over the last alone, each summed in the lifted type, on
    the powers that the lift holds, if any, as int pairs for Gaussian data,
    so each T_j carries the lift's scaling xscale^{d_j} yscale wscale^2."""
    x, w, y, powers = lifted.x, lifted.w, lifted.y, lifted.powers
    t, ti = [0] * len(d), [0] * len(d)
    for k in range(len(x) - 1 if lifted.fixed else 0, len(x)):
        wy = y[k] if w is None else _mag_sq(w[k]) * y[k]
        if lifted.kind is _Gaussian:  # conj(p + q i) (c + e i)
            c, e = wy.real, wy.imag
            for j, (p, q) in enumerate(powers[k]):
                t[j], ti[j] = t[j] + p * c + q * e, ti[j] + p * e - q * c
        else:  # float points, or real exact ones, whose powers are real
            xbar = x[k].conjugate()
            for j, dj in enumerate(d):
                t[j] = t[j] + (scalar_pow(xbar, dj) if powers is None else powers[k][j]) * wy
    return list(map(_Gaussian, t, ti)) if lifted.kind is _Gaussian else t


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


def _signed_numerators(s, t, zero):
    """N_i = sum_j (-1)^(i+j) S_{i,j} T_j (1-based signs) of native numbers,
    each summed from `zero`: 0.0 in float mode, as `Scalar.zero` is, and the
    int 0 for exact values."""
    out = []
    for i, row in enumerate(s):
        acc, plus = zero, i % 2 == 0
        for sij, tj in zip(row, t):
            term = sij * tj
            acc = acc + term if plus else acc - term
            plus = not plus
        out.append(acc)
    return out


def _finite(what, values, exact):
    """`values`, or in float mode (not `exact`) OverflowError naming `what`
    if one is an inf or nan: the fit has left the float range, and neither a
    report nor a snapshot could carry it.  The values are native numbers or
    float Scalars, which `isfinite` reads as complex."""
    if not exact and not all(map(isfinite, values)):
        raise OverflowError(f"{what} is not finite in float arithmetic")
    return values


def _checked_numerators(dvalue, s, t, exact):
    """N from the native S and T (`_signed_numerators`), once D, S, T and
    then N are found finite (`_finite`)."""
    _finite("the denominator D", [dvalue], exact)
    _finite("a minor sum S", [v for row in s for v in row], exact)
    _finite("a moment sum T", t, exact)
    return _finite("a numerator N", _signed_numerators(s, t, 0 if exact else 0.0), exact)


def _aggregates(d, lifted):
    """D, the upper triangle of S (see `_sums`), T and the evaluation count
    of the lifted points (see `_lift`), D, S and T as native values in a
    Scalar's form (`_normal`).  With lifted.fixed = 1, the increments from
    appending the last point instead: D and S summed over the subsets that
    hold it, and T of that point alone.  Exact points read the powers that
    their lift keeps (`_kept`); float points read those the lift holds, if
    any, else T raises each power it reads.
    """
    lifted = _kept(d, lifted)
    dvalue, upper, evaluations = _sums(d, lifted)
    scale = lifted.yscale * lifted.wscale**2
    t = [_normal(tj, lifted.exact, lifted.xscale**dj * scale) for tj, dj in zip(_moment_sums(d, lifted), d)]
    return dvalue, upper, t, evaluations


def _quotients(d, x, numerators, dvalue):
    """a_i = N_i / D, or None when D vanishes (see `_zero_denominator`);
    OverflowError if a float a_i, or the degeneracy floor, is not finite."""
    if _zero_denominator(dvalue, d, x):
        return None
    return _finite("a coefficient", [ni / dvalue for ni in numerators], dvalue.exact)


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
    return Scalar(_sums(d, _lift(data), with_s=False)[0], data.exact)


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
    return Scalar(_hermitian(_sums(d, _lift(data), with_d=False)[1], n)[i - 1][j - 1], data.exact)


def fit(d, data):
    """Least-squares coefficients of the model sum_i a_i x^{d_i}.

    Exact mode returns the exact rational solution (`_exact_fit`): its S, T
    and N stay on the lifted ints, and each reported value is one Fraction,
    or one per part of a complex one.  Float mode forms D, S, T and N on
    native numbers and makes Scalars of the reported D and N only.  Uses
    weights from the data set when present.  In float mode, a D, S, T, N,
    coefficient or degeneracy floor of D beyond the float range raises
    OverflowError.
    """
    _require_points(len(d), data)
    lifted = _lift(data)
    if lifted.exact:
        return _exact_fit(d, lifted)
    lifted = lifted._replace(powers=_powers(d, lifted))
    dvalue, upper, t, evaluations = _aggregates(d, lifted)
    numerators = [Scalar(v, False) for v in _checked_numerators(dvalue, _hermitian(upper, len(d)), t, False)]
    dvalue = Scalar(dvalue, False)
    a = _quotients(d, data.x, numerators, dvalue)
    if a is None:
        raise _rank_deficient(len(d))
    residual_sq, r = _residual_sum(d, lifted, a)
    return FitResult(
        coefficients=a,
        denominator=dvalue,
        numerators=numerators,
        residual_sq=residual_sq,
        residual=_residual_root(lifted.w, r, residual_sq),
        evaluations=evaluations,
    )


def _rank_deficient(n):
    return NonUniqueSolutionError(
        "denominator vanishes: the model matrix is rank deficient "
        f"(need at least {n} distinct positive real x values, or more "
        "generally an injective design matrix)"
    )


def _exact_fit(d, lifted):
    """The fit of exact lifted points, on the ints or int pairs that the
    walk and the moment sums give: S and T are never Scalars.

    The lift scales every term S_{i,j} T_j of N_i by xscale^{2 sum(d) - d_i}
    wscale^{2n} yscale, whatever j, so the N_i are summed on the raw sums
    (`_signed_numerators`), and a_i = N_i xscale^{d_i} / (yscale D) on the
    raw N_i and D, in which the weight scale cancels.  The residuals R_k =
    Y_k D - sum_j N_j X_k^{d_j} are then ints or Gaussian ints, with r_k =
    R_k / (yscale D), on the same powers as the rows and T (`_kept`).  Each
    reported value -- D, each N_i and a_i, the residual norm -- is wrapped
    once, one Fraction per nonzero part.
    """
    n, xscale, yscale = len(d), lifted.xscale, lifted.yscale
    lifted = _kept(d, lifted)
    powers = lifted.powers
    dsum, upper, evaluations = _raw_sums(d, lifted)
    nums = _signed_numerators(_hermitian(upper, n), _moment_sums(d, lifted), 0)
    dsum = dsum.real  # a sum of |u|^2, whose Gaussian form has no imaginary part
    if not dsum:
        raise _rank_deficient(n)
    gaussian, total = lifted.kind is _Gaussian, 0
    for yk, wk, row in zip(lifted.y, lifted.w or [1] * len(powers), powers):
        re, im = yk.real * dsum, yk.imag * dsum
        for nj, p in zip(nums, row):
            p, q = p if gaussian else (p, 0)
            re, im = re - nj.real * p + nj.imag * q, im - nj.real * q - nj.imag * p
        total += (re * re + im * im) * _mag_sq(wk)
    lift = _lift_factor(lifted, d) ** 2
    residual_sq = _wrap(total, True, (lifted.wscale * yscale * dsum) ** 2)
    return FitResult(
        coefficients=[_wrap(nj * xscale**dj, True, yscale * dsum) for nj, dj in zip(nums, d)],
        denominator=_wrap(dsum, True, lift),
        numerators=[_wrap(nj, True, yscale * lift // xscale**dj) for nj, dj in zip(nums, d)],
        residual_sq=residual_sq,
        residual=_residual_root(lifted.w, None, residual_sq),
        evaluations=evaluations,
    )


def _residual_sum(d, lifted, a):
    """The squared minimal distance ||y - A a||_W^2 of the float coefficients
    `a` as a Scalar, summed directly as sum_k |w_k|^2 |r_k|^2, and the
    residuals r_k, on the powers that the lift holds, raised here if none.

    The shorter identity ||y||_W^2 - Re<(WA)* W y | a> is a difference of two
    nearly equal numbers; in binary64 it can leave pure rounding noise, even a
    negative value, where the fit is exact.
    """
    w = lifted.w
    c = [aj.value for aj in a]
    c, _ = _native(c, _complex(c), False)
    powers = lifted.powers or [[scalar_pow(xk, dj) for dj in d] for xk in lifted.x]
    r, total = [], 0
    for k, (row, rk) in enumerate(zip(powers, lifted.y)):
        for cj, p in zip(c, row):
            rk = rk - cj * p
        r.append(rk)
        sq = _mag_sq(rk)
        total = total + (sq if w is None else sq * _mag_sq(w[k]))
    return _wrap(total, False), r


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


def _checked_denominator(d, data, with_s):
    """D of a batch as a Scalar, its native S as a matrix (see `_sums`; None
    without `with_s`) and its lifted points (`_kept`); raises when D vanishes
    or, in float mode, is not finite."""
    _require_points(len(d), data)
    lifted = _kept(d, _lift(data))
    dvalue, upper, _ = _sums(d, lifted, with_s=with_s)
    s = None if upper is None else _hermitian(upper, len(d))
    dvalue = Scalar(_finite("the denominator D", [dvalue], lifted.exact)[0], lifted.exact)
    if _zero_denominator(dvalue, d, data.x):
        raise NonUniqueSolutionError("denominator vanishes: B is undefined")
    return dvalue, s, lifted


def _append_b_columns(b, d, lifted):
    """Append the column (-1)^(i+1) u_i (1-based i) for each (n-1)-subset,
    labelled by its 1-based points, as the walk of `_sums` lists them: the
    minors walk (`_minors_walk`) for exact points of at most
    MINORS_MAX_TERMS terms, on the rows that the lift keeps (`_kept`), else
    the walk of `_walked`.  Float mode divides by sqrt(D) before wrapping,
    exact mode by the lift's scaling of u_i."""
    d, n, lifted = tuple(d), len(d), _kept(d, lifted)
    if lifted.exact and n <= MINORS_MAX_TERMS:
        columns = _minors_walk(n, lifted.fixed, lifted.kind, columns=True)(lifted.rows)
    else:
        columns = _walked(d, lifted, n - 1, columns=True)
    root = b.denominator_root if b.normalized else None
    scales = [_lift_factor(lifted, d[:i] + d[i + 1 :]) for i in range(n)]
    for label, *u in columns:
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
    dvalue, _, lifted = _checked_denominator(d, data, with_s=False)
    b = BMatrix(entries=[[] for _ in d], columns=[], denominator_root_sq=dvalue)
    _append_b_columns(b, d, lifted)
    return b


def pseudoinverse(d, data):
    """The solution operator B B* A* (times W*W when weighted) as n x m.

    B B* = (-1)^(i+j) S_{i,j} / D, so B itself is never built: each entry,
    sum_j (-1)^(i+j) S_{i,j} conj(x_k^{d_j}) |w_k|^2 / D, is a signed
    minor-sum combination with one final division by D, and no square root
    ever appears.  The entries are formed on the native values of S and of
    the points and made Scalars once.  In float mode an entry beyond the
    float range raises OverflowError (`_finite`).  The projection onto the
    model's column space is `design_matrix(d, data.x)` times this operator.
    """
    dvalue, s, lifted = _checked_denominator(d, data, with_s=True)
    exact, dvalue, w = lifted.exact, dvalue.value, data.w
    out = [[None] * data.m for _ in range(len(d))]
    for k, xk in enumerate(data.x):
        col = _signed_numerators(s, [scalar_pow(xk.value, dj).conjugate() for dj in d], 0 if exact else 0.0)
        wsq = 1 if w is None else _mag_sq(w[k].value)
        for i, ci in enumerate(col):
            out[i][k] = ci * wsq / dvalue
    return [[Scalar(v, exact) for v in _finite("an entry of the pseudoinverse", row, exact)] for row in out]
