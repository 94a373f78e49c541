"""Point evaluation of symmetric functions.

`elem_sym_all`, `vandermonde`, `det` and `schur` compute on native numbers,
float, complex, int, Fraction or Gaussian-pair values, each in its own type,
as the subset walker in `regress` hands them over.  A native point is exact
unless its first entry is a float or complex.  A point of Scalars is
converted once, at the entry: `_unwrap` checks that its entries are Scalars
of one mode, refusing any other point, the native code runs on their
values, and `_wrap` tags the one result with that mode; the cross-checks in
`schurfit.reference` go through the same two steps.  So no Scalar operation
runs inside this module, and a Scalar result holds the value, type and bits
that the native code gives.  The code needs only + - * /, a zero test
(bool), == 1 for exact pivoting and |a|^2 for float pivoting; determinants
up to order 3 are cofactor expansions in both modes, so `det` pivots, and
divides ints exactly as Fractions, only from order 4 on.  The empty point
gives the ints 0 and 1, exact identities in every type.

The production route for Schur values is the dual Jacobi-Trudi determinant in
elementary symmetric polynomials, the lam1 x lam1 matrix (e_{lam'_i - i + j})
with the e_k expanded one linear factor at a time.  Its entries vanish for
k > r, the number of variables, so the matrix is banded.  `det`'s
elimination walks each column once to find its pivot and updates only where
the pivot row is nonzero, so the band's zeros cost a zero test each.  On at
most UNROLL_MAX_POINTS float or complex points that elimination is generated
code on a window of locals that slides down the band (`_sliding_window`),
which reads only the rows and columns that the band and its fill can reach:
O(lam1 * l(lam) * (r + l(lam))) work instead of O(lam1^3).  Otherwise, and
where the window would be the whole matrix, the rows are slices of one
zero-padded list of the e_k, which `det`'s elimination (`_eliminate`) takes
within the same rows and columns, told by the band's row offsets.  Narrow
and wide bands read their entries off one per-key table, the row offsets
c_i = lam'_i - i, without a lam1 x lam1 index matrix.

Exact points take the h-form determinant (h_{lam_i - i + j}) instead when it
is the smaller, l(lam) < lam1 on a wide band: exact values do not depend on
the route, and for high sparse exponents such as (40, 20, 0) it is 2 x 2 in
place of 38 x 38.  Float mode stays on the e-form: the h-form cancels.  For
lam = (38, 19) on three points its 2 x 2 value h_38 h_19 - h_39 h_18 had
relative error 1.0 against s_lam(|x|) on points in (0, 2) and 1.6e8 on
mixed-sign points, where the e-form elimination stayed below 4e-15 (see
Demmel and Koev, "Accurate and efficient evaluation of Schur and Jack
functions", Math. Comp. 2006).

The batch subset walker in `regress` calls `schur` and `vandermonde` once
per subset and partition (its exact subset sums are minors of the design
matrix and call neither, up to `regress.MINORS_MAX_TERMS` terms; the loop
nest of an appended point's sums on at most UNROLL_MAX_POINTS points writes
the narrow-band and V statements below inline, through the same writers,
and calls a wider band's function from the tables), mostly on bands of
width lam1 <= 3, whose whole arithmetic is a
few multiply-adds, so the dispatch around that arithmetic is kept cheap: one
type test on the first entry and two plain-dict lookups per call, the Schur
code read off a table that each partition keeps.  Every point type has code tables of its
own, and each function in them is built for that type's mode and code kind,
so the route of a band is chosen once, when its code is built, and no call
tests its point.  For narrow bands, and
for V, each (lam, r) on at most UNROLL_MAX_POINTS points is compiled once
into straight-line code that takes the same steps as `elem_sym_all`, `det`
and the V loop, in the same order on the same operands, so values are
bit-identical to theirs and only the loops, index rows and calls are gone.
A 3 x 3 band writes out `_det3`, the cofactor expansion that `det` uses at
order 3 in both modes.  Wider bands, such as the 38- and 39-wide ones of
(40, 20, 0), take on float and complex points `_sliding_window`'s code:
`det`'s steps written out, one loop per window height, compiled once
for every band that the window covers, whose steps after the first of each
height hold the fresh row (1, e_1, ...) as the loop's constants; each band
reads its e_k and head rows from straight-line code of its own
(`_window_rows`).  Exact points on wider bands, float points on more than
UNROLL_MAX_POINTS points, and float bands whose window would be the whole
matrix take `_wide_band`'s function of their mode, the h-form or the
e-form one.  One writer,
`_assign`, writes every statement of the narrow-band, V and subset walker
code, in one of three code kinds that only the point type sets (see "The
statement writer" below): real code for float, int and Fraction points
drops the factors 1 and the conjugates, exact identities on real numbers;
complex code writes every step as the loops do; pair code, for `_Gaussian`
points, the kernel's numbers for exact complex data, takes the same steps on
int pairs and returns one `_Gaussian`.  The window code comes in the real
and complex kinds, which differ in the pivot key only.

The bialternant ratio and the semistandard tableaux sum, independent
cross-checks of `schur`, live in `schurfit.reference`, which the runtime does
not import.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from types import FunctionType

from .numeric import Scalar, ScalarModeError, _Gaussian
from .partitions import Partition, conjugate


def _unwrap(z):
    """(mode, values) of point z: for Scalars their common mode and their
    values; for native numbers and the empty point None and z itself.

    A point whose first entry is a Scalar must hold Scalars of one mode:
    mixed modes, or a native number among the Scalars, raise
    ScalarModeError.  A point whose first entry is native is not read here,
    so native points cost nothing; a Scalar later in such a point meets a
    native number in the arithmetic, which raises TypeError."""
    if not (z and isinstance(z[0], Scalar)):
        return None, z
    mode = z[0].exact
    for s in z:
        if not isinstance(s, Scalar):
            raise ScalarModeError("point mixes scalars with native numbers")
        if s.exact is not mode:
            raise ScalarModeError("point mixes exact and float scalars")
    return mode, [s.value for s in z]


def _wrap(mode, v):
    """The native result v as a Scalar of `mode`, or v itself for mode None.
    An int, such as the 0 or 1 of a value that reads no point entry, becomes
    the mode's `Scalar.from_int`; every other value keeps its type."""
    if mode is None:
        return v
    return Scalar.from_int(v, mode) if type(v) is int else Scalar(v, mode)


def elem_sym_all(z):
    """All elementary symmetric values (e_0, ..., e_r) of z, e_0 = 1.

    Expands prod(X - z_j) one factor at a time: the j-th factor costs j-1
    extra multiplications, n(n-1) flops in total.
    """
    mode, z = _unwrap(z)
    e = [1]
    for j, zj in enumerate(z):
        e.append(e[j] * zj)
        for k in range(j, 0, -1):
            e[k] = e[k] + e[k - 1] * zj
    return e if mode is None else [_wrap(mode, v) for v in e]


def _vandermonde_loop(z, one=1):
    """V multiplied out as one * (z0 - z1) * (z0 - z2) * ... * (z_{r-2} - z_{r-1})."""
    v = one
    for i, zi in enumerate(z):
        for zj in z[i + 1 :]:
            v = v * (zi - zj)
    return v


def det(rows, exact):
    """Determinant of a square matrix: a cofactor expansion up to order 3
    (`_det3`), else Gaussian elimination that skips zeros.

    The entries are native numbers, or Scalars of one mode, whose values the
    native code takes and whose mode the result gets (see `_unwrap`).  A dual
    Jacobi-Trudi row mixes the ints 0 and 1 with the points' type, so no one
    entry tells the mode, and `exact` selects the pivot rule from order 4 on;
    the empty matrix gives the int 1.

    From order 4 on, step k of the elimination (`_eliminate`, over whole
    columns here) walks column k once, rows k to n - 1, to pick the pivot
    and list the other live rows, and updates those rows only in the
    columns k + 1 to n - 1 where the pivot row is nonzero: a skipped update
    is a - 0*b, so finite results are bit-identical to dense LU, and the rows
    and columns of a band that hold only zeros cost a zero test each.  A
    later row takes the pivot from the current one only if its key is
    strictly greater, so the pivot is the first live row of largest key, the
    row that `max` picks, ties and NaN keys included.  Float
    mode pivots on |x|^2 (partial pivoting): re^2 + im^2 for a complex entry
    and x * x for any other, a float or the int e_0 = 1 of a Jacobi-Trudi
    row, the bits of |x|^2 taken through `complex(x)`.  Exact mode pivots on
    the first row holding the unit 1 (key `x == 1`), which needs no division
    and so keeps int entries ints, else on the first nonzero row, and lifts an
    int pivot to Fraction, so that int entries divide exactly; Fractions are
    canonical, so the value equals any other exact method's.  Each other row
    reads only itself and the pivot row, so the order of their updates does
    not matter.  The determinant is the product of the pivots as each step
    takes it, d = d * pivot from d = `_One()`, the order of the diagonal's
    product, with the sign of the swaps; a column with no live row gives the
    int 0.
    """
    n = len(rows)
    if n and isinstance(rows[0][0], Scalar):
        mode, flat = _unwrap([v for row in rows for v in row])
        return _wrap(mode, det([flat[i : i + n] for i in range(0, n * n, n)], exact))
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        return _det3(*rows[0], *rows[1], *rows[2])
    full = [n] * n
    return _eliminate([list(row) for row in rows], exact, full, full)


def _eliminate(a, exact, below, reach):
    """`det`'s elimination of the n x n row lists `a`, n >= 4, in place.
    Step k reads column k in rows k to below[k] - 1 only and the pivot row
    in columns k + 1 to reach[k] - 1 only: every other entry there must be
    zero, whatever the pivots, as in any matrix with below = reach =
    (n, ..., n), `det`'s, or in the dual Jacobi-Trudi band (`_wide_band`).
    The entries skipped are zeros, which `det` would skip too, so the
    pivots, operands and order, and the bits, are those of the full scan."""
    d, sign = _One(), 1
    for k in range(len(a)):
        p, others = -1, []
        for i in range(k, below[k]):
            x = a[i][k]
            if not x:
                continue
            if exact:
                key = x == 1
            elif type(x) is complex:
                key = x.real * x.real + x.imag * x.imag
            else:
                key = x * x
            if p < 0:
                p, best = i, key
            elif key > best:
                others.append(a[p])
                p, best = i, key
            else:
                others.append(a[i])
        if p < 0:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        d = d * pivot
        unit = exact and pivot == 1
        if exact and not unit and type(pivot) is int:  # int / int would round to a float
            pivot = Fraction(pivot)
        cols = [j for j in range(k + 1, reach[k]) if pivot_row[j]]
        for row in others:
            f = row[k] if unit else row[k] / pivot
            for j in cols:
                row[j] = row[j] - f * pivot_row[j]
    return -d if sign < 0 else d


def _det3(a, b, c, d, e, f, g, h, i):
    """Determinant of the rows (a, b, c), (d, e, f), (g, h, i) as the cofactor
    expansion along the first row, for `det` of order 3 in both modes; the
    Schur code of bands of width 3 writes out the same steps.

    Exact arithmetic gives the one exact value in any order of operations.  In
    floating point no pivot is needed for a forward error bound: a monomial
    such as a*e*i passes through at most five roundings (its product, the
    inner difference, the product with a, and the two outer sums), so barring
    underflow the value is within gamma_5 times the sum of the six monomials'
    moduli of the exact determinant of the same entries, and within gamma_9
    for complex entries, whose products err by up to sqrt(2) gamma_2 (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., 2002, sections
    3.1 and 3.6).
    """
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# Straight-line code (see the module docstring).  Beyond UNROLL_MAX_POINTS
# points the C(r, 2) or O(r * l(lam)) statements would cost more to compile
# and keep than they save.  Bands wider than 3 are no cofactor expansion, as
# one of order n has n! terms, but an elimination that skips the zeros
# outside the band, on float and complex points written out on a window of
# O(r * l(lam)) locals (`_sliding_window`).
# Every statement holds at most three operations: one nested expression of
# all of them overflows the compiler's recursion on a hundred points.
UNROLL_MAX_POINTS = 16


def _compiled(name, signature, lines, **scope):
    """The function `name` defined by the source `lines`, which may call
    `_Gaussian` and the names in `scope`.

    The source is compiled under the file name "<schurfit name signature>",
    so that a profile reports each generated function on its own line.
    """
    namespace = {"_Gaussian": _Gaussian, **scope}
    exec(compile("\n".join(lines), f"<schurfit {name} {signature}>", "exec"), namespace)
    return namespace[name]


# -- The statement writer ----------------------------------------------------
#
# Every statement of the generated Schur, Vandermonde and walker code is
# written by `_assign` from terms, tuples (coefficient, factor, ...) that
# stand for the product of the coefficient and the factors, summed.  The
# code kind, which only the point type sets, selects how; each keeps the
# values, types and float bits of the loops:
# - "complex", for complex points and any type not named here, writes the
#   terms as given, in that order of operations, with "~p" as
#   p.conjugate().  In Python up to 3.13, 1 * z on a complex z is a complex
#   product, which can flip the sign of a zero part, so the one factors stay.
# - "real", for float, int and Fraction points, writes them so too but drops
#   every one factor and every conjugation: 1 * x is x and conj(x) is x for
#   such an x, bit for bit, signed zeros, infinities and NaN included.  The
#   zero factors stay, as they decide the signs of zeros.
# - "pairs", for `_Gaussian` points, the kernel's numbers for exact complex
#   data, keeps each number in two locals, its parts: a point z0 becomes z0r
#   and z0i, and a step such as e2 = e2 + e1 * z1 one statement that sets
#   e2r and e2i.  Exact values do not depend on the order of operations, so
#   the band's zero and one entries fold away and like terms are collected;
#   the points' parts share one type, int or Fraction, which every part
#   computed from them keeps, as `_Gaussian`'s operators do.


def _source(terms):
    """The sum of `terms`, tuples (coefficient, name, ...) each standing for
    the product of its coefficient and names, as source in the order given;
    "0" if there is none."""
    out = ""
    for c, *names in terms:
        term = " * ".join(names if abs(c) == 1 and names else [str(abs(c)), *names])
        if out:
            out += f" {'-' if c < 0 else '+'} {term}"
        else:
            out = f"-{term}" if c < 0 else term
    return out or "0"


def _monomials(factor):
    """The (real, imaginary) parts of one factor as lists of terms (see
    `_source`): "one" and "zero" are the ints, "p" the pair of locals pr, pi
    and "~p" its conjugate."""
    if factor in ("one", "zero"):
        return [(1,)] if factor == "one" else [], []
    name = factor.lstrip("~")
    return [(1, name + "r")], [(-1 if factor[0] == "~" else 1, name + "i")]


def _times(a, b):
    """The product of two sums of terms, as a sum of terms."""
    return [(c * d, *m, *n) for c, *m in a for d, *n in b]


def _pair(terms):
    """The real and imaginary parts of the sum of `terms`, tuples (sign,
    factor, ...) of factors (see `_monomials`), as lists of terms with like
    terms collected, so that a zero factor drops its term and u conj(u) has
    no imaginary part."""
    parts = ({}, {})
    for sign, *factors in terms:
        re, im = [(sign,)], []
        for f in factors:
            fr, fi = _monomials(f)
            re, im = _times(re, fr) + _times(im, [(-c, *m) for c, *m in fi]), _times(re, fi) + _times(im, fr)
        for acc, monomials in zip(parts, (re, im)):
            for c, *names in monomials:
                key = tuple(sorted(names))
                acc[key] = acc.get(key, 0) + c
    return tuple([(c, *names) for names, c in acc.items() if c] for acc in parts)


def _assign(lines, target, terms, kind, indent="    "):
    """Append to `lines` the statement that sets `target` to the sum of
    `terms`, tuples (sign, factor, ...) whose factor "~p" is the conjugate
    of p, as the code `kind` writes it: the terms in the order given, for
    "real" without one factors and conjugations; for "pairs" the parts of
    `target` (see `_pair`), of which a part that keeps its value is not
    set."""
    if kind == "pairs":
        sets = [(target + part, _source(v)) for part, v in zip("ri", _pair(terms))]
        sets = [(t, v) for t, v in sets if t != v]
        lines.append(f"{indent}{', '.join(t for t, _ in sets)} = {', '.join(v for _, v in sets)}")
        return
    if kind == "real":
        terms = [(c, *(f.lstrip("~") for f in fs if f != "one")) for c, *fs in terms]
    else:
        terms = [(c, *(f"{f[1:]}.conjugate()" if f[0] == "~" else f for f in fs)) for c, *fs in terms]
    lines.append(f"{indent}{target} = {_source(terms)}")


def _split(names, kind, indent="    "):
    """For "pairs", the statement binding the parts of each of `names` to its
    locals namer, namei; for the other kinds, no statement."""
    if kind != "pairs":
        return []
    parts = ", ".join(f"{p}r, {p}i" for p in names)
    return [f"{indent}{parts} = {', '.join(f'{p}.real, {p}.imag' for p in names)}"]


def _unpack(r, kind, body):
    """The statements that open a function whose statements are `body`:
    binding the r >= 1 entries of point z to z0, z1, ..., then for "pairs"
    their parts (see `_split`), for the other kinds the ints 0 and 1 to zero
    and one, each only if `body` reads it."""
    names = [f"z{i}" for i in range(r)]
    lines = ["    " + "".join(f"{p}, " for p in names) + "= z", *_split(names, kind)]
    read = {word for line in body for word in line.split()}
    return lines + [f"    {name} = {value}" for name, value in (("zero", 0), ("one", 1)) if name in read]


def _value(name, kind):
    """The source of the number held in `name`: the local itself, or for
    "pairs" the `_Gaussian` of its parts."""
    return f"_Gaussian({name}r, {name}i)" if kind == "pairs" else name


def _vandermonde_function(r, kind):
    """V on r points as a function of the point: `_vandermonde_loop`, or on 2
    to UNROLL_MAX_POINTS points its steps unrolled, v = v * (z_i - z_j) from
    v = one on; "pairs" code sets d = z_i - z_j first."""
    if r < 2 or r > UNROLL_MAX_POINTS:
        return _vandermonde_loop
    body, v = [], "one"
    for i, j in [(i, j) for i in range(r) for j in range(i + 1, r)]:
        d = f"(z{i} - z{j})"
        if kind == "pairs":  # a pair factor is a name
            _assign(body, "d", [(1, f"z{i}"), (-1, f"z{j}")], kind)
            d = "d"
        _assign(body, "v", [(1, v, d)], kind)
        v = "v"
    lines = ["def vandermonde(z):", *_unpack(r, kind, body), *body, f"    return {_value('v', kind)}"]
    return _compiled("vandermonde", f"r={r} {kind}", lines)


def _offsets(parts):
    """The row offsets c_i = lam'_i - i of the dual Jacobi-Trudi band of the
    normalized parts of lam: row i holds e_{c_i + j} in column j."""
    return [c - i for i, c in enumerate(conjugate(Partition(parts)))]


def _top(offsets, r):
    """The highest e_k that the narrow band with the row offsets `offsets`
    reads on r points: the last entry of row 0, or e_r."""
    return min(offsets[0] + len(offsets) - 1, r)


def _elementary(r, top, assign):
    """The names of e_0, ..., e_top on r points, e_0 being "one", once the
    steps of `elem_sym_all` up to e_top are written through
    `assign(target, terms)`.  Step j folds in z_j, and each e_k it sets gets
    a local of its own, e{k}_{j}, so every local is assigned once.  The
    steps that e_k reads do not depend on top, so a larger top leaves the
    bits of each e_k as they are."""
    name = ["one"]
    for j in range(r):
        new = name + [f"e{j + 1}_{j}"] * (j < top)
        if j < top:
            assign(new[j + 1], [(1, name[j], f"z{j}")])
        for k in range(min(j, top), 0, -1):
            new[k] = f"e{k}_{j}"
            assign(new[k], [(1, name[k]), (1, name[k - 1], f"z{j}")])
        name = new
    return name


def _band(offsets, r, names):
    """The entry names of the narrow band with the row offsets `offsets` on r
    points: e_{c_i + j}, from `names` (see `_elementary`), in row i and
    column j where 0 <= c_i + j <= r, and "zero" elsewhere."""
    n = len(offsets)
    return [[names[c + j] if 0 <= c + j <= r else "zero" for j in range(n)] for c in offsets]


def _determinant(entries, target, assign, kind, cofactor="c"):
    """Write through `assign(target, terms)` the determinant of the band
    `entries` of order 1 to 3 into `target`: `det`'s formula on the same
    entries.  Order 3 is `_det3`'s expansion written out: the cofactors
    {cofactor}0, {cofactor}1 and {cofactor}2, then a * c0 - b * c1 + c * c2;
    "pairs" code skips the cofactor of a zero lead entry."""
    if len(entries) == 1:
        terms = [(1, entries[0][0])]
    elif len(entries) == 2:
        (a, b), (c, d) = entries
        terms = [(1, a, d), (-1, b, c)]
    else:
        (a, b, c), (d, e, f), (g, h, i) = entries
        names = [f"{cofactor}{t}" for t in range(3)]
        for lead, name, (p, q, s, t) in zip((a, b, c), names, [(e, i, f, h), (d, i, f, g), (d, h, e, g)]):
            if lead != "zero" or kind != "pairs":
                assign(name, [(1, p, q), (-1, s, t)])
        terms = [(1, a, names[0]), (-1, b, names[1]), (1, c, names[2])]
    assign(target, terms)


def _schur_function(parts, r, exact, kind):
    """s_lam on r points as a function of the point, for the normalized
    parts of lam, built for the points of one type: their mode (`exact`) and
    code `kind` pick the route here, once, so no call tests its point.

    Every route reads the dual Jacobi-Trudi band off the row offsets
    c_i = lam'_i - i.  A band of width lam1 <= 3 on at most UNROLL_MAX_POINTS
    points is straight-line code in both modes: `elem_sym_all` unrolled up
    to the highest e_k the matrix reads (`_elementary`), then `det`'s
    formula on the same entries (`_determinant`), with the int 0 outside the
    band.  A wider band on at most UNROLL_MAX_POINTS float or complex points
    is `_sliding_window`'s code, unless its window would be the whole
    matrix; exact points on a wider band, and every point beyond
    UNROLL_MAX_POINTS, take `_wide_band`'s function of their mode.
    """
    if not parts or len(parts) > r:  # s_() = 1; s_lam = 0 on fewer than l(lam) points
        return lambda z: 0 if parts else 1
    offsets = _offsets(parts)
    if r > UNROLL_MAX_POINTS or exact and parts[0] > 3:
        return _wide_band(parts, r, offsets, exact)
    if parts[0] > 3:
        return _sliding_window(parts, r, offsets, kind)
    body = []
    assign = lambda target, terms: _assign(body, target, terms, kind)
    _determinant(_band(offsets, r, _elementary(r, _top(offsets, r), assign)), "s", assign, kind)
    lines = ["def schur(z):", *_unpack(r, kind, body), *body, f"    return {_value('s', kind)}"]
    return _compiled("schur", f"{parts} r={r} {kind}", lines)


def _wide_band(parts, r, offsets, exact):
    """s_lam on r points of one mode, `exact` or not, for a band wider than 3
    or on more than UNROLL_MAX_POINTS points, as a function of the point,
    from lam's row offsets c_i = lam'_i - i.  On at most UNROLL_MAX_POINTS
    points float and complex ones take `_sliding_window`, which sends here
    only a band whose window would be the whole matrix.

    The function is the h-form one or the e-form one, chosen here.  Exact
    points take the l(lam) x l(lam) h-form (h_{lam_i - i + j}) when it is the
    smaller one, l(lam) < lam1, with h_k expanded one point at a time,
    h_k <- h_k + z_j h_{k-1}: its value equals the e-form's by the
    Jacobi-Trudi identity, int points keep int entries, and a zero value is
    the int 0, as the e-form's elimination returns it.  Other points take
    the e-form.  Its row i holds e_{c_i + j} in column j, where
    0 <= c_i + j <= r, and zero elsewhere, so each row is one slice of the
    e_k padded with zeros on both sides: one padded list and lam1 slices per
    call, whose starts come from the row offsets in O(lam1) steps, where a
    lam1 x lam1 index matrix would cost O(lam1^2).  The offsets tell the
    elimination where the band ends, as in `_sliding_window`: step k finds
    column k nonzero only in the rows whose first nonzero column
    first_i = max(0, -c_i) is at most k, the first below[k] rows, and no fill
    reaches past the last nonzero column, min(lam1 - 1, r - c_i), of the last
    of them (reach[k]), so `_eliminate` takes `det`'s pivots, operands and
    order, and bits, in O(lam1 * l(lam) * (r + l(lam))) steps where `det`'s
    whole columns would cost O(lam1^2) zero tests.
    """
    n = parts[0]
    if exact and len(parts) < n:
        h_idx = [[p - i + j if p - i + j >= 0 else None for j in range(len(parts))] for i, p in enumerate(parts)]
        top = n + len(parts) - 1

        def schur(z):
            h = [1] + [0] * top
            for zj in z:
                for k in range(1, top + 1):
                    h[k] = h[k] + zj * h[k - 1]
            return det([[h[k] if k is not None else 0 for k in row] for row in h_idx], True) or 0

        return schur
    first = [max(0, -c) for c in offsets]
    below = [bisect_right(first, k) for k in range(n)]
    last = [min(n - 1, r - c) for c in offsets]
    reach = [1 + last[b - 1] for b in below]
    lead, trail = first[-1], max(0, offsets[0] + n - r - 1)
    starts = [lead + c for c in offsets]

    def schur(z):
        band = [0] * lead + elem_sym_all(z) + [0] * trail
        rows = [band[s : s + n] for s in starts]
        return _eliminate(rows, exact, below, reach) if n > 3 else det(rows, exact)

    return schur


def _sliding_window(parts, r, offsets, kind):
    """s_lam on 1 <= r <= UNROLL_MAX_POINTS float or complex points for a band
    wider than 3: `det`'s elimination of `_wide_band`'s e-form rows as
    generated code.

    Row i is nonzero in columns first_i = max(0, -c_i) to at most
    first_i + r only, and first_i rises with i, so step k finds column k
    nonzero in rows k to k + R_k - 1 at most, R_k = bisect_right(first, k) - k,
    and no fill reaches past column k + C - 1, C = min(r + 1, lam1): all else
    that `det` reads there is zero, which it skips, so a window of locals
    holds the step: w{s}_{j} is row k + s, column k + j, in R_k slots.  After
    a step the window moves down and right by one: the other rows move up a
    slot and take the int 0 in the new column, and the bottom slot takes the
    fresh row (1, e_1, ..., e_r), the only row that can enter at k >= 1.  R_k
    never rises, so the steps of each R_k make one loop; a step with fewer
    rows reads the top slots only.  Extra columns and rows past the band's
    reach or past lam1 feed no pivot, so a taller window serves as well, and
    one column wider (`_window_code`): lam's function runs its code on lam's
    own head rows (`_window_rows`) and loop counts, its defaults, under the
    file name "<schurfit band parts r=r kind>".  A band whose window would
    be the whole matrix, R_0 = lam1, gains nothing from it and takes
    `_wide_band`'s e-form, `det`'s elimination, instead."""
    first = [max(0, -c) for c in offsets]
    sizes = [bisect_right(first, k) - k for k in range(parts[0])]
    if sizes[0] == parts[0]:
        return _wide_band(parts, r, offsets, False)
    window = _window_code(kind, min(r + 1, parts[0]), sizes[0])
    width, rows = window.shape
    steps = tuple(sizes.count(size) for size in range(rows, 1, -1))

    def mixed(z):  # a float-first point with a complex entry: the complex code
        return _schur_of(Partition(parts), complex, r)(z)

    signature = "%s r=%d %s" % (parts, r, kind)
    head = _window_rows(r, offsets[: sizes[0]], width, rows, kind, signature)
    code = window.__code__.replace(co_filename="<schurfit band %s>" % signature)
    return FunctionType(code, window.__globals__, "schur", (mixed, head, steps))


def _window_rows(r, offsets, width, rows, kind, signature):
    """The function of the point that opens `_window_code`'s code on a band
    on r points with the head row offsets `offsets`: it returns e_1, ...,
    e_{width - 1}, then window row s, e_{c_s + j} for j < width, for each
    of the `rows` slots, with the int 0 past e_r and in the slots past the
    head, which are never read.  The e_k are `elem_sym_all`'s steps written
    out (`_elementary`) in `kind`, so they keep its bits, without its loop,
    a padded list or a slice per row."""
    body = []
    names = _elementary(r, min(offsets[0] + width - 1, r), lambda target, terms: _assign(body, target, terms, kind))
    entry = lambda k: "0" if k > r else "1" if k == 0 else names[k]
    heads = [offsets[s] if s < len(offsets) else None for s in range(rows)]
    values = [entry(j) for j in range(1, width)]
    values += [entry(c + j) if c is not None else "0" for c in heads for j in range(width)]
    lines = ["def rows(z):", *_unpack(r, kind, body), *body, "    return " + ", ".join(values)]
    return _compiled("rows", signature, lines)


class _One:
    """The empty product: one * x is x itself, the bits of the first pivot."""

    __slots__ = ()

    def __mul__(self, x):
        return x


# `_sliding_window`'s code by kind, each function with its window's shape
_WINDOWS = {"real": [], "complex": []}


def _window_code(kind, width, rows):
    """`_sliding_window`'s code in `kind` for a window of `width` columns and
    `rows` rows, its `shape`, or one compiled before that is taller or one
    column wider: an extra row costs a few locals per call, an extra column
    a few operations per step, and so the bands of a fit's minor sums, on
    one point fewer, run on the code of its denominator's.

    schur(z, mixed, head, steps) serves the points of one table, float in
    real code and complex in complex code, and tests none of them.  It
    takes e_1, ..., e_{width - 1} and the window's head rows from head(z)
    (`_window_rows`); real code takes z to `mixed` unless e_1 is a float: a
    complex entry after a float first one makes every e_k complex, whose key
    is the complex code's.  Then it runs steps[i] steps of rows - i rows,
    then the last step, of one row.  Each step is `det`'s on the same
    operands in the same order: the pivot is the first live row of largest
    key, x * x in real code and x.real^2 + x.imag^2 in complex code, `det`'s
    float keys, replaced only by a strictly greater key, so NaN keys never
    replace; no live row gives the int 0; the pivot row is swapped into the
    top slot, which flips the sign; each other live row takes f = a / pivot,
    then a - f * b where the pivot row is nonzero; and d = d * pivot, from
    d = `_One()`.

    Every step of a height but its first holds the fresh row
    (1, e_1, ...) in its bottom slot, so those steps take it as the loop's
    constants, not as locals: its key is the int 1, it is always live, and
    the step ends in one of two ways.  If the fresh row is not the pivot,
    eliminating it gives e_j - (1 / pivot) * w0_j where w0_j is nonzero,
    written straight into the slot it moves up to.  If it is, it swaps in as
    (1, e_1, ...), which leaves d * 1 and a / 1 to the other rows, and the
    row it displaces moves up with them.  Every other row of such a step
    holds the int 0 in the window's last column, which it took as it moved
    up and which only a fresh pivot's e_{width - 1} updates, so when the
    fresh row is not the pivot no step reads that column but to hand the
    fresh row's e_{width - 1} on."""
    for code in _WINDOWS[kind]:
        if width <= code.shape[0] <= width + 1 and code.shape[1] >= rows:
            return code
    key = "{0} * {0}" if kind == "real" else "{0}.real * {0}.real + {0}.imag * {0}.imag"
    w = [["w%d_%d" % (s, j) for j in range(width)] for s in range(rows)]
    e = ["1", *("e%d" % j for j in range(1, width))]

    def search(size):  # the first live row of largest key among the top `size` slots
        out = ["p = 0 if w0_0 else -1", "b = " + key.format("w0_0")]
        for s in range(1, size):
            out += ["if w%d_0:" % s, "    t = " + key.format("w%d_0" % s)]
            out += ["    if p < 0 or t > b:", "        p, b = %d, t" % s]
        return out

    def swaps(size, cols=width):  # the pivot slot's first `cols` entries into the top slot's
        out = []
        for s in range(1, size):
            pair = ", ".join(w[0][:cols] + w[s][:cols]), ", ".join(w[s][:cols] + w[0][:cols])
            out += ["if p == %d:" % s, "    %s = %s" % pair, "    neg = not neg"]
        return out

    def eliminate(s, pivot):  # slot s against the pivot row's entries
        out = ["if w%d_0:" % s, "    f = w%d_0 / %s" % (s, pivot[0])]
        for j in range(1, len(pivot)):
            out += ["    if %s:" % pivot[j], "        w%d_%d = w%d_%d - f * %s" % (s, j, s, j, pivot[j])]
        return out

    def moved(sources, top=0):  # the rows `sources` one column on, into the slots from `top` down
        targets = [name for s in range(top, top + len(sources)) for name in w[s]]
        return "%s = %s" % (", ".join(targets), ", ".join(v for row in sources for v in (*row[1:], "0")))

    def step(size):  # a step whose bottom slot holds a row of locals
        out = [*search(size), "if p < 0:", "    return 0", *swaps(size), "d = d * w0_0"]
        for s in range(1, size):
            out += eliminate(s, w[0])
        return out + [moved([w[s + 1]], s) for s in range(size - 1)]

    def fresh(size):  # a step whose bottom slot holds the fresh row
        top = size - 1
        if top == 1:
            out = ["if not w0_0 or 1 > %s:" % key.format("w0_0")]
        else:
            out = [*search(top), "if p < 0 or 1 > b:"]
        taken = ["neg = not neg", "d = d * 1"]  # the fresh row takes the pivot
        for s in range(top):
            taken += eliminate(s, e)
        taken.append(moved(w[1:top] + [w[0]]))
        kept = [*swaps(top, width - 1), "d = d * w0_0"]  # a carried row keeps it
        for s in range(1, top):
            kept += eliminate(s, w[0][:-1])
        fold = ["(%s - f * w0_%d if w0_%d else %s)" % (e[j], j, j, e[j]) for j in range(1, width - 1)]
        kept += ["f = 1 / w0_0", moved(w[1:top] + [["1", *fold, e[-1]]])]
        return out + ["    " + line for line in taken] + ["else:"] + ["    " + line for line in kept]

    lines = ["def schur(z, mixed, head, steps):", "    %s = head(z)" % ", ".join(e[1:] + [v for row in w for v in row])]
    if kind == "real":
        lines += ["    if type(e1) is not float:", "        return mixed(z)"]
    lines.append("    d, neg, (%s,) = one, False, steps" % ", ".join("n%d" % i for i in range(rows - 1)))
    for size in range(rows, 1, -1):
        n = "n%d" % (rows - size)
        lines += ["    if %s:" % n, *("        " + line for line in step(size))]
        lines += ["        for _ in range(%s - 1):" % n, *("            " + line for line in fresh(size))]
    lines += ["    if not w0_0:", "        return 0", "    d = d * w0_0", "    return -d if neg else d"]
    code = _compiled("schur", "window C=%d R=%d %s" % (width, rows, kind), lines, one=_One())
    code.shape = width, rows
    _WINDOWS[kind].append(code)
    return code


# The code kind of each point type (see "The statement writer"); a type not
# named here takes the complex code, which writes the terms verbatim.  The
# mode goes with the type too: float and complex types, subclasses included,
# are float mode, every other type exact (`_schur_of`).  A native point takes
# the code of its first entry's type, so one that mixes real and complex
# numbers, whose signed zeros the factors 1 decide, should lead with a
# complex one; the walker's points share one type.
_KINDS = {float: "real", int: "real", Fraction: "real", complex: "complex", _Gaussian: "pairs"}

# V code by point type, then r; Schur code by point type, then the normalized
# parts of lam, then r.  Each type has tables of its own, so every function
# in them is built for one mode and one code kind, and no call re-decides its
# route.  `schur` reads the Schur code through each partition's own table
# (`Partition._codes`), by point type and then r, so that no call hashes a
# tuple.  All are plain dicts, as a subscript of a dict subclass, such as
# one with `__missing__`, costs more.  A call makes one lookup, by the type of
# its first entry and its length: a miss raises KeyError, or IndexError for
# an empty point, on which `_vandermonde_of` or `_schur_of` fills the entry,
# or for Scalar points `_scalar_code`, whose entries sit under Scalar.
_vandermonde_code, _schur_code = {}, {}


def _vandermonde_of(t, r):
    """V's code on r points of type t, built on the first call in the code
    kind of t; V takes the same steps in both modes."""
    table = _vandermonde_code.setdefault(t, {})
    if r not in table:
        table[r] = _vandermonde_function(r, _KINDS.get(t, "complex"))
    return table[r]


def _schur_of(lam, t, r):
    """s_lam's code on r points of type t, built on the first call for the
    mode of t, exact unless t is a float or complex type, and its code kind;
    lam's own table then maps t to the table of t and lam's parts."""
    table = _schur_code.setdefault(t, {}).setdefault(lam._normalized, {})
    if r not in table:
        exact = not issubclass(t, (float, complex))
        table[r] = _schur_function(lam._normalized, r, exact, _KINDS.get(t, "complex"))
    lam._codes[t] = table
    return table[r]


def _scalar_type(mode, values):
    """The point type whose code the values of a Scalar point of `mode` take:
    Fraction for exact values, whose real code drops factors 1 that are exact
    on `_Gaussian` values too; for float values complex, whose code writes
    the terms verbatim, if a value is complex, else float."""
    if mode:
        return Fraction
    return complex if any(type(v) is complex for v in values) else float


def _scalar_code(lam, r):
    """s_lam's code, or V's if lam is None, on r Scalar points, kept under
    Scalar in lam's table or V's: the code of the values' type
    (`_scalar_type`) between `_unwrap` and `_wrap`."""

    def code(z):
        mode, z = _unwrap(z)
        t = _scalar_type(mode, z)
        return _wrap(mode, (_vandermonde_of(t, r) if lam is None else _schur_of(lam, t, r))(z))

    (_vandermonde_code if lam is None else lam._codes).setdefault(Scalar, {})[r] = code
    return code


def vandermonde(z):
    """prod_{i<j} (z_i - z_j); empty and singleton points give 1.  The code
    is picked as `schur`'s."""
    try:
        code = _vandermonde_code[type(z[0])][len(z)]
    except LookupError:  # an empty point, or code not built yet
        t = type(z[0]) if z else int
        code = _scalar_code(None, len(z)) if t is Scalar else _vandermonde_of(t, len(z))
    return code(z)


def schur(lam, z):
    """Schur value s_lam(z) via the dual Jacobi-Trudi determinant.

    Empty lam gives 1; lam with more nonzero parts than variables gives 0.
    One type test on the first entry picks the code table of the point's
    type, whose functions were built for that type's mode and code kind (see
    `_schur_of`); a Scalar point's values take the code of `_scalar_type`
    between `_unwrap` and `_wrap`.  The code for (lam, len(z)) is compiled
    once per type; see `_schur_function`.
    """
    try:
        code = lam._codes[type(z[0])][len(z)]
    except LookupError:  # an empty point, or code not built yet
        t = type(z[0]) if z else int
        code = _scalar_code(lam, len(z)) if t is Scalar else _schur_of(lam, t, len(z))
    return code(z)
