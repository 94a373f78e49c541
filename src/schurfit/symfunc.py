"""Point evaluation of symmetric functions.

`elem_sym_all`, `vandermonde`, `det` and `schur` take points of Scalars, which
give Scalars, or of native float, complex, int, Fraction or Gaussian-pair
values, which compute in their own type; the subset kernel in `regress` uses
the latter.  The number type, and with it the mode, is read off the points.
They need only + - * /, a zero test (bool), == 1 for exact pivoting and |a|^2
for float pivoting; `det` divides ints exactly, as Fractions, and only from
order 4 on: exact determinants up to order 3 are cofactor expansions.  The
empty point gives the ints 0 and 1, exact identities in every type.

The production route for Schur values is the dual Jacobi-Trudi determinant in
elementary symmetric polynomials, the lam1 x lam1 matrix (e_{lam'_i - i + j})
with the e_k expanded one linear factor at a time.  Its entries vanish for
k > r, the number of variables, so the matrix is banded and `det` eliminates
inside the band only: O(lam1 * l(lam) * (r + l(lam))) work instead of
O(lam1^3), which makes high sparse exponents such as (40, 20, 0) cheap.

Float mode stays on this e-form although the h-form determinant (h_{lam_i -
i + j}) is only l(lam) x l(lam): the h-form cancels.  For lam = (38, 19) on
three points its 2 x 2 value h_38 h_19 - h_39 h_18 had relative error 1.0
against s_lam(|x|) on points in (0, 2) and 1.6e8 on mixed-sign points, where
the e-form elimination stayed below 4e-15 (see Demmel and Koev, "Accurate and
efficient evaluation of Schur and Jack functions", Math. Comp. 2006).

The subset kernel calls `schur` and `vandermonde` once per subset and
partition, mostly on bands of width lam1 <= 3, whose whole arithmetic is a few
multiply-adds.  For those, and for V, each (lam, r) on at most
UNROLL_MAX_POINTS points is compiled once into straight-line code that takes
the same steps as `elem_sym_all`, `det` and the V loop, in the same order on
the same operands, so values are bit-identical and only the loops, index rows
and calls are gone.  A 3 x 3 band calls `_det3`, shared by every lam: the
cofactor expansion in exact mode, and in float mode `det`'s elimination
written out with its pivot choice as branches.  Wider bands, such as the 38-
and 39-wide ones of (40, 20, 0), run the banded `det`.

The bialternant ratio and the semistandard tableaux sum are retained as
independent cross-checks; they take the same points as `schur`, and the
tableaux route is deliberately brute force and guarded to desk-scale inputs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .numeric import Scalar, ScalarModeError, scalar_pow
from .partitions import Partition, conjugate

SSYT_MAX_WEIGHT = 12
SSYT_MAX_VARS = 6


def _kind(z):
    """(exact, zero, one) for the number type of point z.

    Scalar points get the Scalar zero and one of their common mode.  Native
    points, exact unless float or complex, and the empty point get the ints 0
    and 1, exact identities in every type.
    """
    if z and isinstance(z[0], Scalar):
        mode = z[0].exact
        if any(s.exact is not mode for s in z):
            raise ScalarModeError("point mixes exact and float scalars")
        return mode, Scalar.zero(mode), Scalar.one(mode)
    return not (z and isinstance(z[0], (float, complex))), 0, 1


def _abs_sq(a):
    """|a|^2 in binary64, the pivot size of float elimination."""
    a = complex(a)
    return a.real * a.real + a.imag * a.imag


def elem_sym_all(z):
    """All elementary symmetric values (e_0, ..., e_r) of z, e_0 = 1.

    Expands prod(X - z_j) one factor at a time: the j-th factor costs j-1
    extra multiplications, n(n-1) flops in total.
    """
    e = [_kind(z)[2]]
    for j, zj in enumerate(z):
        e.append(e[j] * zj)
        for k in range(j, 0, -1):
            e[k] = e[k] + e[k - 1] * zj
    return e


def vandermonde(z):
    """prod_{i<j} (z_i - z_j); empty and singleton points give 1."""
    return _vandermonde_code(len(z))(z, _kind(z)[2])


def _vandermonde_loop(z, one):
    """V multiplied out as one * (z0 - z1) * (z0 - z2) * ... * (z_{r-2} - z_{r-1})."""
    v = one
    for i, zi in enumerate(z):
        for zj in z[i + 1 :]:
            v = v * (zi - zj)
    return v


def det(rows, exact):
    """Determinant of a square matrix: a cofactor expansion up to order 2,
    and in exact mode up to order 3 (`_det3`), else Gaussian elimination that
    skips zeros.

    The entries are Scalars or native numbers.  A dual Jacobi-Trudi row mixes
    the ints 0 and 1 with the points' type, so no one entry tells the mode,
    and `exact` selects the method; the empty matrix gives the int 1.  Exact
    arithmetic gives the one value in any order of operations, so only float
    mode needs the elimination and its pivots at order 3.

    Step k of the elimination touches only the rows below the pivot with a
    nonzero entry in column k and only the columns where the pivot row is
    nonzero, so a banded matrix such as the dual Jacobi-Trudi one, whose
    entries e_k vanish for k > r, costs O(width * band^2) instead of
    O(width^3).  Float mode pivots on the first row of largest |a_ik|^2
    (partial pivoting); a skipped update is a - 0*b, so finite results are
    bit-identical to dense LU.  Exact mode, from order 4 on, pivots on the
    first row holding the unit 1, which needs no division and so keeps int
    entries ints, else on the first nonzero row, and lifts an int pivot to
    Fraction, so that int entries divide exactly; Fractions are canonical, so
    the value equals any other exact method's.
    """
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3 and exact:
        return _det3(*rows[0], *rows[1], *rows[2], True)
    a = [list(r) for r in rows]
    sign = 1
    for k in range(n):
        live = [i for i in range(k, n) if a[i][k]]
        if not live:
            return Scalar.zero(exact) if isinstance(a[k][k], Scalar) else 0
        if exact:
            p = next((i for i in live if a[i][k] == 1), live[0])
        else:
            p = max(live, key=lambda i: _abs_sq(a[i][k]))
        others = [a[i] for i in live if i != p]
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        unit = exact and pivot == 1
        if exact and not unit and type(pivot) is int:  # int / int would round to a float
            pivot = Fraction(pivot)
        cols = [j for j in range(k + 1, n) if pivot_row[j]]
        for row in others:
            f = row[k] if unit else row[k] / pivot
            for j in cols:
                row[j] = row[j] - f * pivot_row[j]
    d = a[0][0]
    for k in range(1, n):
        d = d * a[k][k]
    return -d if sign < 0 else d


def _det3(a, b, c, d, e, f, g, h, i, exact):
    """Determinant of the rows (a, b, c), (d, e, f), (g, h, i), for exact
    `det` of order 3 and the Schur code of bands of width 3.

    Exact mode returns the cofactor expansion, which gives the one exact value
    in any order of operations.  Float mode is `det`'s elimination with its
    loops written out: the same live rows, pivots, row exchanges, skipped
    columns and operations in the same order, so the bits are those of `det`'s
    loop, the reference the tests hold this to."""
    if exact:
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    # column 0: rows 0, 1 and 2 are live where a, d and g are nonzero
    p = -1
    if a:
        p, size = 0, _abs_sq(a)
    if d:
        s = _abs_sq(d)
        if p < 0 or s > size:
            p, size = 1, s
    if g and (p < 0 or _abs_sq(g) > size):
        p = 2
    if p < 0:
        return Scalar.zero(False) if isinstance(a, Scalar) else 0
    negative = p > 0
    if p == 1:
        a, b, c, d, e, f = d, e, f, a, b, c
    elif p == 2:
        a, b, c, g, h, i = g, h, i, a, b, c
    if d:
        t = d / a
        if b:
            e = e - t * b
        if c:
            f = f - t * c
    if g:
        t = g / a
        if b:
            h = h - t * b
        if c:
            i = i - t * c
    # column 1 on rows 1 and 2
    if not (e or h):
        return Scalar.zero(False) if isinstance(e, Scalar) else 0
    if h and (not e or _abs_sq(h) > _abs_sq(e)):
        d, e, f, g, h, i = g, h, i, d, e, f
        negative = not negative
    if h:
        t = h / e
        if f:
            i = i - t * f
    # column 2 on row 2
    if not i:
        return Scalar.zero(False) if isinstance(i, Scalar) else 0
    v = a * e * i
    return -v if negative else v


def alternating(mu, z):
    """Determinant of the matrix (z_i ** mu_j) for a strictly decreasing mu."""
    if len(mu) != len(z):
        raise ValueError("exponent tuple and point must have equal length")
    if any(a <= b for a, b in zip(mu, list(mu)[1:])):
        raise ValueError(f"exponents must be strictly decreasing: {tuple(mu)}")
    rows = [[scalar_pow(zi, e) for e in mu] for zi in z]
    return det(rows, _kind(z)[0])


def _jacobi_trudi_indices(parts, r):
    """Entry indices e_{lam'_i - i + j} of the dual Jacobi-Trudi matrix,
    with None marking out-of-range entries (k < 0 or k > r).  Uncached: its
    one caller, `_schur_code`, is cached on the same (parts, r)."""
    lam_conj = conjugate(Partition(parts))
    width = parts[0]
    rows = []
    for i in range(width):
        row = []
        for j in range(width):
            k = lam_conj[i] - (i + 1) + (j + 1)
            row.append(k if 0 <= k <= r else None)
        rows.append(tuple(row))
    return tuple(rows)


# Straight-line code (see the module docstring).  Beyond UNROLL_MAX_POINTS
# points the C(r, 2) or O(r * l(lam)) statements would cost more to compile
# and keep than they save.  Bands wider than 3 stay on `det`: written out,
# the pivot branches grow with the width, and every lam would compile its own.
# Every statement holds at most three operations: one nested expression of
# all of them overflows the compiler's recursion on a hundred points.
UNROLL_MAX_POINTS = 16


def _compiled(name, lines):
    """The function `name` defined by the source `lines`, which may call
    `_det3`."""
    namespace = {"_det3": _det3}
    exec("\n".join(lines), namespace)
    return namespace[name]


def _unpack(r):
    """A statement binding the r >= 1 entries of point z to z0, z1, ..."""
    return "    " + "".join(f"z{i}, " for i in range(r)) + "= z"


@lru_cache(maxsize=None)
def _vandermonde_code(r):
    """V on r points as a function of (z, one): `_vandermonde_loop`, or on at
    most UNROLL_MAX_POINTS points its steps unrolled."""
    if r > UNROLL_MAX_POINTS:
        return _vandermonde_loop
    lines = ["def vandermonde(z, one):", _unpack(r) if r else "", "    v = one"]
    lines += [f"    v = v * (z{i} - z{j})" for i in range(r) for j in range(i + 1, r)]
    return _compiled("vandermonde", lines + ["    return v"])


@lru_cache(maxsize=None)
def _schur_code(parts, r):
    """s_lam on r points as a function of (z, zero, one, exact), for the
    normalized parts of lam.

    A band of width lam1 <= 3 on at most UNROLL_MAX_POINTS points is
    straight-line code: `elem_sym_all` unrolled up to the highest e_k the
    matrix reads, then `det`'s 1 x 1 or 2 x 2 formula or a call of `_det3` on
    the same entries, with `zero` outside the band.  Otherwise the e_k fill
    the rows of `det`.
    """
    if not parts:
        return lambda z, zero, one, exact: one
    if len(parts) > r:
        return lambda z, zero, one, exact: zero
    idx = _jacobi_trudi_indices(parts, r)
    if len(idx) > 3 or r > UNROLL_MAX_POINTS:

        def banded(z, zero, one, exact):
            e = elem_sym_all(z)
            return det([[e[k] if k is not None else zero for k in row] for row in idx], exact)

        return banded
    top = max(k for row in idx for k in row if k is not None)
    name = ["one", *(f"e{k}" for k in range(1, top + 1))]
    lines = ["def schur(z, zero, one, exact):", _unpack(r)]
    for j in range(r):
        if j < top:
            lines.append(f"    {name[j + 1]} = {name[j]} * z{j}")
        lines += [f"    {name[k]} = {name[k]} + {name[k - 1]} * z{j}" for k in range(min(j, top), 0, -1)]
    entries = [[name[k] if k is not None else "zero" for k in row] for row in idx]
    if len(entries) == 1:
        lines.append(f"    return {entries[0][0]}")
    elif len(entries) == 2:
        (a, b), (c, d) = entries
        lines.append(f"    return {a} * {d} - {b} * {c}")
    else:
        lines.append(f"    return _det3({', '.join(k for row in entries for k in row)}, exact)")
    return _compiled("schur", lines)


def schur(lam, z):
    """Schur value s_lam(z) via the dual Jacobi-Trudi determinant.

    Empty lam gives 1; lam with more nonzero parts than variables gives 0.
    """
    exact, zero, one = _kind(z)
    return _schur_code(lam.normalized(), len(z))(z, zero, one, exact)


def schur_bialternant(lam, z):
    """s_lam(z) as the alternating ratio a_{lam+delta}(z) / V(z).

    Requires pairwise distinct entries; exact points divide exactly, so int
    points give an int or a Fraction, never a float.
    """
    r = len(z)
    for i in range(r):
        for j in range(i + 1, r):
            if not z[i] - z[j]:
                raise ZeroDivisionError(
                    f"bialternant needs distinct entries; z[{i}] == z[{j}]"
                )
    parts = lam.normalized()
    exact, zero, one = _kind(z)
    if len(parts) > r:
        return zero
    if r == 0:
        return one
    padded = parts + (0,) * (r - len(parts))
    mu = tuple(p + (r - 1 - i) for i, p in enumerate(padded))
    a = alternating(mu, z)
    if exact and type(a) is int:  # int / int would round to a float, as in `det`
        a = Fraction(a)
    return a / vandermonde(z)


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
    variables.  The tableau counts are ints, made Scalars for Scalar points
    only, so native points compute in their own type.
    """
    parts = lam.normalized()
    r = len(z)
    if sum(parts) > SSYT_MAX_WEIGHT or r > SSYT_MAX_VARS:
        raise ValueError(
            f"tableaux enumeration refused: |lam|={sum(parts)} (max "
            f"{SSYT_MAX_WEIGHT}), vars={r} (max {SSYT_MAX_VARS})"
        )
    mode, total, one = _kind(z)
    for content, count in sorted(_ssyt_contents(parts, r).items()):
        term = Scalar.from_int(count, mode) if isinstance(one, Scalar) else count
        for zi, ci in zip(z, content):
            if ci:
                term = term * scalar_pow(zi, ci)
        total = total + term
    return total
