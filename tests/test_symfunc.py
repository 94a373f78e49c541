import cProfile
import math
import pstats
import random
import sys
from fractions import Fraction
from itertools import permutations

import pytest

from schurfit.numeric import Scalar, ScalarModeError, _Gaussian
from schurfit.partitions import Partition, conjugate, staircase
from schurfit.reference import alternating, schur_bialternant, schur_tableaux
from schurfit.regress import _appended_walker, _minors_walk, _walker
from schurfit import regress, symfunc
from schurfit.symfunc import (
    UNROLL_MAX_POINTS,
    _assign,
    _det3,
    _schur_code,
    _schur_function,
    _schur_of,
    _vandermonde_function,
    _vandermonde_loop,
    _vandermonde_of,
    det,
    elem_sym_all,
    schur,
    vandermonde,
)

from _helpers import distinct_rationals, exact_scalar, jacobi_trudi_rows, kind, rational, rows_and_det


def ex(*vals):
    return tuple(Scalar.from_exact(v) for v in vals)


def test_elem_sym_examples():
    e = elem_sym_all(ex(1, 2, 3))
    assert e == list(ex(1, 6, 11, 6))


def test_elem_sym_quadratic():
    rng = random.Random(3)
    for _ in range(20):
        a, b = exact_scalar(rng), exact_scalar(rng)
        e = elem_sym_all((a, b))
        assert e[1] == a + b
        assert e[2] == a * b


def test_vandermonde_examples():
    assert vandermonde(ex(5)) == Scalar.one(True)
    assert vandermonde(ex(3, 1)) == Scalar.from_exact(2)
    assert vandermonde(ex(1, 2, 3)) == Scalar.from_exact(-2)
    # native points compute in their own type
    assert vandermonde((Fraction(3), Fraction(1))) == Fraction(2)
    assert vandermonde((1.5, 0.5, -0.5)) == 2.0


def test_empty_point_gives_the_ints_0_and_1():
    # a point with no entries has no number type to read; the ints 0 and 1
    # are exact identities in every type
    lam = Partition((2, 1))
    for got, want in [
        (vandermonde(()), 1),
        (elem_sym_all(()), [1]),
        (schur(Partition(()), ()), 1),
        (schur(lam, ()), 0),
        (alternating((), ()), 1),
        (schur_bialternant(Partition(()), ()), 1),
        (schur_bialternant(lam, ()), 0),
        (schur_tableaux(Partition(()), ()), 1),
        (schur_tableaux(lam, ()), 0),
        (det([], True), 1),
    ]:
        assert got == want
        assert all(type(v) is int for v in (got if isinstance(got, list) else [got]))


def test_alternating_staircase_is_vandermonde():
    rng = random.Random(4)
    for r in range(1, 5):
        z = ex(*distinct_rationals(rng, r))
        mu = tuple(staircase(r))
        assert alternating(mu, z) == vandermonde(z)


def test_alternating_small_and_degenerate():
    a, b = ex(3, 5)
    assert alternating((1, 0), (a, b)) == a - b
    assert not alternating((2, 0), (a, a))


def test_alternating_antisymmetry():
    rng = random.Random(5)
    z = ex(*distinct_rationals(rng, 3))
    mu = (4, 2, 1)
    swapped = (z[1], z[0], z[2])
    assert alternating(mu, swapped) == -alternating(mu, z)


def test_alternating_rejects_non_decreasing():
    with pytest.raises(ValueError):
        alternating((1, 2), ex(1, 2))
    with pytest.raises(ValueError):
        alternating((1, 0), ex(1, 2, 3))


def test_schur_golden_factored_forms():
    # the four shapes arising from the even-quartic model
    rng = random.Random(6)
    for _ in range(30):
        x1, x2, x3 = (exact_scalar(rng) for _ in range(3))
        s210 = schur(Partition((2, 1, 0)), (x1, x2, x3))
        assert s210 == (x1 + x2) * (x1 + x3) * (x2 + x3)
        assert schur(Partition((1, 0)), (x1, x2)) == x1 + x2
        s30 = schur(Partition((3, 0)), (x1, x2))
        sq = lambda s: s * s
        assert s30 == (x1 + x2) * (sq(x1) + sq(x2))
        s32 = schur(Partition((3, 2)), (x1, x2))
        assert s32 == sq(x1) * sq(x2) * (x1 + x2)


def test_schur_edge_cases():
    z = ex(5, 7)
    assert schur(Partition(()), z) == Scalar.one(True)
    assert schur(Partition((0, 0)), z) == Scalar.one(True)
    assert not schur(Partition((1, 1, 1)), z)  # more parts than variables


def test_schur_single_column_is_elementary():
    rng = random.Random(7)
    z = ex(*distinct_rationals(rng, 4))
    e = elem_sym_all(z)
    for i in range(1, 5):
        lam = Partition((1,) * (i - 1))
        assert schur(lam, z) == e[i - 1]


def test_bialternant_matches_jacobi_trudi():
    rng = random.Random(8)
    for _ in range(30):
        r = rng.randint(1, 4)
        z = ex(*distinct_rationals(rng, r))
        parts = sorted((rng.randint(0, 4) for _ in range(r)), reverse=True)
        lam = Partition(parts)
        assert schur_bialternant(lam, z) == schur(lam, z)


def test_bialternant_examples_and_errors():
    assert schur_bialternant(Partition((2, 1, 0)), ex(1, 2, 3)) == Scalar.from_exact(60)
    assert schur_bialternant(Partition(()), ex(5, 7)) == Scalar.one(True)
    with pytest.raises(ZeroDivisionError):
        schur_bialternant(Partition((1,)), ex(2, 2))


def test_tableaux_examples():
    rng = random.Random(9)
    z = ex(*distinct_rationals(rng, 4))
    total = z[0] + z[1] + z[2] + z[3]
    assert schur_tableaux(Partition((1,)), z) == total
    ones3 = ex(1, 1, 1)
    assert schur_tableaux(Partition((2, 1, 0)), ones3) == Scalar.from_exact(8)
    assert schur_tableaux(Partition((3, 2)), ex(1, 1)) == Scalar.from_exact(2)


def test_tableaux_guard():
    z = ex(*range(1, 8))
    with pytest.raises(ValueError):
        schur_tableaux(Partition((1,)), z)  # 7 variables
    with pytest.raises(ValueError):
        schur_tableaux(Partition((13,)), ex(1, 2))  # weight 13


def test_divisibility_including_repeated_points():
    rng = random.Random(10)
    for _ in range(30):
        r = rng.randint(2, 4)
        vals = distinct_rationals(rng, r)
        if rng.random() < 0.5:
            vals[-1] = vals[0]  # force a repeated entry
        z = ex(*vals)
        parts = sorted((rng.randint(0, 3) for _ in range(r)), reverse=True)
        lam = Partition(parts)
        mu = tuple(p + s for p, s in zip(lam, staircase(r)))
        assert alternating(mu, z) == schur(lam, z) * vandermonde(z)


def test_schur_symmetry():
    rng = random.Random(11)
    z = ex(*distinct_rationals(rng, 3))
    lam = Partition((3, 1, 0))
    base = schur(lam, z)
    for perm in permutations(z):
        assert schur(lam, perm) == base


def test_schur_positivity_on_positive_reals():
    rng = random.Random(12)
    for _ in range(20):
        r = rng.randint(1, 4)
        z = ex(*distinct_rationals(rng, r, lo=1, hi=9))
        parts = sorted((rng.randint(0, 3) for _ in range(r)), reverse=True)
        val = schur(Partition(parts), z)
        assert val.im == 0 and val.re > 0


def test_principal_specialization_counts_tableaux():
    for parts, r in [((2, 1), 3), ((3, 2), 2), ((2, 2, 1), 4), ((4,), 3)]:
        lam = Partition(parts)
        ones = ex(*([1] * r))
        assert schur(lam, ones) == schur_tableaux(lam, ones)


def test_triple_agreement_sample():
    rng = random.Random(13)
    for parts in [(2, 1), (3, 2, 1), (4, 2), (1, 1, 1), (5,)]:
        lam = Partition(parts)
        for _ in range(5):
            z = ex(*distinct_rationals(rng, 4))
            jt = schur(lam, z)
            assert jt == schur_bialternant(lam, z)
            assert jt == schur_tableaux(lam, z)


def test_det_float_matches_exact():
    rng = random.Random(14)
    for n in range(1, 5):
        rows = [[Scalar.from_exact(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        exact_val = det(rows, True)
        float_val = det([[v.to_float() for v in row] for row in rows], False)
        assert abs(float_val - exact_val.to_float()) < 1e-9 * max(1.0, abs(exact_val))


def leibniz(rows, exact):
    """Determinant as the signed sum over permutations, the reference for det."""
    n = len(rows)
    total = Scalar.zero(exact)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Scalar.one(exact)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def test_det_exact_matches_leibniz_on_sparse_matrices():
    rng = random.Random(15)
    zero = Scalar.zero(True)
    for n in range(1, 7):
        for trial in range(8):
            density = (0.3, 0.6, 1.0)[trial % 3]
            if trial % 2:
                entry = lambda: exact_scalar(rng, complex_=True)
            else:
                entry = lambda: Scalar.from_exact(rng.randint(-4, 4))
            rows = [[entry() if rng.random() < density else zero for _ in range(n)] for _ in range(n)]
            assert det(rows, True) == leibniz(rows, True)


def test_det_exact_singular_and_row_swaps():
    rng = random.Random(16)
    zero = Scalar.zero(True)

    def nonzero():
        re = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        return Scalar.from_exact(re, Fraction(rng.randint(-9, 9), 4))

    for n in range(3, 7):
        base = [[nonzero() for _ in range(n)] for _ in range(n)]
        k = Scalar.from_exact(3, -1)
        combined = base[:-1] + [[u + k * v for u, v in zip(base[0], base[1])]]
        zero_column = [row[:1] + [zero] + row[2:] for row in base]
        for singular in (combined, zero_column):
            assert det(singular, True) == zero == leibniz(singular, True)
        # zero pivots on the diagonal force row swaps
        anti = [[base[i][j] if i + j == n - 1 else zero for j in range(n)] for i in range(n)]
        hollow = [[zero if i == j else base[i][j] for j in range(n)] for i in range(n)]
        assert det(anti, True)
        for swapped in (anti, hollow):
            assert det(swapped, True) == leibniz(swapped, True)


def test_det_float_banded_matches_exact_lift():
    # entries k/8 are exact in binary64, so the lift to Fractions is lossless;
    # the tolerance is relative to Hadamard's bound prod ||row||
    rng = random.Random(17)
    for n in range(3, 13):
        for complex_ in (False, True):
            lo, hi = -rng.randint(1, 3), rng.randint(1, 4)

            def entry(i, j):
                if not lo <= j - i <= hi:
                    return Scalar.from_exact(0)
                im = Fraction(rng.randint(-16, 16), 8) if complex_ else 0
                return Scalar.from_exact(Fraction(rng.randint(-16, 16), 8), im)

            rows = [[entry(i, j) for j in range(n)] for i in range(n)]
            exact_val = det(rows, True)
            float_val = det([[v.to_float() for v in row] for row in rows], False)
            hadamard = 1.0
            for row in rows:
                hadamard *= max(sum(abs(v) ** 2 for v in row) ** 0.5, 1e-300)
            assert abs(float_val - exact_val.to_float()) <= 1e-12 * hadamard


NATIVE_POINTS = {
    "float": (1.0, 2.0, -3.5),
    "complex": (1 + 2j, 2.0 + 0j, -1j),
    "int": (1, 2, 3),
    "fraction": (Fraction(1, 2), 2, Fraction(-3, 4)),
    "gaussian": (_Gaussian(1, 2), _Gaussian(2, 0), _Gaussian(0, -1)),
}


@pytest.mark.parametrize("kind", NATIVE_POINTS)
def test_reference_routes_accept_native_points(kind):
    # the bialternant and the tableaux sum take the points `schur` takes;
    # exact kinds agree exactly and never give a float (on two points the
    # alternant is `det`'s 2 x 2 formula, an int for int points)
    exact = kind not in ("float", "complex")
    for z in (NATIVE_POINTS[kind], NATIVE_POINTS[kind][:2]):
        for parts in [(2, 1), (3,), (2, 2, 1), (1, 1, 1)]:
            lam = Partition(parts)
            got = [schur(lam, z), schur_bialternant(lam, z), schur_tableaux(lam, z)]
            if exact:
                pairs = [(v.real, v.imag) for v in got]
                assert pairs[0] == pairs[1] == pairs[2], (kind, parts, z)
                assert not any(isinstance(p, float) for pair in pairs for p in pair), (kind, parts, z)
            else:
                assert max(abs(v - got[0]) for v in got) <= 1e-12 * abs(got[0]), (kind, parts, z)


HEADLINE_SHAPES = [(38, 19), (39, 20), (39,), (19,)]


@pytest.mark.parametrize("parts", HEADLINE_SHAPES, ids=str)
def test_jacobi_trudi_matches_bialternant_on_high_degree_shapes(parts):
    # the (40,20,0) model's shapes: 2x2 and 1x1 h-form determinants on
    # these exact points, 38x38 and 39x39 e-form bands in float mode
    lam = Partition(parts)
    for z in (ex(Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)), ex(2, Fraction(1, 7), -1)):
        assert schur(lam, z) == schur_bialternant(lam, z)


@pytest.mark.parametrize(
    "points",
    [(Fraction(1, 16), Fraction(3, 32), Fraction(19, 16)), (Fraction(-3, 32), Fraction(3, 32), Fraction(7, 4))],
    ids=["positive", "mixed_sign"],
)
def test_float_schur_accuracy_on_high_degree_shapes(points):
    # On these points the h-form 2x2 determinant h_a h_b - h_(a+1) h_(b-1)
    # loses every digit (relative error 1.0 on the positive points, 1.6e8 on
    # the mixed-sign ones); the e-form elimination stays below 4e-15.
    exact_z = ex(*points)
    abs_z = ex(*(abs(v) for v in points))
    float_z = tuple(v.to_float() for v in exact_z)
    for parts in HEADLINE_SHAPES[:2]:
        lam = Partition(parts)
        scale = abs(schur(lam, abs_z))
        assert abs(schur(lam, float_z) - schur(lam, exact_z).to_float()) <= 1e-10 * scale


def test_schur_on_int_points_is_exact():
    # the dual Jacobi-Trudi determinants of (3,) and (3, 2) are 3 x 3; a
    # route that divided int by int there would round to a float
    pts = (3, -7, 11)
    for parts in [(3,), (3, 2)]:
        lam = Partition(parts)
        for k in (2, 3):
            value = schur(lam, pts[:k])
            assert isinstance(value, (int, Fraction))
            reference = schur(lam, tuple(Scalar.from_exact(v) for v in pts[:k]))
            assert Scalar.from_exact(value) == reference


@pytest.mark.parametrize("parts", [(3,), (3, 2)], ids=str)
def test_exact_det_pivots_on_the_unit_and_stays_integral(parts):
    # the dual Jacobi-Trudi matrix of (3,) on two points is
    # [[e1, e2, 0], [1, e1, e2], [0, 1, e1]]: its exact determinant is a
    # cofactor expansion, which like a pivot on the unit e0 = 1 needs no
    # division, so int points give an int and Gaussian-int points a Gaussian
    # with int parts
    lam = Partition(parts)
    value = schur(lam, (2, 5))
    assert type(value) is int
    assert Scalar.from_exact(value) == schur(lam, ex(2, 5))
    gauss = schur(lam, (_Gaussian(2, 1), _Gaussian(5, -3)))
    assert type(gauss.real) is int and type(gauss.imag) is int
    scalar_points = (Scalar.from_exact(2, 1), Scalar.from_exact(5, -3))
    assert Scalar.from_exact(gauss.real, gauss.imag) == schur(lam, scalar_points)


@pytest.mark.parametrize("r", range(7))
def test_exact_schur_on_integral_points_stays_integral(r):
    # Schur polynomials have integer coefficients, and no exact route to them
    # divides up to 3 x 3 bands, so int points give an int and Gaussian-int
    # points an int or a Gaussian with int parts; the values are those of
    # `det`'s elimination loop
    rng = random.Random(200 + r)
    for _ in range(4):
        ints = tuple(rng.randint(-9, 9) for _ in range(r))
        gaussians = tuple(_Gaussian(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(r))
        for z in (ints, gaussians):
            for lam in _narrow_shapes(r):
                value = schur(lam, z)
                parts = (value.real, value.imag) if isinstance(value, _Gaussian) else (value,)
                assert all(type(p) is int for p in parts), (lam, z)
                assert value == _looped(lam, z), (lam, z)


def test_exact_det_pivots_on_a_gaussian_unit():
    # L U with unit-diagonal triangular factors of Gaussian ints: each column
    # of the elimination holds the Gaussian unit 1 + 0i, an exact pivot that
    # needs no division, so the determinant 1 keeps int parts
    rng = random.Random(32)
    n = 5

    def gaussian():
        return _Gaussian(rng.randint(-4, 4), rng.randint(-4, 4))

    one, zero = _Gaussian(1, 0), _Gaussian(0, 0)
    lower = [[gaussian() if j < i else one if j == i else zero for j in range(n)] for i in range(n)]
    upper = [[gaussian() if j > i else one if j == i else zero for j in range(n)] for i in range(n)]
    rows = [[sum((lower[i][k] * upper[k][j] for k in range(n)), zero) for j in range(n)] for i in range(n)]
    value = det(rows, True)
    assert value == 1
    assert type(value.real) is int and type(value.imag) is int


def _record_kinds(monkeypatch):
    # fresh code tables whose every function records its name and code kind,
    # and for Schur code the mode it was built for
    taken = []
    monkeypatch.setattr(symfunc, "_schur_code", {})
    monkeypatch.setattr(symfunc, "_vandermonde_code", {})
    monkeypatch.setattr(symfunc, "_schur_function", lambda parts, r, exact, kind: lambda z: taken.append(("schur", kind, exact)))
    monkeypatch.setattr(symfunc, "_vandermonde_function", lambda r, kind: lambda z: taken.append(("vandermonde", kind)))
    return taken


@pytest.mark.parametrize("point_kind", NATIVE_POINTS)
def test_gaussian_points_take_the_pair_tables(monkeypatch, point_kind):
    # `schur` and `vandermonde` pick the code tables by one type test on the
    # first entry: the tables of the point's type, whose code is pair code
    # for `_Gaussian` points, complex code for complex points and real code
    # for float, int and Fraction points, and whose Schur code was built for
    # the type's mode, exact unless the type is float or complex
    z = NATIVE_POINTS[point_kind]
    taken = _record_kinds(monkeypatch)
    schur(Partition((2, 1)), z)
    vandermonde(z)
    want = {"gaussian": "pairs", "complex": "complex"}.get(point_kind, "real")
    exact = point_kind not in ("float", "complex")
    assert kind(z)[0] is exact
    assert taken == [("schur", want, exact), ("vandermonde", want)]


def test_scalar_points_and_other_types_take_the_code_of_their_values(monkeypatch):
    # a float Scalar point takes the real code only if every value is real,
    # as one complex value among floats would meet the dropped one factors,
    # whose signed zeros they decide; an exact Scalar point takes the real
    # code of Fraction, as a factor 1 is exact on `_Gaussian` values too; a
    # point of another type, such as bool, takes the complex code, which
    # writes the terms verbatim, in exact mode
    cases = [
        (ex(1, 2, 3), "real", True),
        (tuple(Scalar.from_float(v) for v in (1.0, -0.0, 2.5)), "real", False),
        ((Scalar.from_exact(1), Scalar.from_exact(2, 1), Scalar.from_exact(3)), "real", True),
        ((Scalar.from_float(1.0), Scalar.from_float(-0.0, 1.0), Scalar.from_float(2.0)), "complex", False),
        ((True, False, True), "complex", True),
    ]
    for z, want, exact in cases:
        taken = _record_kinds(monkeypatch)
        schur(Partition((2, 1)), z)
        vandermonde(z)
        assert taken == [("schur", want, exact), ("vandermonde", want)], z


def test_points_that_mix_scalars_with_native_numbers_are_refused():
    # a point whose first entry is a Scalar is checked entry by entry, so a
    # native number in it is refused as a mixed mode; a native first entry is
    # not checked, and the Scalar fails in the arithmetic instead
    scalar_first = (Scalar.from_exact(1), 2, 3)
    for call in (
        lambda: schur(Partition((2, 1)), scalar_first),
        lambda: schur(Partition((5, 2)), scalar_first),
        lambda: vandermonde(scalar_first),
        lambda: elem_sym_all((Scalar.from_exact(1), 2)),
        lambda: det([[Scalar.from_exact(1), 2], [3, 4]], True),
        lambda: alternating((1, 0), scalar_first[:2]),
        lambda: schur_bialternant(Partition((2, 1)), scalar_first),
        lambda: schur_tableaux(Partition((1,)), scalar_first),
    ):
        with pytest.raises(ScalarModeError, match="point mixes scalars with native numbers"):
            call()
    native_first = (2, Scalar.from_exact(1), 3)
    for call in (
        lambda: vandermonde(native_first[:2]),
        lambda: vandermonde(native_first),
        lambda: schur(Partition((2, 1)), native_first),
    ):
        with pytest.raises(TypeError):
            call()


def test_points_that_mix_exact_and_float_scalars_are_refused():
    mixed = (Scalar.from_exact(1), Scalar.from_float(2.0))
    for call in (
        lambda: schur(Partition((2, 1)), mixed),
        lambda: schur(Partition((1,)), (Scalar.from_float(0.5), *mixed)),
        lambda: schur(Partition((3, 2)), mixed),
        lambda: vandermonde(mixed),
        lambda: alternating((1, 0), mixed),
        lambda: schur_tableaux(Partition((1,)), mixed),
    ):
        with pytest.raises(ScalarModeError, match="point mixes exact and float scalars"):
            call()
    exact, inexact = Scalar.from_exact(3), Scalar.from_float(-1.5)
    for call in (
        lambda: det([[exact, inexact], [exact, exact]], True),
        lambda: det([[exact] * 4] * 3 + [[exact, exact, inexact, exact]], True),
        lambda: det([[inexact] * 5] * 4 + [[inexact] * 4 + [exact]], False),
        lambda: elem_sym_all(mixed),
        lambda: schur_bialternant(Partition((2, 1)), (*mixed, Scalar.from_exact(5))),
        lambda: schur(Partition((5, 2)), mixed),
    ):
        with pytest.raises(ScalarModeError):
            call()
    # `det` gives a Scalar of its entries' own mode: `exact` picks the pivot
    # rule only
    for n in (2, 4):
        value = det([[Scalar.from_float(float(i == j) + 0.5) for j in range(n)] for i in range(n)], True)
        assert isinstance(value, Scalar) and not value.exact, value


def _count_scalar_ops(monkeypatch):
    # Scalar add, sub, mul and div calls, counted as perfbench's tracer
    # counts them
    counts = []
    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        op = getattr(Scalar, name)
        monkeypatch.setattr(Scalar, name, lambda a, b, op=op: counts.append(1) or op(a, b))
    return counts


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_scalar_points_run_no_scalar_arithmetic(monkeypatch, exact):
    # a Scalar point is unwrapped once at the entry: the native code runs on
    # its values, narrow bands, h-form and e-form wide bands alike, and only
    # the one result is wrapped
    def point(*vals):
        return tuple(Scalar.from_exact(v) if exact else Scalar.from_float(v) for v in vals)

    z = point(Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3))
    w = z + point(2)
    hilbert = [list(point(*(Fraction(1, i + j + 1) for j in range(4)))) for i in range(4)]
    counts = _count_scalar_ops(monkeypatch)
    for parts, pts in [((2, 1), z), ((3, 2), z), ((6, 2), z), ((5, 4, 3), z), ((5, 4, 3), w), ((4, 4, 4, 4), w)]:
        value = schur(Partition(parts), pts)
        assert isinstance(value, Scalar) and value.exact is exact, (parts, value)
    vandermonde(z)
    elem_sym_all(z)
    det(hilbert, exact)
    assert len(counts) == 0


def _narrow_shapes(r):
    # every lam with lam1 <= 3 and at most r + 1 parts, the empty one included
    return [
        Partition((3,) * a + (2,) * b + (1,) * c)
        for a in range(r + 2)
        for b in range(r + 2 - a)
        for c in range(r + 2 - a - b)
    ]


def _point_kinds(rng, r):
    # the number types the kernel and the Scalar API hand to `schur`; the
    # float ones include signed zeros, whose sign survives only if every
    # product and sum is taken in the same order on the same operands
    def real():
        return rng.choice([0.0, -0.0, 1.0, -1.5, rng.uniform(-3, 3), rng.uniform(-1e-3, 1e-3)])

    return {
        "float": tuple(real() for _ in range(r)),
        "complex": tuple(complex(real(), real()) for _ in range(r)),
        "signed_zero": tuple(complex(rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0])) for _ in range(r)),
        "int": tuple(rng.randint(-9, 9) for _ in range(r)),
        "fraction": tuple(rational(rng) for _ in range(r)),
        "gaussian": tuple(_Gaussian(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(r)),
        "gaussian_fraction": tuple(_Gaussian(rational(rng), rational(rng)) for _ in range(r)),
        "exact_scalar": tuple(Scalar.from_exact(rational(rng), rational(rng)) for _ in range(r)),
        "float_scalar": tuple(Scalar.from_float(real(), real()) for _ in range(r)),
        # the real code drops the factors 1, which must keep these bits too
        "float_special": tuple(rng.choice(_SPECIAL_FLOATS) for _ in range(r)),
    }


_SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1.0, -1.5]


def _fingerprint(v):
    # the type and value of a result, down to the sign of a float zero
    if isinstance(v, Scalar):
        return "Scalar", v.exact, _fingerprint(v.value)
    if isinstance(v, _Gaussian):
        return "Gaussian", _fingerprint(v.real), _fingerprint(v.imag)
    return type(v).__name__, repr(v)


# Forward error bound of a float 3 x 3 determinant evaluated as the cofactor
# expansion a(ei - fh) - b(di - fg) + c(dh - eg), against the exact
# determinant of the same binary64 entries (Higham, "Accuracy and Stability
# of Numerical Algorithms", 2nd ed., 2002, sections 2.1, 3.1 and 3.6).  Each
# rounding multiplies an intermediate, a signed sum of monomials, by (1 + d).
# - Real entries: |d| <= u = 2^-53 per operation, and a monomial passes
#   through at most five operations (its inner product, the inner difference,
#   the product with the first-row entry, the two outer sums), so the error is
#   at most gamma_5 times the sum of the six |monomials|, gamma_k = ku/(1-ku).
# - Complex entries: a complex product has |d| <= sqrt(2) gamma_2 <= gamma_3
#   and a complex sum |d| <= u, so two products and three sums give gamma_9.
# - Underflow (the 1e-170 entries): a real product may add an absolute error
#   of up to 2^-1075, a complex one up to 2 sqrt(2) 2^-1075, and sums add
#   none.  Each first-row entry x carries two inner products scaled by |x|
#   and its own product, so the absolute term is at most
#   2 sqrt(2) 2^-1075 (1 + gamma_9) sum_x (2|x| + 1) <= 9 (2M + 1) 2^-1075,
#   below (2M + 1) 2^-1070, where M is the largest |x| of the first row.
_UNIT_ROUNDOFF = Fraction(1, 2**53)


def _gamma(k):
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


def _native(v):
    return v.value if isinstance(v, Scalar) else v


def _binary64(v):
    # a float, complex, int or float Scalar entry as the exact Scalar of its value
    v = _native(v)
    return Scalar.from_exact(Fraction(v.real), Fraction(v.imag))


def _modulus_at_least(v):
    # an upper bound on |v| for a Scalar with binary64 parts: hypot errs by
    # less than one ulp, 2u relative
    return Fraction(math.hypot(v.re, v.im)) * (1 + 2 * _UNIT_ROUNDOFF)


def _assert_within_det3_bound(got, rows):
    exact = [[_binary64(v) for v in row] for row in rows]
    moduli = [[_modulus_at_least(v) for v in row] for row in exact]
    monomials = sum(moduli[0][i] * moduli[1][j] * moduli[2][k] for i, j, k in permutations(range(3)))
    complex_ = any(isinstance(_native(v), complex) for row in rows for v in row)
    bound = _gamma(9 if complex_ else 5) * monomials + (2 * max(moduli[0]) + 1) * Fraction(1, 2**1070)
    error = _binary64(got) - leibniz(exact, True)
    assert error.re**2 + error.im**2 <= bound**2, (rows, got)


@pytest.mark.parametrize("r", range(7))
def test_straight_line_code_matches_the_loops_and_det(r):
    # V and the bands of width lam1 <= 3 run generated straight-line code, on
    # int pairs for Gaussian points with int or Fraction parts; it must give
    # the value, the type and, in float mode, the bits of the loop and of the
    # rows-and-det route.  A float 3 x 3 band, which the generated code
    # writes out in `_det3`'s order of operations and the rows-and-det route
    # evaluates with `_det3`, is also held to the exact determinant of its
    # binary64 entries
    rng = random.Random(100 + r)
    for _ in range(8):
        for label, z in _point_kinds(rng, r).items():
            assert _fingerprint(vandermonde(z)) == _fingerprint(_vandermonde_loop(z, kind(z)[2])), (label, z)
            for lam in _narrow_shapes(r):
                value = schur(lam, z)
                got, want = _fingerprint(value), _fingerprint(rows_and_det(lam, z))
                assert got == want, (label, lam, z)
                parts = lam.normalized()
                if not kind(z)[0] and parts[:1] == (3,) and len(parts) <= r and label != "float_special":
                    _assert_within_det3_bound(value, jacobi_trudi_rows(lam, z))


@pytest.mark.parametrize("r", [UNROLL_MAX_POINTS, UNROLL_MAX_POINTS + 1])
def test_unrolled_and_looped_routes_agree_at_the_point_limit(r):
    rng = random.Random(r)
    for label, z in _point_kinds(rng, r).items():
        one = kind(z)[2]
        assert _fingerprint(vandermonde(z)) == _fingerprint(_vandermonde_loop(z, one)), label
        for parts in [(1,), (2, 1), (2, 2, 1), (1,) * r, (2,) * r, (3,), (3, 2), (3, 3, 1), (3,) * r]:
            lam = Partition(parts)
            assert _fingerprint(schur(lam, z)) == _fingerprint(rows_and_det(lam, z)), (label, lam)


def test_one_hundred_twenty_points_need_no_deep_expression():
    # one nested expression over 120 points overflows the compiler's recursion
    z = tuple(1 + k / 64 for k in range(120))
    assert repr(vandermonde(z)) == repr(_vandermonde_loop(z, 1))
    assert repr(schur(Partition((2, 1)), z)) == repr(rows_and_det(Partition((2, 1)), z))


def _as_scalar(v):
    if isinstance(v, (float, complex)):
        return Scalar.from_float(v.real, v.imag)
    if isinstance(v, _Gaussian):
        return Scalar.from_exact(v.real, v.imag)
    return Scalar.from_exact(v)


def _pivot_edge_points():
    # points whose width-3 bands hit each branch of det's pivot rules
    cases = [
        (-1.0,),  # e1 = -1.0 ties the structural 1 in |a|^2: the first row stays
        (0.5, -1.5),  # the same tie on two points
        (-0.5, 0.25, -0.75),  # and on three
        (1j, -1j, 0.0),  # e1 = 0.0, e2 = 1: a data zero and a complex unit
        (1e-170, 2e-170),  # |e1|^2 and e2 underflow to 0.0 but e1 is live
        (1e-170, 2e-170, -1e-170),
        (1e-170j, 3.0, -3.0),  # e1 = 1e-170j loses the tie-free pivot to the 1
        (2, -1),  # exact e1 = 1, a data unit ahead of the structural one
        (2, -1, 0),
        (Fraction(3, 2), Fraction(-1, 2)),  # Fraction e1 = 1
        (_Gaussian(1, 1), _Gaussian(0, -1)),  # Gaussian e1 = 1
        (1, -1),  # e1 = 0: row 0 is not live
        (1, -1, 0),  # e1 = e3 = 0
        (0, 0, 0),  # every e_k > 0 vanishes: columns with no live row
        (0.0, -0.0, 0.0),
        (-0.0, 0.0),
        (Fraction(0), Fraction(0), Fraction(1)),
        (2, 3, -5),  # e1 = 0 with e2, e3 live
    ]
    return cases + [tuple(map(_as_scalar, z)) for z in cases]


@pytest.mark.parametrize("z", _pivot_edge_points(), ids=repr)
def test_width_three_pivot_edge_cases_match_det(z):
    # the float points are also held to the exact determinant of the band's
    # binary64 entries, within the bound above
    shapes = [lam for lam in _narrow_shapes(len(z)) if lam.normalized()[:1] == (3,)]
    assert shapes
    for lam in shapes:
        value = schur(lam, z)
        assert _fingerprint(value) == _fingerprint(rows_and_det(lam, z)), lam
        if not kind(z)[0] and len(lam.normalized()) <= len(z):
            _assert_within_det3_bound(value, jacobi_trudi_rows(lam, z))


def _sparse_matrices(rng, pool):
    # 3000 matrices of 3 x 3 entries from the pool, 30 % of them as Scalars
    out = []
    for _ in range(3000):
        entries = [rng.choice(pool) for _ in range(9)]
        if rng.random() < 0.3:
            entries = [_as_scalar(v) for v in entries]
        out.append([entries[0:3], entries[3:6], entries[6:9]])
    return out


def test_det3_matches_det_on_sparse_matrices():
    # every pattern of zero, unit, tied and underflowing float entries: float
    # `_det3` and float `det` of order 3 are within the bound above of the
    # exact determinant of the same binary64 entries, and Scalar entries give
    # a Scalar
    pool = [0.0, -0.0, 1.0, -1.0, 2.0, 1e-170, -1e-170, 1j, complex(0.6, 0.8), 0.5, 3.0]
    for rows in _sparse_matrices(random.Random(3), pool):
        for got in (_det3(*rows[0], *rows[1], *rows[2]), det(rows, False)):
            assert isinstance(got, Scalar) is isinstance(rows[0][0], Scalar), rows
            _assert_within_det3_bound(got, rows)


def _bordered(rows):
    # an order-3 matrix bordered to order 4 with its entries' own one and
    # zeros, on which exact `det` runs its elimination loop, the reference
    # for the cofactor expansion of order 3
    zero, one = kind(rows[0])[1:]
    return [[one, zero, zero, zero]] + [[zero, *row] for row in rows]


def _looped(lam, z):
    # s_lam(z) with a 3 x 3 band evaluated by `det`'s elimination loop
    parts = lam.normalized()
    if parts[:1] != (3,) or len(parts) > len(z):
        return rows_and_det(lam, z)
    return det(_bordered(jacobi_trudi_rows(lam, z)), True)


def test_exact_det3_matches_the_bordered_elimination():
    # exact `_det3` and exact `det` of order 3 are the cofactor expansion;
    # `det`'s loop on the bordered matrix takes another route, through unit
    # pivots, row exchanges and Fraction lifts, to the same value
    pool = [0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2), _Gaussian(0, 1), _Gaussian(1, 0)]
    matrices = _sparse_matrices(random.Random(3), pool)
    for z in _pivot_edge_points():
        if kind(z)[0]:
            shapes = [lam for lam in _narrow_shapes(len(z)) if lam.normalized()[:1] == (3,)]
            matrices += [jacobi_trudi_rows(lam, z) for lam in shapes if len(lam.normalized()) <= len(z)]
    for rows in matrices:
        want = det(_bordered(rows), True)
        for got in (_det3(*rows[0], *rows[1], *rows[2]), det(rows, True)):
            assert isinstance(got, Scalar) is isinstance(want, Scalar), rows
            assert got == want, rows


# the partitions of the drops of (4,2,0), the S pass of an append
_DROPS = (Partition((1,)), Partition((3,)), Partition((3, 2)))


def test_each_generated_function_has_its_own_source_name():
    # a profile keys a function by (file name, line, name), so generated
    # functions that shared one file name would be reported on one line;
    # each is built here, so the test does not rely on tables that other
    # tests fill
    codes = [
        _schur_of(Partition((2, 1)), float, 3),
        _schur_of(Partition((3, 2)), float, 3),
        _vandermonde_of(float, 3),
        _vandermonde_of(float, 4),
        _walker(float, 3, 3, False),
        _appended_walker(float, _DROPS, 2, True),
        _schur_of(Partition((2, 1)), _Gaussian, 3),
        _vandermonde_of(_Gaussian, 3),
        _minors_walk(3, 1, _Gaussian),
        _schur_of(Partition((2, 1)), complex, 3),
        _vandermonde_of(complex, 3),
        _appended_walker(complex, _DROPS, 2, True),
    ]
    names = [code.__code__.co_filename for code in codes]
    assert len(set(names)) == len(names), names
    assert names[1] == "<schurfit schur (3, 2) r=3 real>"
    assert names[6] == "<schurfit schur (2, 1) r=3 pairs>"
    assert names[9] == "<schurfit schur (2, 1) r=3 complex>"
    profile = cProfile.Profile()
    z, g, c = (0.5, 1.5, -2.0), (_Gaussian(1, 2), _Gaussian(0, -1), _Gaussian(3, 0)), (0.5j, 1.5, -2.0)
    profile.runcall(lambda: [schur(Partition(parts), p) for parts in [(2, 1), (3, 2)] for p in (z, g, c)])
    profiled = {key[0] for key in pstats.Stats(profile).stats if key[2] == "schur"}
    assert {"<schurfit schur (2, 1) r=3 real>", "<schurfit schur (3, 2) r=3 real>", names[6], names[9]} <= profiled


def test_real_code_drops_unit_factors_and_conjugates(monkeypatch):
    # real Schur and V code, for float, int and Fraction points, neither
    # multiplies by one nor binds it, and the walkers of float points, the
    # appended walk's loop nest included, call no .conjugate(); complex code
    # keeps both, as do the walkers of complex points.  The minors walks of
    # int and `_Gaussian` points do neither.  Each builder compiles one
    # source: the nest inlines the narrow bands of (4,2,0) and builds no
    # Schur or V code of its own
    sources = {}
    compiled = symfunc._compiled

    def keep(name, signature, lines, **scope):
        sources[f"{name} {signature}"] = "\n".join(lines)
        return compiled(name, signature, lines, **scope)

    monkeypatch.setattr(symfunc, "_compiled", keep)
    monkeypatch.setattr(regress, "_compiled", keep)
    for code_kind in ("real", "complex"):
        for parts in [(1,), (2, 1), (2, 2), (3,), (3, 2), (3, 3, 1)]:
            _schur_function(parts, 3, False, code_kind)
        for r in (2, 3, 5):
            _vandermonde_function(r, code_kind)
    for number in (float, complex):
        _walker.__wrapped__(number, 3, 3, False)
        _appended_walker.__wrapped__(number, _DROPS, 2, True)
    _minors_walk.__wrapped__(3, 0, int)
    _minors_walk.__wrapped__(3, 1, int, True)
    _minors_walk.__wrapped__(3, 1, _Gaussian)
    assert len(sources) == 25
    for name, source in sources.items():
        unit = "one * " in source or " * one" in source or "one = 1" in source
        if name.startswith("walk"):
            walker = "size=" in name
            assert (".conjugate()" in source) is (walker and name.endswith("complex")), (name, source)
            assert walker or not unit and " one" not in source, (name, source)
        else:
            assert unit is name.endswith("complex"), (name, source)
            assert ".conjugate()" not in source, (name, source)


def test_assign_writes_plain_terms_verbatim_and_folds_pairs():
    # plain statements are the terms as given, in that order of operations,
    # one and zero factors included, so float bits and signed zeros are
    # those of the loops; "~p" is p's conjugate in both modes
    plain = []
    _assign(plain, "c0", [(1, "one", "e2"), (-1, "zero", "e1")], "complex")
    _assign(plain, "s", [(1, "e2", "c0"), (-1, "e3", "c1"), (1, "zero", "c2")], "complex", "  ")
    _assign(plain, "s0_1", [(1, "s0_1"), (1, "u0", "~u1")], "complex")
    assert plain == [
        "    c0 = one * e2 - zero * e1",
        "  s = e2 * c0 - e3 * c1 + zero * c2",
        "    s0_1 = s0_1 + u0 * u1.conjugate()",
    ]
    # real statements are the same terms in the same order without one
    # factors and conjugations, exact identities on real numbers; zero
    # factors stay, and a term of one factors only is the int 1
    real = []
    _assign(real, "c0", [(1, "one", "e2"), (-1, "zero", "e1")], "real")
    _assign(real, "s", [(1, "e2", "c0"), (-1, "e3", "one"), (1, "zero", "c2")], "real", "  ")
    _assign(real, "s0_1", [(1, "s0_1"), (1, "u0", "~u1")], "real")
    _assign(real, "v", [(1, "one", "(z0 - z1)")], "real")
    _assign(real, "e", [(-1, "one", "one")], "real")
    assert real == [
        "    c0 = e2 - zero * e1",
        "  s = e2 * c0 - e3 + zero * c2",
        "    s0_1 = s0_1 + u0 * u1",
        "    v = (z0 - z1)",
        "    e = -1",
    ]
    # pair statements set the parts: one and zero fold away, like terms are
    # collected, "~p" negates the imaginary part, and a part that keeps its
    # value is not set
    pairs = []
    _assign(pairs, "e1", [(1, "e1"), (1, "one", "z0")], "pairs")
    _assign(pairs, "c0", [(1, "zero", "e1"), (-1, "e2", "one")], "pairs")
    _assign(pairs, "c1", [(1, "a", "b"), (1, "b", "a")], "pairs")
    _assign(pairs, "s", [(1, "s"), (1, "u", "~u")], "pairs")
    _assign(pairs, "t", [(1, "u", "~v")], "pairs")
    _assign(pairs, "d", [(1, "zero")], "pairs")
    assert pairs == [
        "    e1r, e1i = e1r + z0r, e1i + z0i",
        "    c0r, c0i = -e2r, -e2i",
        "    c1r, c1i = 2 * ar * br - 2 * ai * bi, 2 * ar * bi + 2 * ai * br",
        "    sr = sr + ur * ur + ui * ui",
        "    tr, ti = ur * vr + ui * vi, -ur * vi + ui * vr",
        "    dr, di = 0, 0",
    ]


# Bands wider than 3, or on more than UNROLL_MAX_POINTS points: exact points
# take the l(lam) x l(lam) h-form when l(lam) < lam1, other points the e-form
# rows of `jacobi_trudi_rows` under `det`'s elimination
H_FORM_SHAPES = [(38, 19), (39, 20), (9, 4), (7, 3, 1)]
E_FORM_SHAPES = [(4, 4, 4, 4), (2,) * 17]


def _exact_kinds(rng, r):
    return {
        "int": tuple(int(v) for v in distinct_rationals(rng, r, max_den=1)),
        "fraction": tuple(distinct_rationals(rng, r)),
        "gaussian": tuple(_Gaussian(int(v), rng.randint(-5, 5)) for v in distinct_rationals(rng, r, max_den=1)),
        "gaussian_fraction": tuple(_Gaussian(v, rational(rng)) for v in distinct_rationals(rng, r)),
        "exact_scalar": tuple(Scalar.from_exact(v, rational(rng)) for v in distinct_rationals(rng, r)),
    }


@pytest.mark.parametrize(
    "parts, r",
    [(p, 3) for p in H_FORM_SHAPES] + [((7, 3, 1), 4), ((3, 1), 17)] + [(p, len(p)) for p in E_FORM_SHAPES],
    ids=str,
)
def test_wide_band_exact_schur_equals_the_e_form_and_the_bialternant(parts, r):
    # the h-form is the e-form's value by the Jacobi-Trudi identity; int
    # entries stay ints in its cofactor expansions of order <= 3, and shapes
    # with l(lam) >= lam1 keep the e-form, type for type
    rng = random.Random(sum(parts) + r)
    lam = Partition(parts)
    h_form = len(parts) < parts[0]
    for kind, z in _exact_kinds(rng, r).items():
        value = schur(lam, z)
        assert value == rows_and_det(lam, z), (kind, z)
        assert value == schur_bialternant(lam, z), (kind, z)
        if not h_form:
            assert _fingerprint(value) == _fingerprint(rows_and_det(lam, z)), (kind, z)
        elif kind in ("int", "gaussian") and len(parts) <= 3:
            assert all(type(p) is int for p in (value.real, value.imag)), (kind, z)


@pytest.mark.parametrize("parts", [(5,), (6, 1), (5, 2), (38, 19)], ids=str)
def test_wide_band_exact_zero_is_the_mode_zero(parts):
    # e1 = 0 on (1, -1) makes these Schur values vanish; each comes back as
    # the zero of its mode, as the e-form's elimination returns it
    for z in [(1, -1), (Fraction(1), Fraction(-1)), (_Gaussian(1, 0), _Gaussian(-1, 0)), ex(1, -1)]:
        value, zero = schur(Partition(parts), z), kind(z)[1]
        assert value == zero and _fingerprint(value) == _fingerprint(zero), (parts, z)


def _wide_float_points(rng):
    # random float, complex, signed-zero, special-float (+-inf, NaN, +-0.0,
    # subnormals) and float Scalar points, the pivot edge cases and e1 = 0 on
    # (1, -1), an exact zero inside the band
    out = [(1.0, -1.0), (1.0, -1.0, 0.5), tuple(map(_as_scalar, (1.0, -1.0)))]
    out += [z for z in _pivot_edge_points() if not kind(z)[0]]
    for r in (1, 2, 3, 4, 17):
        kinds = _point_kinds(rng, r)
        out += [kinds[k] for k in ("float", "complex", "signed_zero", "float_special", "float_scalar")]
    out.append(tuple(rng.uniform(0.5, 3) for _ in range(3)))
    return out


def _complex_abs_sq(v):
    v = complex(v)
    return v.real * v.real + v.imag * v.imag


def _full_scan_det(rows, exact):
    # the textbook elimination that `det` must match from order 4 on, kept
    # apart from it: every row below the diagonal scanned at every step, the
    # pivot picked by `max` on |a|^2 built through `complex` in float mode
    # (the first row of largest key) and by the first row holding 1, else the
    # first live row, in exact mode
    a = [list(row) for row in rows]
    n, sign = len(a), 1
    for k in range(n):
        live = [i for i in range(k, n) if a[i][k]]
        if not live:
            return Scalar.zero(exact) if isinstance(a[k][k], Scalar) else 0
        if exact:
            p = next((i for i in live if a[i][k] == 1), live[0])
        else:
            p = max(live, key=lambda i: _complex_abs_sq(a[i][k]))
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot = a[k][k]
        unit = exact and pivot == 1
        if exact and not unit and type(pivot) is int:
            pivot = Fraction(pivot)
        for i in live:
            if i != p:
                row = a[p if i == k else i]
                f = row[k] if unit else row[k] / pivot
                for j in range(k + 1, n):
                    if a[k][j]:
                        row[j] = row[j] - f * a[k][j]
    d = a[0][0]
    for k in range(1, n):
        d = d * a[k][k]
    return -d if sign < 0 else d


def _outcome(f, *args):
    try:
        return _fingerprint(f(*args))
    except ArithmeticError as error:
        return type(error).__name__


# entries on which another pivot gives other bits: ties in |a|^2 (1, -1, 1j,
# 2 against -2j), squares that underflow to 0.0 although the entry is live,
# signed zeros, which only an unchanged order of operations keeps, inf, NaN,
# and the int 1 that a float Jacobi-Trudi row holds as e_0
_PIVOT_POOL = [0.0, -0.0, 0, 1, 1.0, -1.0, 1j, -1j, 2.0, -2j, 0.5, 3.0, 1e-170, -1e-170, 1e-170j,
               1e200, float("inf"), float("-inf"), float("nan"), complex(0.6, 0.8), complex(-1.5, 2.5)]


def test_float_det_pivots_as_the_full_scan_does():
    # float and complex `det` of order 4 to 8, on native and float Scalar
    # entries, gives the bits of `_full_scan_det`; a NaN key in a later live
    # row never takes the pivot, and a tie keeps the first row
    rng = random.Random(24)
    cases = [
        [[1e-170, 1.0, 0.0, 0.0], [1e-170j, -0.0, 1.0, 0.0], [-1e-170, 2.0, -0.0, 1.0], [1.0, 0.5, 3.0, -0.0]],
        [[1.0, 2.0, 0.0, 1.0], [float("nan"), 1.0, 2.0, 0.0], [-1.0, 0.0, 1.0, 2.0], [1j, 1.0, 0.0, -1.0]],
        [[float("nan"), 1.0, 0.0, 2.0], [3.0, -0.0, 1.0, 0.0], [0.0, 2.0, -1.0, 1.0], [1.0, 0.0, 0.5, -0.0]],
        [[1, 0.5, 0.0, 0.0], [-1.0, 2.0, 1, 0.0], [1j, -0.0, 3.0, 1], [-1j, 0.0, -0.0, 2.0]],
    ]
    for _ in range(1500):
        n = rng.randint(4, 8)
        density = rng.choice((0.3, 0.6, 1.0))
        cases.append([[rng.choice(_PIVOT_POOL) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)])
    for rows in cases:
        for entries in (rows, [[Scalar.from_float(v.real, v.imag) for v in row] for row in rows]):
            assert _outcome(det, entries, False) == _outcome(_full_scan_det, entries, False), entries


def test_exact_det_pivots_as_the_full_scan_does():
    # exact `det` of order 4 to 8 takes the same pivots, so its values keep
    # their type as well as their value: ints stay ints under unit pivots
    rng = random.Random(25)
    pool = [0, 1, -1, 2, Fraction(1, 2), Fraction(1), _Gaussian(1, 0), _Gaussian(0, 1), _Gaussian(2, -1)]
    for _ in range(600):
        n = rng.randint(4, 8)
        kinds = pool[:4] if rng.random() < 0.5 else pool
        rows = [[rng.choice(kinds) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
        assert _fingerprint(det(rows, True)) == _fingerprint(_full_scan_det(rows, True)), rows


def test_wide_band_float_bits_are_those_of_the_full_width_det():
    # same pivots, operands and order: the wide-band code, window or
    # `_wide_band`'s, gives the bits, signed zeros included, of `det` over
    # the whole e-form rows, and of `_full_scan_det`, which shares no code
    # with `det`, from order 4 on
    rng = random.Random(23)
    shapes = [(4,), (5, 2), (6, 3, 1), (4, 4, 4), (9, 4), (38, 19), (39, 20), (3, 1), (2,) * 17]
    checked = 0
    for z in _wide_float_points(rng):
        for parts in shapes:
            lam = Partition(parts)
            if len(parts) > len(z) or (parts[0] <= 3 and len(z) <= UNROLL_MAX_POINTS):
                continue
            rows = jacobi_trudi_rows(lam, z)
            value = _fingerprint(schur(lam, z))
            assert value == _fingerprint(det(rows, False)), (parts, z)
            if len(rows) > 3:
                assert value == _fingerprint(_full_scan_det(rows, False)), (parts, z)
            checked += 1
    assert checked > 200


@pytest.mark.parametrize("parts, r", [((300,), 2), ((120, 7, 7), 3), ((6, 5, 5, 2), 4), ((3, 1), 17)], ids=str)
def test_wide_band_tables_come_from_the_conjugate(parts, r):
    # a wide band's row slices start at offsets read off lam', without a
    # lam1 x lam1 index matrix; on float points its rows, slices of the
    # zero-padded e_k, still give the bits of `det` on the full e-form rows,
    # and on Fraction points the h-form gives their value; each mode's code
    # is built for that mode
    rng = random.Random(sum(parts))
    floats = tuple(rng.uniform(0.5, 1.5) for _ in range(r))
    fractions = tuple(Fraction(v, 3) for v in rng.sample(range(-9, 9), r))
    for z, exact in ((floats, False), (fractions, True)):
        code = _schur_function(parts, r, exact, "real")
        assert _fingerprint(code(z)) == _fingerprint(rows_and_det(Partition(parts), z)), z


# Float and complex points on bands wider than 3 and on at most
# UNROLL_MAX_POINTS points take `_sliding_window`'s generated elimination;
# exact points keep `_wide_band`.  The shapes of the window code's sizing,
# lam = (3000,) on two points among them:
WINDOW_SHAPES = [((38, 19), 3), ((39, 20), 2), ((39,), 2), ((19,), 2), ((5, 4, 3, 2), 4), ((6, 6, 1), 3),
                 ((7,), 5), ((200, 100, 3), 3), ((3000,), 2)]


def _wide_route(parts, r, exact):
    # `_wide_band`'s function of the mode `exact`: for float and complex
    # points `det` on sliced rows, their route beyond UNROLL_MAX_POINTS
    return symfunc._wide_band(parts, r, [c - i for i, c in enumerate(conjugate(Partition(parts)))], exact)


def _window_outcomes(lam, z):
    # the window code's outcome, then `_wide_band`'s and the full-scan ones
    rows = jacobi_trudi_rows(lam, z) if lam.normalized()[0] <= 40 else None
    full = _outcome(_full_scan_det, rows, False) if rows else None
    return _outcome(schur, lam, z), _outcome(_wide_route(lam.normalized(), len(z), False), z), full


def _fresh_step_lines(lines):
    # the line numbers of the window code's steps that hold the fresh row
    # as constants: the bodies of its `for _ in range(n - 1):` loops
    out, loop = set(), None
    for number, line in enumerate(lines, 1):
        indent = len(line) - len(line.lstrip())
        if loop is not None and indent > loop:
            out.add(number)
        else:
            loop = indent if line.lstrip().startswith("for _ in range(") else None
    return out


def test_window_code_pivots_as_the_full_scan_does(monkeypatch):
    # points drawn from the pivot pool, so that the bands hold ties, squares
    # that underflow, signed zeros, inf and NaN, and entries below 1 in
    # modulus, on which the fresh row (1, e_1, ...) takes the pivot; points
    # (c, -c, ...), whose e_1 is 0; each point in both orders, so that a
    # carried pivot of 0 and each branch of the steps meet both.  A
    # float-first point with a complex entry takes the complex code.  Every
    # line of the steps that hold the fresh row as constants runs, in real
    # and complex code, so each of their branches gives the full scan's bits
    monkeypatch.setattr(symfunc, "_WINDOWS", {"real": [], "complex": []})
    monkeypatch.setattr(symfunc, "_schur_code", {})
    sources, ran = {}, {}
    compiled = symfunc._compiled

    def keep(name, signature, lines, **scope):
        code = compiled(name, signature, lines, **scope)
        if signature.startswith("window"):
            sources[code.__code__.co_code] = signature, lines, {number for *_, number in code.__code__.co_lines()}
        return code

    def trace(frame, event, arg):  # the lines that run in band functions
        if not frame.f_code.co_filename.startswith("<schurfit band"):
            return None
        lines = ran.setdefault(frame.f_code.co_code, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    monkeypatch.setattr(symfunc, "_compiled", keep)
    rng = random.Random(28)
    pool = _PIVOT_POOL + [0.25, -0.75, complex(0.25, -0.5)]
    inexact = [v for v in pool if isinstance(v, (float, complex))]
    shapes = [(4,), (5, 2), (6, 3, 1), (4, 4, 4), (9, 4), (7, 3, 1), (5, 4, 3, 2), (4, 4, 4, 4), (6, 6, 1)]
    checked, tracing = 0, sys.gettrace()
    sys.settrace(trace)
    try:
        for _ in range(1000):
            r = rng.randint(1, 5)
            z = [rng.choice(inexact), *(rng.choice(pool) for _ in range(r - 1))]
            if r > 1 and rng.random() < 0.3:
                z[1] = -z[0]
            for point in (tuple(z), tuple(z[::-1])):
                if not isinstance(point[0], (float, complex)):
                    continue
                for parts in shapes:
                    if len(parts) <= r:
                        got, banded, full = _window_outcomes(Partition(parts), point)
                        assert got == banded == full, (parts, point)
                        checked += 1
    finally:
        sys.settrace(tracing)
    assert checked > 5000
    assert {signature.split()[-1] for signature, *_ in sources.values()} == {"real", "complex"}
    for code, (signature, lines, numbered) in sources.items():  # an `else:` holds no instruction
        missed = _fresh_step_lines(lines) & numbered - ran.get(code, set())
        assert not missed, (signature, [lines[number - 1] for number in sorted(missed)])


@pytest.mark.parametrize("parts, r", WINDOW_SHAPES, ids=str)
def test_window_code_keeps_the_bits_of_the_band_limited_elimination(parts, r):
    # random float, complex and signed-zero points, the special floats
    # (+-inf, NaN, subnormals, +-0.0), points below 1 in modulus, whose
    # fresh rows take pivots, and pairs (c, -c), whose e_k vanish, each in
    # both orders; the full scan too where lam1 <= 40
    rng = random.Random(sum(parts) + r)
    lam = Partition(parts)
    for _ in range(2 if parts[0] > 1000 else 30):
        kinds = _point_kinds(rng, r)
        kinds["small"] = tuple(rng.uniform(-0.7, 0.7) for _ in range(r))
        pairs = [rng.choice([rng.uniform(0.2, 2), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))]) for _ in range(r)]
        kinds["plus_minus"] = tuple(c if k % 2 == 0 else -pairs[k - 1] for k, c in enumerate(pairs))
        for label in ("float", "complex", "signed_zero", "float_special", "small", "plus_minus"):
            for z in (kinds[label], kinds[label][::-1]):
                got, banded, full = _window_outcomes(lam, z)
                assert got == banded, (label, z)
                assert full in (None, got), (label, z)
    z = tuple(rng.uniform(0.5, 3) for _ in range(r))
    assert _fingerprint(schur(lam, tuple(map(_as_scalar, z)))) == ("Scalar", False, _fingerprint(schur(lam, z)))


def test_a_band_whose_window_is_the_whole_matrix_takes_det(monkeypatch):
    # R_0 = lam1 rows hold column 0, so the window would be the whole
    # lam1 x lam1 matrix: such a band, (17,)^16 on 16 points among them,
    # compiles no window code and gives the bits of `det` on its rows
    monkeypatch.setattr(symfunc, "_WINDOWS", {"real": [], "complex": []})
    monkeypatch.setattr(symfunc, "_schur_code", {})
    cases = [((17,) * 16, tuple(0.5 + k / 16 for k in range(16))), ((4, 4, 4), (0.5, -1.5, 2.0)),
             ((5, 5, 5, 5), (0.5j, 1.5, -0.0, 0.25)), ((4, 4, 4), (-0.0, 0.0, float("nan")))]
    for parts, z in cases:
        lam = Partition(parts)
        assert _fingerprint(schur(lam, z)) == _fingerprint(det(jacobi_trudi_rows(lam, z), False)), (parts, z)
    assert symfunc._WINDOWS == {"real": [], "complex": []}


def test_wide_bands_beyond_the_point_limit_read_only_the_band(monkeypatch):
    # on more than UNROLL_MAX_POINTS float points, `_wide_band`'s e-form
    # eliminates within the band's rows and columns: the entries it reads
    # about double, where a full scan's nearly quadruple, when lam1 doubles,
    # and the bits are those of `det` on the whole rows
    reads = []

    class Row(list):
        def __getitem__(self, j):
            reads[-1] += 1
            return list.__getitem__(self, j)

    z = tuple(0.5 + k / 17 for k in range(UNROLL_MAX_POINTS + 1))
    lams = [Partition((n, 2)) for n in (150, 300)]
    want = [_fingerprint(det(jacobi_trudi_rows(lam, z), False)) for lam in lams]
    eliminate = symfunc._eliminate
    monkeypatch.setattr(symfunc, "_eliminate", lambda a, *limits: eliminate([Row(row) for row in a], *limits))
    for lam, bits in zip(lams, want):
        reads.append(0)
        assert _fingerprint(schur(lam, z)) == bits, lam
    assert reads[1] < 2.5 * reads[0], reads


@pytest.mark.parametrize("parts, r", WINDOW_SHAPES[:-1] + [((4, 4, 4, 4), 4), ((9, 4), 3)], ids=str)
def test_exact_points_keep_the_wide_band_route(parts, r):
    # int, Fraction, Gaussian and exact Scalar points get the value and type
    # that `_wide_band` gives exact points, the h-form or the exact e-form:
    # the code tables of exact types hold its exact function, and never the
    # window code
    rng = random.Random(sum(parts) - r)
    lam, wide = Partition(parts), _wide_route(parts, r, True)
    for label, z in _exact_kinds(rng, r).items():
        mode, values = symfunc._unwrap(z)
        want = symfunc._wrap(mode, wide(values))
        assert _fingerprint(schur(lam, z)) == _fingerprint(want), (label, z)


def test_each_band_function_has_its_own_source_name():
    # lam's function shares its window code with other bands but carries its
    # own file name, so that a profile reports each band on its own line
    names = {}
    for parts, r in WINDOW_SHAPES[:4]:
        for t, z in ((float, tuple(0.5 + k for k in range(r))), (complex, tuple(0.5j + k for k in range(r)))):
            schur(Partition(parts), z)
            names[parts, r, t] = _schur_code[t][parts][r].__code__.co_filename
    assert len(set(names.values())) == len(names), names
    assert names[(38, 19), 3, float] == "<schurfit band (38, 19) r=3 real>"
    assert names[(39,), 2, complex] == "<schurfit band (39,) r=2 complex>"
    profile = cProfile.Profile()
    profile.runcall(schur, Partition((19,)), (0.5, 1.5))
    assert "<schurfit band (19,) r=2 real>" in {key[0] for key in pstats.Stats(profile).stats}


def test_one_window_code_serves_the_bands_of_a_fit(monkeypatch):
    # the denominator band of (40, 20, 0) on three points compiles a window
    # of 4 columns and 3 rows; the minor-sum bands on two points, one column
    # narrower and no taller, run on the same code, with their own bits
    monkeypatch.setattr(symfunc, "_WINDOWS", {"real": [], "complex": []})
    monkeypatch.setattr(symfunc, "_schur_code", {})
    x = (1.0078125, 2.01953125, 3.05859375)
    for parts, z in (((38, 19), x), ((19,), x[::2]), ((39,), x[1:]), ((39, 20), x[:2])):
        assert _fingerprint(schur(Partition(parts), z)) == _fingerprint(_wide_route(parts, len(z), False)(z)), parts
    assert [code.shape for code in symfunc._WINDOWS["real"]] == [(4, 3)]
