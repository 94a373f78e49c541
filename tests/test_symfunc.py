import random
from fractions import Fraction
from itertools import permutations

import pytest

from schurfit.numeric import Scalar, ScalarModeError, _Gaussian
from schurfit.partitions import Partition, staircase
from schurfit.symfunc import (
    UNROLL_MAX_POINTS,
    _det3,
    _kind,
    _vandermonde_loop,
    alternating,
    det,
    elem_sym_all,
    schur,
    schur_bialternant,
    schur_tableaux,
    vandermonde,
)

from _helpers import distinct_rationals, exact_scalar, jacobi_trudi_rows, rational, rows_and_det


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
    # the (40,20,0) model's shapes: 38x38 and 39x39 banded determinants
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
                assert _exact_pair(value) == _exact_pair(_looped(lam, z)), (lam, z)


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
        "exact_scalar": tuple(Scalar.from_exact(rational(rng), rational(rng)) for _ in range(r)),
        "float_scalar": tuple(Scalar.from_float(real(), real()) for _ in range(r)),
    }


def _fingerprint(v):
    # the type and value of a result, down to the sign of a float zero
    if isinstance(v, Scalar):
        return "Scalar", v.exact, _fingerprint(v.value)
    if isinstance(v, _Gaussian):
        return "Gaussian", _fingerprint(v.real), _fingerprint(v.imag)
    return type(v).__name__, repr(v)


@pytest.mark.parametrize("r", range(7))
def test_straight_line_code_matches_the_loops_and_det(r):
    # V and the bands of width lam1 <= 3 run generated straight-line code; it
    # must give the value, the type and, in float mode, the bits of the loop
    # and of the rows-and-det route
    rng = random.Random(100 + r)
    for _ in range(8):
        for kind, z in _point_kinds(rng, r).items():
            assert _fingerprint(vandermonde(z)) == _fingerprint(_vandermonde_loop(z, _kind(z)[2])), (kind, z)
            for lam in _narrow_shapes(r):
                got, want = _fingerprint(schur(lam, z)), _fingerprint(rows_and_det(lam, z))
                assert got == want, (kind, lam, z)


@pytest.mark.parametrize("r", [UNROLL_MAX_POINTS, UNROLL_MAX_POINTS + 1])
def test_unrolled_and_looped_routes_agree_at_the_point_limit(r):
    rng = random.Random(r)
    for kind, z in _point_kinds(rng, r).items():
        one = _kind(z)[2]
        assert _fingerprint(vandermonde(z)) == _fingerprint(_vandermonde_loop(z, one)), kind
        for parts in [(1,), (2, 1), (2, 2, 1), (1,) * r, (2,) * r, (3,), (3, 2), (3, 3, 1), (3,) * r]:
            lam = Partition(parts)
            assert _fingerprint(schur(lam, z)) == _fingerprint(rows_and_det(lam, z)), (kind, lam)


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
    shapes = [lam for lam in _narrow_shapes(len(z)) if lam.normalized()[:1] == (3,)]
    assert shapes
    for lam in shapes:
        assert _fingerprint(schur(lam, z)) == _fingerprint(rows_and_det(lam, z)), lam


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
    # every pattern of zero, unit, tied and underflowing float entries; float
    # `det` of order 3 runs its elimination loop
    pool = [0.0, -0.0, 1.0, -1.0, 2.0, 1e-170, -1e-170, 1j, complex(0.6, 0.8), 0.5, 3.0]
    for rows in _sparse_matrices(random.Random(3), pool):
        got, want = _fingerprint(_det3(*rows[0], *rows[1], *rows[2], False)), _fingerprint(det(rows, False))
        assert got == want, rows


def _exact_pair(v):
    # an exact value as its (real, imag) parts, which compare by value across
    # int, Fraction, Gaussian and Scalar values
    v = v.value if isinstance(v, Scalar) else v
    return v.real, v.imag


def _bordered(rows):
    # an order-3 matrix bordered to order 4 with its entries' own one and
    # zeros, on which exact `det` runs its elimination loop, the reference
    # for the cofactor expansion of order 3
    zero, one = _kind(rows[0])[1:]
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
        if _kind(z)[0]:
            shapes = [lam for lam in _narrow_shapes(len(z)) if lam.normalized()[:1] == (3,)]
            matrices += [jacobi_trudi_rows(lam, z) for lam in shapes if len(lam.normalized()) <= len(z)]
    for rows in matrices:
        want = det(_bordered(rows), True)
        for got in (_det3(*rows[0], *rows[1], *rows[2], True), det(rows, True)):
            assert isinstance(got, Scalar) is isinstance(want, Scalar), rows
            assert _exact_pair(got) == _exact_pair(want), rows
