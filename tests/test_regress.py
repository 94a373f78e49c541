import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, sqrt

import pytest

from schurfit import oracle, regress
from schurfit.cli import quartic_example
from schurfit.incremental import extend_b_matrix, init_state, update
from schurfit.numeric import Scalar, ScalarModeError, _Gaussian, scalar_pow
from schurfit.oracle import gram
from schurfit.partitions import Exponents, Partition, lambda_drop, lambda_from_degrees
from schurfit.regress import (
    DataSet,
    InsufficientDataError,
    NonUniqueSolutionError,
    b_matrix,
    denominator,
    design_matrix,
    fit,
    minor_sum,
    pseudoinverse,
)
from schurfit.symfunc import UNROLL_MAX_POINTS, det, elem_sym_all, schur, vandermonde

from _helpers import (
    exact_scalar,
    hermitian_sums,
    max_rel_diff,
    random_dataset,
    random_exponents,
    rows_and_det,
    scalars_equal,
    subset_columns,
    well_conditioned_dataset,
)


def ex(*vals):
    return [Scalar.from_exact(v) for v in vals]


def test_design_matrix_examples():
    assert design_matrix(Exponents((1, 0)), ex(2, 3)) == [ex(2, 1), ex(3, 1)]
    assert design_matrix(Exponents((4, 2, 0)), ex(2)) == [ex(16, 4, 1)]
    assert design_matrix(Exponents((0,)), ex(5, -1, 7)) == [ex(1), ex(1), ex(1)]


def test_gram_examples():
    g = gram(Exponents((1, 0)), DataSet(ex(1, 2), ex(0, 0)))
    assert g == [ex(5, 3), ex(3, 2)]
    d1 = Exponents((3,))
    g1 = gram(d1, DataSet(ex(-2), ex(0)))
    assert g1 == [ex(64)]


def test_gram_is_hermitian():
    rng = random.Random(20)
    for _ in range(10):
        d = random_exponents(rng, rng.randint(1, 4))
        data = random_dataset(rng, rng.randint(len(d), 7), complex_=True, weighted=True)
        g = gram(d, data)
        n = len(d)
        for i in range(n):
            for j in range(n):
                assert g[i][j] == g[j][i].conj()


def test_denominator_single_subset():
    d = Exponents((4, 2, 0))
    data = DataSet(ex(1, 2, 3), ex(0, 0, 0))
    # lone 3-subset: |s_lam(1,2,3) * V(1,2,3)|^2 = |60 * -2|^2
    assert denominator(d, data) == Scalar.from_exact(14400)
    assert det(gram(d, data), True) == Scalar.from_exact(14400)


def test_denominator_cauchy_binet_randomized():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(1, 4)
        d = random_exponents(rng, n)
        data = random_dataset(rng, rng.randint(n, 8), complex_=rng.random() < 0.3)
        assert denominator(d, data) == det(gram(d, data), True)


def test_denominator_degenerate_and_errors():
    d = Exponents((1, 0))
    same = DataSet(ex(3, 3, 3), ex(1, 2, 3))
    assert not denominator(d, same)
    with pytest.raises(InsufficientDataError):
        denominator(d, DataSet(ex(1), ex(1)))


def test_fit_power_function_closed_form():
    rng = random.Random(22)
    for _ in range(20):
        deg = rng.randint(0, 6)
        d = Exponents((deg,))
        data = random_dataset(rng, rng.randint(1, 6), complex_=True)
        if not any(data.x) and deg > 0:
            continue
        num = Scalar.zero(True)
        den = Scalar.zero(True)
        for xk, yk in zip(data.x, data.y):
            num = num + scalar_pow(xk.conj(), deg) * yk
            den = den + scalar_pow(xk, deg).mag_sq()
        if not den:
            continue
        result = fit(d, data)
        assert result.coefficients == [num / den]


def test_fit_matches_oracle_exact():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 4)
        d = random_exponents(rng, n)
        data = random_dataset(rng, rng.randint(n, 8), complex_=rng.random() < 0.3)
        try:
            result = fit(d, data)
        except NonUniqueSolutionError:
            continue
        assert scalars_equal(result.coefficients, oracle.solve_normal(d, data))


def test_fit_matches_oracle_float():
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(1, 4)
        d = random_exponents(rng, n)
        data = well_conditioned_dataset(rng, rng.randint(n + 1, 10))
        result = fit(d, data)
        assert max_rel_diff(result.coefficients, oracle.solve_normal(d, data)) <= 1e-9


def test_normal_equation_certificate():
    rng = random.Random(25)
    for _ in range(30):
        n = rng.randint(1, 4)
        d = random_exponents(rng, n)
        data = random_dataset(rng, rng.randint(n, 8), weighted=rng.random() < 0.5)
        try:
            result = fit(d, data)
        except NonUniqueSolutionError:
            continue
        g = gram(d, data)
        pows = design_matrix(d, data.x)
        for i in range(n):
            lhs = Scalar.zero(True)
            for j in range(n):
                lhs = lhs + g[i][j] * result.coefficients[j]
            rhs = Scalar.zero(True)
            for k in range(data.m):
                rhs = rhs + pows[k][i].conj() * data.weight_sq(k) * data.y[k]
            assert lhs == rhs


def test_quartic_recovery_small_grid():
    d = Exponents((4, 2, 0))
    xs = [Fraction(v) for v in range(-500, 501, 100)]
    x = [Scalar.from_exact(v) for v in xs]
    y = [Scalar.from_exact(v**4 - Fraction(5, 2) * 10**5 * v**2) for v in xs]
    result = fit(d, DataSet(x, y))
    assert result.coefficients == ex(1, -250000, 0)
    assert not result.residual_sq


def test_fit_rank_deficiency_errors():
    d = Exponents((1, 0))
    with pytest.raises(NonUniqueSolutionError):
        fit(d, DataSet(ex(2, 2, 2), ex(1, 2, 3)))
    with pytest.raises(InsufficientDataError):
        fit(d, DataSet(ex(1), ex(1)))
    # float mode: identical points trip the scale-aware threshold
    xf = [Scalar.from_float(3.0)] * 3
    yf = [Scalar.from_float(v) for v in (1.0, 2.0, 3.0)]
    with pytest.raises(NonUniqueSolutionError):
        fit(d, DataSet(xf, yf))


def test_data_set_refusals():
    with pytest.raises(ValueError, match="at least one data point"):
        DataSet([], [])
    with pytest.raises(ValueError, match="x and y must have equal length"):
        DataSet(ex(1, 2), ex(1))
    with pytest.raises(ValueError, match="w must match x in length"):
        DataSet(ex(1, 2), ex(1, 2), ex(1))
    for x, y, w in [
        (ex(1, 2), [Scalar.from_exact(1), Scalar.from_float(2.0)], None),
        ([Scalar.from_exact(1), Scalar.from_float(2.0)], ex(1, 2), None),
        (ex(1, 2), ex(1, 2), [Scalar.from_exact(1), Scalar.from_float(2.0)]),
    ]:
        with pytest.raises(ScalarModeError, match="mixes exact and float"):
            DataSet(x, y, w)
    with pytest.raises(ValueError, match="weight 2 is zero"):
        DataSet(ex(1, 2), ex(1, 2), ex(1, 0))
    with pytest.raises(ValueError, match="weight 1 is zero"):
        DataSet(ex(1, 2), ex(1, 2), [Scalar.from_exact(0, 0), Scalar.from_exact(1, 1)])


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_b_matrix_and_pseudoinverse_refuse_a_repeated_x(exact):
    d = Exponents((2, 1, 0))
    data = DataSet(ex(1, 1, 2), ex(1, 2, 3))
    if not exact:
        data = DataSet([v.to_float() for v in data.x], [v.to_float() for v in data.y])
    for build in (b_matrix, pseudoinverse):
        with pytest.raises(NonUniqueSolutionError, match="denominator vanishes"):
            build(d, data)


def test_minor_sum_refusals():
    d = Exponents((4, 2, 0))
    data = DataSet(ex(1, 2, 3), ex(1, 4, 9))
    for i, j in [(0, 1), (1, 0), (4, 1), (1, 4)]:
        with pytest.raises(IndexError, match="minor indices out of range"):
            minor_sum(d, data, i, j)
    with pytest.raises(InsufficientDataError, match="need at least 2 points"):
        minor_sum(d, DataSet(ex(1), ex(1)), 1, 1)


def test_permutation_equivariance():
    rng = random.Random(26)
    for _ in range(20):
        n = rng.randint(1, 3)
        d = random_exponents(rng, n)
        data = random_dataset(rng, rng.randint(n, 7), weighted=rng.random() < 0.5)
        try:
            base = fit(d, data)
        except NonUniqueSolutionError:
            continue
        perm = list(range(data.m))
        rng.shuffle(perm)
        shuffled = DataSet(
            [data.x[p] for p in perm],
            [data.y[p] for p in perm],
            [data.w[p] for p in perm] if data.w else None,
        )
        other = fit(d, shuffled)
        assert scalars_equal(base.coefficients, other.coefficients)
        assert base.residual_sq == other.residual_sq


def test_weighted_unit_weights_match_unweighted():
    rng = random.Random(27)
    for _ in range(15):
        n = rng.randint(1, 3)
        d = random_exponents(rng, n)
        data = random_dataset(rng, rng.randint(n, 7))
        ones = [Scalar.one(True)] * data.m
        try:
            base = fit(d, data)
        except NonUniqueSolutionError:
            continue
        weighted = fit(d, DataSet(data.x, data.y, ones))
        assert scalars_equal(base.coefficients, weighted.coefficients)
        assert base.denominator == weighted.denominator


def test_weighted_fit_matches_weighted_oracle():
    rng = random.Random(28)
    for _ in range(20):
        n = rng.randint(1, 3)
        d = random_exponents(rng, n)
        data = random_dataset(rng, rng.randint(n, 7), weighted=True)
        try:
            result = fit(d, data)
        except NonUniqueSolutionError:
            continue
        assert scalars_equal(result.coefficients, oracle.solve_normal(d, data))


def test_residual_optimality():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(1, 3)
        d = random_exponents(rng, n)
        data = well_conditioned_dataset(rng, n + 4)
        result = fit(d, data)

        def sse(coeffs):
            total = 0.0
            for xk, yk in zip(data.x, data.y):
                pred = sum(
                    complex(c) * complex(xk) ** dj for c, dj in zip(coeffs, d)
                )
                total += abs(pred - complex(yk)) ** 2
            return total

        best = sse(result.coefficients)
        for _ in range(10):
            bumped = [
                Scalar.from_float(float(c.re) + rng.uniform(-0.1, 0.1), float(c.im))
                for c in result.coefficients
            ]
            assert sse(bumped) >= best - 1e-9 * max(1.0, best)


def test_standard_regression_elementary_specialization():
    # for the staircase signature the minor sums reduce to products of
    # elementary symmetric values; rebuild the solution that way
    rng = random.Random(30)
    for n in (2, 3):
        d = Exponents(range(n - 1, -1, -1))
        data = random_dataset(rng, n + 3)
        result = fit(d, data)
        dvalue = Scalar.zero(True)
        for subset in combinations(range(data.m), n):
            pts = tuple(data.x[k] for k in subset)
            dvalue = dvalue + vandermonde(pts).mag_sq()
        t = []
        for j in range(n):
            acc = Scalar.zero(True)
            for xk, yk in zip(data.x, data.y):
                acc = acc + scalar_pow(xk.conj(), n - 1 - j) * yk
            t.append(acc)
        coeffs = []
        for i in range(1, n + 1):
            num = Scalar.zero(True)
            for j in range(1, n + 1):
                s_ij = Scalar.zero(True)
                for subset in combinations(range(data.m), n - 1):
                    pts = tuple(data.x[k] for k in subset)
                    e = elem_sym_all(pts)
                    s_ij = s_ij + e[i - 1] * e[j - 1].conj() * vandermonde(pts).mag_sq()
                term = s_ij * t[j - 1]
                num = num + term if (i + j) % 2 == 0 else num - term
            coeffs.append(num / dvalue)
        assert scalars_equal(result.coefficients, coeffs)


def test_b_matrix_quartic_goldens():
    d = Exponents((4, 2, 0))
    rng = random.Random(31)
    data = random_dataset(rng, 5)
    b = b_matrix(d, data)
    assert not b.normalized
    assert len(b.columns) == comb(5, 2)
    for c, (l1, l2) in enumerate(b.columns):
        x1, x2 = data.x[l1 - 1], data.x[l2 - 1]
        sq1, sq2 = x1 * x1, x2 * x2
        # raw entries carry the deferred 1/sqrt(D) normalizer
        assert b.entries[0][c] == sq2 - sq1
        assert b.entries[1][c] == sq1 * sq1 - sq2 * sq2
        assert b.entries[2][c] == sq1 * sq2 * (sq2 - sq1)


def test_b_matrix_single_term_model():
    d = Exponents((3,))
    data = DataSet(ex(1, 2), ex(1, 8))
    b = b_matrix(d, data)
    assert b.columns == [()]
    assert b.entries == [[Scalar.from_exact(-1)]]
    assert b.denominator_root_sq == denominator(d, data)


def test_b_matrix_float_normalization():
    d = Exponents((2, 0))
    data = DataSet(
        [Scalar.from_float(v) for v in (1.0, 2.0, 3.0)],
        [Scalar.from_float(v) for v in (1.0, 0.0, 2.0)],
    )
    b = b_matrix(d, data)
    assert b.normalized
    root = b.denominator_root
    drops = [lambda_drop(d, i) for i in range(1, 3)]
    for c, col in enumerate(b.columns):
        pts = tuple(data.x[k - 1] for k in col)
        v = vandermonde(pts)
        for i in range(2):
            raw = schur(drops[i], pts) * v
            sign = -1.0 if (i + 1) % 2 else 1.0
            lhs = float(b.entries[i][c].re) * root
            assert abs(lhs - sign * float(raw.re)) < 1e-9


def test_b_matrix_times_adjoint_is_signed_minor_sums():
    # B B* = (-1)^(i+j) S_ij exactly: the identity pseudoinverse builds on
    rng = random.Random(37)
    for _ in range(8):
        n = rng.randint(1, 4)
        d = random_exponents(rng, n)
        data = random_dataset(rng, rng.randint(n, 7), complex_=True, weighted=True)
        b = b_matrix(d, data)
        for i in range(n):
            for j in range(n):
                acc = Scalar.zero(True)
                for c in range(len(b.columns)):
                    acc = acc + b.entries[i][c] * b.entries[j][c].conj()
                s_ij = minor_sum(d, data, i + 1, j + 1)
                assert acc == (s_ij if (i + j) % 2 == 0 else -s_ij)


def test_pseudoinverse_identities():
    rng = random.Random(32)
    for _ in range(15):
        n = rng.randint(1, 3)
        d = random_exponents(rng, n)
        data = random_dataset(rng, rng.randint(n, 8), complex_=rng.random() < 0.3)
        try:
            aplus = pseudoinverse(d, data)
        except NonUniqueSolutionError:
            continue
        a_mat = design_matrix(d, data.x)
        for i in range(n):
            for j in range(n):
                acc = Scalar.zero(True)
                for k in range(data.m):
                    acc = acc + aplus[i][k] * a_mat[k][j]
                expected = Scalar.one(True) if i == j else Scalar.zero(True)
                assert acc == expected
        result = fit(d, data)
        for i in range(n):
            acc = Scalar.zero(True)
            for k in range(data.m):
                acc = acc + aplus[i][k] * data.y[k]
            assert acc == result.coefficients[i]


def test_pseudoinverse_power_function_row():
    d = Exponents((2,))
    data = DataSet(ex(1, 2, 3), ex(1, 4, 9))
    aplus = pseudoinverse(d, data)
    den = Scalar.from_exact(1 + 16 + 81)
    expected = [Scalar.from_exact(v) / den for v in (1, 4, 9)]
    assert aplus == [expected]


def test_minor_sum_quartic_golden():
    d = Exponents((4, 2, 0))
    rng = random.Random(34)
    data = random_dataset(rng, 6, complex_=True)
    s11 = minor_sum(d, data, 1, 1)
    direct = Scalar.zero(True)
    for l1, l2 in combinations(range(6), 2):
        sq1 = data.x[l1] * data.x[l1]
        sq2 = data.x[l2] * data.x[l2]
        direct = direct + (sq1 - sq2).mag_sq()
    assert s11 == direct


def test_minor_sum_hermitian_and_gram_minor():
    rng = random.Random(35)
    for _ in range(10):
        n = rng.randint(2, 4)
        d = random_exponents(rng, n)
        data = random_dataset(rng, rng.randint(n, 7), complex_=True)
        g = gram(d, data)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                s_ij = minor_sum(d, data, i, j)
                assert s_ij == minor_sum(d, data, j, i).conj()
                # the (j, i) minor of the Gram matrix, by an independent determinant
                sub = [
                    [g[r][c] for c in range(n) if c != i - 1]
                    for r in range(n)
                    if r != j - 1
                ]
                assert s_ij == det(sub, True)


def test_fit_evaluation_count():
    rng = random.Random(36)
    for _ in range(10):
        n = rng.randint(1, 4)
        d = random_exponents(rng, n)
        data = random_dataset(rng, rng.randint(n, 9))
        try:
            result = fit(d, data)
        except NonUniqueSolutionError:
            continue
        m = data.m
        assert result.evaluations == comb(m, n) + n * n * comb(m, n - 1)


@pytest.mark.parametrize("m", [3, 4])
def test_sparse_high_degree_exact_fit_matches_oracle(m):
    # (40,20,0): in exact mode the Schur values are 2x2 and 1x1 h-form
    # determinants (float mode keeps the 38x38 and 39x39 e-form bands);
    # the |x| are distinct because every term is even in x
    d = Exponents((40, 20, 0))
    x = ex(Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3), Fraction(-7, 5))[:m]
    y = ex(1, Fraction(-2, 3), 5, Fraction(1, 9))[:m]
    data = DataSet(x, y)
    assert scalars_equal(fit(d, data).coefficients, oracle.solve_normal(d, data))


@pytest.mark.parametrize(
    "points",
    [
        [(1, Fraction(3, 10)), (Fraction(3, 2), Fraction(-6, 5)), (2, Fraction(5, 2))],
        [
            (1 + Fraction(3, 256), Fraction(11, 10)),
            (2 + Fraction(5, 256), Fraction(-7, 10)),
            (3 + Fraction(1, 256), Fraction(2, 5)),
        ],
    ],
)
def test_float_residual_of_an_interpolation_is_rounding_small(points):
    # three points, three terms: the fit interpolates, so the residual is 0
    # up to rounding; ||y||^2 - Re<T, a> cancelled to 2e-10 and -1.5e-11 here
    d = Exponents((40, 20, 0))
    data = DataSet(
        [Scalar.from_float(x) for x, _ in points], [Scalar.from_float(y) for _, y in points]
    )
    ysq = sum(float(y) ** 2 for _, y in points)
    assert 0.0 <= float(fit(d, data).residual_sq.re) <= 1e-15 * ysq


def test_float_residual_of_the_noiseless_quartic():
    # the quartic lies in the model's span, so the residual is 0 up to
    # rounding; the shorter <y | (1 - P) y> cancels to about 3.7e6 here
    data = quartic_example(m=9, exact=False)
    assert 0.0 <= float(fit(Exponents((4, 2, 0)), data).residual_sq.re) <= 1e-6


def test_float_fit_with_a_denominator_past_1e154():
    # D is about 1e156 here, so the |D|^2 that float Scalar division used to
    # form overflowed, and fit, the pseudoinverse and the stream all returned
    # [0, -0, nan] without an error
    d = Exponents((4, 2, 0))
    xs = [1e13 * (1 + k / 10) for k in range(6)]
    data = DataSet(
        [Scalar.from_float(x) for x in xs],
        [Scalar.from_float(3 * (x / 1e13) ** 4 - 2 * (x / 1e13) ** 2 + 1) for x in xs],
    )
    state = init_state(d, exact=False)
    for xk, yk in zip(data.x, data.y):
        state = update(state, xk, yk)
    zero = Scalar.zero(False)
    applied = [sum((p * y for p, y in zip(row, data.y)), zero) for row in pseudoinverse(d, data)]
    reference = oracle.solve_normal(d, data)
    for coefficients in (fit(d, data).coefficients, applied, state.coefficients):
        assert max_rel_diff(coefficients, reference) <= 1e-9


def test_float_values_beyond_the_float_range_raise_overflow_error():
    # on points near 1e80 the float D, and a minor sum S after two appends,
    # overflow; each entry point names the value instead of returning inf or
    # nan or failing in the degeneracy floor's power
    d = Exponents((2, 1, 0))
    data = DataSet([Scalar.from_float(v * 1e80) for v in (1, 2, 3, 4)], [Scalar.from_float(v) for v in (1, 2, 3, 5)])
    for call in (fit, pseudoinverse, b_matrix):
        with pytest.raises(OverflowError, match="^the denominator D is not finite in float arithmetic$"):
            call(d, data)
    state = init_state(d, exact=False)
    with pytest.raises(OverflowError, match="^a minor sum S is not finite in float arithmetic$"):
        for xk, yk in zip(data.x, data.y):
            state = update(state, xk, yk)
    assert state.m == 1


def test_float_pseudoinverse_entry_beyond_the_float_range_raises_overflow_error():
    # D = 2.14e280 and every minor sum are finite, but the product
    # c_i |w_k|^2 of entry [1][1] overflows before the division by D, where
    # the exact entry is -1.77e-57; it returned inf
    x, w = (1.2687379332690463, 195618758845964.9), (1e25, 1e58)
    data = DataSet(*([Scalar.from_float(v) for v in vs] for vs in (x, (1, 2), w)))
    with pytest.raises(OverflowError, match="^an entry of the pseudoinverse is not finite in float arithmetic$"):
        pseudoinverse(Exponents((4, 0)), data)
    with pytest.raises(OverflowError, match="^a numerator N is not finite in float arithmetic$"):
        fit(Exponents((4, 0)), data)


def test_extend_b_matrix_beyond_the_float_range_raises_overflow_error():
    # appending x = 1e200 to (1, 0) on x = 1, 2 takes D past the float range;
    # the rescale by sqrt(D) would then zero every entry of B, so extending
    # refuses the point as `update` does
    d = Exponents((1, 0))
    data = DataSet([Scalar.from_float(v) for v in (1, 2)], [Scalar.from_float(v) for v in (1, 3)])
    state, big = init_state(d, data), Scalar.from_float(1e200)
    with pytest.raises(OverflowError, match="^the denominator D is not finite in float arithmetic$"):
        update(state, big, Scalar.from_float(1))
    with pytest.raises(OverflowError, match="^the denominator D is not finite in float arithmetic$"):
        extend_b_matrix(state, b_matrix(d, data), big)


def test_kernel_calls_the_regress_bound_symfunc_names(monkeypatch):
    # a traced benchmark run counts subsets by wrapping regress.schur and
    # regress.vandermonde, so the float kernel must call exactly those names,
    # once per subset and partition and once per subset, in fits and
    # appends; exact Gaussian data, whose sums are minors of the lifted
    # design matrix (regress._minors_walk), calls neither
    calls = Counter()

    def counting(name, fn, point_arg):
        def wrapper(*args, **kwargs):
            calls[name, len(args[point_arg])] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(regress, "schur", counting("schur", regress.schur, 1))
    monkeypatch.setattr(regress, "vandermonde", counting("vandermonde", regress.vandermonde, 0))
    d = Exponents((4, 2, 0))
    data = well_conditioned_dataset(random.Random(43), 12)
    m, w = data.m, data.w or [None] * data.m
    calls.clear()
    fit(d, data)
    assert calls == {
        ("vandermonde", 3): comb(m, 3),
        ("vandermonde", 2): comb(m, 2),
        ("schur", 3): comb(m, 3),
        ("schur", 2): 3 * comb(m, 2),
    }
    state = init_state(d, DataSet(data.x[:-1], data.y[:-1], data.w and data.w[:-1]))
    calls.clear()
    update(state, data.x[-1], data.y[-1], w[-1])
    assert calls == {
        ("vandermonde", 3): comb(m - 1, 2),
        ("vandermonde", 2): m - 1,
        ("schur", 3): comb(m - 1, 2),
        ("schur", 2): 3 * (m - 1),
    }

    exact_gaussian = random_dataset(random.Random(43), 15, complex_=True, weighted=True)
    assert regress._lift(exact_gaussian).kind is _Gaussian
    calls.clear()
    fit(d, exact_gaussian)
    state = init_state(d, DataSet(exact_gaussian.x[:-1], exact_gaussian.y[:-1], exact_gaussian.w[:-1]))
    update(state, exact_gaussian.x[-1], exact_gaussian.y[-1], exact_gaussian.w[-1])
    assert calls == {}


def _reference_schur_case(weighted):
    # a real unweighted noisy quartic, or weighted complex points as in a stream
    if not weighted:
        return quartic_example(m=14, noise=0.01, seed=1, exact=False)
    rng = random.Random(14)
    x = [Scalar.from_float(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(14)]
    y = [Scalar.from_float(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(14)]
    w = [Scalar.from_float(rng.uniform(0.5, 2)) for _ in range(14)]
    return DataSet(x, y, w)


@pytest.mark.parametrize("weighted", [False, True], ids=["real", "weighted-complex"])
def test_straight_line_schur_code_leaves_every_output_unchanged(monkeypatch, weighted):
    # the kernel's (4,2,0) outputs, down to the last bit, are those of the
    # rows-and-det route that the generated Schur code replaces
    d, data = Exponents((4, 2, 0)), _reference_schur_case(weighted)

    def outputs():
        out = [repr(fit(d, data)), repr(pseudoinverse(d, data))]
        state = init_state(d, exact=False)
        for k in range(data.m):
            state = update(state, data.x[k], data.y[k], data.w[k] if weighted else None)
            out.append(repr(state.to_dict()))
        return out

    compiled = outputs()
    monkeypatch.setattr(regress, "schur", rows_and_det)
    assert outputs() == compiled


def _lift_cases():
    """(number type the kernel lifts to, exact, data set) for each lift,
    including real x with Gaussian weights, which must lift x and w together."""
    rng = random.Random(44)

    def q():
        return Fraction(rng.randint(-8, 8), rng.randint(1, 4))

    def points(gaussian):
        seen, out = set(), []
        while len(out) < 6:
            v = (q(), q() if gaussian else 0)
            if v not in seen:
                seen.add(v)
                out.append(Scalar.from_exact(*v))
        return out

    def weights(gaussian):
        return [
            Scalar.from_exact(rng.randint(1, 4), rng.randint(1, 3) if gaussian else 0)
            for _ in range(6)
        ]

    cases = []
    for lifted, exact, gaussian_x, gaussian_w in [
        (float, False, False, False),
        (complex, False, True, False),
        (complex, False, False, True),
        (int, True, False, False),
        (_Gaussian, True, True, False),
        (_Gaussian, True, True, True),
        (_Gaussian, True, False, True),
    ]:
        x, y, w = points(gaussian_x), points(True), weights(gaussian_w)
        if not exact:
            x, y, w = ([v.to_float() for v in vs] for vs in (x, y, w))
        cases.append((lifted, exact, DataSet(x, y, w)))
    return cases


@pytest.mark.parametrize("lifted,exact,data", _lift_cases())
def test_every_lifted_number_type_matches_gram_and_oracle(lifted, exact, data):
    d = Exponents((3, 1, 0))
    x, w = regress._lift(data)[:2]
    assert all(type(v) is lifted for v in x + w)
    dvalue = denominator(d, data)
    coefficients = fit(d, data).coefficients
    if exact:
        assert dvalue == det(gram(d, data), True)
        assert scalars_equal(coefficients, oracle.solve_normal(d, data))
    else:
        assert max_rel_diff([dvalue], [det(gram(d, data), False)]) <= 1e-10
        assert max_rel_diff(coefficients, oracle.solve_normal(d, data)) <= 1e-10


@pytest.mark.parametrize("lifted,exact,data", _lift_cases())
def test_symfunc_on_native_points_matches_scalar_points(lifted, exact, data):
    # the lift scales exact x by xscale, so the reference points are scaled too
    native, xscale = regress._lift(data).x, regress._lift(data).xscale
    scale = Scalar.from_int(xscale, exact)

    def same(value, reference):
        if exact:
            return regress._wrap(value, True) == reference
        return max_rel_diff([regress._wrap(value, False)], [reference]) <= 1e-13

    for k in range(3, 6):
        pts, scalar_pts = tuple(native[:k]), tuple(scale * v for v in data.x[:k])
        assert same(vandermonde(pts), vandermonde(scalar_pts))
        for parts in [(2, 1), (3,), (3, 2), (4, 1, 1)]:
            lam = Partition(parts)
            assert same(schur(lam, pts), schur(lam, scalar_pts))
        rows = [[pts[(i + j) % k] * pts[j] for j in range(k)] for i in range(k)]
        scalar_rows = [[scalar_pts[(i + j) % k] * scalar_pts[j] for j in range(k)] for i in range(k)]
        assert same(det(rows, exact), det(scalar_rows, exact))


def _coprime_dataset(gaussian_x, gaussian_w):
    """Seven exact points whose parts have the coprime denominators 3, 7 and
    11, and weights whose parts have the denominators 5 and 13, so the lift
    scales x by 231 and w by 65."""
    x, y, w = [], [], []
    for k in range(7):
        im = Fraction(k, (7, 11, 3)[k % 3]) if gaussian_x else 0
        x.append(Scalar.from_exact(Fraction((-1) ** k * (k + 1), (3, 7, 11)[k % 3]), im))
        y.append(Scalar.from_exact(Fraction(k * k - 3, 2), Fraction(k, 3)))
        im = Fraction(1, (13, 5)[k % 2]) if gaussian_w else 0
        w.append(Scalar.from_exact(Fraction(k + 2, (5, 13)[k % 2]), im))
    return DataSet(x, y, w)


@pytest.mark.parametrize("gaussian_x", [False, True], ids=["real-x", "gaussian-x"])
@pytest.mark.parametrize("gaussian_w", [False, True], ids=["real-w", "gaussian-w"])
def test_integer_lift_is_undone_exactly(gaussian_x, gaussian_w):
    # the kernel sums on x and w scaled to integers; every aggregate it
    # returns must equal the unscaled one, compared with ==
    data, d, n = _coprime_dataset(gaussian_x, gaussian_w), Exponents((4, 2, 0)), 3
    lifted = regress._lift(data)
    assert (lifted.xscale, lifted.wscale) == (231, 65)
    reference = oracle.solve_normal(d, data)
    assert scalars_equal(fit(d, data).coefficients, reference)
    zero = Scalar.zero(True)
    applied = [sum((p * y for p, y in zip(row, data.y)), zero) for row in pseudoinverse(d, data)]
    assert scalars_equal(applied, reference)

    b = b_matrix(d, data)
    assert b.denominator_root_sq == det(gram(d, data), True)
    for c, col in enumerate(b.columns):
        pts = tuple(data.x[k - 1] for k in col)
        v = vandermonde(pts)
        for k in col:
            v = v * data.w[k - 1]
        for i in range(n):
            u = schur(lambda_drop(d, i + 1), pts) * v
            assert b.entries[i][c] == (-u if i % 2 == 0 else u)

    head = DataSet(data.x[:n], data.y[:n], data.w[:n])
    state, chained = init_state(d, head), b_matrix(d, head)
    for k in range(n, data.m):
        chained = extend_b_matrix(state, chained, data.x[k], data.w[k])
        state = update(state, data.x[k], data.y[k], data.w[k])
    assert chained.denominator_root_sq == b.denominator_root_sq
    by_column = lambda bm: dict(zip(bm.columns, zip(*bm.entries)))
    assert by_column(chained) == by_column(b)

    stream = init_state(d, exact=True)
    for k in range(data.m):
        stream = update(stream, data.x[k], data.y[k], data.w[k])
    for s in (state, stream):
        assert s.denom == b.denominator_root_sq
        assert scalars_equal(s.coefficients, reference)


def _walker_points(kind, m, rng):
    """m distinct points and m nonzero weights of one lifted number type."""
    draw = {
        float: lambda: rng.uniform(-2, 2),
        complex: lambda: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        int: lambda: rng.randint(-40, 40),
        _Gaussian: lambda: _Gaussian(rng.randint(-40, 40), rng.randint(-40, 40)),
    }[kind]
    x = []
    while len(x) < m:
        v = draw()
        if v not in x:
            x.append(v)
    w = []
    while len(w) < m:
        v = draw()
        if v:
            w.append(v)
    return x, w


# (partitions, subset size, point counts): the one-term S pass on the empty
# subset, bands of width 1 to 3 ((4,2,0)), the 7-wide band of (9,4,0) and
# subsets past the straight-line code's point limit, each also on fewer
# points than the subset size
_WALKS = [
    ([Partition(())], 0, (0, 1, 3)),
    ([lambda_from_degrees(Exponents((4, 2, 0)))], 3, (2, 3, 7)),
    ([lambda_drop(Exponents((4, 2, 0)), i) for i in (1, 2, 3)], 2, (1, 2, 7)),
    ([lambda_from_degrees(Exponents((9, 4, 0)))], 3, (2, 6)),
    ([lambda_drop(Exponents((9, 4, 0)), i) for i in (1, 2, 3)], 2, (5,)),
    ([Partition((2, 1)), Partition((3, 3, 1))], UNROLL_MAX_POINTS + 1, (UNROLL_MAX_POINTS, UNROLL_MAX_POINTS + 2)),
]


def _parts(values):
    # each value's type and the reprs of its parts, down to the sign of a zero
    return [(type(v), repr(v.real), repr(v.imag)) for v in values]


@pytest.mark.parametrize("kind", [float, complex, int, _Gaussian], ids=lambda t: t.__name__)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("fixed", [0, 1])
def test_walker_matches_the_reference_subset_loop(kind, weighted, fixed):
    # the generated walk of each lifted kind (exact ones take it past
    # MINORS_MAX_TERMS terms) sums and lists what the per-subset loop in
    # `_helpers` does, value for value and bit for bit, with the same count,
    # column labels and column order; an empty walk's sums stay the int 0
    rng = random.Random(f"{kind.__name__}-{weighted}-{fixed}")
    for lams, size, counts in _WALKS:
        for m in counts:
            x, w = _walker_points(kind, m, rng)
            w = w if weighted else None
            sums, count = regress._walker(kind, len(lams), size, fixed, weighted)(x, w, lams, schur, vandermonde)
            want_sums, want_count = hermitian_sums(x, w, fixed, lams, size)
            assert count == want_count, (lams, size, m)
            assert _parts(sums) == _parts(want_sums), (lams, size, m)
            walk = regress._walker(kind, len(lams), size, fixed, weighted, columns=True)
            columns = [(label, _parts(u)) for label, *u in walk(x, w, lams, schur, vandermonde)]
            want = [(label, _parts(u)) for label, u in subset_columns(x, w, fixed, lams, size)]
            assert columns == want, (lams, size, m)
            assert len(columns) == count


# (exponents, point counts) of the minors walk: one term, whose S sums over
# the empty subset; two terms; (4,2,0), with bands of width 1 to 3; the 7-wide
# band of (9,4,0); five terms; and the 38- and 39-wide bands of (40,20,0) on 3
# points; each also on fewer points than a subset takes
_MINOR_WALKS = [
    ((0,), (0, 1, 3)),
    ((3, 1), (0, 1, 4)),
    ((4, 2, 0), (1, 2, 3, 7)),
    ((9, 4, 0), (2, 6)),
    ((9, 7, 5, 3, 0), (3, 4, 7)),
    ((40, 20, 0), (1, 3)),
]


@pytest.mark.parametrize("kind", [int, _Gaussian], ids=lambda t: t.__name__)
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("fixed", [0, 1])
def test_minors_walk_matches_the_reference_subset_loop(kind, weighted, fixed):
    # D, every S sum and every column of the minors walk, on int pairs for
    # `_Gaussian` points, equal those of the per-subset Schur and V loop in
    # `_helpers`, signs included, with the same count, column labels and
    # column order; a sum over no subset stays the int 0
    rng = random.Random(f"minors-{kind.__name__}-{weighted}-{fixed}")
    for d, counts in _MINOR_WALKS:
        n, lams = len(d), [lambda_drop(Exponents(d), i + 1) for i in range(len(d))]
        for m in counts:
            x, w = _walker_points(kind, m + fixed, rng)
            w = w if weighted else None
            rows = regress._rows(d, regress._Lifted(x, w, None, fixed, True, kind, 1, 1, 1))
            (dsum, *upper), count = regress._minors_walk(n, fixed, kind)(rows)
            want_d, count_d = hermitian_sums(x, w, fixed, [lambda_from_degrees(Exponents(d))], n)
            want_s, count_s = hermitian_sums(x, w, fixed, lams, n - 1)
            assert [dsum] == want_d and upper == want_s, (d, m)
            assert count == count_d + n * n * count_s, (d, m)
            if not count_d:
                assert type(dsum) is int, (d, m)
            if not count_s:
                assert all(type(v) is int for v in upper), (d, m)
            columns = [(label, u) for label, *u in regress._minors_walk(n, fixed, kind, columns=True)(rows)]
            assert columns == subset_columns(x, w, fixed, lams, n - 1), (d, m)
            assert len(columns) == count_s


def _assert_exact_fit_invariants(d, data):
    """The exact fit of `data` solves the normal equations, reports the D of
    `denominator`, and a_i = N_i / D; a real coefficient is a Fraction,
    never a `_Gaussian` with a zero imaginary part."""
    result = fit(d, data)
    assert result.coefficients == oracle.solve_normal(d, data)
    assert result.denominator == denominator(d, data)
    assert [ni / result.denominator for ni in result.numerators] == result.coefficients
    assert type(result.denominator.value) is Fraction
    for a in result.coefficients:
        assert type(a.value) is (_Gaussian if a.im else Fraction)
    return result


def test_exact_fits_past_the_minors_limit_take_the_walker(monkeypatch):
    # the minors walk is code of 2^n statements, so exact models of more
    # than MINORS_MAX_TERMS terms sum through the walker's Schur and V calls,
    # to the same exact solution as the normal equations
    calls = Counter()
    monkeypatch.setattr(regress, "schur", lambda lam, z: calls.update(["schur"]) or schur(lam, z))
    for n in (regress.MINORS_MAX_TERMS, regress.MINORS_MAX_TERMS + 1):
        d = Exponents(range(n, -1, -1)[:n])
        data = DataSet(ex(*(Fraction(k, 2) for k in range(1, n + 2))), ex(*(k * k % 7 for k in range(n + 1))))
        calls.clear()
        result = fit(d, data)
        assert calls["schur"] == (0 if n <= regress.MINORS_MAX_TERMS else comb(n + 1, n) + n * comb(n + 1, n - 1))
        result = _assert_exact_fit_invariants(d, data)
        assert result.evaluations == comb(n + 1, n) + n * n * comb(n + 1, n - 1)


# pairwise coprime denominators below 1000, so the lift's scale is their
# product and no two parts share a factor of it
_UNSHARED = (997, 991, 983, 977, 971, 967, 953, 947, 941, 937, 929, 919)


def _invariant_cases():
    """(degrees, data) of exact fits: int, rational and Gaussian data,
    weighted and not, and the term counts of the minors walk's edges."""
    q, rng, cases = Fraction, random.Random(41), []
    ints = lambda m: DataSet(ex(*(k - 3 for k in range(m))), ex(*(rng.randint(-50, 50) for _ in range(m))))
    for weighted in (False, True):
        w = lambda m: ex(*(rng.randint(1, 9) for _ in range(m))) if weighted else None
        tag = "weighted" if weighted else "unweighted"
        x = [Scalar.from_exact(q((-1) ** k * (k + 2), den)) for k, den in enumerate(_UNSHARED[:7])]
        y = [Scalar.from_exact(q(rng.randint(-99, 99), den)) for den in _UNSHARED[5:12]]
        cases.append(pytest.param(Exponents((4, 2, 0)), DataSet(x, y, w(7)), id=f"unshared-{tag}"))
        g = [Scalar.from_exact(q(k - 2, 3), q(k % 3, den)) for k, den in enumerate(_UNSHARED[:6])]
        gy = [Scalar.from_exact(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(6)]
        gw = [Scalar.from_exact(rng.randint(1, 9), rng.randint(-2, 2)) for _ in range(6)] if weighted else None
        cases.append(pytest.param(Exponents((3, 1, 0)), DataSet(g, gy, gw), id=f"gaussian-{tag}"))
        cases.append(pytest.param(Exponents((5, 2)), DataSet(ints(6).x, ints(6).y, w(6)), id=f"int-{tag}"))
        data = ints(4)
        cases.append(pytest.param(Exponents((2,)), DataSet(data.x, data.y, w(4)), id=f"one-term-{tag}"))
    # Gaussian x on which the model is exact: every coefficient is real
    g = [Scalar.from_exact(q(k - 2, 3), q(k % 3, den)) for k, den in enumerate(_UNSHARED[:5])]
    cases.append(pytest.param(Exponents((3, 1, 0)), DataSet(g, [v * v * v - v - v for v in g]), id="gaussian-real-solution"))
    one = DataSet(ex(q(3, 7)), ex(q(-5, 11)))
    cases.append(pytest.param(Exponents((3,)), one, id="one-term-one-point"))
    return cases


@pytest.mark.parametrize("d,data", _invariant_cases())
def test_exact_fit_invariants(d, data):
    # one-term models sum S over the empty subset, the int 1
    _assert_exact_fit_invariants(d, data)


@pytest.mark.parametrize(
    "d,x",
    [
        pytest.param(Exponents((2, 1, 0)), ex(2, Fraction(1, 3), 2), id="repeated-x"),
        pytest.param(Exponents((2, 0)), ex(Fraction(5, 7), Fraction(-5, 7)), id="2-0-on-plus-minus-c"),
        pytest.param(Exponents((2, 0)), [Scalar.from_exact(1, 1), Scalar.from_exact(-1, -1)], id="2-0-on-plus-minus-gaussian"),
    ],
)
def test_exact_fit_of_a_rank_deficient_model_raises(d, x):
    with pytest.raises(NonUniqueSolutionError, match="denominator vanishes"):
        fit(d, DataSet(x, ex(*range(1, len(x) + 1))))


def _fractions_built(call):
    """The number of Fraction objects that call() builds, counted as calls of
    `Fraction.__new__` seen by a profile hook."""
    count, code, previous = 0, Fraction.__new__.__code__, sys.getprofile()

    def hook(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code is code

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return count


@pytest.mark.parametrize("gaussian", [False, True], ids=["real-x", "gaussian-x"])
def test_an_exact_fit_builds_as_many_fractions_at_any_size(gaussian):
    # S, T, N and the residuals stay on the lifted ints, so a fit builds a
    # Fraction only for each value it reports, however many points it has
    rng, d, built = random.Random(42), Exponents((4, 2, 0)), []
    for m in (10, 30):
        x = [Scalar.from_exact(Fraction(k + 1, 3), Fraction(k % 5, 7) if gaussian else 0) for k in range(m)]
        y = [Scalar.from_exact(Fraction(rng.randint(-9, 9), rng.randint(1, 5))) for _ in range(m)]
        data = DataSet(x, y)
        built.append(_fractions_built(lambda: fit(d, data)))
    assert built[0] == built[1] > 0


def _scalar_moments(d, data):
    """T_j = sum_k |w_k|^2 conj(x_k)^{d_j} y_k in plain Scalar arithmetic."""
    out = []
    for dj in d:
        total = Scalar.zero(True)
        for k in range(data.m):
            total = total + scalar_pow(data.x[k].conj(), dj) * data.weight_sq(k) * data.y[k]
        out.append(total)
    return out


def _scalar_residual_sq(d, data, a):
    """sum_k |w_k|^2 |y_k - sum_j a_j x_k^{d_j}|^2 in plain Scalar arithmetic."""
    total = Scalar.zero(True)
    for k in range(data.m):
        r = data.y[k]
        for aj, dj in zip(a, d):
            r = r - aj * scalar_pow(data.x[k], dj)
        total = total + r.mag_sq() * data.weight_sq(k)
    return total


def _moment_cases():
    """(degrees, data, (xscale, wscale, yscale)) for lifts whose scales differ."""
    q = Fraction
    mixed = DataSet(
        [Scalar.from_exact(q((-1) ** k * (k + 1), 3)) for k in range(6)],
        [Scalar.from_exact(q(2 * k - 5, (5, 7)[k % 2])) for k in range(6)],
        [Scalar.from_exact(q(2 * k + 1, (11, 2)[k % 2])) for k in range(6)],
    )
    gaussian_y = DataSet(
        [Scalar.from_exact(q(k - 3, 2)) for k in range(7)],
        [Scalar.from_exact(q(k * k - 4, 3), q(1 - k, 5)) for k in range(7)],
        [Scalar.from_exact(q(k + 2, 7)) for k in range(7)],
    )
    high = DataSet(
        [Scalar.from_exact(k + q(r, 256)) for k, r in ((1, 3), (2, 5), (3, 9))],
        [Scalar.from_exact(v) for v in (q(1, 3), q(-7, 5), q(11, 17))],
    )
    return [
        pytest.param(Exponents((3, 1, 0)), mixed, (3, 22, 35), id="mixed-denominators"),
        pytest.param(Exponents((4, 2, 0)), gaussian_y, (2, 7, 15), id="gaussian-y-real-x"),
        pytest.param(Exponents((40, 20, 0)), high, (256, 1, 255), id="40-20-0-on-3-points"),
    ]


@pytest.mark.parametrize("d,data,scales", _moment_cases())
def test_exact_moments_and_residual_match_scalar_arithmetic(d, data, scales):
    # T and the residual norm are summed on the lifted ints; summed again
    # here on Scalars, without a lift, they must come out equal
    lifted = regress._lift(data)
    assert (lifted.xscale, lifted.wscale, lifted.yscale) == scales
    assert regress._aggregates(d, lifted)[2] == _scalar_moments(d, data)
    result = fit(d, data)
    want = _scalar_residual_sq(d, data, result.coefficients)
    assert result.residual_sq == want
    assert bool(want) is (data.m > len(d))


def test_exact_stream_moments_match_scalar_arithmetic():
    # each append adds the T of its point alone, lifted with that point's
    # stream; the running T must equal T of the points so far
    data, d = _coprime_dataset(True, True), Exponents((4, 2, 0))
    state = init_state(d, exact=True)
    for k in range(data.m):
        state = update(state, data.x[k], data.y[k], data.w[k])
        head = DataSet(data.x[: k + 1], data.y[: k + 1], data.w[: k + 1])
        assert state.t == _scalar_moments(d, head)


def test_exact_fit_makes_as_many_scalar_operations_at_any_size(monkeypatch):
    # the O(m) moment sums and residuals, and the numerators and quotients
    # too, run on lifted numbers, so an exact fit makes no Scalar operation
    # (counted as the benchmark's tracer counts them) at any size, while a
    # float fit, whose N and a are Scalars, shows that the count works
    counts = Counter()

    def counted(name, method):
        def wrapper(a, b):
            counts[name] += 1
            return method(a, b)

        return wrapper

    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        monkeypatch.setattr(Scalar, name, counted(name, getattr(Scalar, name)))
    d, per_size = Exponents((4, 2, 0)), []
    for m in (8, 24):
        data = random_dataset(random.Random(m), m, weighted=True)
        counts.clear()
        fit(d, data)
        per_size.append(dict(counts))
    assert per_size[0] == per_size[1] == {}
    fit(d, random_dataset(random.Random(8), 8, exact=False))
    assert sum(counts.values()) > 0
