import random
from fractions import Fraction
from itertools import combinations
from math import comb, sqrt

import pytest

from schurfit import oracle
from schurfit.numeric import Scalar, scalar_pow
from schurfit.partitions import Exponents, lambda_drop, lambda_from_degrees
from schurfit.regress import (
    DataSet,
    InsufficientDataError,
    NonUniqueSolutionError,
    b_matrix,
    denominator,
    design_matrix,
    fit,
    fit_weighted,
    gram,
    minor_sum,
    projection_residual,
    pseudoinverse,
)
from schurfit.symfunc import det, elem_sym_all, schur, vandermonde

from _helpers import (
    exact_scalar,
    max_rel_diff,
    random_dataset,
    random_exponents,
    scalars_equal,
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
    assert denominator(d, same).is_zero()
    with pytest.raises(InsufficientDataError):
        denominator(d, DataSet(ex(1), ex(1)))


def test_fit_power_function_closed_form():
    rng = random.Random(22)
    for _ in range(20):
        deg = rng.randint(0, 6)
        d = Exponents((deg,))
        data = random_dataset(rng, rng.randint(1, 6), complex_=True)
        if all(v.is_zero() for v in data.x) and deg > 0:
            continue
        num = Scalar.zero(True)
        den = Scalar.zero(True)
        for xk, yk in zip(data.x, data.y):
            num = num + scalar_pow(xk.conj(), deg) * yk
            den = den + scalar_pow(xk, deg).mag_sq()
        if den.is_zero():
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
    assert result.residual_sq.is_zero()


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
        weighted = fit_weighted(d, DataSet(data.x, data.y, ones))
        assert scalars_equal(base.coefficients, weighted.coefficients)
        assert base.denominator == weighted.denominator


def test_fit_weighted_requires_weights():
    with pytest.raises(ValueError):
        fit_weighted(Exponents((1, 0)), DataSet(ex(1, 2), ex(1, 2)))


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
        v = vandermonde(pts, False)
        for i in range(2):
            raw = schur(drops[i], pts, False) * v
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


def test_projection_structure():
    rng = random.Random(33)
    for _ in range(10):
        n = rng.randint(1, 3)
        d = random_exponents(rng, n)
        data = random_dataset(rng, rng.randint(n, 6), complex_=rng.random() < 0.3)
        try:
            p, resid_sq = projection_residual(d, data)
        except NonUniqueSolutionError:
            continue
        m = data.m
        for r in range(m):
            for c in range(m):
                acc = Scalar.zero(True)
                for k in range(m):
                    acc = acc + p[r][k] * p[k][c]
                assert acc == p[r][c]  # idempotent
                assert p[r][c] == p[c][r].conj()  # Hermitian
        a_mat = design_matrix(d, data.x)
        for r in range(m):
            for j in range(n):
                acc = Scalar.zero(True)
                for k in range(m):
                    acc = acc + p[r][k] * a_mat[k][j]
                assert acc == a_mat[r][j]  # PA = A
        assert resid_sq == fit(d, data).residual_sq


def test_projection_special_cases():
    d = Exponents((1, 0))
    # y in the column space: zero residual
    data = DataSet(ex(0, 1, 2), ex(1, 3, 5))
    _, resid_sq = projection_residual(d, data)
    assert resid_sq.is_zero()
    # square invertible system: P is the identity
    sq = DataSet(ex(1, 4), ex(2, 3))
    p, resid_sq = projection_residual(d, sq)
    for r in range(2):
        for c in range(2):
            expected = Scalar.one(True) if r == c else Scalar.zero(True)
            assert p[r][c] == expected
    assert resid_sq.is_zero()


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
