import random
from fractions import Fraction

import pytest

from schurfit.numeric import Scalar, scalar_pow
from schurfit.oracle import (
    RankDeficiencyError,
    _normal_system,
    brute_force_min,
    solve_normal,
)
from schurfit.partitions import Exponents
from schurfit.regress import DataSet

from _helpers import random_dataset, random_exponents, well_conditioned_dataset


def ex(*vals):
    return [Scalar.from_exact(v) for v in vals]


def test_perfect_line():
    a = solve_normal(Exponents((1, 0)), DataSet(ex(0, 1, 2), ex(0, 1, 2)))
    assert a == ex(1, 0)


def test_constant_model_is_mean():
    a = solve_normal(Exponents((0,)), DataSet(ex(1, 2, 3), ex(2, 4, 9)))
    assert a == [Scalar.from_exact(Fraction(5))]
    # weighted mean
    data = DataSet(ex(1, 2), ex(1, 4), ex(2, 1))
    a = solve_normal(Exponents((0,)), data)
    assert a == [Scalar.from_exact(Fraction(4 + 4, 5))]


def test_interpolation_when_square():
    rng = random.Random(40)
    for _ in range(10):
        n = rng.randint(1, 4)
        d = random_exponents(rng, n)
        data = random_dataset(rng, n)
        try:
            a = solve_normal(d, data)
        except RankDeficiencyError:
            continue
        for xk, yk in zip(data.x, data.y):
            val = Scalar.zero(True)
            for coef, dj in zip(a, d):
                val = val + coef * scalar_pow(xk, dj)
            assert val == yk


def test_residual_certificate():
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randint(1, 4)
        d = random_exponents(rng, n)
        data = random_dataset(rng, rng.randint(n, 8), complex_=True)
        g, rhs = _normal_system(d, data)
        try:
            a = solve_normal(d, data)
        except RankDeficiencyError:
            continue
        for i in range(n):
            acc = Scalar.zero(True)
            for j in range(n):
                acc = acc + g[i][j] * a[j]
            assert acc == rhs[i]


def test_residual_certificate_float():
    rng = random.Random(42)
    for _ in range(15):
        n = rng.randint(1, 3)
        d = random_exponents(rng, n)
        data = well_conditioned_dataset(rng, n + 5)
        g, rhs = _normal_system(d, data)
        a = solve_normal(d, data)
        rhs_norm = max(abs(v) for v in rhs) or 1.0
        for i in range(n):
            acc = Scalar.zero(False)
            for j in range(n):
                acc = acc + g[i][j] * a[j]
            assert abs(acc - rhs[i]) <= 1e-10 * rhs_norm


def test_singular_system_raises():
    with pytest.raises(RankDeficiencyError):
        solve_normal(Exponents((1, 0)), DataSet(ex(2, 2, 2), ex(1, 2, 3)))


def test_singular_float_system_raises_before_dividing_by_its_zero_pivot():
    # x = 0 everywhere leaves the first column of G zero, so elimination has
    # no pivot there; dividing by it would raise ZeroDivisionError instead
    zeros = [Scalar.from_float(0.0)] * 3
    data = DataSet(zeros, [Scalar.from_float(v) for v in (1.0, 2.0, 3.0)])
    with pytest.raises(RankDeficiencyError, match="singular"):
        solve_normal(Exponents((1, 0)), data)


def test_brute_force_power_fit():
    data = DataSet(
        [Scalar.from_float(v) for v in (1.0, 2.0)],
        [Scalar.from_float(v) for v in (2.0, 4.0)],
    )
    a = brute_force_min(Exponents((1,)), data)
    assert abs(float(a[0].re) - 2.0) < 1e-4


def test_brute_force_constant_is_mean():
    data = DataSet(
        [Scalar.from_float(v) for v in (1.0, 2.0, 3.0)],
        [Scalar.from_float(v) for v in (1.0, 5.0, 3.0)],
    )
    a = brute_force_min(Exponents((0,)), data)
    assert abs(float(a[0].re) - 3.0) < 1e-4


def test_brute_force_matches_solver_n2():
    rng = random.Random(43)
    for _ in range(5):
        d = random_exponents(rng, 2, dmax=3)
        data = well_conditioned_dataset(rng, 6)
        direct = solve_normal(d, data)
        grid = brute_force_min(d, data)
        for u, v in zip(grid, direct):
            assert abs(float(u.re) - float(v.re)) < 1e-3


def test_brute_force_refusals():
    float_data = DataSet([Scalar.from_float(1.0)], [Scalar.from_float(1.0)])
    with pytest.raises(ValueError):
        brute_force_min(Exponents((2, 1, 0)), float_data)
    with pytest.raises(ValueError):
        brute_force_min(Exponents((1,)), DataSet(ex(1), ex(1)))
