import random
from math import comb

import pytest

from schurfit.incremental import (
    RegressionState,
    UnsupportedOperationError,
    extend_b_matrix,
    init_state,
    update,
)
from schurfit.numeric import Scalar, ScalarModeError
from schurfit.partitions import Exponents
from schurfit.regress import (
    DataSet,
    NonUniqueSolutionError,
    b_matrix,
    denominator,
    fit,
    minor_sum,
)

from _helpers import exact_scalar, random_dataset, random_exponents, scalars_equal


def ex(*vals):
    return [Scalar.from_exact(v) for v in vals]


def take(data, m):
    return DataSet(data.x[:m], data.y[:m], data.w[:m] if data.w else None)


def test_empty_state():
    d = Exponents((2, 0))
    state = init_state(d, exact=True)
    assert state.m == 0
    assert state.denom.is_zero()
    assert all(v.is_zero() for v in state.t)
    assert all(v.is_zero() for row in state.s for v in row)
    with pytest.raises(NonUniqueSolutionError):
        state.coefficients


def test_init_matches_batch_aggregates():
    rng = random.Random(50)
    for _ in range(10):
        n = rng.randint(1, 4)
        d = random_exponents(rng, n)
        data = random_dataset(rng, rng.randint(n, 7), complex_=rng.random() < 0.3)
        state = init_state(d, data)
        assert state.denom == denominator(d, data)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert state.s[i - 1][j - 1] == minor_sum(d, data, i, j)
        try:
            result = fit(d, data)
        except NonUniqueSolutionError:
            continue
        assert scalars_equal(state.a, result.coefficients)
        assert scalars_equal(state.n_vec, result.numerators)


def test_square_init_interpolates():
    d = Exponents((2, 1, 0))
    data = DataSet(ex(1, 2, 3), ex(1, 4, 9))
    state = init_state(d, data)
    assert state.coefficients == ex(1, 0, 0)


def test_update_equals_batch():
    rng = random.Random(51)
    for _ in range(25):
        n = rng.randint(1, 4)
        d = random_exponents(rng, n)
        total = rng.randint(n + 1, n + 5)
        data = random_dataset(rng, total, complex_=rng.random() < 0.3)
        state = init_state(d, take(data, n))
        for m in range(n, total):
            state = update(state, data.x[m], data.y[m])
            batch = fit(d, take(data, m + 1))
            assert scalars_equal(state.a, batch.coefficients)
            assert state.denom == batch.denominator
            assert scalars_equal(state.n_vec, batch.numerators)


def test_update_weighted_equals_batch():
    rng = random.Random(52)
    for _ in range(10):
        n = rng.randint(1, 3)
        d = random_exponents(rng, n)
        total = rng.randint(n + 1, n + 4)
        data = random_dataset(rng, total, weighted=True)
        state = init_state(d, take(data, n))
        for m in range(n, total):
            state = update(state, data.x[m], data.y[m], data.w[m])
            batch = fit(d, take(data, m + 1))
            assert scalars_equal(state.a, batch.coefficients)


def test_quartic_r_golden():
    # R_{1,1} for the even-quartic model is the sum of |x_l^2 - x_new^2|^2
    rng = random.Random(53)
    d = Exponents((4, 2, 0))
    data = random_dataset(rng, 6, complex_=True)
    state = init_state(d, take(data, 5))
    x_new, y_new = data.x[5], data.y[5]
    updated = update(state, x_new, y_new)
    r11 = updated.s[0][0] - state.s[0][0]
    direct = Scalar.zero(True)
    for l in range(5):
        sq_l = data.x[l] * data.x[l]
        sq_new = x_new * x_new
        direct = direct + (sq_l - sq_new).mag_sq()
    assert r11 == direct


def test_state_stays_hermitian_and_monotone():
    rng = random.Random(54)
    d = Exponents((3, 1, 0))
    data = random_dataset(rng, 8)
    state = init_state(d, take(data, 3))
    prev_d = state.denom
    for m in range(3, 8):
        state = update(state, data.x[m], data.y[m])
        n = 3
        for i in range(n):
            for j in range(n):
                assert state.s[i][j] == state.s[j][i].conj()
        assert state.denom.re >= prev_d.re
        prev_d = state.denom


def test_update_evaluation_count():
    rng = random.Random(55)
    for n in (1, 2, 3, 4):
        d = random_exponents(rng, n)
        data = random_dataset(rng, n + 4)
        state = init_state(d, take(data, n + 2))
        before = state.evaluations
        m = n + 2
        state = update(state, data.x[m], data.y[m])
        expected = comb(m, n - 1)
        if n >= 2:
            expected += n * n * comb(m, n - 2)
        assert state.evaluations - before == expected


def test_division_free_form_matches_paper_quotient():
    # a'_i = (D a_i + sum_j signed((S+R) dT + R T)) / D' must agree with the
    # numerator-based route used internally
    rng = random.Random(56)
    d = Exponents((2, 1, 0))
    data = random_dataset(rng, 6)
    state = init_state(d, take(data, 5))
    x_new, y_new = data.x[5], data.y[5]
    updated = update(state, x_new, y_new)
    n = 3
    from schurfit.numeric import scalar_pow

    r = [[updated.s[i][j] - state.s[i][j] for j in range(n)] for i in range(n)]
    dt = [scalar_pow(x_new.conj(), dj) * y_new for dj in d]
    for i in range(n):
        acc = state.denom * state.a[i]
        for j in range(n):
            term = (state.s[i][j] + r[i][j]) * dt[j] + r[i][j] * state.t[j]
            acc = acc + term if (i + j) % 2 == 0 else acc - term
        assert acc / updated.denom == updated.a[i]


def test_single_term_running_sums():
    # n = 1: no R terms, plain running sums of conj(x)^d y and |x|^(2d)
    rng = random.Random(57)
    d = Exponents((3,))
    data = random_dataset(rng, 5, complex_=True)
    state = init_state(d, take(data, 1))
    for m in range(1, 5):
        state = update(state, data.x[m], data.y[m])
    from schurfit.numeric import scalar_pow

    num = Scalar.zero(True)
    den = Scalar.zero(True)
    for xk, yk in zip(data.x, data.y):
        num = num + scalar_pow(xk.conj(), 3) * yk
        den = den + scalar_pow(xk, 3).mag_sq()
    assert state.t == [num]
    assert state.denom == den
    assert state.coefficients == [num / den]


def test_extend_b_matrix_exact():
    rng = random.Random(58)
    d = Exponents((2, 1, 0))
    for data in (random_dataset(rng, 6), random_dataset(rng, 6, complex_=True, weighted=True)):
        state = init_state(d, take(data, 5))
        prior = b_matrix(d, take(data, 5))
        w_new = data.w[5] if data.w else None
        extended = extend_b_matrix(state, prior, data.x[5], w_new)
        assert len(extended.columns) == comb(6, 2)
        assert len(prior.columns) + comb(5, 1) == len(extended.columns)
        fresh = b_matrix(d, take(data, 6))
        assert extended.denominator_root_sq == fresh.denominator_root_sq
        # same entries per column subset, in appended order
        fresh_by_col = {col: c for c, col in enumerate(fresh.columns)}
        for c, col in enumerate(extended.columns):
            fc = fresh_by_col[col]
            for i in range(3):
                assert extended.entries[i][c] == fresh.entries[i][fc]


def test_extend_b_matrix_float_rescales():
    d = Exponents((1, 0))
    x = [Scalar.from_float(v) for v in (1.0, 2.0, 4.0)]
    y = [Scalar.from_float(v) for v in (1.0, 2.0, 3.0)]
    state = init_state(d, DataSet(x, y))
    prior = b_matrix(d, DataSet(x, y))
    x_new = Scalar.from_float(7.0)
    extended = extend_b_matrix(state, prior, x_new)
    fresh = b_matrix(d, DataSet(x + [x_new], y + [Scalar.from_float(0.0)]))
    fresh_by_col = {col: c for c, col in enumerate(fresh.columns)}
    for c, col in enumerate(extended.columns):
        fc = fresh_by_col[col]
        for i in range(2):
            assert abs(extended.entries[i][c] - fresh.entries[i][fc]) < 1e-12
    # n = 2: the lone new column is the singleton subset {m+1}
    new_cols = extended.columns[len(prior.columns):]
    assert new_cols == [(4,)]
    # entry signs: row 1 carries s-value 1, row 2 carries x_new
    c = len(prior.columns)
    root = extended.denominator_root
    assert abs(extended.entries[0][c] - Scalar.from_float(-1.0 / root)) < 1e-15
    assert abs(extended.entries[1][c] - Scalar.from_float(float(x_new.re) / root)) < 1e-12


def test_snapshot_round_trip():
    rng = random.Random(59)
    d = Exponents((2, 1, 0))
    data = random_dataset(rng, 5, complex_=True)
    state = init_state(d, data)
    clone = RegressionState.from_dict(state.to_dict())
    assert clone.d == state.d
    assert scalars_equal(clone.x, state.x)
    assert scalars_equal(clone.t, state.t)
    assert clone.denom == state.denom
    assert scalars_equal(clone.a, state.a)
    # the restored state keeps streaming identically
    extra_x, extra_y = exact_scalar(rng), exact_scalar(rng)
    assert scalars_equal(
        update(clone, extra_x, extra_y).a, update(state, extra_x, extra_y).a
    )


def test_removal_and_mode_errors():
    d = Exponents((1, 0))
    state = init_state(d, DataSet(ex(1, 2), ex(1, 2)))
    with pytest.raises(UnsupportedOperationError):
        state.remove_point(0)
    with pytest.raises(ScalarModeError):
        update(state, Scalar.from_float(1.0), Scalar.from_float(1.0))
    with pytest.raises(ValueError):
        update(state, Scalar.from_exact(3), Scalar.from_exact(3), Scalar.from_exact(1))


def test_degenerate_stream_recovers():
    d = Exponents((1, 0))
    state = init_state(d, exact=True)
    state = update(state, Scalar.from_exact(2), Scalar.from_exact(1))
    with pytest.raises(NonUniqueSolutionError):
        state.coefficients
    state = update(state, Scalar.from_exact(2), Scalar.from_exact(1))
    with pytest.raises(NonUniqueSolutionError):
        state.coefficients  # both x equal: still rank deficient
    state = update(state, Scalar.from_exact(5), Scalar.from_exact(4))
    assert scalars_equal(
        state.coefficients,
        fit(d, DataSet(ex(2, 2, 5), ex(1, 1, 4))).coefficients,
    )
