import json
import random
from dataclasses import fields
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest

from schurfit import incremental, regress
from schurfit.incremental import (
    RegressionState,
    extend_b_matrix,
    init_state,
    update,
)
from schurfit.numeric import Scalar, ScalarModeError, parse_scalar
from schurfit.partitions import Exponents
from schurfit.regress import (
    DataSet,
    NonUniqueSolutionError,
    b_matrix,
    denominator,
    fit,
    minor_sum,
)

from _helpers import exact_scalar, random_dataset, random_exponents, scalar_bookkeeping, scalars_equal


def ex(*vals):
    return [Scalar.from_exact(v) for v in vals]


def take(data, m):
    return DataSet(data.x[:m], data.y[:m], data.w[:m] if data.w else None)


def test_empty_state():
    d = Exponents((2, 0))
    state = init_state(d, exact=True)
    assert state.m == 0
    assert not state.denom
    assert not any(state.t)
    assert not any(v for row in state.s for v in row)
    with pytest.raises(NonUniqueSolutionError):
        state.coefficients
    # one term: S sums over the (n-1)-subsets, and the empty subset gives 1
    one_term = init_state(Exponents((2,)), exact=True)
    assert one_term.s == [[Scalar.one(True)]]
    assert one_term.evaluations == 1


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
    # each stream starts once from its first n points and once from the empty
    # state, which is where a one-term model's S = 1 comes from
    rng = random.Random(51)
    for _ in range(25):
        n = rng.randint(1, 4)
        d = random_exponents(rng, n)
        total = rng.randint(n + 1, n + 5)
        data = random_dataset(rng, total, complex_=rng.random() < 0.3)
        for state in (init_state(d, take(data, n)), init_state(d, exact=True)):
            for m in range(state.m, total):
                state = update(state, data.x[m], data.y[m])
                if m + 1 < n:
                    continue
                try:
                    batch = fit(d, take(data, m + 1))
                except NonUniqueSolutionError:  # e.g. the single point x = 0
                    assert state.a is None
                    continue
                assert scalars_equal(state.a, batch.coefficients)
                assert state.denom == batch.denominator
                assert scalars_equal(state.n_vec, batch.numerators)
                assert state.evaluations == batch.evaluations


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


def test_extend_b_matrix_one_term_model():
    # n = 1: B has the single column () and gains none
    d = Exponents((2,))
    x, y = ex(1, 2, 3), ex(1, 4, 10)
    state = init_state(d, DataSet(x[:2], y[:2]))
    extended = extend_b_matrix(state, b_matrix(d, DataSet(x[:2], y[:2])), x[2])
    assert extended == b_matrix(d, DataSet(x, y))


def test_extend_b_matrix_refuses_prior_from_fewer_points():
    rng = random.Random(59)
    d = Exponents((2, 1, 0))
    data = random_dataset(rng, 5)
    state = init_state(d, take(data, 4))
    with pytest.raises(ValueError, match="C\\(4, 2\\) = 6"):
        extend_b_matrix(state, b_matrix(d, take(data, 3)), data.x[4])


def test_extend_b_matrix_refuses_prior_from_other_points():
    # same column count, but a D that is not the state's: the B it would
    # give fits no data set
    d = Exponents((1, 0))
    state = init_state(d, DataSet(ex(1, 2), ex(1, 2)))
    with pytest.raises(ValueError, match="other points"):
        extend_b_matrix(state, b_matrix(d, DataSet(ex(5, 9), ex(1, 2))), Scalar.from_exact(3))
    extended = extend_b_matrix(state, b_matrix(d, DataSet(ex(1, 2), ex(1, 2))), Scalar.from_exact(3))
    assert extended == b_matrix(d, DataSet(ex(1, 2, 3), ex(1, 2, 0)))


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


@pytest.mark.parametrize(
    "weights, w_new",
    [((1, 1), None), (None, 1), ((1, 1), 0)],
    ids=["unweighted-point-on-weighted-state", "weighted-point-on-unweighted-state", "zero-weight"],
)
def test_extend_b_matrix_refuses_what_update_refuses(weights, w_new):
    # each of these points gives a B that fits no data set
    d = Exponents((1, 0))
    data = DataSet(ex(1, 2), ex(1, 2), None if weights is None else ex(*weights))
    state, prior = init_state(d, data), b_matrix(d, data)
    w = None if w_new is None else Scalar.from_exact(w_new)
    with pytest.raises(ValueError):
        update(state, Scalar.from_exact(3), Scalar.from_exact(3), w)
    with pytest.raises(ValueError):
        extend_b_matrix(state, prior, Scalar.from_exact(3), w)


@pytest.mark.parametrize("exact", [True, False])
def test_mode_is_read_off_the_values(exact):
    d = Exponents((1, 0))
    make = Scalar.from_exact if exact else Scalar.from_float
    data = DataSet([make(v) for v in (1, 2)], [make(v) for v in (1, 3)])
    empty = init_state(d, exact=exact)
    state = update(init_state(d, data), make(4), make(5))
    for s in (empty, init_state(d, data), state, RegressionState.from_dict(state.to_dict())):
        assert s.exact is exact
        assert s.to_dict()["mode"] == ("exact" if exact else "float")
    for b in (b_matrix(d, data), extend_b_matrix(init_state(d, data), b_matrix(d, data), make(4))):
        assert b.normalized is not exact


def test_snapshot_refuses_non_integral_numbers():
    payload = init_state(Exponents((1, 0)), DataSet(ex(1, 2), ex(1, 2))).to_dict()
    # JSON's true and false are no degrees, although int() reads them as 1, 0
    # nor are infinities, on which int() overflows
    infinities = [("evaluations", v) for v in (float("inf"), float("-inf"))] + [("degrees", [float("inf"), 0])]
    for key, value in [("evaluations", 7.9), ("degrees", [1.9, 0.2]), ("degrees", [True, False]), *infinities]:
        with pytest.raises(ValueError, match="is not an integer"):
            RegressionState.from_dict({**payload, key: value})
    # a count is never negative, and JSON's true is no count although
    # int(True) is 1
    for value in (-7, True):
        with pytest.raises(ValueError, match="is not a non-negative integer"):
            RegressionState.from_dict({**payload, "evaluations": value})
    assert RegressionState.from_dict({**payload, "evaluations": 7.0}).evaluations == 7
    assert RegressionState.from_dict({**payload, "evaluations": 0}).evaluations == 0


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


def test_snapshot_coefficients_are_read_off_n_and_d():
    # a snapshot in the format that stored the coefficients beside N and D,
    # of the stream (1, 2), (2, 4), (3, 7), with "a" edited by hand: the
    # restored state answers N / D, the data's 5/2 and -2/3, not 7 and 7
    old = {
        "D": "6", "N": ["15", "-4"], "S": [["3", "6"], ["6", "14"]], "T": ["31", "13"],
        "a": ["7", "7"], "degrees": [1, 0], "evaluations": 15, "m": 3, "mode": "exact",
        "w": None, "x": ["1", "2", "3"], "y": ["2", "4", "7"],
    }
    state = RegressionState.from_dict(old)
    assert state.coefficients == [Scalar.from_exact(Fraction(5, 2)), Scalar.from_exact(Fraction(-2, 3))]
    assert state.to_dict() == {k: v for k, v in old.items() if k != "a"}
    assert "a" not in {f.name for f in fields(RegressionState)}


def test_removal_and_mode_errors():
    d = Exponents((1, 0))
    state = init_state(d, DataSet(ex(1, 2), ex(1, 2)))
    with pytest.raises(ScalarModeError):
        update(state, Scalar.from_float(1.0), Scalar.from_float(1.0))
    with pytest.raises(ScalarModeError):
        update(state, Scalar.from_exact(3), Scalar.from_float(3.0))
    with pytest.raises(ValueError):
        update(state, Scalar.from_exact(3), Scalar.from_exact(3), Scalar.from_exact(1))
    # the subset kernel lifts every value to one number type without checking
    # it, so a float weight or point is refused where it enters
    with pytest.raises(ScalarModeError):
        extend_b_matrix(state, b_matrix(d, DataSet(ex(1, 2), ex(1, 2))), Scalar.from_float(3.0))
    weighted = init_state(d, DataSet(ex(1, 2), ex(1, 2), ex(1, 1)))
    with pytest.raises(ScalarModeError):
        update(weighted, Scalar.from_exact(3), Scalar.from_exact(3), Scalar.from_float(1.0))


def test_a_point_of_another_mode_is_refused_before_any_subset_sum(monkeypatch):
    # the appended point is checked where it enters, so a float y on an exact
    # stream is refused before the kernel builds a lifted row of the minors
    # walk, or evaluates a Schur value or a V
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(regress, "schur", counting(regress.schur))
    monkeypatch.setattr(regress, "vandermonde", counting(regress.vandermonde))
    monkeypatch.setattr(regress, "_rows", counting(regress._rows))
    d = Exponents((2, 1, 0))
    data = DataSet(ex(1, 2, 3), ex(1, 4, 9), ex(1, 2, 1))
    state, prior = init_state(d, data), b_matrix(d, data)
    calls.clear()
    x, y, w = Scalar.from_exact(4), Scalar.from_exact(16), Scalar.from_exact(3)
    for call in (
        lambda: update(state, x, Scalar.from_float(16.0), w),
        lambda: update(state, Scalar.from_float(4.0), y, w),
        lambda: update(state, x, y, Scalar.from_float(3.0)),
        lambda: extend_b_matrix(state, prior, Scalar.from_float(4.0), w),
        lambda: extend_b_matrix(state, prior, x, Scalar.from_float(3.0)),
    ):
        with pytest.raises(ScalarModeError, match="point does not match the data's numeric mode"):
            call()
    assert calls == []
    update(state, x, y, w)
    assert calls


@pytest.mark.parametrize("exact, zero", [(True, "0"), (True, "0+0i"), (False, "0.0"), (False, "-0.0")])
def test_snapshot_with_a_zero_weight_is_refused(exact, zero):
    # DataSet and update refuse a zero weight, so a snapshot must not hold one
    make = Scalar.from_exact if exact else Scalar.from_float
    d = Exponents((1, 0))
    data = DataSet([make(v) for v in (1, 2, 3)], [make(v) for v in (2, 4, 7)], [make(1)] * 3)
    payload = init_state(d, data).to_dict()
    RegressionState.from_dict(payload)
    payload["w"][1] = zero
    with pytest.raises(ValueError, match="snapshot holds a zero weight"):
        RegressionState.from_dict(payload)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("denom", ["-2+3i", "6+1i", "6-1/2i", "-6", "-1/1000", "i"])
def test_snapshot_with_a_d_that_is_not_a_non_negative_real_number_is_refused(exact, denom):
    # D is a sum of |u|^2, real and non-negative in both modes; a restored
    # complex D gave complex coefficients for real data
    make = Scalar.from_exact if exact else Scalar.from_float
    d = Exponents((1, 0))
    payload = init_state(d, DataSet([make(v) for v in (1, 2, 3)], [make(v) for v in (2, 4, 7)])).to_dict()
    for kept in ("0", "-0.0", "6+0i", "1/2"):
        assert RegressionState.from_dict({**payload, "D": kept}).denom == parse_scalar(kept, exact)
    with pytest.raises(ValueError) as caught:
        RegressionState.from_dict({**payload, "D": denom})
    assert str(caught.value) == f"snapshot D {denom!r} is not a non-negative real number"


def test_each_public_call_lifts_its_points_once(monkeypatch):
    # batch fits lift x and w to the kernel's number type once per call; an
    # append to a state from init_state extends the state's lift by its point
    # (`regress._extended`) and lifts no point of the stream again
    lift, native = regress._lift, regress._native
    lifts, lengths = [], []

    def counting(*args):
        lifts.append(args)
        return lift(*args)

    def measuring(values, *args):
        lengths.append(len(values))
        return native(values, *args)

    monkeypatch.setattr(regress, "_lift", counting)
    monkeypatch.setattr(incremental, "_lift", counting)
    monkeypatch.setattr(regress, "_native", measuring)
    d = Exponents((2, 1, 0))
    data = random_dataset(random.Random(60), 5, weighted=True)
    head = take(data, 4)
    state, prior = init_state(d, head), b_matrix(d, head)
    for call in (
        lambda: fit(d, data),
        lambda: regress.pseudoinverse(d, data),
        lambda: b_matrix(d, data),
        lambda: init_state(d, data),
        lambda: init_state(d, exact=True),
    ):
        lifts.clear()
        call()
        assert len(lifts) == 1
    # integral, so its denominators divide the stream's scales
    x, y, w = ex(7, -2, 3)
    for call in (lambda: update(state, x, y, w), lambda: extend_b_matrix(state, prior, x, w)):
        lifts.clear()
        lengths.clear()
        call()
        assert lifts == [] and lengths and set(lengths) == {1}


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "gaussian"])
def test_an_exact_append_raises_the_powers_of_its_point_only(monkeypatch, complex_):
    # the state keeps the powers and rows of its points; an append raises
    # those of the new point alone, where a restored state, which keeps
    # none, raises those of every point once
    powers, pair_pow = regress._powers, regress._pair_pow
    raised, pairs = [], []

    def counting_powers(d, lifted):
        raised.append(len(lifted.x))
        return powers(d, lifted)

    def counting_pairs(*args):
        pairs.append(args)
        return pair_pow(*args)

    monkeypatch.setattr(regress, "_powers", counting_powers)
    monkeypatch.setattr(regress, "_pair_pow", counting_pairs)
    d = Exponents((4, 2, 0))
    data = random_dataset(random.Random(36), 7, complex_=complex_, weighted=True)
    state, prior = init_state(d, data), b_matrix(d, data)
    # integral, so its denominators divide the stream's scales
    x, y, w = (Scalar.from_exact(v, 2 * v if complex_ else 0) for v in (5, -1, 2))
    raised.clear()
    pairs.clear()
    appended = update(state, x, y, w)
    extend_b_matrix(state, prior, x, w)
    assert raised == [1, 1]
    assert len(pairs) == (2 * len(d) if complex_ else 0)
    raised.clear()
    assert update(RegressionState.from_dict(state.to_dict()), x, y, w) == appended
    assert raised == [data.m + 1]


def _append_checked(state, x, y, w=None):
    # update(state, x, y, w), whose every stored D, S, T and N must have the
    # type and repr of the Scalar bookkeeping (`_helpers`) and of the same
    # append to the state restored from its snapshot, which lifts every point
    # afresh; the lift it keeps must be the lift of all its points
    appended = update(state, x, y, w)
    points = SimpleNamespace(x=appended.x, y=appended.y, w=appended.w, exact=appended.exact)
    assert _lift_fields(appended._lifted) == _lift_fields(regress._kept(state.d, regress._lift(points, 1)))
    restored = update(RegressionState.from_dict(state.to_dict()), x, y, w)
    denom, s, t, n_vec = scalar_bookkeeping(state, x, y, w)
    for other in ([denom, *t, *n_vec, *(v for row in s for v in row)], _values(restored)):
        assert _stored(_values(appended)) == _stored(other)
    assert appended == restored and appended.evaluations == restored.evaluations
    return appended


def _lift_fields(lifted):
    # every lifted value with its type, then the scales, kind, powers and rows
    values = [(type(v), repr(v)) for vs in (lifted.x, lifted.w or [], lifted.y) for v in vs]
    return values, lifted[3:], lifted.w is None


def _values(state):
    return [state.denom, *state.t, *state.n_vec, *(v for row in state.s for v in row)]


def test_two_appends_from_one_state_stay_independent():
    d = Exponents((4, 2, 0))
    data = random_dataset(random.Random(37), 8, weighted=True)
    state = init_state(d, take(data, 6))
    kept = state._lifted
    lifts = [list(field) for field in kept[:3] + kept[9:]]
    first = _append_checked(state, data.x[6], data.y[6], data.w[6])
    second = _append_checked(state, data.x[7], data.y[7], data.w[7])
    assert state._lifted is kept and [list(field) for field in kept[:3] + kept[9:]] == lifts
    assert first._lifted.x[:-1] == second._lifted.x[:-1] == kept.x
    assert first._lifted.rows[-1] != second._lifted.rows[-1]
    _append_checked(first, data.x[7], data.y[7], data.w[7])


def _float_points(rng, count, complex_x=(), complex_w=(), complex_y=()):
    # real float points, weighted, but for a complex x, w or y at the given
    # 0-based indices; no part is zero, so snapshots keep every type
    def value(lo, hi, complex_):
        re = rng.uniform(lo, hi) * rng.choice((-1, 1))
        return Scalar.from_float(re, rng.uniform(lo, hi)) if complex_ else Scalar.from_float(re)

    return [
        (value(0.5, 2, k in complex_x), value(0.5, 3, k in complex_y), value(0.5, 2, k in complex_w))
        for k in range(count)
    ]


@pytest.mark.parametrize(
    "complex_x, complex_w, complex_y, kinds",
    [
        ((4,), (6,), (), [float] * 4 + [complex] * 4),
        ((), (4,), (), [float] * 4 + [complex] * 4),
        ((), (), (4, 6), [float] * 8),
    ],
    ids=["complex-x-then-w", "complex-w", "complex-y-only"],
)
def test_a_real_float_stream_lifts_again_where_a_complex_value_arrives(complex_x, complex_w, complex_y, kinds):
    rng, d = random.Random(38), Exponents((4, 2, 0))
    state = init_state(d, exact=False)
    for point, kind in zip(_float_points(rng, 8, complex_x, complex_w, complex_y), kinds):
        state = _append_checked(state, *point)
        assert state._lifted.kind is kind
    targets = {type(v) for v in state._lifted.y}
    assert targets == ({complex} if complex_y else {float})


@pytest.mark.parametrize("field", ["x", "w", "y"])
def test_an_exact_stream_lifts_again_where_a_new_denominator_arrives(field):
    d, scales = Exponents((4, 2, 0)), []
    rng = random.Random(f"denominator-{field}")
    state = init_state(d, exact=True)
    for k in range(7):
        # denominators 4 from the first point on, then 7 in the sixth
        point = {key: Fraction(2 * rng.randint(0, 4) + 1 if k == 0 else rng.randint(1, 9), 4 if k == 0 else rng.choice((1, 2, 4))) for key in "xwy"}
        if k == 5:
            point[field] = Fraction(rng.randint(1, 9) * 7 + 1, 7)
        state = _append_checked(state, *ex(point["x"], point["y"], point["w"]))
        lifted = state._lifted
        scales.append({"x": lifted.xscale, "w": lifted.wscale, "y": lifted.yscale}[field])
    assert scales[4:] == [4, 28, 28]


def test_an_exact_gaussian_stream_keeps_its_lift():
    d = Exponents((4, 2, 0))
    data = random_dataset(random.Random(39), 8, complex_=True, weighted=True)
    state = init_state(d, take(data, 2))
    for k in range(2, data.m):
        state = _append_checked(state, data.x[k], data.y[k], data.w[k])
    assert state._lifted.kind is regress._Gaussian and len(state._lifted.rows) == data.m


def test_an_exact_model_of_more_terms_than_the_minors_walk_keeps_its_powers():
    d = Exponents(range(regress.MINORS_MAX_TERMS, -1, -1))
    data = random_dataset(random.Random(40), len(d) + 1)
    state = init_state(d, take(data, len(d) - 1))
    for k in range(len(d) - 1, data.m):
        state = _append_checked(state, data.x[k], data.y[k])
    assert state._lifted.rows is None and len(state._lifted.powers) == data.m


@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "gaussian"])
@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_an_exact_stream_past_the_nesting_limit_equals_its_batch(gaussian, weighted):
    # 17 terms: an append sums S over subsets of 16 points in the loop nest,
    # as complex code on Gaussian points, and D over subsets of 17 points,
    # past the nesting limit, in regress._walker; extend_b_matrix lists its
    # columns there too.  B appends its new columns after the old ones, so
    # columns are matched by label
    d = Exponents(range(16, -1, -1))
    x = [Scalar.from_exact(Fraction(k, 2), k % 3 - 1) if gaussian else Scalar.from_exact(Fraction(k, 2)) for k in range(18)]
    data = DataSet(x, ex(*(k * k % 7 for k in range(18))), ex(*(1 + k % 2 for k in range(18))) if weighted else None)
    w = data.w or [None] * data.m
    state = init_state(d, take(data, 16))
    for k in (16, 17):
        prior, state = state, update(state, data.x[k], data.y[k], w[k])
    batch = fit(d, data)
    assert state.denom == denominator(d, data) == batch.denominator
    assert state.n_vec == batch.numerators and state.coefficients == batch.coefficients
    extended, fresh = extend_b_matrix(prior, b_matrix(d, take(data, 17)), data.x[17], w[17]), b_matrix(d, data)
    assert extended.denominator_root_sq == fresh.denominator_root_sq
    assert dict(zip(extended.columns, zip(*extended.entries))) == dict(zip(fresh.columns, zip(*fresh.entries)))


@pytest.mark.parametrize("exact", [True, False])
def test_the_kept_lift_is_not_part_of_the_state(exact):
    d = Exponents((2, 1, 0))
    data = random_dataset(random.Random(41), 5, exact=exact, weighted=True)
    state = update(init_state(d, take(data, 4)), data.x[4], data.y[4], data.w[4])
    restored = RegressionState.from_dict(state.to_dict())
    assert state._lifted is not None and restored._lifted is None
    assert state == restored and repr(state) == repr(restored) and "_lifted" not in repr(state)
    assert json.dumps(state.to_dict()) == json.dumps(restored.to_dict())


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


def _signed_zero_stream(rng, m, complex_, weighted):
    # float points whose parts include -0.0 and +0.0: x and y with -0.0 real
    # or imaginary parts, and complex values whose imaginary part is a zero
    def part():
        return rng.choice((-0.0, 0.0, rng.uniform(-2, 2), rng.uniform(-2, 2)))

    def value(lo=None):
        re = part() if lo is None else rng.choice((-1, 1)) * rng.uniform(lo, 2)
        return Scalar(complex(re, part()) if complex_ else re, False)

    x = [value(0.5) for _ in range(m)]
    x[0] = Scalar(complex(-0.0, -0.0) if complex_ else -0.0, False)
    y = [value() for _ in range(m)]
    w = [Scalar(complex(rng.uniform(0.5, 2), part()) if complex_ else rng.uniform(0.5, 2), False) for _ in range(m)]
    return DataSet(x, y, w if weighted else None)


def _stored(values):
    # each value's type and repr, down to the sign of a zero part
    return [(type(v.value), repr(v.value)) for v in values]


@pytest.mark.parametrize(
    "complex_, weighted, exact",
    [(False, False, False), (True, False, False), (True, True, False), (False, True, False), (True, True, True)],
    ids=["float", "complex", "complex-weighted", "weighted", "exact-gaussian-weighted"],
)
def test_update_stores_what_the_scalar_bookkeeping_stored(complex_, weighted, exact):
    # the native bookkeeping of `update` against the Scalar one it replaced
    # (`_helpers.scalar_bookkeeping`): every stored D, S, T and N value has
    # the same type and repr after each append
    rng, d = random.Random(34), Exponents((4, 2, 0))
    if exact:
        data = random_dataset(rng, 9, complex_=True, weighted=True)
    else:
        data = _signed_zero_stream(rng, 9, complex_, weighted)
    state = init_state(d, exact=exact)
    for k in range(data.m):
        point = (data.x[k], data.y[k], data.w[k] if data.w else None)
        denom, s, t, n_vec = scalar_bookkeeping(state, *point)
        state = update(state, *point)
        assert _stored([state.denom]) == _stored([denom])
        assert [_stored(row) for row in state.s] == [_stored(row) for row in s]
        assert _stored(state.t) == _stored(t)
        assert _stored(state.n_vec) == _stored(n_vec)
    if not exact:
        parts = [repr(p) for v in data.x + data.y for p in (v.value.real, v.value.imag)]
        assert "-0.0" in parts
