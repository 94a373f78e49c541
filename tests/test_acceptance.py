"""End-to-end acceptance checks for the whole package.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(on the real stdout, so the lines survive pytest's capture).  The heavier
criteria (9 and 10) take a couple of minutes combined; the rest are quick.
"""

import contextlib
import random
import sys
from math import comb

from schurfit.cli import fit_loglog_slope, quartic_example, run_bench
from schurfit.incremental import init_state, update
from schurfit.numeric import Scalar, scalar_pow
from schurfit.oracle import gram, solve_normal
from schurfit.partitions import Exponents, Partition
from schurfit.regress import (
    DataSet,
    NonUniqueSolutionError,
    denominator,
    design_matrix,
    fit,
    pseudoinverse,
)
from schurfit.reference import schur_bialternant, schur_tableaux
from schurfit.symfunc import det, schur

from _helpers import (
    distinct_rationals,
    random_dataset,
    random_exponents,
    scalars_equal,
    well_conditioned_dataset,
)


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({title}): FAIL", file=sys.__stdout__, flush=True)
        raise
    print(f"criterion {number:2d} ({title}): PASS", file=sys.__stdout__, flush=True)


def partitions_up_to(weight, max_parts):
    """All weakly decreasing tuples with the given weight/part bounds."""
    out = [()]
    def rec(prefix, remaining, cap):
        for first in range(min(remaining, cap), 0, -1):
            if len(prefix) + 1 > max_parts:
                return
            out.append(prefix + (first,))
            rec(prefix + (first,), remaining - first, first)
    for w in range(1, weight + 1):
        rec((), w, w)
    return [p for p in out if sum(p) <= weight and len(p) <= max_parts]


def test_criterion_1_schur_triple_agreement():
    with criterion(1, "Schur evaluation methods agree"):
        rng = random.Random(101)
        shapes = partitions_up_to(8, 4)
        for parts in shapes:
            lam = Partition(parts)
            for _ in range(50):
                r = rng.randint(max(1, len(parts)), 4)
                z = [Scalar.from_exact(v) for v in distinct_rationals(rng, r)]
                jt = schur(lam, z)
                ba = schur_bialternant(lam, z)
                tb = schur_tableaux(lam, z)
                assert jt == ba == tb


def test_criterion_2_golden_factored_forms():
    with criterion(2, "factored forms for the even-quartic model"):
        rng = random.Random(102)
        for _ in range(100):
            x1, x2, x3 = (Scalar.from_exact(v) for v in distinct_rationals(rng, 3))
            assert schur(Partition((2, 1, 0)), [x1, x2, x3]) == (x1 + x2) * (x1 + x3) * (x2 + x3)
            assert schur(Partition((1, 0)), [x1, x2]) == x1 + x2
            assert schur(Partition((3, 0)), [x1, x2]) == (x1 + x2) * (x1 * x1 + x2 * x2)
            assert schur(Partition((3, 2)), [x1, x2]) == x1 * x1 * x2 * x2 * (x1 + x2)


def test_criterion_3_denominator_is_gram_determinant():
    with criterion(3, "subset-sum denominator equals det(gram)"):
        rng = random.Random(103)
        for _ in range(200):
            n = rng.randint(1, 4)
            d = random_exponents(rng, n, dmax=8)
            m = rng.randint(n, 10)
            data = random_dataset(rng, m, complex_=rng.random() < 0.25)
            assert denominator(d, data) == det(gram(d, data), exact=True)


def test_criterion_4_fit_matches_oracle():
    with criterion(4, "closed form matches normal-equation solver"):
        rng = random.Random(104)
        for _ in range(200):
            n = rng.randint(1, 4)
            d = random_exponents(rng, n, dmax=8)
            m = rng.randint(n, 10)
            data = random_dataset(rng, m, complex_=rng.random() < 0.25)
            try:
                result = fit(d, data)
            except NonUniqueSolutionError:
                continue
            assert scalars_equal(result.coefficients, solve_normal(d, data))
        for _ in range(50):
            n = rng.randint(1, 3)
            d = random_exponents(rng, n, dmax=5)
            data = well_conditioned_dataset(rng, n + rng.randint(2, 6))
            result = fit(d, data)
            reference = solve_normal(d, data)
            scale = max(abs(v) for v in reference + result.coefficients) or 1.0
            for a, b in zip(result.coefficients, reference):
                assert abs(a - b) <= 1e-9 * scale


def test_criterion_5_normal_equation_certificate():
    with criterion(5, "gram * a equals A^* y"):
        rng = random.Random(105)
        for _ in range(60):
            n = rng.randint(1, 4)
            d = random_exponents(rng, n)
            m = rng.randint(n, 9)
            data = random_dataset(rng, m, complex_=rng.random() < 0.3)
            try:
                a = fit(d, data).coefficients
            except NonUniqueSolutionError:
                continue
            g = gram(d, data)
            design = design_matrix(d, data.x)
            for i in range(n):
                lhs = Scalar.zero(True)
                for j in range(n):
                    lhs = lhs + g[i][j] * a[j]
                rhs = Scalar.zero(True)
                for k in range(data.m):
                    rhs = rhs + design[k][i].conj() * data.y[k]
                assert lhs == rhs


def test_criterion_6_pseudoinverse_identities():
    with criterion(6, "pseudoinverse and projection identities"):
        rng = random.Random(106)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 3)
            d = random_exponents(rng, n, dmax=6)
            m = rng.randint(n, 8)
            data = random_dataset(rng, m, complex_=rng.random() < 0.3)
            try:
                plus = pseudoinverse(d, data)
            except NonUniqueSolutionError:
                continue
            checked += 1
            design = design_matrix(d, data.x)
            one, zero = Scalar.from_exact(1), Scalar.zero(True)
            # A+ A = I
            for i in range(n):
                for j in range(n):
                    acc = Scalar.zero(True)
                    for k in range(m):
                        acc = acc + plus[i][k] * design[k][j]
                    assert acc == (one if i == j else zero)
            # P = A A+ is an orthogonal projector fixing the columns of A
            p = [
                [
                    sum(
                        (design[k][i] * plus[i][l] for i in range(n)),
                        start=Scalar.zero(True),
                    )
                    for l in range(m)
                ]
                for k in range(m)
            ]
            for k in range(m):
                for l in range(m):
                    sq = sum(
                        (p[k][q] * p[q][l] for q in range(m)), start=Scalar.zero(True)
                    )
                    assert sq == p[k][l]
                    assert p[l][k].conj() == p[k][l]
            for k in range(m):
                for j in range(n):
                    pa = sum(
                        (p[k][l] * design[l][j] for l in range(m)),
                        start=Scalar.zero(True),
                    )
                    assert pa == design[k][j]


def test_criterion_7_incremental_equals_batch():
    with criterion(7, "streaming updates equal batch refits"):
        rng = random.Random(107)
        for _ in range(100):
            n = rng.randint(1, 4)
            d = random_exponents(rng, n)
            extra = rng.randint(1, 6)
            data = random_dataset(rng, n + extra, complex_=rng.random() < 0.3)
            state = init_state(d, DataSet(data.x[:n], data.y[:n]))
            for m in range(n, n + extra):
                state = update(state, data.x[m], data.y[m])
                batch = fit(d, DataSet(data.x[: m + 1], data.y[: m + 1]))
                assert scalars_equal(state.a, batch.coefficients)


def test_criterion_8_weighted_consistency():
    with criterion(8, "unit weights reduce to the unweighted fit"):
        rng = random.Random(108)
        for _ in range(40):
            n = rng.randint(1, 3)
            d = random_exponents(rng, n)
            m = rng.randint(n, 8)
            data = random_dataset(rng, m, complex_=rng.random() < 0.3)
            ones = [Scalar.from_exact(1)] * m
            try:
                plain = fit(d, data)
            except NonUniqueSolutionError:
                continue
            weighted = fit(d, DataSet(data.x, data.y, ones))
            assert scalars_equal(weighted.coefficients, plain.coefficients)
        # genuinely weighted instance: verify (WA)*WA a = (WA)*W y directly
        for _ in range(40):
            n = rng.randint(1, 3)
            d = random_exponents(rng, n)
            m = rng.randint(n, 7)
            data = random_dataset(rng, m, complex_=rng.random() < 0.3, weighted=True)
            try:
                a = fit(d, data).coefficients
            except NonUniqueSolutionError:
                continue
            design = design_matrix(d, data.x)
            for i in range(n):
                lhs, rhs = Scalar.zero(True), Scalar.zero(True)
                for j in range(n):
                    acc = Scalar.zero(True)
                    for k in range(m):
                        acc = acc + design[k][i].conj() * data.weight_sq(k) * design[k][j]
                    lhs = lhs + acc * a[j]
                for k in range(m):
                    rhs = rhs + design[k][i].conj() * data.weight_sq(k) * data.y[k]
                assert lhs == rhs


def test_criterion_9_even_quartic_recovery():
    with criterion(9, "even-quartic benchmark recovery"):
        d = Exponents((4, 2, 0))
        # exact, zero noise: bit-exact coefficients and zero residual
        exact_data = quartic_example(m=101, exact=True)
        result = fit(d, exact_data)
        assert result.coefficients == [
            Scalar.from_exact(1),
            Scalar.from_exact(-250000),
            Scalar.from_exact(0),
        ]
        assert not result.residual_sq
        # float, zero noise: relative recovery to 1e-8
        float_data = quartic_example(m=101, exact=False)
        loose = fit(d, float_data)
        truth = [1.0, -250000.0, 0.0]
        scale = max(abs(v) for v in truth)
        for a, t in zip(loose.coefficients, truth):
            assert abs(float(a.re) - t) <= 1e-8 * scale
            assert abs(float(a.im)) <= 1e-8 * scale
        # seeded 1% noise: leading coefficients keep opposite signs
        noisy = quartic_example(m=101, noise=0.01, seed=9, exact=False)
        a = fit(d, noisy).coefficients
        assert float(a[0].re) * float(a[1].re) < 0


def test_criterion_10_complexity_slope_and_counter():
    with criterion(10, "cubic scaling and evaluation counts"):
        d = Exponents((4, 2, 0))
        sizes = [40, 80, 120, 160, 200]
        rows = run_bench(d, sizes, repetitions=3, noise=0.01, seed=10)
        slope = fit_loglog_slope(sizes, [r["seconds"] for r in rows])
        seconds = ", ".join(f"m={m}: {row['seconds']:.4f} s" for m, row in zip(sizes, rows))
        assert 2.7 <= slope <= 3.3, f"slope {slope:.3f} outside [2.7, 3.3]; {seconds}"
        for m, row in zip(sizes, rows):
            assert row["evaluations"] == comb(m, 3) + 9 * comb(m, 2)


def test_criterion_11_single_power_closed_form():
    with criterion(11, "single power term closed form"):
        rng = random.Random(111)
        for _ in range(50):
            dv = rng.randint(0, 8)
            m = rng.randint(1, 8)
            data = random_dataset(rng, m, complex_=rng.random() < 0.4)
            try:
                result = fit(Exponents((dv,)), data)
            except NonUniqueSolutionError:
                continue
            num, den = Scalar.zero(True), Scalar.zero(True)
            for xk, yk in zip(data.x, data.y):
                num = num + scalar_pow(xk.conj(), dv) * yk
                den = den + scalar_pow(xk, dv).mag_sq()
            assert result.coefficients == [num / den]


def test_criterion_12_permutation_equivariance():
    with criterion(12, "data order does not change the answer"):
        rng = random.Random(112)
        for _ in range(50):
            n = rng.randint(1, 4)
            d = random_exponents(rng, n)
            m = rng.randint(n, 9)
            data = random_dataset(rng, m, complex_=rng.random() < 0.3)
            order = list(range(m))
            rng.shuffle(order)
            shuffled = DataSet([data.x[k] for k in order], [data.y[k] for k in order])
            try:
                original = fit(d, data)
            except NonUniqueSolutionError:
                with_perm_fails = False
                try:
                    fit(d, shuffled)
                except NonUniqueSolutionError:
                    with_perm_fails = True
                assert with_perm_fails
                continue
            permuted = fit(d, shuffled)
            assert original.coefficients == permuted.coefficients
            assert original.denominator == permuted.denominator
            assert original.residual_sq == permuted.residual_sq
