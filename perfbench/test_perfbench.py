"""Tests of the benchmark itself: seeded generators, the correctness gate,
the tracer's clean-up, and the metric names against BENCHMARK.json."""

import json
import os
import sys
from fractions import Fraction

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from perfbench import harness  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Inputs, Workload  # noqa: E402


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[section]]


@pytest.fixture
def restore_schurfit_modules():
    """`harness.setup` re-imports the package; hand the other tests back the
    module objects they imported."""
    saved = {k: v for k, v in sys.modules.items() if k == "schurfit" or k.startswith("schurfit.")}
    yield
    for name in [k for k in sys.modules if k == "schurfit" or k.startswith("schurfit.")]:
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    generate = WORKLOADS[name].generate
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def _exact_case():
    from schurfit import DataSet, Exponents, Scalar, fit, solve_normal

    d = Exponents((4, 2, 0))
    xs = [-2, -1, Fraction(1, 2), 3, 4]
    data = DataSet([Scalar.from_exact(v) for v in xs], [Scalar.from_exact(v * v - 3 + v) for v in xs])
    return d, data, fit(d, data), solve_normal(d, data)


def test_gate_accepts_exact_fit_and_rejects_perturbed_coefficient():
    from schurfit import Scalar

    d, data, result, reference = _exact_case()
    assert harness.exact_ok(result, reference, data.m, len(d))
    result.coefficients[1] = result.coefficients[1] + Scalar.from_exact(Fraction(1, 10**12))
    assert not harness.exact_ok(result, reference, data.m, len(d))


def test_gate_rejects_wrong_evaluation_count():
    d, data, result, reference = _exact_case()
    assert result.evaluations == 10 + 9 * 10  # C(5,3) + 9 C(5,2)
    result.evaluations += 1
    assert not harness.exact_ok(result, reference, data.m, len(d))


def test_float_gate_rejects_perturbed_coefficient():
    d, data, _, reference = _exact_case()
    scales = harness.basis_scales(d, data)
    close = [complex(r) for r in reference]
    assert harness.coef_digits(close, reference, scales) >= harness.DIGITS_FLOOR
    close = [v * (1 + 1e-4) for v in close]
    assert harness.coef_digits(close, reference, scales) < harness.DIGITS_FLOOR


def test_tracer_restores_every_name_after_an_error():
    from schurfit import cli, incremental, numeric, regress, symfunc

    modules = {"cli": cli, "regress": regress, "incremental": incremental, "numeric": numeric}
    add = vars(numeric.Scalar)["__add__"]
    with pytest.raises(RuntimeError):
        with Tracer().installed(modules):
            assert regress.schur is not symfunc.schur
            raise RuntimeError
    assert regress.schur is symfunc.schur and incremental.vandermonde is symfunc.vandermonde
    assert cli.parse_scalar is numeric.parse_scalar and vars(numeric.Scalar)["__add__"] is add


def _tiny(seed):
    rows = [(Fraction(k, 2), Fraction(seed + k * k, 3)) for k in range(1, 6)]
    return Inputs(fit=rows, exact=rows, stream=rows)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, tmp_path, capsys, restore_schurfit_modules):
    workload = Workload("tiny", (2, 1, 0), False, 2, _tiny)
    assert harness.run(workload, 1, 0, trace, SRC, str(tmp_path)) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    assert printed == _declared(section)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    # the tracing overhead is a difference of two timings and may read below 0
    assert all(v > 0 for name, v in values.items() if name != "trace.overhead_s")
