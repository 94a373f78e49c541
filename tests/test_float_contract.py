"""The float contract: the known float refusals and digit gaps, as tests.

Each case below states what float mode should do on an input that ROADMAP.md
names, and is marked `xfail(strict=True)` with the item that would fix it.
Where float mode raises today, the marker pins that exception, so a failure
of another kind is an error; a CLI case or a digit count that falls short
fails its assertion, and pins AssertionError.  When a change fixes a case,
the case passes, strict makes that a failure, and the change drops the
marker: the case then stays as a plain regression test.  The plain cases at
the end hold float behaviour that must not change.

Digits are `perfbench.harness.coef_digits` of the float coefficients against
the exact fit of the same binary64 inputs, in the basis of
`perfbench.harness.basis_scales`.
"""

import json
import os
import random
import sys
from fractions import Fraction

import pytest

from schurfit import DataSet, Exponents, Scalar, fit
from schurfit.cli import EXIT_NON_UNIQUE, EXIT_OK, EXIT_USAGE, main
from schurfit.numeric import parse_scalar
from schurfit.regress import NonUniqueSolutionError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.harness import basis_scales, coef_digits  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _digits(d, xs, ys):
    """coef_digits of the float fit of the binary64 xs and ys against the
    exact fit of the same values."""
    d = Exponents(d)
    exact = DataSet([Scalar.from_exact(Fraction(v)) for v in xs], [Scalar.from_exact(Fraction(v)) for v in ys])
    got = fit(d, DataSet([Scalar.from_float(v) for v in xs], [Scalar.from_float(v) for v in ys])).coefficients
    return coef_digits([complex(v) for v in got], fit(d, exact).coefficients, basis_scales(d, exact))


def _near_one(h):
    """Item 1's inputs: x = 1 + k h, k = 0...7, and y = 1 + 2x - x^2 plus
    uniform noise of 1e-3, drawn from random.Random(0)."""
    rng = random.Random(0)
    xs = [1 + k * h for k in range(8)]
    return xs, [1 + 2 * x - x * x + rng.uniform(-1e-3, 1e-3) for x in xs]


def _xfail(item, reason, raises):
    return pytest.mark.xfail(strict=True, raises=raises, reason=f"ROADMAP item {item}: {reason}")


@pytest.mark.parametrize(
    "d, inputs, floor",
    [
        pytest.param(
            (2, 1, 0), _near_one(1e-3), 10, id="2-1-0-h1e-3",
            marks=_xfail(1, "D lies below the degeneracy floor", NonUniqueSolutionError),
        ),
        pytest.param(
            (2, 1, 0), _near_one(1e-4), 10, id="2-1-0-h1e-4",
            marks=_xfail(1, "D lies below the degeneracy floor", NonUniqueSolutionError),
        ),
        pytest.param(
            (4, 2, 0), _near_one(1e-4), 10, id="4-2-0-h1e-4",
            marks=_xfail(1, "D lies below the degeneracy floor", NonUniqueSolutionError),
        ),
        pytest.param(
            (4, 2, 0), _near_one(1e-3), 10, id="4-2-0-h1e-3",
            marks=_xfail(1, "the numerators cancel: about 6.4 digits", AssertionError),
        ),
        pytest.param(
            (40, 20, 0), ([1000.0 + 200 * k for k in range(6)], [float(k + 1) for k in range(6)]), 13,
            id="40-20-0-on-1000-2000", marks=_xfail(13, "D overflows without a binary scaling", OverflowError),
        ),
        pytest.param(
            (4, 2, 0), ([1e-30 * (1 + k / 5) for k in range(6)], [float(k + 1) for k in range(6)]), 13,
            id="4-2-0-on-1e-30-2e-30",
            marks=_xfail(13, "D underflows below the degeneracy floor", NonUniqueSolutionError),
        ),
    ],
)
def test_float_fit_keeps_its_digits(d, inputs, floor):
    assert _digits(d, *inputs) >= floor


@_xfail(14, "the degeneracy floor refuses the full-rank k/11 design", NonUniqueSolutionError)
def test_seven_terms_on_k_over_11_answer():
    rng = random.Random(0)
    xs = [k / 11 for k in range(12)]
    data = DataSet([Scalar.from_float(x) for x in xs], [Scalar.from_float(1 + 2 * x - x * x + rng.uniform(-1e-3, 1e-3)) for x in xs])
    assert len(fit(Exponents(range(6, -1, -1)), data).coefficients) == 7


@_xfail(1, "the numerators cancel: 7.2 to 9.8 digits", AssertionError)
def test_sparse_highdeg_keeps_eleven_digits_on_seeds_1_to_10():
    workload = WORKLOADS["sparse_highdeg"]
    scores = []
    for seed in range(1, 11):
        rows = workload.generate(seed).fit
        scores.append(_digits(workload.degrees, [float(x) for x, _ in rows], [float(y) for _, y in rows]))
    assert min(scores) >= 11


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@_xfail("5 and 14", "the degeneracy floor of D overflows", AssertionError)
def test_the_floor_file_exits_0(tmp_path, capsys):
    path = tmp_path / "floor.csv"
    path.write_text("x,y\n1000,1\n2,2\n1,3\n")
    assert run(capsys, "fit", "--degrees", "40,20,0", str(path))[0] == EXIT_OK


@_xfail(14, "the degeneracy floor refuses a full-rank design", AssertionError)
def test_seven_six_five_four_rows_give_the_rounded_exact_answer(tmp_path, capsys):
    # the rows of CHANGES.md's FOUND line on (7,6,5,4), whose float D is
    # within 1.2e-16 of exact; the exact file holds the same binary64 values
    xs = [33.0, -3 / 2, -6 / 7, 7 / 2, -5 / 3, -39 / 4]
    lines = {False: ["x,y"], True: ["x,y"]}
    for k, x in enumerate(xs, 1):
        lines[False].append(f"{x!r},{k}")
        lines[True].append(f"{Fraction(x)},{k}")
    paths = {}
    for exact, rows in lines.items():
        paths[exact] = tmp_path / f"rows-{exact}.csv"
        paths[exact].write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "fit", "--degrees", "7,6,5,4", "--exact", str(paths[True]))
    assert code == EXIT_OK
    want = [float(Fraction(c)) for c in json.loads(out)["coefficients"]]
    code, out, _ = run(capsys, "fit", "--degrees", "7,6,5,4", str(paths[False]))
    assert code == EXIT_OK
    assert [parse_scalar(c, False).value for c in json.loads(out)["coefficients"]] == want


@_xfail(4, "a restored snapshot is not checked against its points", AssertionError)
def test_the_edited_d_snapshot_exits_1_and_keeps_its_file(tmp_path, capsys):
    # the exact (1,0) snapshot of (1,1) and (2,2) with D edited from 1 to 5;
    # streaming (3,3) and (4,4) onto it today prints slopes 3/5 and 5/6
    snapshot, first, more = tmp_path / "state.json", tmp_path / "first.csv", tmp_path / "more.csv"
    first.write_text("x,y\n1,1\n2,2\n")
    more.write_text("x,y\n3,3\n4,4\n")
    stream = ("stream", "--degrees", "1,0", "--exact", "--snapshot", str(snapshot))
    assert run(capsys, *stream, str(first))[0] == EXIT_OK
    payload = json.loads(snapshot.read_text())
    assert payload["D"] == "1"
    payload["D"] = "5"
    snapshot.write_text(json.dumps(payload))
    edited = snapshot.read_bytes()
    code, _, err = run(capsys, *stream, str(more))
    assert code == EXIT_USAGE and err.count("\n") == 1
    assert snapshot.read_bytes() == edited


# -- plain cases: float behaviour that stays as it is -------------------------


@pytest.mark.parametrize("rows", ["2,1\n2,2\n2,3\n", "-3,1\n3,2\n"], ids=["repeated-x", "2-0-on-plus-minus-c"])
def test_rank_deficient_float_inputs_exit_2(tmp_path, capsys, rows):
    degrees = "1,0" if rows.startswith("2,") else "2,0"
    path = tmp_path / "d.csv"
    path.write_text("x,y\n" + rows)
    code, out, err = run(capsys, "fit", "--degrees", degrees, str(path))
    assert (code, out) == (EXIT_NON_UNIQUE, "") and err.count("\n") == 1


def test_an_out_of_range_coefficient_exits_1_with_one_line(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0.5,1e308\n1,-1e308\n")
    message = "error: OverflowError: a coefficient is not finite in float arithmetic\n"
    assert run(capsys, "fit", "--degrees", "1,0", str(path)) == (EXIT_USAGE, "", message)
