import io
import json
import math
from fractions import Fraction
from math import comb

import pytest

from schurfit import cli
from schurfit.cli import (
    EXIT_NON_UNIQUE,
    EXIT_OK,
    EXIT_USAGE,
    main,
    quartic_example,
    read_dataset,
)
from schurfit.numeric import Scalar, ScalarModeError, format_scalar
from schurfit.partitions import Exponents
from schurfit.regress import DataSet, fit

from _helpers import scalars_equal, write_dataset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_quartic(tmp_path, m=11, noise=0.0, seed=0, exact=True):
    data = quartic_example(m=m, noise=noise, seed=seed, exact=exact)
    path = tmp_path / "data.csv"
    with open(path, "w") as handle:
        write_dataset(handle, data)
    return path, data


def test_fit_quartic_exact(tmp_path, capsys):
    path, _ = write_quartic(tmp_path)
    code, out, _ = run(capsys, "fit", "--degrees", "4,2,0", "--exact", str(path))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["coefficients"] == ["1", "-250000", "0"]
    assert report["residual"] == 0.0
    assert report["mode"] == "exact"
    assert report["m"] == 11
    assert set(report) == {
        "degrees",
        "mode",
        "m",
        "coefficients",
        "denominator",
        "residual",
        "evaluations",
        "seconds",
    }


def test_fit_constant_is_mean(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,2\n2,4\n3,9\n")
    code, out, _ = run(capsys, "fit", "--degrees", "0", "--exact", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["coefficients"] == ["5"]


def test_fit_rank_deficient_exit_2(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n2,1\n2,2\n2,3\n")
    code, _, err = run(capsys, "fit", "--degrees", "1,0", "--exact", str(path))
    assert code == EXIT_NON_UNIQUE
    assert "distinct" in err


def test_fit_float_overflow_exit_1(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1000,1\n1500,2\n2000,3\n")
    code, out, err = run(capsys, "fit", "--degrees", "40,20,0", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: OverflowError") and err.count("\n") == 1


@pytest.mark.parametrize(
    "rows, degrees, what",
    [
        # T = sum x^2 y overflows at the first point
        ("1e10,1e300\n2e10,1e300\n3e10,2e300\n4e10,1e300\n", "2,1,0", "a moment sum T"),
        # D, S, T and N are finite, but a = N / D is not
        ("0.5,1e308\n1,-1e308\n", "1,0", "a coefficient"),
        # D is about 1.1e252, but the floor's power 1000.0 ** 120 is not;
        # the stream's D is exactly 0 on rows 1 and 2, so it stops at row 3
        ("1000,1\n2,2\n1,3\n", "40,20,0", "the degeneracy floor of D"),
    ],
    ids=["moment-sum", "coefficient", "degeneracy-floor"],
)
def test_float_values_beyond_the_float_range_exit_1(tmp_path, capsys, rows, degrees, what):
    # fit and stream stop with one error line where the value is formed,
    # before printing a nan or inf, and the stream leaves its snapshot as it
    # was: a saved "inf" could not be restored
    path = tmp_path / "big.csv"
    path.write_text("x,y\n" + rows)
    message = f"error: OverflowError: {what} is not finite in float arithmetic\n"
    assert run(capsys, "fit", "--degrees", degrees, str(path)) == (EXIT_USAGE, "", message)
    snapshot = tmp_path / "state.json"
    stream = ("stream", "--degrees", degrees, "--snapshot", str(snapshot))
    assert run(capsys, *stream, str(path)) == (EXIT_USAGE, "", message)
    assert not snapshot.exists()
    start = tmp_path / "start.csv"
    start.write_text("x,y\n1,1\n2,3\n3,2\n")
    assert run(capsys, *stream, str(start))[0] == EXIT_OK
    saved = snapshot.read_bytes()
    code, out, err = run(capsys, *stream, str(path))
    assert (code, out) == (EXIT_USAGE, "") and err.startswith("error: OverflowError: ") and err.count("\n") == 1
    assert snapshot.read_bytes() == saved
    code, out, err = run(capsys, *stream, str(start))
    assert (code, err) == (EXIT_OK, "") and json.loads(out.splitlines()[-1])["m"] == 6


@pytest.mark.parametrize(
    "argv, power",
    [
        (["fit", "--exact"], 400),
        (["fit", "--exact"], 200),
        (["compare", "--exact"], 400),
        (["compare"], 200),
    ],
    ids=["fit-exact-1e400", "fit-exact-1e200", "compare-exact-1e400", "compare-float-1e200"],
)
def test_data_beyond_the_float_range_is_reported(tmp_path, capsys, argv, power):
    # y = (1, 3, 7) * 10**power at x = 1, 2, 3: the line 3x - 7/3 times
    # 10**power, with a squared residual of 2/3 * 10**(2*power)
    path = tmp_path / "d.csv"
    path.write_text(f"x,y\n1,1e{power}\n2,3e{power}\n3,7e{power}\n")
    code, out, err = run(capsys, argv[0], "--degrees", "1,0", *argv[1:], str(path))
    assert (code, err) == (EXIT_OK, "")
    report = json.loads(out)
    if argv[0] == "compare":
        assert report["agree"] is True
        return
    scale = 10**power
    assert report["coefficients"] == [str(3 * scale), str(Fraction(-7 * scale, 3))]
    # the residual is inf only when the root itself is beyond the float range
    if power == 400:
        assert report["residual"] == math.inf and '"residual": Infinity' in out
    else:
        assert math.isclose(report["residual"], math.sqrt(2 / 3) * 1e200, rel_tol=1e-15)


@pytest.mark.parametrize(
    "argv, power",
    [(["fit"], 200), (["fit"], -200), (["fit", "--exact"], -200)],
    ids=["float-1e200", "float-1e-200", "exact-1e-200"],
)
def test_residual_whose_square_leaves_the_float_range(tmp_path, capsys, argv, power):
    # y = (1, 3, 7) * 10**power at x = 1, 2, 3: the residual is
    # sqrt(2/3) * 10**power, while its square overflows or underflows
    path = tmp_path / "d.csv"
    path.write_text(f"x,y\n1,1e{power}\n2,3e{power}\n3,7e{power}\n")
    code, out, err = run(capsys, *argv, "--degrees", "1,0", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert math.isclose(json.loads(out)["residual"], math.sqrt(2 / 3) * 10.0**power, rel_tol=1e-13)


def test_fit_float_all_zero_x_exit_2(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0,1\n0,2\n0,3\n")
    for degrees in ("1,0", "1"):
        code, out, err = run(capsys, "fit", "--degrees", degrees, str(path))
        assert code == EXIT_NON_UNIQUE
        assert out == "" and err.startswith("error: denominator vanishes") and err.count("\n") == 1


def test_fit_reads_stdin_and_skips_blank_rows(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x,y\n1,2\n\n2,4\n , \n3,7\n"))
    code, out, _ = run(capsys, "fit", "--degrees", "1,0", "--exact", "-")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["m"] == 3
    assert report["coefficients"] == ["5/2", "-2/3"]


def test_quartic_example_refuses_noisy_exact_samples():
    with pytest.raises(ValueError, match="noisy samples are float-mode only"):
        quartic_example(m=5, noise=0.01, exact=True)


@pytest.mark.parametrize("exact", [False, True])
def test_quartic_example_of_one_point_samples_x_zero(exact):
    # a one-point grid has no spacing to divide by, in either mode
    data = quartic_example(m=1, exact=exact)
    assert data.exact is exact
    assert data.x == data.y == [Scalar.zero(exact)]


def test_fit_malformed_input_exit_1(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,zzz\n2,3\n")
    code, _, err = run(capsys, "fit", "--degrees", "1,0", "--exact", str(path))
    assert code == EXIT_USAGE
    assert "error" in err


def test_fit_non_finite_float_exit_1(tmp_path, capsys):
    # a non-finite value makes NaN coefficients, and a bare NaN is not JSON
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,1\n2,nan\n3,5\n4,4\n")
    code, out, err = run(capsys, "fit", "--degrees", "1,0", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, err = run(capsys, "stream", "--degrees", "1,0", "--on-error", "skip", str(path))
    assert code == EXIT_OK
    assert "skipping" in err
    assert [json.loads(line)["m"] for line in out.strip().splitlines()] == [2, 3]


def test_scalar_mode_error_exit_1(monkeypatch, tmp_path, capsys):
    def mixed_modes(args):
        raise ScalarModeError("cannot mix exact and float scalars")

    monkeypatch.setattr(cli, "cmd_fit", mixed_modes)
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,1\n2,2\n")
    code, out, err = run(capsys, "fit", "--degrees", "1,0", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: cannot mix exact and float scalars\n"


def test_degree_sugar_expands_to_staircase(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0,1\n1,2\n2,5\n3,10\n")
    code, out, _ = run(capsys, "fit", "--degree", "2", "--exact", str(path))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["degrees"] == [2, 1, 0]
    assert report["coefficients"] == ["1", "0", "1"]


def test_tsv_output(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0,0\n1,1\n")
    code, out, _ = run(
        capsys, "fit", "--degrees", "1,0", "--exact", "--output", "tsv", str(path)
    )
    assert code == EXIT_OK
    lines = dict(line.split("\t", 1) for line in out.strip().splitlines())
    assert lines["coefficients"] == "1,0"


def test_weighted_fit(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y,w\n0,0,1\n1,1,2\n2,3,1\n")
    code, out, _ = run(
        capsys, "fit", "--degrees", "1,0", "--exact", "--weights", str(path)
    )
    assert code == EXIT_OK
    data = read_dataset(str(path), True, True)
    expected = fit(Exponents((1, 0)), data)
    assert json.loads(out)["coefficients"] == [
        format_scalar(a) for a in expected.coefficients
    ]


def test_stream_matches_batch(tmp_path, capsys):
    path, data = write_quartic(tmp_path)
    code, out, _ = run(capsys, "stream", "--degrees", "4,2,0", "--exact", str(path))
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines[-1]["m"] == 11
    batch = fit(Exponents((4, 2, 0)), data)
    assert lines[-1]["coefficients"] == [format_scalar(a) for a in batch.coefficients]


def test_stream_rows_name_their_degrees(tmp_path, capsys):
    path, _ = write_quartic(tmp_path)
    code, out, _ = run(capsys, "stream", "--degrees", "4,2,0", "--exact", str(path))
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 9
    assert all(row["degrees"] == [4, 2, 0] for row in rows)


def test_stream_snapshot_resume(tmp_path, capsys):
    path, data = write_quartic(tmp_path)
    half = tmp_path / "head.csv"
    rest = tmp_path / "tail.csv"
    head = DataSet(data.x[:6], data.y[:6])
    tail = DataSet(data.x[6:], data.y[6:])
    with open(half, "w") as handle:
        write_dataset(handle, head)
    with open(rest, "w") as handle:
        write_dataset(handle, tail)
    snap = tmp_path / "state.json"
    code, _, _ = run(
        capsys, "stream", "--degrees", "4,2,0", "--exact", "--snapshot", str(snap), str(half)
    )
    assert code == EXIT_OK
    assert snap.exists()
    code, out, _ = run(
        capsys, "stream", "--degrees", "4,2,0", "--exact", "--snapshot", str(snap), str(rest)
    )
    assert code == EXIT_OK
    final = json.loads(out.strip().splitlines()[-1])
    batch = fit(Exponents((4, 2, 0)), data)
    assert final["coefficients"] == [format_scalar(a) for a in batch.coefficients]


def test_failed_snapshot_write_keeps_the_old_snapshot(tmp_path, capsys, monkeypatch):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,1\n2,4\n3,9\n")
    snap = tmp_path / "state.json"
    code, _, _ = run(capsys, "stream", "--degrees", "2,0", "--exact", "--snapshot", str(snap), str(path))
    assert code == EXIT_OK
    saved = snap.read_bytes()

    def half_dump(obj, handle, **kwargs):
        handle.write(json.dumps(obj, **kwargs)[:20])
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", half_dump)
    more = tmp_path / "more.csv"
    more.write_text("x,y\n4,16\n")
    code, _, err = run(capsys, "stream", "--degrees", "2,0", "--exact", "--snapshot", str(snap), str(more))
    assert code == EXIT_USAGE
    assert err == "error: no space left on device\n"
    assert snap.read_bytes() == saved
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "more.csv", "state.json"]


def test_a_snapshot_that_cannot_be_written_is_named(tmp_path, capsys):
    # the temporary file beside the snapshot cannot be made in a missing
    # directory; the error names the snapshot, not that file
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,1\n2,4\n")
    snap = tmp_path / "missing" / "state.json"
    code, _, err = run(capsys, "stream", "--degrees", "1,0", "--exact", "--snapshot", str(snap), str(path))
    assert code == EXIT_USAGE
    assert err.startswith(f"error: cannot write snapshot {snap}: ") and err.count("\n") == 1
    assert ".tmp" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "content, reason",
    [(b"not json", "Expecting value"), (b"\xff{}", "'utf-8' codec can't decode byte 0xff")],
    ids=["not-json", "not-utf8"],
)
def test_an_unreadable_snapshot_is_named(tmp_path, capsys, content, reason):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,1\n2,4\n")
    snap = tmp_path / "state.json"
    snap.write_bytes(content)
    code, out, err = run(capsys, "stream", "--degrees", "1,0", "--exact", "--snapshot", str(snap), str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: snapshot {snap}: {reason}") and err.count("\n") == 1
    assert snap.read_bytes() == content


@pytest.mark.parametrize("command", ["fit", "stream", "compare"])
@pytest.mark.parametrize("source", ["path", "stdin"])
def test_an_undecodable_data_file_is_named(tmp_path, capsys, monkeypatch, command, source):
    raw = b"x,y\n1,2\n2,\xff\n"
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        target = "-"
    else:
        target = tmp_path / "d.csv"
        target.write_bytes(raw)
    code, out, err = run(capsys, command, "--degrees", "1,0", "--exact", str(target))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: input {target}: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1


def test_stream_underdetermined_exit_2_persists_state(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,1\n2,2\n")
    snap = tmp_path / "state.json"
    code, _, err = run(
        capsys, "stream", "--degrees", "2,1,0", "--exact", "--snapshot", str(snap), str(path)
    )
    assert code == EXIT_NON_UNIQUE
    assert snap.exists()
    assert json.loads(snap.read_text())["m"] == 2


def test_stream_snapshot_refuses_other_degrees(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,1\n2,2\n3,5\n")
    snap = tmp_path / "state.json"
    code, _, _ = run(
        capsys, "stream", "--degrees", "2,1,0", "--exact", "--snapshot", str(snap), str(path)
    )
    assert code == EXIT_OK
    saved = snap.read_text()
    code, out, err = run(
        capsys, "stream", "--degrees", "3,0", "--exact", "--snapshot", str(snap), str(path)
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "degrees" in err
    assert snap.read_text() == saved


def test_stream_snapshot_refuses_other_mode(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,1\n2,2\n3,5\n")
    snap = tmp_path / "state.json"
    code, _, _ = run(
        capsys, "stream", "--degrees", "1,0", "--exact", "--snapshot", str(snap), str(path)
    )
    assert code == EXIT_OK
    code, out, err = run(capsys, "stream", "--degrees", "1,0", "--snapshot", str(snap), str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "mode" in err
    assert json.loads(snap.read_text())["mode"] == "exact"
    assert [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []


def test_stream_one_term_model_matches_fit(tmp_path, capsys):
    # y = 2 x^2; the empty stream's S is 1, the sum over the empty subset
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,2\n2,8\n3,18\n")
    code, out, _ = run(capsys, "stream", "--degrees", "2", "--exact", str(path))
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [(row["m"], row["coefficients"]) for row in rows] == [(1, ["2"]), (2, ["2"]), (3, ["2"])]
    code, out, _ = run(capsys, "fit", "--degrees", "2", "--exact", str(path))
    assert json.loads(out)["coefficients"] == ["2"]


@pytest.mark.parametrize(
    "corrupt, mode",
    [
        (lambda saved: {}, ["--exact"]),
        (lambda saved: [1, 2], ["--exact"]),
        (lambda saved: {**saved, "S": [saved["S"][0][:1]]}, ["--exact"]),
        (lambda saved: {**saved, "x": [1, 2, 3]}, ["--exact"]),
        (lambda saved: {**saved, "degrees": 5}, ["--exact"]),
        (lambda saved: {**saved, "evaluations": [1]}, ["--exact"]),
        # needs a float run: a misspelt mode must not load as float
        (lambda saved: {**saved, "mode": "EXACT"}, []),
    ],
    ids=[
        "empty-object",
        "list",
        "1x1-S",
        "number-x",
        "number-degrees",
        "list-evaluations",
        "mode-EXACT",
    ],
)
def test_stream_refuses_malformed_snapshot(tmp_path, capsys, corrupt, mode):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,1\n2,2\n3,5\n")
    snap = tmp_path / "state.json"
    argv = ["stream", "--degrees", "1,0", *mode, "--snapshot", str(snap), str(path)]
    assert run(capsys, *argv)[0] == EXIT_OK
    snap.write_text(json.dumps(corrupt(json.loads(snap.read_text()))))
    saved = snap.read_text()
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: snapshot ") and err.count("\n") == 1
    assert snap.read_text() == saved


@pytest.mark.parametrize(
    "edit",
    [{"degrees": [1.9, 0.2]}, {"evaluations": 7.9}, {"degrees": [True, False]}, {"evaluations": float("inf")}],
    ids=["fractional-degrees", "fractional-evaluations", "boolean-degrees", "infinite-evaluations"],
)
def test_stream_refuses_non_integral_snapshot_numbers(tmp_path, capsys, edit):
    # truncating 1.9, 0.2 to the asked-for degrees (1, 0), or reading JSON's
    # true, false as 1, 0, would let this load
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,1\n2,2\n3,5\n")
    snap = tmp_path / "state.json"
    argv = ["stream", "--degrees", "1,0", "--exact", "--snapshot", str(snap), str(path)]
    assert run(capsys, *argv)[0] == EXIT_OK
    snap.write_text(json.dumps({**json.loads(snap.read_text()), **edit}))
    saved = snap.read_bytes()
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and "is not an integer" in err and err.count("\n") == 1
    assert snap.read_bytes() == saved


def test_stream_refuses_a_snapshot_with_a_zero_weight(tmp_path, capsys):
    # with the stored weight the four rows give 12/5, -1/2 and without the
    # first point 5/2, -5/6; a zero weight loaded as such gave neither
    head, tail = tmp_path / "head.csv", tmp_path / "tail.csv"
    head.write_text("x,y,w\n1,2,1\n2,4,1\n3,7,1\n")
    tail.write_text("x,y,w\n4,9,1\n")
    snap = tmp_path / "state.json"
    argv = ["stream", "--degrees", "1,0", "--exact", "--weights", "--snapshot", str(snap)]
    assert run(capsys, *argv, str(head))[0] == EXIT_OK
    payload = json.loads(snap.read_text())
    payload["w"][0] = "0"
    snap.write_text(json.dumps(payload))
    saved = snap.read_bytes()
    code, out, err = run(capsys, *argv, str(tail))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: snapshot holds a zero weight; weights must be nonzero\n"
    assert snap.read_bytes() == saved


@pytest.mark.parametrize("mode", [["--exact"], []], ids=["exact", "float"])
def test_stream_refuses_a_snapshot_whose_d_is_not_a_non_negative_real_number(tmp_path, capsys, mode):
    # D is a sum of |u|^2; loaded as it stood, "-2+3i" gave complex
    # coefficients for real data and was saved again as "12.0+3.0i" in float
    # mode, "12+3i" in exact mode
    head, tail = tmp_path / "head.csv", tmp_path / "tail.csv"
    head.write_text("x,y\n1,2\n2,4\n3,7\n")
    tail.write_text("x,y\n4,9\n")
    snap = tmp_path / "state.json"
    argv = ["stream", "--degrees", "1,0", *mode, "--snapshot", str(snap)]
    assert run(capsys, *argv, str(head))[0] == EXIT_OK
    snap.write_text(json.dumps({**json.loads(snap.read_text()), "D": "-2+3i"}))
    saved = snap.read_bytes()
    code, out, err = run(capsys, *argv, str(tail))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: snapshot D '-2+3i' is not a non-negative real number\n"
    assert snap.read_bytes() == saved


def test_stream_skips_malformed_rows(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0,0\nbad,row\n1,1\n2,2\n")
    code, out, err = run(
        capsys, "stream", "--degrees", "1,0", "--exact", "--on-error", "skip", str(path)
    )
    assert code == EXIT_OK
    assert "skipping" in err
    final = json.loads(out.strip().splitlines()[-1])
    assert final["coefficients"] == ["1", "0"]


def test_stream_aborts_on_a_malformed_row_by_default(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0,0\nbad,row\n1,1\n2,2\n")
    snap = tmp_path / "state.json"
    code, out, err = run(capsys, "stream", "--degrees", "1,0", "--exact", "--snapshot", str(snap), str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: row 3: malformed scalar literal: 'bad'\n"
    assert not snap.exists()


def _stream_lines(capsys, path, *options):
    code, out, err = run(capsys, "stream", "--degrees", "1,0", "--exact", *options, str(path))
    return code, [json.loads(line)["coefficients"] for line in out.splitlines()], err


@pytest.mark.parametrize(
    "header, rows, bad_row, options",
    [
        ("x,y", ["1,2", "2,4", "3,7", "4,9"], "3", ()),
        ("x,y,w", ["1,2,1", "2,4,1", "3,7,2", "4,9,1"], "3,5,0", ("--weights",)),
    ],
    ids=["short-row", "zero-weight"],
)
def test_stream_skip_covers_every_refused_row(tmp_path, capsys, header, rows, bad_row, options):
    # the refused row sits between good ones; the good rows must give the
    # coefficients they give without it
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("\n".join([header] + rows) + "\n")
    bad.write_text("\n".join([header] + rows[:2] + [bad_row] + rows[2:]) + "\n")
    expected = _stream_lines(capsys, good, *options)
    assert expected[0] == EXIT_OK
    code, lines, err = _stream_lines(capsys, bad, "--on-error", "skip", *options)
    assert code == EXIT_OK
    assert lines == expected[1]
    assert err.count("\n") == 1 and err.startswith("warning: skipping malformed row: ")


@pytest.mark.parametrize("saved_weighted", [True, False], ids=["weighted-snapshot", "unweighted-snapshot"])
@pytest.mark.parametrize("rows", [True, False], ids=["rows", "no-rows"])
@pytest.mark.parametrize("on_error", ["abort", "skip"])
def test_stream_refuses_a_snapshot_of_the_other_weighting(tmp_path, capsys, saved_weighted, rows, on_error):
    snap = tmp_path / "state.json"
    head = tmp_path / "head.csv"
    head.write_text("x,y,w\n1,2,1\n2,4,1\n")
    weights = ["--weights"] if saved_weighted else []
    argv = ["stream", "--degrees", "1,0", "--exact", "--snapshot", str(snap)]
    assert run(capsys, *argv, *weights, str(head))[0] == EXIT_OK
    saved = snap.read_bytes()
    tail = tmp_path / "tail.csv"
    tail.write_text("x,y,w\n3,7,1\n4,9,1\n" if rows else "x,y,w\n")
    other = [] if saved_weighted else ["--weights"]
    code, out, err = run(capsys, *argv, *other, "--on-error", on_error, str(tail))
    assert code == EXIT_USAGE
    assert out == ""
    kinds = ("weighted", "unweighted") if saved_weighted else ("unweighted", "weighted")
    assert err == f"error: snapshot {snap} holds {kinds[0]} points; this run reads {kinds[1]} rows\n"
    assert snap.read_bytes() == saved


def test_stream_empty_snapshot_takes_either_weighting(tmp_path, capsys):
    # a snapshot of no points holds no weighting to disagree with
    snap = tmp_path / "state.json"
    empty = tmp_path / "empty.csv"
    empty.write_text("x,y\n")
    argv = ["stream", "--degrees", "1,0", "--exact", "--snapshot", str(snap)]
    assert run(capsys, *argv, str(empty))[0] == EXIT_NON_UNIQUE
    rows = tmp_path / "rows.csv"
    rows.write_text("x,y,w\n1,2,1\n2,4,1\n3,7,2\n")
    code, out, _ = run(capsys, *argv, "--weights", str(rows))
    assert code == EXIT_OK
    assert json.loads(out.splitlines()[-1])["m"] == 3


def test_compare_exact(tmp_path, capsys):
    path, _ = write_quartic(tmp_path)
    code, out, _ = run(capsys, "compare", "--degrees", "4,2,0", "--exact", str(path))
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["max_relative_difference"] == 0.0
    assert report["agree"] is True


def test_compare_float_within_tolerance(tmp_path, capsys):
    # well-conditioned float data
    path = tmp_path / "d.csv"
    rows = ["x,y"] + [f"{0.5 + 0.15 * k},{1.0 + 0.3 * k}" for k in range(10)]
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "compare", "--degrees", "2,1,0", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["max_relative_difference"] <= 1e-9


def test_output_determinism(tmp_path, capsys):
    path, _ = write_quartic(tmp_path, m=9, noise=0.01, seed=42, exact=False)
    reports = []
    for _ in range(2):
        code, out, _ = run(capsys, "fit", "--degrees", "4,2,0", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        report.pop("seconds")  # wall time is the only nondeterministic field
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def test_dataset_round_trip(tmp_path):
    data = quartic_example(m=7, exact=True)
    buf = io.StringIO()
    write_dataset(buf, data)
    path = tmp_path / "rt.csv"
    path.write_text(buf.getvalue())
    back = read_dataset(str(path), True, False)
    assert scalars_equal(back.x, data.x)
    assert scalars_equal(back.y, data.y)


def test_weighted_gaussian_dataset_round_trip(tmp_path):
    # the w column, and exact complex values, survive a write and a read
    s = Scalar.from_exact
    data = DataSet(
        [s(1), s(0, 1), s(2, 1), s(Fraction(1, 3), -1)],
        [s(2, 1), s(1, -1), s(0, 3), s(Fraction(1, 2))],
        [s(Fraction(1, 2)), s(3), s(Fraction(2, 3)), s(Fraction(-5, 7), Fraction(1, 9))],
    )
    buf = io.StringIO()
    write_dataset(buf, data)
    assert buf.getvalue().splitlines()[0] == "x,y,w"
    path = tmp_path / "rt.csv"
    path.write_text(buf.getvalue())
    back = read_dataset(str(path), True, True)
    assert (back.x, back.y, back.w) == (data.x, data.y, data.w)


def test_noise_seed_reproducible():
    a = quartic_example(m=9, noise=0.01, seed=5, exact=False)
    b = quartic_example(m=9, noise=0.01, seed=5, exact=False)
    c = quartic_example(m=9, noise=0.01, seed=6, exact=False)
    assert scalars_equal(a.y, b.y)
    assert not scalars_equal(a.y, c.y)


def test_bench_smoke(capsys):
    code, out, _ = run(
        capsys,
        "bench",
        "--degrees",
        "2,0",
        "--sizes",
        "8,12,16,20",
        "--noise",
        "0.01",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert {"degrees", "slope", "timings"} <= set(report)
    assert len(report["timings"]) == 4


def test_bench_tsv_table(capsys):
    sizes = [8, 12, 16, 20]
    code, out, _ = run(
        capsys, "bench", "--degrees", "2,0", "--sizes", ",".join(map(str, sizes)), "--output", "tsv"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "m\tseconds\tevaluations"
    rows = [line.split("\t") for line in lines[1:-1]]
    # (2, 0): C(m, 2) denominator terms and 2^2 * C(m, 1) minor-sum terms
    assert [(int(m), int(ev)) for m, _, ev in rows] == [(m, comb(m, 2) + 4 * m) for m in sizes]
    assert all(float(seconds) >= 0 for _, seconds, _ in rows)
    assert lines[-1].startswith("# slope\t")
    float(lines[-1].split("\t")[1])


def test_bench_refuses_zero_repetitions(capsys):
    code, out, err = run(capsys, "bench", "--degrees", "2,0", "--sizes", "8,12,16,20", "--repetitions", "0")
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_bench_refuses_sizes_below_the_term_count(capsys):
    code, out, err = run(capsys, "bench", "--degrees", "4,2,0", "--sizes", "1,2,3,4")
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: bench sizes must be at least 3") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", "--degrees", "1,0", "--bogus", "DATA"], "unrecognized arguments: --bogus"),
        (["fit", "--degrees", "1,0"], "the following arguments are required: input"),
        (["fit"], "the following arguments are required: input"),
        # each option exists only where it is read: bench fits float
        # quartics, and only bench draws noise from a seed
        (["bench", "--degrees", "2,0", "--exact"], "unrecognized arguments: --exact"),
        (["bench", "--degrees", "2,0", "--weights"], "unrecognized arguments: --weights"),
        (["fit", "--degrees", "1,0", "--seed", "42", "DATA"], "unrecognized arguments: --seed"),
        (["stream", "--degrees", "1,0", "--seed", "42", "DATA"], "unrecognized arguments: --seed"),
        (["compare", "--degrees", "1,0", "--seed", "42", "DATA"], "unrecognized arguments: --seed"),
        # --degree is shorthand for --degrees; one must not silently win
        (
            ["fit", "--degrees", "1,0", "--degree", "3", "--exact", "DATA"],
            "argument --degree: not allowed with argument --degrees",
        ),
        # bench noise scales a uniform draw: nan ended in an OverflowError
        # from the moment sums, and a negative or infinite one was accepted
        (["bench", "--degrees", "2,0", "--noise", "nan"], "bench noise must be finite and at least 0\n"),
        (["bench", "--degrees", "2,0", "--noise", "-0.5"], "bench noise must be finite and at least 0\n"),
        (["bench", "--degrees", "2,0", "--noise", "inf"], "bench noise must be finite and at least 0\n"),
    ],
    ids=[
        "unknown-flag",
        "missing-input",
        "fit-alone",
        "bench-exact",
        "bench-weights",
        "fit-seed",
        "stream-seed",
        "compare-seed",
        "degrees-and-degree",
        "bench-noise-nan",
        "bench-noise-negative",
        "bench-noise-inf",
    ],
)
def test_argument_errors_exit_1_with_one_line(tmp_path, capsys, argv, message):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0,0\n1,1\n")
    code, out, err = run(capsys, *[str(path) if a == "DATA" else a for a in argv])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("x,y\n", "input contains no data rows"),
        ("", "missing header row"),
        ("u,y\n1,2\n", "header must name columns x, y"),
        ("x,v\n1,2\n", "header must name columns x, y"),
        ("x,y\n1,2\n3\n", "row 3 is missing columns"),
    ],
    ids=["no-rows", "no-header", "no-x", "no-y", "short-row"],
)
def test_input_errors_exit_1_with_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text)
    code, out, err = run(capsys, "fit", "--degrees", "1,0", "--exact", str(path))
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("delimiter", ["\t", ";"], ids=["tab", "semicolon"])
def test_crlf_file_with_a_trailing_blank_line(tmp_path, capsys, delimiter):
    path = tmp_path / "d.txt"
    path.write_bytes(f"x{delimiter}y\r\n1{delimiter}2\r\n2{delimiter}4\r\n3{delimiter}7\r\n\r\n".encode())
    code, out, _ = run(capsys, "fit", "--degrees", "1,0", "--exact", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["coefficients"] == ["5/2", "-2/3"]


@pytest.mark.parametrize("delimiter", ["\t", ";"], ids=["tab", "semicolon"])
@pytest.mark.parametrize("command", ["fit", "stream"])
def test_short_row_is_named_under_every_delimiter(tmp_path, capsys, delimiter, command):
    path = tmp_path / "d.txt"
    path.write_text(f"x{delimiter}y\n1{delimiter}2\n2{delimiter}4\n3\n4{delimiter}9\n")
    code, out, err = run(capsys, command, "--degrees", "1,0", "--exact", str(path))
    assert code == EXIT_USAGE
    assert command == "stream" or out == ""
    assert err == "error: row 4 is missing columns\n"


@pytest.mark.parametrize(
    "command, options, text, code, message",
    [
        (
            "fit",
            ("--exact",),
            "x,y\n1,2\n2,zzz\n3,7\n",
            EXIT_USAGE,
            "error: row 3: malformed scalar literal: 'zzz'",
        ),
        (
            "fit",
            ("--exact",),
            "x,y\n1,2\n3 5,4\n3,7\n",
            EXIT_USAGE,
            "error: row 3: malformed scalar literal: '3 5'",
        ),
        (
            "fit",
            ("--weights",),
            "x,y,w\n1,2,1\n2,4,0\n3,7,1\n",
            EXIT_USAGE,
            "error: row 3: weight is zero; weights must be nonzero",
        ),
        (
            "stream",
            ("--weights", "--on-error", "skip"),
            "x,y,w\n1,2,1\n\n2,4,0\n3,7,1\n4,9,1\n",
            EXIT_OK,
            "warning: skipping malformed row: row 4: weight is zero; weights must be nonzero",
        ),
    ],
    ids=["fit-malformed", "fit-split-number", "fit-zero-weight", "stream-zero-weight"],
)
def test_a_refused_row_is_named_by_its_line(tmp_path, capsys, command, options, text, code, message):
    # line numbers count the header and blank lines, as an editor does
    path = tmp_path / "d.csv"
    path.write_text(text)
    got, _, err = run(capsys, command, "--degrees", "1,0", *options, str(path))
    assert got == code
    assert err == message + "\n"


def test_rows_are_yielded_without_raising(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x\n2,1\n\n3\nbad,4\n")
    assert list(cli._read_rows(str(path), False)) == [(2, ["1", "2"]), (4, [None, "3"]), (5, ["4", "bad"])]


@pytest.mark.parametrize("source", ["path", "stdin"])
def test_byte_order_mark_is_ignored(tmp_path, capsys, monkeypatch, source):
    raw = "\ufeffx,y\n1,2\n2,4\n3,7\n"
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(raw))
        target = "-"
    else:
        target = tmp_path / "d.csv"
        target.write_bytes(raw.encode("utf-8"))
    code, out, _ = run(capsys, "fit", "--degrees", "1,0", "--exact", str(target))
    assert code == EXIT_OK
    assert json.loads(out)["coefficients"] == ["5/2", "-2/3"]


_ROWS = [("1/2", "2+i", "3"), ("-1", "0.25", "1/3"), ("2", "-3/4i", "2")]


def _layout(delimiter, newline, blank, quoted, extra, padded):
    def cells(values):
        return [f'"{v}"' if quoted else v for v in values]

    if extra:
        # a w-first order with a note column between the data columns
        header = cells(["w", "note", "Y", " x "])
        body = [cells([w, f"n{k}", y, x]) for k, (x, y, w) in enumerate(_ROWS)]
    else:
        header = cells(["x", "y", "w"])
        body = [cells(row) for row in _ROWS]
    separator = delimiter + " " if padded else delimiter
    lines = [separator.join(header)] + [separator.join(row) for row in body]
    if blank:
        lines.insert(2, "")
    return newline.join(lines) + newline


@pytest.mark.parametrize("delimiter", [",", "\t", ";"], ids=["comma", "tab", "semicolon"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize(
    "blank, quoted, extra, padded",
    [
        (False, False, False, False),
        (True, False, False, False),
        (False, True, False, False),
        (False, False, True, False),
        (True, True, True, True),
    ],
    ids=["plain", "blank-line", "quoted", "extra-column", "all-and-padded"],
)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_every_layout_reads_as_the_plain_comma_file(
    tmp_path, delimiter, newline, blank, quoted, extra, padded, exact
):
    plain, other = tmp_path / "plain.csv", tmp_path / "other.txt"
    plain.write_text(_layout(",", "\n", False, False, False, False))
    other.write_bytes(_layout(delimiter, newline, blank, quoted, extra, padded).encode())
    for weighted in (False, True):
        want, got = (read_dataset(str(p), exact, weighted) for p in (plain, other))
        assert (got.x, got.y, got.w) == (want.x, want.y, want.w)


def test_quoted_header_may_hold_another_delimiter(tmp_path, capsys):
    # a comma inside the quoted third name must not make comma the delimiter
    path = tmp_path / "d.txt"
    path.write_text('"x";"y";"note, free text"\n1;2;"a, b"\n2;4;c\n3;7;d\n')
    code, out, _ = run(capsys, "fit", "--degrees", "1,0", "--exact", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["coefficients"] == ["5/2", "-2/3"]


def test_bench_refuses_fewer_than_four_sizes(capsys):
    # only distinct sizes count: four equal ones ended in "x is constant"
    for sizes in ("8,12,16", "4,4,4,4"):
        code, out, err = run(capsys, "bench", "--degrees", "2,0", "--sizes", sizes)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: bench needs at least 4 sizes to estimate a slope\n"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--help"])
    assert exc.value.code == 0
    assert "--exact" in capsys.readouterr().out


def test_missing_degrees_is_usage_error(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0,0\n1,1\n")
    code, out, err = run(capsys, "fit", str(path))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "--degrees" in err and "--degree " in err


def test_empty_degrees_is_usage_error(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0,0\n1,1\n")
    code, out, err = run(capsys, "fit", "--degrees", "", str(path))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
