import io
import json

import pytest

from schurfit.cli import (
    EXIT_NON_UNIQUE,
    EXIT_OK,
    EXIT_USAGE,
    main,
    quartic_example,
    read_dataset,
    write_dataset,
)
from schurfit.numeric import format_scalar
from schurfit.partitions import Exponents
from schurfit.regress import DataSet, fit

from _helpers import scalars_equal


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


def test_fit_malformed_input_exit_1(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n1,zzz\n2,3\n")
    code, _, err = run(capsys, "fit", "--degrees", "1,0", "--exact", str(path))
    assert code == EXIT_USAGE
    assert "error" in err


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
        code, out, _ = run(capsys, "fit", "--degrees", "4,2,0", "--seed", "42", str(path))
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


def test_missing_degrees_is_usage_error(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y\n0,0\n1,1\n")
    code, _, err = run(capsys, "fit", str(path))
    assert code == EXIT_USAGE
