"""CLI reports on small files, pinned by their expected lines.

Each case runs `schurfit.cli.main` on a few rows and looks for the exact
JSON text of its report.  The module imports nothing but `schurfit` and
pytest, so it also runs on its own against an installed package, from a
directory outside the checkout (the packaging step of CI does so).

What the cases reach:
- the weighted Gaussian fits run the minors walk, the moment sums and the
  residual norm on Gaussian-int pairs, with x, w and y scaled by different
  denominators; the residual is the root of the exact residual norm.  Every
  exact fit and stream here sums D and S as minors of the lifted design
  matrix, with no Schur or V call;
- the generated Schur and V code of the float walker comes in two kinds,
  one per point type: complex code for complex points and real code,
  without the factors 1 and the walker's conjugates, for real ones.  The
  float weighted Gaussian (4,2,0) fit on five rows runs the complex Schur
  code of the width-3 bands (3,) and (3,2) on two points, the 3 x 3
  cofactor expansion in the order of `_det3`; the float (4,2,0) fit on six
  real rows runs the real code, whose digits were recorded before the
  factors 1 were dropped;
- the (40,20,0) fits on three rational rows run the wide bands.  Exact, on
  the points scaled to ints, they are minors of the rows (X^40, X^20, 1).
  Float takes the e-form bands, 19 to 39 wide, as the generated
  sliding-window code, with the pivots, operands and order of the
  full-width elimination.  The float stream of the same rows runs the S
  and D increments on the 2- and 3-point wide bands; its last row was
  recorded before the one-scan pivot and the sliced rows;
- the float (9,7,5,3,0) fit on eight real rows runs the window code on 4- to
  6-wide bands of four and five points, (5,4,3,2) among them; its
  coefficients were recorded before the window code;
- two streams that share a snapshot end at the batch answer, through
  parsing, Gaussian Scalars and the snapshot restore; a snapshot in the
  older format, which stored the coefficients "a" beside N and D, still
  loads, its "a" (edited here to 7, 7) is ignored, and the rewritten
  snapshot holds none.
"""

import pytest

from schurfit.cli import main

SMOKE = "x,y\n1,2\n2,4\n3,7\n"
GAUSSIAN = "x,y,w\n1,2+i,1/2\ni,1-i,3\n2+i,3i,2/3\n1/3-i,1/2,1\n"
QUARTIC = GAUSSIAN + "-1+2i,2-i,3/2\n"
REAL = "x,y\n-2,17.5\n-1,2.25\n0.5,-1\n1.5,3\n2,16.25\n3,70\n"
HIGHDEG = "x,y\n1/2,1\n-3/4,-2/3\n5/4,5\n"
SPARSE = "x,y\n-1.5,2.25\n-1,0.5\n-0.5,-1.25\n0.25,1\n0.75,3.5\n1.25,-2\n1.5,4.75\n2,1.5\n"
HEAD = "x,y,w\n1,2+i,1/2\ni,1-i,3\n"
TAIL = "x,y,w\n2+i,3i,2/3\n1/3-i,1/2,1\n"
OLD_SNAPSHOT = (
    '{"D": "9/2", "N": ["-9/4+27/4i", "45/4-9/4i"], "S": [["37/4", "1/4-9i"], ["1/4+9i", "37/4"]], '
    '"T": ["-17/2-35/4i", "19/2-35/4i"], "a": ["7", "7"], "degrees": [1, 0], "evaluations": 9, "m": 2, '
    '"mode": "exact", "w": ["1/2", "3"], "x": ["1", "1i"], "y": ["2+1i", "1-1i"]}\n'
)
GAUSSIAN_LINE = '"coefficients": ["-8733/19795+23103/39590i", "28833/19795-3369/7918i"]'


def _run(capsys, *argv):
    """stdout of a successful `schurfit` run."""
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "text, argv, expected",
    [
        (SMOKE, ("fit", "--degrees", "1,0", "--exact"), ['"coefficients": ["5/2", "-2/3"]']),
        (
            GAUSSIAN,
            ("fit", "--degrees", "1,0", "--exact", "--weights"),
            [GAUSSIAN_LINE, '"residual": 2.438954098630408'],
        ),
        (
            QUARTIC,
            ("fit", "--degrees", "4,2,0", "--exact", "--weights"),
            [
                '"coefficients": ["4608713547/79299853312-941238549/79299853312i", '
                '"15388754615/79299853312+32331896079/79299853312i", '
                '"42767026929/39649926656-18177826069/39649926656i"]'
            ],
        ),
        (
            QUARTIC,
            ("fit", "--degrees", "4,2,0", "--weights"),
            [
                '"coefficients": ["0.0581175545037558-0.011869360530804006i", '
                '"0.19405779421121955+0.4077169720830669i", "1.0786155369225203-0.45845799985229635i"]'
            ],
        ),
        (
            REAL,
            ("fit", "--degrees", "4,2,0"),
            ['"coefficients": ["0.7137762075999411", "1.5219597081151557", "-1.3714607911172796"]'],
        ),
        (
            HIGHDEG,
            ("fit", "--degrees", "40,20,0", "--exact"),
            [
                '"coefficients": ["6422808755766943686120246819684352/1059539545486761214692010149390435", '
                '"-4528788617923307131065485863419904/8614142646233831013756180076345", '
                '"212014156235161862656487688452935/211907909097352242938402029878087"]'
            ],
        ),
        (
            HIGHDEG,
            ("fit", "--degrees", "40,20,0"),
            ['"coefficients": ["6.061886772461146", "-525.7387535433974", "1.0005013834856655"]'],
        ),
        (
            SPARSE,
            ("fit", "--degrees", "9,7,5,3,0"),
            [
                '"coefficients": ["-2.3849874207494257", "17.276163450755547", "-36.49514146353067", '
                '"22.185341878991146", "1.6270919813124929"]'
            ],
        ),
    ],
    ids=[
        "exact-line",
        "gaussian-line",
        "gaussian-quartic-exact",
        "gaussian-quartic-float",
        "real-quartic-float",
        "highdeg-exact",
        "highdeg-float",
        "five-terms-float",
    ],
)
def test_fit_reports_its_expected_lines(tmp_path, capsys, text, argv, expected):
    path = tmp_path / "data.csv"
    path.write_text(text)
    out = _run(capsys, *argv, str(path))
    for line in expected:
        assert line in out, (line, out)


def test_float_highdeg_stream_ends_at_its_recorded_row(tmp_path, capsys):
    path = tmp_path / "highdeg.csv"
    path.write_text(HIGHDEG)
    last = _run(capsys, "stream", "--degrees", "40,20,0", str(path)).splitlines()[-1]
    want = '{"coefficients": ["6.061886772461146", "-525.7387535433974", "1.0005013834856655"], "degrees": [40, 20, 0], "m": 3}'
    assert want in last


def test_streams_that_share_a_snapshot_end_at_the_batch_answer(tmp_path, capsys):
    head, tail, snap = tmp_path / "head.csv", tmp_path / "tail.csv", tmp_path / "state.json"
    head.write_text(HEAD)
    tail.write_text(TAIL)
    argv = ("stream", "--degrees", "1,0", "--exact", "--weights", "--snapshot", str(snap))
    _run(capsys, *argv, str(head))
    last = _run(capsys, *argv, str(tail)).splitlines()[-1]
    assert '"m": 4' in last
    assert GAUSSIAN_LINE in last


def test_an_old_format_snapshot_loads_and_loses_its_coefficients(tmp_path, capsys):
    tail, snap = tmp_path / "tail.csv", tmp_path / "old.json"
    tail.write_text(TAIL)
    snap.write_text(OLD_SNAPSHOT)
    last = _run(capsys, "stream", "--degrees", "1,0", "--exact", "--weights", "--snapshot", str(snap), str(tail))
    last = last.splitlines()[-1]
    assert '"m": 4' in last
    assert GAUSSIAN_LINE in last
    assert '"a":' not in snap.read_text()
