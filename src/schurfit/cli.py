"""Command-line front end: fit, stream, bench, and compare subcommands.

Input files are header-bearing delimited text with columns x, y and
optionally w; the delimiter is the first of comma, tab and semicolon under
which the header names them.  Values may be rational ("3/4"), decimal, or
complex ("2+3i"), and in float mode must be finite.  `_read_rows` splits the
file into rows and `_point` turns one row into Scalars, for `fit`, `compare`
and `stream` alike, refusing a row with a message that names its line (the
header is line 1); `stream --on-error skip` skips, with one warning each,
the rows that `_point` or the append refuses.  Reports are JSON (default) or
TSV.  Exit codes: 0 success, 1 usage or I/O trouble (an unknown option or a
missing argument included), a malformed snapshot or one that does not match
the command line, an arithmetic failure such as float overflow, values of
mixed exact and float modes, or a `compare` whose closed form and oracle
disagree beyond the tolerance, 2 no unique solution.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import random
import statistics
import sys
import tempfile
import time
from fractions import Fraction

from . import incremental, oracle, regress
from .numeric import Scalar, ScalarModeError, format_scalar, parse_scalar
from .partitions import Exponents

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NON_UNIQUE = 2


def _parse_degrees(args):
    if args.degree is not None:
        return Exponents(range(args.degree, -1, -1))
    return Exponents(int(v) for v in args.degrees.split(","))


def read_dataset(path, exact, weighted):
    """Read a delimited file with header columns x, y and optionally w."""
    points = [_point(row, exact) for row in _read_rows(path, weighted)]
    if not points:
        raise ValueError("input contains no data rows")
    return regress.DataSet(*zip(*points))


def _read_rows(path, weighted):
    """Yield (line number, cells) for each non-blank data row of the file at
    `path` ("-" for stdin), the cells holding the x, y and, if `weighted`, w
    columns, with None for a cell the row lacks.

    A leading byte-order mark is dropped.  The delimiter is the first of
    comma, tab and semicolon under which the header names the columns; fields
    may be double-quoted, and a space after a delimiter is skipped, so a
    padded quoted field reads as a quoted one.  Only the header raises: a data
    row's faults are left to `_point`, so a caller can skip that row and read
    on.  Text that does not decode raises ValueError naming `path`.
    """
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, newline="") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"input {path}: {exc}") from None
    lines = text.removeprefix("\ufeff").splitlines()
    if not lines:
        raise ValueError("missing header row")
    wanted = ["x", "y", "w"] if weighted else ["x", "y"]
    for delimiter in ",\t;":
        rows = csv.reader(lines, delimiter=delimiter, skipinitialspace=True)
        names = [h.strip().lower() for h in next(rows)]
        if all(c in names for c in wanted):
            break
    else:
        raise ValueError(f"header must name columns {', '.join(wanted)}")
    columns = [names.index(c) for c in wanted]
    for line, row in enumerate(rows, start=2):
        if any(c.strip() for c in row):
            yield line, [row[i] if i < len(row) else None for i in columns]


def _point(row, exact):
    """The Scalars of a `_read_rows` row; ValueError naming the row's line
    for a missing cell, a malformed value or a zero weight."""
    line, cells = row
    if None in cells:
        raise ValueError(f"row {line} is missing columns")
    try:
        point = [parse_scalar(c, exact) for c in cells]
    except ValueError as exc:
        raise ValueError(f"row {line}: {exc}") from exc
    if len(point) == 3 and not point[2]:
        raise ValueError(f"row {line}: weight is zero; weights must be nonzero")
    return point


def quartic_example(m=101, noise=0.0, seed=0, exact=True):
    """Sample the reference quartic x^4 - 2.5e5 x^2 on the grid of m points
    over [-500, 500], which for m = 1 is the one point x = 0, optionally with
    seeded uniform noise scaled to the signal peak (float mode only)."""
    if exact:
        if noise:
            raise ValueError("noisy samples are float-mode only")
        # the noiseless grid values are exact rationals
        xs = [Fraction(-500) + Fraction(1000 * i, m - 1) for i in range(m)] if m != 1 else [Fraction(0)]
        return regress.DataSet(
            [Scalar.from_exact(v) for v in xs],
            [Scalar.from_exact(v**4 - Fraction(5, 2) * 10**5 * v**2) for v in xs],
        )
    xs = [-500 + 1000 * i / (m - 1) for i in range(m)] if m != 1 else [0.0]
    ys = [v**4 - 2.5e5 * v**2 for v in xs]
    if noise:
        rng = random.Random(seed)
        amp = noise * max(abs(v) for v in ys)
        ys = [v + rng.uniform(-amp, amp) for v in ys]
    return regress.DataSet(
        [Scalar.from_float(v) for v in xs],
        [Scalar.from_float(v) for v in ys],
    )


def _report_fit(result, degrees, m, seconds):
    return {
        "degrees": list(degrees),
        "mode": "exact" if result.denominator.exact else "float",
        "m": m,
        "coefficients": [format_scalar(a) for a in result.coefficients],
        "denominator": format_scalar(result.denominator),
        "residual": result.residual,
        "evaluations": result.evaluations,
        "seconds": seconds,
    }


def _emit(report, fmt):
    if fmt == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        for key in sorted(report):
            value = report[key]
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            sys.stdout.write(f"{key}\t{value}\n")


def cmd_fit(args):
    degrees = _parse_degrees(args)
    data = read_dataset(args.input, args.exact, args.weights)
    start = time.perf_counter()
    result = regress.fit(degrees, data)
    seconds = time.perf_counter() - start
    _emit(_report_fit(result, degrees, data.m, seconds), args.output)
    return EXIT_OK


def _read_snapshot(path, degrees, exact, weighted):
    """The state saved at `path`, or None if there is none yet; a state saved
    under other degrees or another mode is refused, and so is one whose points
    are weighted when the run reads no w column, or the reverse.  A file that
    does not decode or is not JSON raises ValueError naming `path`."""
    try:
        with open(path) as handle:
            state = incremental.RegressionState.from_dict(json.load(handle))
    except FileNotFoundError:
        return None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"snapshot {path}: {exc}") from None
    saved = (list(state.d), "exact" if state.exact else "float")
    asked = (list(degrees), "exact" if exact else "float")
    if saved != asked:
        raise ValueError(
            f"snapshot {path} holds degrees {saved[0]} in {saved[1]} mode; "
            f"this run asks for degrees {asked[0]} in {asked[1]} mode"
        )
    if state.m and (state.w is not None) != weighted:
        kinds = ("weighted", "unweighted") if state.w is not None else ("unweighted", "weighted")
        raise ValueError(f"snapshot {path} holds {kinds[0]} points; this run reads {kinds[1]} rows")
    return state


def _write_snapshot(path, state):
    """Write the state through a temporary file in the same directory, so a
    failed write never leaves a truncated snapshot behind; a temporary file
    that cannot be made raises OSError naming `path`, not that file."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    except OSError as exc:
        raise OSError(f"cannot write snapshot {path}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(state.to_dict(), handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_stream(args):
    degrees = _parse_degrees(args)
    state = _read_snapshot(args.snapshot, degrees, args.exact, args.weights) if args.snapshot else None
    if state is None:
        state = incremental.init_state(degrees, exact=args.exact)

    a = state.a
    for row in _read_rows(args.input, args.weights):
        try:
            state = incremental.update(state, *_point(row, args.exact))
        except ValueError as exc:
            if args.on_error == "skip":
                print(f"warning: skipping malformed row: {exc}", file=sys.stderr)
                continue
            raise
        a = state.a
        if a is not None:
            _emit(
                {
                    "degrees": list(degrees),
                    "m": state.m,
                    "coefficients": [format_scalar(v) for v in a],
                },
                args.output,
            )

    if args.snapshot:
        _write_snapshot(args.snapshot, state)
    if a is None:
        print("error: stream ended without a unique solution", file=sys.stderr)
        return EXIT_NON_UNIQUE
    return EXIT_OK


def fit_loglog_slope(sizes, seconds):
    """Least-squares slope of log(seconds) against log(size)."""
    logs = [math.log(s) for s in sizes], [math.log(t) for t in seconds]
    return statistics.linear_regression(*logs).slope


def run_bench(degrees, sizes, repetitions=1, noise=0.01, seed=0):
    """Time float-mode fits over a size range; returns per-size results.

    One untimed fit runs first, and the garbage collector is paused inside
    each timed fit, so neither the first call's warm-up nor a collection
    lands in one size's timing and bends the log-log slope.  The repetitions
    go round-robin over the sizes and each size keeps its fastest time, so a
    slow phase of a shared host slows one repetition of every size instead of
    every repetition of one size.
    """
    regress.fit(degrees, quartic_example(m=min(sizes), noise=noise, seed=seed, exact=False))
    datasets = [quartic_example(m=m, noise=noise, seed=seed, exact=False) for m in sizes]
    rows = [{"m": m, "seconds": math.inf, "evaluations": None} for m in sizes]
    for _ in range(repetitions):
        for row, data in zip(rows, datasets):
            gc.disable()
            try:
                start = time.perf_counter()
                result = regress.fit(degrees, data)
                elapsed = time.perf_counter() - start
            finally:
                gc.enable()
            row["seconds"] = min(row["seconds"], elapsed)
            row["evaluations"] = result.evaluations
    return rows


def cmd_bench(args):
    degrees = _parse_degrees(args)
    sizes = [int(v) for v in args.sizes.split(",")]
    if len(set(sizes)) < 4:
        raise ValueError("bench needs at least 4 sizes to estimate a slope")
    if args.repetitions < 1:
        raise ValueError("bench needs at least 1 repetition")
    if not (math.isfinite(args.noise) and args.noise >= 0):
        raise ValueError("bench noise must be finite and at least 0")
    if min(sizes) < len(degrees):
        raise ValueError(f"bench sizes must be at least {len(degrees)}, the number of model terms")
    rows = run_bench(degrees, sizes, args.repetitions, args.noise, args.seed)
    slope = fit_loglog_slope([r["m"] for r in rows], [r["seconds"] for r in rows])
    if args.output == "tsv":
        sys.stdout.write("m\tseconds\tevaluations\n")
        for r in rows:
            sys.stdout.write(f"{r['m']}\t{r['seconds']:.6f}\t{r['evaluations']}\n")
        sys.stdout.write(f"# slope\t{slope:.4f}\n")
    else:
        _emit({"degrees": list(degrees), "slope": slope, "timings": rows}, "json")
    return EXIT_OK


def cmd_compare(args):
    degrees = _parse_degrees(args)
    data = read_dataset(args.input, args.exact, args.weights)
    result = regress.fit(degrees, data)
    reference = oracle.solve_normal(degrees, data)
    # compare relative to the solution vector as a whole; a per-coefficient
    # ratio is meaningless when a true coefficient is zero
    if args.exact:
        # exact magnitudes, which may lie beyond the float range: only the
        # squared ratio, at most 4, becomes a float
        scale_sq = max(v.mag_sq().re for v in result.coefficients + reference)
        worst_sq = max((a - b).mag_sq().re for a, b in zip(result.coefficients, reference))
        worst = math.sqrt(worst_sq / scale_sq) if worst_sq else 0.0
    else:
        scale = max([abs(v) for v in result.coefficients + reference] + [1e-300])
        worst = max(abs(a - b) / scale for a, b in zip(result.coefficients, reference))
    tolerance = 0.0 if args.exact else 1e-9
    _emit(
        {
            "degrees": list(degrees),
            "mode": "exact" if args.exact else "float",
            "max_relative_difference": worst,
            "tolerance": tolerance,
            "agree": worst <= tolerance,
        },
        args.output,
    )
    return EXIT_OK if worst <= tolerance else EXIT_USAGE


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValueError, so that `main`
    reports them as exit 1 with one `error:` line; --help still exits 0."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="schurfit",
        description="Closed-form polynomial regression via symmetric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, reads_data=True):
        model = p.add_mutually_exclusive_group(required=True)
        model.add_argument("--degrees", help="comma-separated exponents, e.g. 4,2,0")
        model.add_argument("--degree", type=int, help="shorthand for k,k-1,...,0")
        p.add_argument("--output", choices=("json", "tsv"), default="json")
        if reads_data:
            p.add_argument("--exact", action="store_true", help="exact rational arithmetic")
            p.add_argument("--weights", action="store_true", help="input has a w column")
            p.add_argument("input", help="data file path, or - for stdin")

    p_fit = sub.add_parser("fit", help="batch fit")
    common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_stream = sub.add_parser("stream", help="incremental point-by-point fit")
    common(p_stream)
    p_stream.add_argument("--snapshot", help="state file to restore from / persist to")
    p_stream.add_argument("--on-error", choices=("abort", "skip"), default="abort")
    p_stream.set_defaults(func=cmd_stream)

    p_bench = sub.add_parser("bench", help="timing sweep with log-log slope")
    common(p_bench, reads_data=False)
    p_bench.add_argument("--sizes", default="40,80,120,160,200")
    p_bench.add_argument("--repetitions", type=int, default=1)
    p_bench.add_argument("--noise", type=float, default=0.01)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=cmd_bench)

    p_cmp = sub.add_parser("compare", help="closed form vs normal-equation oracle")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (regress.NonUniqueSolutionError, regress.InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_UNIQUE
    except (OSError, ValueError, ScalarModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
