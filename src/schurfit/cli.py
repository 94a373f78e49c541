"""Command-line front end: fit, stream, bench, and compare subcommands.

Input files are header-bearing delimited text with columns x, y and
optionally w; values may be rational ("3/4"), decimal, or complex ("2+3i").
Reports are JSON (default) or TSV.  Exit codes: 0 success, 1 usage or I/O
trouble, a snapshot that does not match the command line, or an arithmetic
failure such as float overflow, 2 no unique solution.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import random
import sys
import tempfile
import time

from . import incremental, oracle, regress
from .numeric import Scalar, format_scalar, parse_scalar
from .partitions import Exponents

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NON_UNIQUE = 2


def _parse_degrees(args):
    if args.degrees:
        return Exponents(int(v) for v in args.degrees.split(","))
    if args.degree is not None:
        return Exponents(range(args.degree, -1, -1))
    raise ValueError("one of --degrees or --degree is required")


def read_dataset(path, exact, weighted):
    """Read a delimited file with header columns x, y and optionally w."""
    rows = list(_read_rows(path, weighted))
    if not rows:
        raise ValueError("input contains no data rows")
    x = [parse_scalar(r[0], exact) for r in rows]
    y = [parse_scalar(r[1], exact) for r in rows]
    w = [parse_scalar(r[2], exact) for r in rows] if weighted else None
    return regress.DataSet(x, y, w)


def _read_rows(path, weighted):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, newline="") as handle:
            text = handle.read()
    sample = text[:1024]
    try:
        dialect = csv.Sniffer().sniff(sample, delimiters=",\t;")
    except csv.Error:
        dialect = csv.excel
    reader = csv.reader(text.splitlines(), dialect)
    header = next(reader, None)
    if header is None:
        raise ValueError("missing header row")
    names = [h.strip().lower() for h in header]
    try:
        ix, iy = names.index("x"), names.index("y")
        iw = names.index("w") if weighted else None
    except ValueError as exc:
        raise ValueError(f"header must name columns x, y{', w' if weighted else ''}") from exc
    for line, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            yield (row[ix], row[iy]) + ((row[iw],) if iw is not None else ())
        except IndexError as exc:
            raise ValueError(f"row {line} is missing columns") from exc


def write_dataset(handle, data):
    """Write a data set back out (comma separated, lossless for exact values)."""
    cols = ["x", "y"] + (["w"] if data.w is not None else [])
    handle.write(",".join(cols) + "\n")
    for k in range(data.m):
        row = [format_scalar(data.x[k]), format_scalar(data.y[k])]
        if data.w is not None:
            row.append(format_scalar(data.w[k]))
        handle.write(",".join(row) + "\n")


def quartic_example(m=101, noise=0.0, seed=0, exact=True, half_range=500):
    """Sample the reference quartic x^4 - 2.5e5 x^2 on a symmetric grid,
    optionally with seeded uniform noise scaled to the signal peak."""
    xs, ys = [], []
    for i in range(m):
        xv = -half_range + 2 * half_range * i / (m - 1) if m > 1 else 0.0
        xs.append(xv)
        ys.append(xv**4 - 2.5e5 * xv**2)
    if noise:
        rng = random.Random(seed)
        amp = noise * max(abs(v) for v in ys)
        ys = [v + rng.uniform(-amp, amp) for v in ys]
    if exact:
        if noise:
            raise ValueError("noisy samples are float-mode only")
        # the noiseless grid values are exact rationals
        from fractions import Fraction

        xs_f = [Fraction(-half_range) + Fraction(2 * half_range * i, m - 1) for i in range(m)]
        return regress.DataSet(
            [Scalar.from_exact(v) for v in xs_f],
            [Scalar.from_exact(v**4 - Fraction(5, 2) * 10**5 * v**2) for v in xs_f],
        )
    return regress.DataSet(
        [Scalar.from_float(v) for v in xs],
        [Scalar.from_float(v) for v in ys],
    )


def _report_fit(result, degrees, exact, m, seconds):
    return {
        "degrees": list(degrees),
        "mode": "exact" if exact else "float",
        "m": m,
        "coefficients": [format_scalar(a) for a in result.coefficients],
        "denominator": format_scalar(result.denominator),
        "residual": result.residual,
        "evaluations": result.evaluations,
        "seconds": seconds,
    }


def _emit(report, fmt, out):
    if fmt == "json":
        out.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        for key in sorted(report):
            value = report[key]
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            out.write(f"{key}\t{value}\n")


def cmd_fit(args, out=None):
    out = out if out is not None else sys.stdout
    degrees = _parse_degrees(args)
    data = read_dataset(args.input, args.exact, args.weights)
    start = time.perf_counter()
    result = regress.fit(degrees, data)
    seconds = time.perf_counter() - start
    _emit(_report_fit(result, degrees, args.exact, data.m, seconds), args.output, out)
    return EXIT_OK


def _read_snapshot(path, degrees, exact):
    """The state saved at `path`, or None if there is none yet; a state saved
    under other degrees or another mode is refused."""
    try:
        with open(path) as handle:
            state = incremental.RegressionState.from_dict(json.load(handle))
    except FileNotFoundError:
        return None
    saved = (list(state.d), "exact" if state.exact else "float")
    asked = (list(degrees), "exact" if exact else "float")
    if saved != asked:
        raise ValueError(
            f"snapshot {path} holds degrees {saved[0]} in {saved[1]} mode; "
            f"this run asks for degrees {asked[0]} in {asked[1]} mode"
        )
    return state


def _write_snapshot(path, state):
    """Write the state through a temporary file in the same directory, so a
    failed write never leaves a truncated snapshot behind."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(state.to_dict(), handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_stream(args, out=None):
    out = out if out is not None else sys.stdout
    degrees = _parse_degrees(args)
    state = _read_snapshot(args.snapshot, degrees, args.exact) if args.snapshot else None
    if state is None:
        state = incremental.init_state(degrees, exact=args.exact)

    for row in _read_rows(args.input, args.weights):
        try:
            point = [parse_scalar(v, args.exact) for v in row]
        except ValueError as exc:
            if args.on_error == "skip":
                print(f"warning: skipping malformed row: {exc}", file=sys.stderr)
                continue
            raise
        state = incremental.update(state, *point)
        if state.a is not None:
            _emit(
                {
                    "m": state.m,
                    "coefficients": [format_scalar(a) for a in state.a],
                },
                args.output,
                out,
            )

    if args.snapshot:
        _write_snapshot(args.snapshot, state)
    if state.a is None:
        print("error: stream ended without a unique solution", file=sys.stderr)
        return EXIT_NON_UNIQUE
    return EXIT_OK


def fit_loglog_slope(sizes, seconds):
    """Least-squares slope of log(seconds) against log(size)."""
    lx = [math.log(s) for s in sizes]
    ly = [math.log(t) for t in seconds]
    k = len(lx)
    mx, my = sum(lx) / k, sum(ly) / k
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def run_bench(degrees, sizes, repetitions=1, noise=0.01, seed=0):
    """Time float-mode fits over a size range; returns per-size results.

    One untimed fit runs first, and the garbage collector is paused inside
    each timed fit, so neither the first call's warm-up nor a collection
    lands in one size's timing and bends the log-log slope.
    """
    regress.fit(degrees, quartic_example(m=min(sizes), noise=noise, seed=seed, exact=False))
    results = []
    for m in sizes:
        data = quartic_example(m=m, noise=noise, seed=seed, exact=False)
        best = None
        result = None
        for _ in range(repetitions):
            gc.disable()
            try:
                start = time.perf_counter()
                result = regress.fit(degrees, data)
                elapsed = time.perf_counter() - start
            finally:
                gc.enable()
            best = elapsed if best is None else min(best, elapsed)
        results.append({"m": m, "seconds": best, "evaluations": result.evaluations})
    return results


def cmd_bench(args, out=None):
    out = out if out is not None else sys.stdout
    degrees = _parse_degrees(args)
    sizes = [int(v) for v in args.sizes.split(",")]
    if len(sizes) < 4:
        raise ValueError("bench needs at least 4 sizes to estimate a slope")
    rows = run_bench(degrees, sizes, args.repetitions, args.noise, args.seed)
    slope = fit_loglog_slope([r["m"] for r in rows], [r["seconds"] for r in rows])
    if args.output == "tsv":
        out.write("m\tseconds\tevaluations\n")
        for r in rows:
            out.write(f"{r['m']}\t{r['seconds']:.6f}\t{r['evaluations']}\n")
        out.write(f"# slope\t{slope:.4f}\n")
    else:
        out.write(
            json.dumps({"degrees": list(degrees), "slope": slope, "timings": rows}, sort_keys=True)
            + "\n"
        )
    return EXIT_OK


def cmd_compare(args, out=None):
    out = out if out is not None else sys.stdout
    degrees = _parse_degrees(args)
    data = read_dataset(args.input, args.exact, args.weights)
    result = regress.fit(degrees, data)
    reference = oracle.solve_normal(degrees, data)
    # compare relative to the solution vector as a whole; a per-coefficient
    # ratio is meaningless when a true coefficient is zero
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
        out,
    )
    return EXIT_OK if worst <= tolerance else EXIT_USAGE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schurfit",
        description="Closed-form polynomial regression via symmetric functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        p.add_argument("--degrees", help="comma-separated exponents, e.g. 4,2,0")
        p.add_argument("--degree", type=int, help="shorthand for k,k-1,...,0")
        p.add_argument("--exact", action="store_true", help="exact rational arithmetic")
        p.add_argument("--weights", action="store_true", help="input has a w column")
        p.add_argument("--output", choices=("json", "tsv"), default="json")
        p.add_argument("--seed", type=int, default=0)
        if needs_input:
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
    common(p_bench, needs_input=False)
    p_bench.add_argument("--sizes", default="40,80,120,160,200")
    p_bench.add_argument("--repetitions", type=int, default=1)
    p_bench.add_argument("--noise", type=float, default=0.01)
    p_bench.set_defaults(func=cmd_bench)

    p_cmp = sub.add_parser("compare", help="closed form vs normal-equation oracle")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (regress.NonUniqueSolutionError, regress.InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_UNIQUE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
