"""Set-up, timed operations, correctness gate and metrics for one workload.

A run is one closed loop with one caller, in one process, with no threads.
The untraced run (`trace=False`) interleaves four operations -- float fit,
exact fit, float pseudoinverse and a stream pass with snapshots -- first until
each has its minimum, then in equal time shares until the measured seconds
are up.  The traced run does each operation once untraced and once with
`tracing.Tracer` installed; the per-layer numbers come from the traced pass
and the difference between the two is the tracing overhead.  End-to-end
numbers come only from the untraced run.  All times are calibrated against a
fixed kernel; see the calibration section below.

Every timed result is checked: exact fits must equal the exact normal-equation
solution, float results must agree with it to `DIGITS_FLOOR` digits, fit and
stream evaluation counts must equal C(m,n) + n^2 C(m,n-1), and a restored
snapshot must equal the state it was written from.
"""

from __future__ import annotations

import bisect
import gc
import importlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import traceback
from contextlib import nullcontext
from fractions import Fraction
from math import comb
from time import perf_counter

from .tracing import Tracer

END_TO_END = (
    ("setup_s", "s"),
    ("fit_float_s", "s"),
    ("fit_exact_s", "s"),
    ("pinv_s", "s"),
    ("update_ms_p50", "ms"),
    ("update_ms_p90", "ms"),
    ("snapshot_ms", "ms"),
    ("coef_digits", "digits"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("symfunc.schur_s", "s"),
    ("symfunc.schur_calls", "count"),
    ("symfunc.vandermonde_s", "s"),
    ("regress.denominator_s", "s"),
    ("regress.us_per_d_subset", "us"),
    ("regress.fit_self_s", "s"),
    ("numeric.scalar_ops", "count"),
    ("regress.d_subsets", "count"),
    ("regress.s_subsets", "count"),
    ("regress.evaluations", "count"),
    ("incremental.update_self_s", "s"),
    ("incremental.to_dict_ms", "ms"),
    ("incremental.from_dict_ms", "ms"),
    ("incremental.snapshot_bytes", "bytes"),
    ("cli.read_dataset_ms", "ms"),
    ("numeric.parse_us", "us"),
    ("trace.overhead_s", "s"),
)

DIGITS_FLOOR = 6.0
SETUP_REPEATS = 5
MIN_SAMPLES = 3  # per batch operation, so that each median has a middle
MIN_APPENDS = 100  # so that update_ms_p90 has at least 10 samples beyond it
MIN_OP_S = 4.0  # per operation, so that cheap operations get many samples
HARD_LIMIT_S = 150  # stop scheduling past this, even short of the minimums
MODULES = ("cli", "regress", "incremental", "numeric", "oracle", "partitions")
ROLES = (("fit", False), ("exact", True), ("stream", False))


# -- correctness gate -----------------------------------------------------

def evaluations_ok(evaluations, m, n):
    """A fit of m points and n terms sums C(m,n) denominator terms and n^2
    C(m,n-1) minor-sum terms; a stream from empty to m points sums the same."""
    return evaluations == comb(m, n) + n * n * comb(m, n - 1)


def exact_ok(result, reference, m, n):
    return result.coefficients == reference and evaluations_ok(result.evaluations, m, n)


def basis_scales(d, data):
    """s^d_i for s = max |x_k|: the size of each model column on the data."""
    s = Fraction(max(abs(complex(v)) for v in data.x))
    return [s**di for di in d]


def coef_digits(values, reference, scales):
    """-log10 of the largest relative coefficient error of the complex
    `values` against the exact `reference` scalars, clamped to [-20, 20].

    Coefficients are compared in the basis (x/s)^d_i, that is multiplied by
    `scales`, and relative to the largest reference coefficient there: a
    coefficient that is zero or tiny on the data would make its own ratio
    meaningless, and the basis makes the measure independent of the units of x.
    """
    worst, top = Fraction(0), Fraction(0)
    for value, ref, scale in zip(values, reference, scales, strict=True):
        dre, dim = Fraction(value.real) - ref.re, Fraction(value.imag) - ref.im
        worst = max(worst, (dre * dre + dim * dim) * scale * scale)
        top = max(top, (ref.re * ref.re + ref.im * ref.im) * scale * scale)
    return -math.log10(min(max(math.sqrt(worst / top if top else worst), 1e-20), 1e20))


# -- calibration ------------------------------------------------------------
#
# On a shared host the speed of the processor swings by up to 2x from one
# second to the next, far more than the bounds a regression is judged by.  So
# for the whole run a SIGALRM handler times a fixed pure-Python kernel, with
# the package's mix of small-object float arithmetic and Fraction arithmetic,
# every PROBE_S; the handler's time is taken out of any timed call it
# interrupts.  A timed call's seconds are scaled by CALIBRATION_S over the mean
# kernel time of the ticks during the call and within WINDOW_S either side of
# it, so reported seconds are seconds on a host that runs the kernel in
# CALIBRATION_S.  The kernel does not touch the package: a change to the
# package moves the reported times as it moves the raw ones.

CALIBRATION_S = 5e-4
PROBE_S = 0.01
WINDOW_S = 0.2


class _Pair:
    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re = re
        self.im = im

    def mul(self, other):
        return _Pair(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)


def _kernel_seconds():
    start = perf_counter()
    z, step, q = _Pair(1.0, 0.0), _Pair(0.6, 0.8), Fraction(1, 3)
    for i in range(600):
        z = z.mul(step)
        if i % 20 == 0:
            q = q * Fraction(3, 5) + Fraction(2, 5)
    return perf_counter() - start


class Calibrator:
    """Kernel ticks for the duration of a `with` block, and timed calls."""

    def __init__(self):
        self.began = []  # tick start times, increasing
        self.kernel = []  # kernel seconds per tick
        self._spent = []  # handler seconds per tick
        self._ticking = False

    def _on_tick(self, signum, frame):
        if self._ticking:  # a tick that arrives during a tick is dropped
            return
        self._ticking = True
        try:
            began = perf_counter()
            kernel = _kernel_seconds()
            self._spent.append(perf_counter() - began)
            self.kernel.append(kernel)
            self.began.append(began)
        finally:
            self._ticking = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args):
        """Run fn(*args); returns (result, sample) where the sample holds the
        call's interval and its seconds without the ticks inside it."""
        start = perf_counter()
        out = fn(*args)
        end = perf_counter()
        inside = self._spent[bisect.bisect_left(self.began, start) : bisect.bisect_left(self.began, end)]
        return out, (start, end, end - start - sum(inside))

    def seconds(self, sample):
        """The sample's seconds scaled to the calibration host."""
        start, end, seconds = sample
        lo = bisect.bisect_left(self.began, start - WINDOW_S)
        hi = bisect.bisect_right(self.began, end + WINDOW_S)
        return seconds * CALIBRATION_S / statistics.fmean(self.kernel[lo:hi])


# -- set-up -----------------------------------------------------------------

def _literal(v):
    if isinstance(v, complex):
        re, im = Fraction(v.real), Fraction(v.imag)
        return f"{re}{'' if im < 0 else '+'}{im}i"
    return repr(v) if isinstance(v, float) else str(v)


def write_csv(path, rows, weighted):
    lines = ["x,y,w" if weighted else "x,y"]
    lines += [",".join(_literal(v) for v in row) for row in rows]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


class Context:
    """The freshly imported package, the parsed inputs and their references."""

    def __init__(self, workload, modules, paths, data):
        self.workload = workload
        self.modules = modules
        self.paths = paths
        self.data = data
        self.d = modules["partitions"].Exponents(workload.degrees)
        self.refs = None
        self.scales = None

    def compute_references(self):
        """Exact normal-equation solutions of every input, floats lifted
        exactly to Fraction."""
        solve = self.modules["oracle"].solve_normal
        self.refs = {role: solve(self.d, self.lift(self.data[role])) for role, _ in ROLES}
        self.scales = {role: basis_scales(self.d, self.data[role]) for role, _ in ROLES}

    def lift(self, data):
        scalar = self.modules["numeric"].Scalar

        def exact(values):
            return [scalar.from_exact(v.re, v.im) for v in values]

        w = exact(data.w) if data.w is not None else None
        return self.modules["regress"].DataSet(exact(data.x), exact(data.y), w)


def setup(workload, seed, src, workdir):
    """One cold set-up: import, input generation, CSV write and parse, and a
    warm-up fit that fills the symfunc caches."""
    for name in [n for n in sys.modules if n == "schurfit" or n.startswith("schurfit.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"schurfit.{name}") for name in MODULES}
    if not os.path.abspath(modules["cli"].__file__).startswith(src + os.sep):
        raise RuntimeError(f"schurfit was imported from {modules['cli'].__file__}, not from {src}")
    inputs = workload.generate(seed)
    paths, data = {}, {}
    for role, exact in ROLES:
        paths[role] = os.path.join(workdir, f"{workload.name}-{role}.csv")
        write_csv(paths[role], getattr(inputs, role), workload.weighted)
        data[role] = modules["cli"].read_dataset(paths[role], exact, workload.weighted)
    ctx = Context(workload, modules, paths, data)
    fit_data, n = data["fit"], len(ctx.d)
    prefix = modules["regress"].DataSet(
        fit_data.x[:n], fit_data.y[:n], fit_data.w[:n] if fit_data.w is not None else None
    )
    modules["regress"].fit(ctx.d, prefix)
    return ctx


# -- timed operations -----------------------------------------------------

class Bench:
    """Timed calls into the package, their checks, and their samples."""

    def __init__(self, ctx, calibrator, tracer=None):
        self.ctx = ctx
        self.calibrator = calibrator
        self.tracer = tracer
        keys = ("fit_float", "fit_exact", "pinv", "update", "snapshot", "denominator", "read")
        self.samples = {key: [] for key in keys}
        self.snapshot_bytes = []
        self.digits = []
        self.fit_evaluations = None
        self.fit_denominator = None
        self.attempted = 0
        self.failed = 0

    def seconds(self, key):
        return [self.calibrator.seconds(sample) for sample in self.samples[key]]

    def busy(self):
        """Calibrated seconds of all timed calls."""
        return sum(sum(self.seconds(key)) for key in self.samples)

    def _span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def _timed(self, key, span, fn, *args):
        """Call fn(*args) with gc paused and record its sample under `key`."""

        def call():
            with self._span(span):
                return fn(*args)

        gc.collect()
        gc.disable()
        try:
            out, sample = self.calibrator.time(call)
        finally:
            gc.enable()
        self.samples[key].append(sample)
        self.attempted += 1
        return out

    def _check(self, ok, what):
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def _float_check(self, values, role, evaluations_are_ok, what):
        digits = coef_digits(values, self.ctx.refs[role], self.ctx.scales[role])
        self.digits.append(digits)
        self._check(evaluations_are_ok and digits >= DIGITS_FLOOR, f"{what} ({digits:.2f} digits)")

    def fit_float(self):
        ctx, data = self.ctx, self.ctx.data["fit"]
        result = self._timed("fit_float", "regress.fit/float", ctx.modules["regress"].fit, ctx.d, data)
        self.fit_evaluations, self.fit_denominator = result.evaluations, result.denominator
        ok = evaluations_ok(result.evaluations, data.m, len(ctx.d))
        self._float_check([complex(a) for a in result.coefficients], "fit", ok, "float fit")

    def fit_exact(self):
        ctx, data = self.ctx, self.ctx.data["exact"]
        result = self._timed("fit_exact", "regress.fit/exact", ctx.modules["regress"].fit, ctx.d, data)
        self._check(exact_ok(result, ctx.refs["exact"], data.m, len(ctx.d)), "exact fit")

    def pinv(self):
        ctx, data = self.ctx, self.ctx.data["fit"]
        p = self._timed("pinv", "regress.pseudoinverse", ctx.modules["regress"].pseudoinverse, ctx.d, data)
        ys = [complex(v) for v in data.y]
        shape_ok = len(p) == len(ctx.d) and all(len(row) == data.m for row in p)
        coefficients = [sum(complex(pk) * yk for pk, yk in zip(row, ys)) for row in p]
        self._float_check(coefficients, "fit", shape_ok, "pseudoinverse applied to y")

    def denominator(self):
        ctx = self.ctx
        regress = ctx.modules["regress"]
        value = self._timed("denominator", "regress.denominator", regress.denominator, ctx.d, ctx.data["fit"])
        self._check(self.fit_denominator is None or value == self.fit_denominator, "denominator")

    def read(self):
        ctx = self.ctx
        for role, exact in ROLES:
            read = ctx.modules["cli"].read_dataset
            data = self._timed("read", "cli.read_dataset", read, ctx.paths[role], exact, ctx.workload.weighted)
            self._check(data.m == ctx.data[role].m, f"read {role}")

    def _snapshot(self, state):
        """JSON round trip of a state, in memory: file system latency on a
        shared host would swamp the package's part."""
        incremental = self.ctx.modules["incremental"]
        with self._span("incremental.to_dict"):
            payload = state.to_dict()
        text = json.dumps(payload)  # ASCII, so one byte per character
        self.snapshot_bytes.append(len(text))
        payload = json.loads(text)
        with self._span("incremental.from_dict"):
            return incremental.RegressionState.from_dict(payload)

    def stream(self):
        ctx, data = self.ctx, self.ctx.data["stream"]
        incremental = ctx.modules["incremental"]
        state = incremental.init_state(ctx.d, exact=False)
        for k in range(data.m):
            w = data.w[k] if data.w is not None else None
            state = self._timed("update", "incremental.update", incremental.update, state, data.x[k], data.y[k], w)
            if (k + 1) % ctx.workload.snapshot_every == 0:
                restored = self._timed("snapshot", "incremental.snapshot", self._snapshot, state)
                self._check(restored == state, f"snapshot round trip at m={state.m}")
                state = restored
        ok = state.m == data.m and evaluations_ok(state.evaluations, data.m, len(ctx.d))
        self._float_check([complex(a) for a in state.coefficients], "stream", ok, "stream")

    def _guarded(self, op):
        """Run one operation; an exception counts as one failed attempt."""
        try:
            op()
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1

    def measure(self, seconds):
        """Bring every operation to its minimum, least time spent first, then
        give the four operations equal time shares until `seconds` have
        passed.  An operation's minimum is MIN_OP_S of work and a count of
        calls (fits) or appends (stream passes, which are never cut short)."""
        appends = self.ctx.data["stream"].m
        ops = [
            (self.fit_float, 1, MIN_SAMPLES),
            (self.fit_exact, 1, MIN_SAMPLES),
            (self.pinv, 1, MIN_SAMPLES),
            (self.stream, appends, MIN_APPENDS),
        ]
        done = [0] * len(ops)
        spent = [0.0] * len(ops)
        start = perf_counter()
        while perf_counter() - start < HARD_LIMIT_S:
            short = [i for i, (_, _, least) in enumerate(ops) if done[i] < least or spent[i] < MIN_OP_S]
            if not short and perf_counter() - start >= seconds:
                break
            i = min(short or range(len(ops)), key=lambda j: spent[j])
            op, units, _ = ops[i]
            began = perf_counter()
            self._guarded(op)
            spent[i] += perf_counter() - began
            done[i] += units

    def sequence(self):
        """Each operation once, in a fixed order, for the traced run."""
        for op in (self.read, self.fit_float, self.fit_exact, self.pinv, self.denominator, self.stream):
            self._guarded(op)


# -- metrics --------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else None


def end_to_end_values(bench, setup_seconds, peak_rss_mb):
    update_ms = [v * 1e3 for v in bench.seconds("update")]
    return {
        "setup_s": _median(setup_seconds),
        "fit_float_s": _median(bench.seconds("fit_float")),
        "fit_exact_s": _median(bench.seconds("fit_exact")),
        "pinv_s": _median(bench.seconds("pinv")),
        "update_ms_p50": _median(update_ms),
        "update_ms_p90": statistics.quantiles(update_ms, n=10)[-1] if len(update_ms) > 1 else None,
        "snapshot_ms": _median([v * 1e3 for v in bench.seconds("snapshot")]),
        "coef_digits": min(bench.digits) if bench.digits else None,
        "peak_rss_mb": peak_rss_mb,
    }


def layer_values(tracer, bench, scale, overhead_s):
    """Per-layer numbers from the spans; span seconds are multiplied by
    `scale`, the calibration of the traced pass as a whole."""
    agg = tracer.aggregate()
    ctx = bench.ctx
    n, m = len(ctx.d), ctx.data["fit"].m
    denominator_s = agg["regress.denominator"]["total"] * scale
    parse = agg["numeric.parse_scalar"]
    fits_self = agg["regress.fit/float"]["self"] + agg["regress.fit/exact"]["self"]
    return {
        "symfunc.schur_s": agg["symfunc.schur"]["total"] * scale,
        "symfunc.schur_calls": agg["symfunc.schur"]["count"],
        "symfunc.vandermonde_s": agg["symfunc.vandermonde"]["total"] * scale,
        "regress.denominator_s": denominator_s,
        "regress.us_per_d_subset": denominator_s / comb(m, n) * 1e6,
        "regress.fit_self_s": fits_self * scale,
        "numeric.scalar_ops": tracer.scalar_ops,
        "regress.d_subsets": tracer.count_children("regress.fit/float", "symfunc.vandermonde", n),
        "regress.s_subsets": tracer.count_children("regress.fit/float", "symfunc.vandermonde", n - 1),
        "regress.evaluations": bench.fit_evaluations,
        "incremental.update_self_s": agg["incremental.update"]["self"] * scale,
        "incremental.to_dict_ms": _median(agg["incremental.to_dict"]["durations"]) * scale * 1e3,
        "incremental.from_dict_ms": _median(agg["incremental.from_dict"]["durations"]) * scale * 1e3,
        "incremental.snapshot_bytes": _median(bench.snapshot_bytes),
        "cli.read_dataset_ms": agg["cli.read_dataset"]["total"] * scale * 1e3,
        "numeric.parse_us": parse["total"] * scale / parse["count"] * 1e6 if parse["count"] else None,
        "trace.overhead_s": overhead_s,
    }


def _with_units(values, declared):
    return {name: {"value": values[name], "unit": unit} for name, unit in declared}


# -- one run ----------------------------------------------------------------

def run(workload, seed, seconds, trace, src, workdir):
    """Run one workload on the package under `src`, writing its files to
    `workdir`, and print its report; the last line is the JSON result.
    Returns the process exit code: 0 only if every check passed."""
    os.makedirs(workdir, exist_ok=True)
    with Calibrator() as calibrator:
        setups = []
        for _ in range(SETUP_REPEATS):
            ctx, sample = calibrator.time(setup, workload, seed, src, workdir)
            setups.append(sample)
        ctx.compute_references()
        if trace:
            untraced = Bench(ctx, calibrator)
            untraced.sequence()
            tracer = Tracer()
            traced = Bench(ctx, calibrator, tracer)
            with tracer.installed(ctx.modules):
                start = perf_counter()
                traced.sequence()
                traced_pass = (start, perf_counter(), 1.0)
            benches = (untraced, traced)
        else:
            bench = Bench(ctx, calibrator)
            bench.measure(seconds)
            benches = (bench,)

    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "calibration_kernel_ms": statistics.median(calibrator.kernel) * 1e3,
        "samples": {key: len(values) for key, values in benches[-1].samples.items() if values},
    }
    if trace:
        tracer.write(os.path.join(workdir, f"{workload.name}-spans.csv"))
        overhead_s = traced.busy() - untraced.busy()
        scale = calibrator.seconds(traced_pass)
        metrics = _with_units(layer_values(tracer, traced, scale, overhead_s), PER_LAYER)
        detail.update(untraced_busy_s=untraced.busy(), traced_busy_s=traced.busy(), spans=len(tracer.spans))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_seconds = [calibrator.seconds(sample) for sample in setups]
        metrics = _with_units(end_to_end_values(bench, setup_seconds, rss_mb), END_TO_END)
        detail["samples"]["setup"] = len(setups)

    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches)
    for name, metric in metrics.items():
        print(f"{workload.name}\t{name}\t{metric['value']}\t{metric['unit']}")
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1
