"""Run the benchmark on a parent commit and on the working tree in pairs.

The comparison is written to BENCH_<label>.json at the root of the checkout.

    python3 tools/ab_bench.py --label 32 --parent HEAD [--workdir DIR]

Each side runs the unmodified `perfbench/run.py` of its own copy of the tree:
the parent side a `git archive` of the parent commit, the change side a copy
of the working tree's `src/` and `perfbench/`.  Every workload of the
benchmark gets ten pairs of runs, on the seeds 101-110; pair k runs the parent
first when k is even and the change first when k is odd, so that a drift of
the host's speed weighs on both sides alike.  Each run is
`PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload W --seed S
--seconds R --trace 0`, R being BENCHMARK.json's run_seconds, with every
`__pycache__` removed from both copies before it, so that no run reuses
bytecode that another one compiled.

The file holds the label, the Python version, the host, the parent commit,
the protocol, every run with the raw JSON line it printed last, and a summary
(`summarize`) of each end-to-end metric that BENCHMARK.json declares.
Standard library only.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(101, 111)
SIDES = ("parent", "change")

PROTOCOL = (
    "ten pairs per workload on seeds 101-110; pair k runs the parent first when k is even and the change "
    "first when k is odd; each run is PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload W "
    "--seed S --seconds {seconds:g} --trace 0 in its own copy of the tree (the parent from git archive, "
    "the change a copy of the working tree's src/ and perfbench/), with every __pycache__ removed from "
    "both copies before each run"
)
METRICS = (
    "runs[].last_line is the raw JSON line each run printed last; summary gives, per workload and "
    "end-to-end metric, the quartiles [q1, median, q3] over the runs of each side (statistics.quantiles, "
    "exclusive method), the ratio of medians (change / parent) and the pairs in which each side was "
    "better, by the metric's direction in BENCHMARK.json; a tie counts for neither side"
)


def _value(run, metric):
    """The metric's value in a run's last line, or None if the run printed
    no result or not this metric."""
    try:
        return json.loads(run["last_line"])["metrics"][metric]["value"]
    except (TypeError, ValueError, KeyError):
        return None


def summarize(runs, metrics):
    """{workload: {metric: summary}} of `runs` (dicts with workload, pair,
    side and last_line) for `metrics`, a list of (name, better) with better
    "lower" or "higher".

    A summary holds each side's [q1, median, q3], the ratio of the medians
    (change / parent), the pairs won by the change and by the parent, and the
    number of pairs in which both runs gave the metric.  A run without the
    metric is left out of its side's quartiles and its pair of the count."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        out[workload] = {}
        for metric, better in metrics:
            values = {side: [] for side in SIDES}
            pairs = {}
            for run in mine:
                v = _value(run, metric)
                if v is not None:
                    values[run["side"]].append(v)
                    pairs.setdefault(run["pair"], {})[run["side"]] = v
            both = [p for p in pairs.values() if len(p) == 2]
            sign = 1 if better == "lower" else -1
            summary = {f"{side}_q1_median_q3": _quartiles(values[side]) for side in SIDES}
            medians = [summary[f"{side}_q1_median_q3"][1] for side in SIDES]
            summary["ratio_of_medians"] = medians[1] / medians[0] if medians[0] and medians[1] is not None else None
            summary["change_wins"] = sum(sign * (p["change"] - p["parent"]) < 0 for p in both)
            summary["parent_wins"] = sum(sign * (p["parent"] - p["change"]) < 0 for p in both)
            summary["pairs"] = len(both)
            out[workload][metric] = summary
    return out


def _quartiles(values):
    """[q1, median, q3] of `values` by the exclusive method, or the value
    itself three times for a single value, or Nones for none."""
    if len(values) < 2:
        return [values[0]] * 3 if values else [None] * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return [q1, median, q3]


def table(summary):
    """The summary as Markdown table rows, one per workload and metric."""
    lines = [
        "| workload | metric | parent median [q1–q3] | change median [q1–q3] | change | pairs won |",
        "|---|---|---|---|---|---|",
    ]
    for workload, metrics in summary.items():
        for metric, s in metrics.items():
            (p1, pm, p3), (c1, cm, c3) = ([_g(v) for v in s[f"{side}_q1_median_q3"]] for side in SIDES)
            ratio = s["ratio_of_medians"]
            change = f"{(ratio - 1) * 100:+.1f} %" if ratio is not None else "n/a"
            lines.append(
                f"| {workload} | `{metric}` | {pm} [{p1}–{p3}] | {cm} [{c1}–{c3}] | {change} | {s['change_wins']}/{s['pairs']} |"
            )
    return "\n".join(lines)


def _g(value):
    return "n/a" if value is None else f"{value:.4g}"


def _clear_bytecode(tree):
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def _copies(parent, workdir):
    """The parent copy, from git archive, and the change copy, from the
    working tree, under `workdir`; and the parent's full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", parent], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    trees = {side: workdir / side for side in SIDES}
    for tree in trees.values():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, trees["change"] / part, ignore=ignore)
    return trees, commit


def _run(tree, workload, seed, seconds, trees):
    """One benchmark run in `tree`: its exit status and last output line."""
    for other in trees.values():
        _clear_bytecode(other)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", f"{seconds:g}", "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=seconds * 10 + 300)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else ""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the <label> of BENCH_<label>.json")
    parser.add_argument("--parent", default="HEAD", help="the parent commit (default HEAD)")
    parser.add_argument("--workdir", type=Path, default=None, help="where the two copies go (default: a temp dir)")
    parser.add_argument("--host", default=f"{os.cpu_count()}-core {platform.system()}", help="host description")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="ab_bench-"))
    try:
        trees, commit = _copies(args.parent, workdir)
        runs = []
        for workload in (w["name"] for w in bench["workloads"]):
            for pair, seed in enumerate(SEEDS):
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    status, last = _run(trees[side], workload, seed, seconds, trees)
                    run = {"workload": workload, "pair": pair, "side": side, "seed": seed, "exit": status}
                    runs.append(dict(run, last_line=last))
                    print(f"{workload} pair {pair} {side}: exit {status}", file=sys.stderr, flush=True)
    finally:
        if args.workdir is None:  # a temp dir of this run's own
            shutil.rmtree(workdir, ignore_errors=True)
    summary = summarize(runs, metrics)
    result = {
        "label": args.label,
        "python": platform.python_version(),
        "host": args.host,
        "parent": commit,
        "protocol": PROTOCOL.format(seconds=seconds),
        "metrics": METRICS,
        "runs": runs,
        "summary": summary,
    }
    (ROOT / f"BENCH_{args.label}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(table(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
