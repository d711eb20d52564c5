"""Rhino's benchmark: named workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload drain_wide_keys --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs as a fresh ``iteration.py`` subprocess, one at a time,
repeated while one more still ends within ``--seconds``; wall-clock metrics
are the median over iterations, simulated metrics (from the virtual
clock) are exact for a seed and must repeat across iterations.

* ``--trace 0`` prints the end-to-end metrics, measured with tracing off.
* ``--trace 1`` alternates untraced and traced iterations and prints the
  per-layer counts and self times, plus ``trace.overhead_ratio`` (traced
  over untraced wall time).  Spans go to ``perfbench/traces/``.

Every run is appended, with its provenance (commit, dirty flag, Python,
CPU count, platform, seed), to ``perfbench/history.jsonl``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (correctness checks) and ``metrics``.  The workloads, the
reason each was chosen and the layer -> metric -> workload predictions
are in ``perfbench/predictions.json``.
"""

import argparse
import datetime
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import layers

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
HISTORY = HERE / "history.jsonl"
TRACES = HERE / "traces"

WORKLOADS = ("drain_wide_keys", "flash_crowd", "large_state_reconfig")

#: name -> (unit, simulated).  All twelve are printed for every workload.
END_TO_END = {
    "wall_s": ("s", False),
    "cpu_s": ("s", False),
    "records_per_s": ("records/s", False),
    "setup_s": ("s", False),
    "peak_rss_mb": ("MB", False),
    "latency_p50_ms": ("ms", True),
    "latency_p99_ms": ("ms", True),
    "stall_p99_ms": ("ms", True),
    "drain_s": ("s", True),
    "rebalance_s": ("s", True),
    "recovery_s": ("s", True),
    "checks_failed": ("fraction", False),
}

#: The end-to-end metrics of the result line: those with a value on every
#: workload (a workload with no drain has no ``drain_s``).
RESULT_METRICS = (
    "wall_s",
    "cpu_s",
    "records_per_s",
    "setup_s",
    "peak_rss_mb",
    "latency_p50_ms",
    "latency_p99_ms",
)

#: Wall-clock budget for one iteration subprocess (seconds).
ITERATION_TIMEOUT = 170


def provenance(seed, seconds):
    """Where and on what a result was measured."""
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout.strip()
            dirty = bool(
                subprocess.run(
                    ["git", "status", "--porcelain", "--untracked-files=no"],
                    cwd=ROOT,
                    capture_output=True,
                    text=True,
                    timeout=30,
                    check=True,
                ).stdout.strip()
            )
        except (OSError, subprocess.SubprocessError):
            commit, dirty = "unknown", None
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def run_iteration(workload, seed, trace, small):
    """One fresh-process run of ``workload``; returns its result dict."""
    command = [
        sys.executable,
        str(HERE / "iteration.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
    ]
    if small:
        command.append("--small")
    if trace:
        command += ["--trace-out", str(TRACES / f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            # A fixed string-hash seed: dict and set layouts, and so the
            # work they cost, repeat from one iteration to the next.
            env=dict(os.environ, PYTHONHASHSEED="0"),
            capture_output=True,
            text=True,
            timeout=ITERATION_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"iteration exceeded {ITERATION_TIMEOUT} s"}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"iteration exited {done.returncode}: {tail[0]}"}
    if result.get("error"):
        sys.stderr.write(done.stderr)
    return result


def simulated_signature(result):
    keys = (
        "records",
        "latency_p50_s",
        "latency_p99_s",
        "stall_p99_s",
        "stall_samples",
        "reconfig_s",
        "checks_attempted",
        "checks_failed",
    )
    return json.dumps({key: result.get(key) for key in keys}, sort_keys=True)


def _ms(seconds):
    return None if seconds is None else seconds * 1000.0


def summarize(workload, untraced, traced):
    """Reduce iterations to the workload's metrics and check counts."""
    ok = [r for r in untraced if not r.get("error")]
    errors = [r["error"] for r in untraced + traced if r.get("error")]
    summary = {
        "workload": workload,
        "iterations": len(untraced),
        "traced_iterations": len(traced),
        "errors": errors,
        "metrics": {},
        "layers": {},
    }
    runs = ok + [r for r in traced if not r.get("error")]
    failures = sorted({m for r in runs for m in r["failures"]})[:20]
    # An iteration that raised is one failed check.
    attempted = sum(r["checks_attempted"] for r in runs) + len(errors)
    failed = sum(r["checks_failed"] for r in runs) + len(errors)
    if len(runs) > 1:
        # Simulated results are exact for a seed: every iteration repeats.
        attempted += 1
        if len({simulated_signature(r) for r in runs}) > 1:
            failed += 1
            failures.append("simulated metrics differ between iterations")
    summary["attempted"] = attempted
    summary["failed"] = failed
    summary["failures"] = failures
    if not ok:
        return summary

    def median(key):
        return statistics.median(r[key] for r in ok)

    first = ok[0]
    reconfig = first["reconfig_s"]
    summary["stall_samples"] = first["stall_samples"]
    summary["per_iteration"] = {
        key: [r[key] for r in ok] for key in ("wall_s", "cpu_s", "setup_samples")
    }
    summary["metrics"] = {
        "wall_s": median("wall_s"),
        "cpu_s": median("cpu_s"),
        "records_per_s": statistics.median(r["records"] / r["wall_s"] for r in ok),
        "setup_s": statistics.median(
            sample for r in ok for sample in r["setup_samples"]
        ),
        "peak_rss_mb": median("peak_rss_mb"),
        "latency_p50_ms": _ms(first["latency_p50_s"]),
        "latency_p99_ms": _ms(first["latency_p99_s"]),
        "stall_p99_ms": _ms(first["stall_p99_s"]),
        "drain_s": reconfig.get("drain"),
        "rebalance_s": reconfig.get("rebalance"),
        "recovery_s": reconfig.get("failure"),
        "checks_failed": failed / summary["attempted"],
    }
    layer_runs = [r["layers"] for r in traced if not r.get("error")]
    if layer_runs:
        for name in layer_runs[0]:
            values = [lr[name] for lr in layer_runs]
            summary["layers"][name] = (
                None if None in values else statistics.median(values)
            )
        summary["layers"]["trace.overhead_ratio"] = statistics.median(
            r["traced_wall_s"] for r in traced if not r.get("error")
        ) / statistics.median(r["wall_s"] + r["setup_s"] for r in ok)
    return summary


def format_value(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_summary(summary, trace):
    name = summary["workload"]
    print(
        f"== {name}: {summary['iterations']} untraced + "
        f"{summary['traced_iterations']} traced iterations; checks attempted "
        f"{summary['attempted']}, failed {summary['failed']}"
    )
    for error in summary["errors"]:
        print(f"   ERROR {error}")
    for failure in summary["failures"]:
        print(f"   FAILED {failure}")
    if summary["metrics"]:
        for metric, (unit, simulated) in END_TO_END.items():
            note = " (simulated)" if simulated else ""
            if metric == "stall_p99_ms" and summary.get("stall_samples"):
                note += f" over {summary['stall_samples']} samples"
            print(
                f"   {metric:<16} {format_value(summary['metrics'][metric]):>14} "
                f"{unit}{note}"
            )
    if trace:
        for metric, value in summary["layers"].items():
            unit = layers.layer_unit(metric)
            print(f"   {metric:<44} {format_value(value):>14} {unit}")


def result_line(summaries, trace):
    """The contract's last line: checks and the metrics of the mode."""
    correct = all(s["failed"] == 0 and s["metrics"] for s in summaries)
    metrics = {}
    for summary in summaries:
        prefix = "" if len(summaries) == 1 else f"{summary['workload']}."
        if trace:
            chosen = {
                name: (value, layers.layer_unit(name))
                for name, value in summary["layers"].items()
            }
        else:
            chosen = {
                name: (summary["metrics"].get(name), END_TO_END[name][0])
                for name in RESULT_METRICS
                if summary["metrics"]
            }
        for name, (value, unit) in chosen.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def bench_workload(workload, seed, seconds, trace, small):
    """Iterate (at least once) while another round still ends within
    ``seconds``, so a run takes about ``seconds`` and not a round more."""
    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        untraced.append(run_iteration(workload, seed, 0, small))
        if trace:
            traced.append(run_iteration(workload, seed, 1, small))
        elapsed = time.perf_counter() - started
        per_round = elapsed / len(untraced)
        if elapsed + per_round > min(seconds, 150):
            break
        if all(r.get("error") for r in untraced):
            break
    return summarize(workload, untraced, traced)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true", help="reduced sizes (self-tests)"
    )
    parser.add_argument(
        "--no-history", action="store_true", help="do not append to the history"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no program sources under {ROOT / 'src'}; nothing to run\n")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    stamp = provenance(args.seed, args.seconds)
    print(
        "provenance: "
        + ", ".join(f"{key}={value}" for key, value in stamp.items())
    )
    summaries = []
    for name in names:
        summary = bench_workload(name, args.seed, args.seconds, args.trace, args.small)
        summaries.append(summary)
        print_summary(summary, args.trace)
        if not args.no_history:
            with HISTORY.open("a") as history:
                record = dict(
                    summary, provenance=stamp, trace=args.trace, small=args.small
                )
                history.write(json.dumps(record) + "\n")
    print(json.dumps(result_line(summaries, args.trace)))
    return 1 if any(s["errors"] and not s["metrics"] for s in summaries) else 0


if __name__ == "__main__":
    sys.exit(main())
