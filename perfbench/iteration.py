"""One workload run in a fresh process; prints its result as one JSON line.

``run.py`` starts this script once per iteration, one at a time, so every
iteration starts with cold program caches and its own peak RSS:

    python3 perfbench/iteration.py --workload drain_wide_keys --seed 1 --trace 0

With ``--trace 1`` the program's layer entry points are wrapped for the
run (see ``layers.py``), the per-layer metrics are added to the result,
and the spans are written to ``--trace-out``.
"""

import argparse
import gc
import json
import pathlib
import resource
import sys
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups timed per untraced iteration: the workload's own, then repeats
#: of the same public calls, so ``setup_s`` is a median of several.
SETUP_REPEATS = 5


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--trace-out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out = {"error": None}
    try:
        if args.trace:
            tracer = layers.LayerTracer()
            hash_before = layers.hash_cache_info()
            with tracer:
                run = workload(args.seed, small=args.small, pause=tracer.paused)
            hash_after = layers.hash_cache_info()
            out["traced_wall_s"] = tracer.wall
            out["layers"] = layers.layer_metrics(
                tracer, run.objects, run.records, hash_before, hash_after
            )
            if args.trace_out is not None:
                tracer.dump(args.trace_out)
        else:
            run = workload(args.seed, small=args.small)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = [run.setup_s]
        if not args.trace:
            run.objects.clear()
            for _ in range(SETUP_REPEATS - 1):
                gc.collect()  # the finished run's garbage is not set-up work
                samples.append(run.setup_again())
    except Exception as error:  # reported to run.py, which keeps going
        traceback.print_exc()
        out["error"] = f"{type(error).__name__}: {error}"
    else:
        out.update(
            wall_s=run.wall_s,
            cpu_s=run.cpu_s,
            setup_s=run.setup_s,
            records=run.records,
            latency_p50_s=run.latency_p50_s,
            latency_p99_s=run.latency_p99_s,
            stall_p99_s=run.stall_p99_s,
            stall_samples=run.stall_samples,
            reconfig_s=run.reconfig_s,
            checks_attempted=run.checks_attempted,
            checks_failed=run.checks_failed,
            failures=sorted(m for m in run.checks.values() if m is not None)[:20],
            setup_samples=samples,
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
