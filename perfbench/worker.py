"""One benchmark process for one workload: import spinlab from the source
tree, generate the replica inputs, run the replicas (traced when asked) and
write a result file. run.py starts it; it prints nothing on stdout.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
        --result PATH [--spans PATH] [--setup-only]

`ready` in the result is time.monotonic() just before the first replica
starts, so the parent can time set-up from the moment it spawned us.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import asdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_replicas(workload, specs, scratch, tracer=None):
    """Run every replica; a replica fails when it raises or a check fails.

    A replica's `seconds` (and `user_s`, `sys_s`) cover only the run phases
    of its steps, the program's work. The checks run outside that window and,
    in the traced run, untraced; `check_s` is their time and `check_rss_mb`
    how far they raised the process's peak RSS."""
    records = []
    for index, spec in enumerate(specs):
        workdir = tempfile.mkdtemp(prefix=f"replica{index}-", dir=scratch)
        checks, error = [], None
        seconds = user_s = sys_s = check_s = check_rss_mb = 0.0
        if tracer is not None:
            tracer.replica = index
        try:
            for run, check in workload.steps(spec, workdir):
                usage = resource.getrusage(resource.RUSAGE_SELF)
                start = time.perf_counter()
                out = run()
                end = time.perf_counter()
                after = resource.getrusage(resource.RUSAGE_SELF)
                seconds += end - start
                user_s += after.ru_utime - usage.ru_utime
                sys_s += after.ru_stime - usage.ru_stime
                peak = _peak_rss_mb()
                with tracer.paused() if tracer is not None else contextlib.nullcontext():
                    checks.extend(check(out))
                del out
                check_s += time.perf_counter() - end
                check_rss_mb += _peak_rss_mb() - peak
        except Exception as exc:  # a failed replica is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        records.append(
            {
                "index": index,
                "seconds": seconds,
                "user_s": user_s,
                "sys_s": sys_s,
                "check_s": check_s,
                "check_rss_mb": check_rss_mb,
                "error": error,
                "checks": [asdict(c) for c in checks],
                "ok": error is None and all(c.ok for c in checks),
            }
        )
    return records


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    count = workloads.replica_count(workload, args.seconds)
    specs = [workload.inputs(args.seed, i) for i in range(count)]
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result["ready"] = time.monotonic()
    if not args.setup_only:
        scratch = os.path.dirname(os.path.abspath(args.result))
        try:
            result["replicas"] = run_replicas(workload, specs, scratch, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.write(args.spans)
        result["peak_rss_mb"] = _peak_rss_mb()
    with open(args.result, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
