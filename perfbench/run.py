"""spinlab benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload ascent|parisi|ensemble|all \
        --seed N --seconds S --trace 0|1

Run from the repository root; spinlab is imported from ./src as it stands.
Each measurement runs in a fresh worker process (worker.py) with one BLAS
thread. With --trace 0 the last stdout line carries the end-to-end metrics
of BENCHMARK.json; with --trace 1 an untraced and a traced worker run the
same replicas and the line carries the per-layer metrics, computed from the
traced run's span file. Results, span files and the machine description go
to .perfbench-out/. The exit status is 0 only when every replica passed its
correctness checks.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from tracing import METRICS, layer_metrics, read_spans, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("ascent", "parisi", "ensemble")
SETUP_PROBES = 5  # extra set-up-only workers; setup_s is the median over all
TIME_LIMIT_S = 170.0  # per workload, inside the 180 s a run may take
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker(workload, seed, seconds, trace, tag, deadline, setup_only=False):
    """Spawn one worker and wait for it; returns (result dict, spawn time)."""
    result = os.path.join(OUT, f"{tag}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--result", result,
    ]
    if trace:
        cmd += ["--spans", os.path.join(OUT, f"{tag}.spans.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **{v: str(BLAS_THREADS) for v in THREAD_VARS})
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the {TIME_LIMIT_S:.0f} s limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"{workload} worker exited with status {code}")
    with open(result) as f:
        data = json.load(f)
    os.remove(result)
    return data, spawned


def _wall(replicas):
    """The replicas' summed run-phase time: the program's work, checks left out."""
    return sum(r["seconds"] for r in replicas)


def end_to_end(plain, setups):
    reps = plain["replicas"]
    wall = _wall(reps)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "replicas_per_s": (len(reps) / wall, "1/s"),
        "replica_p50_s": (statistics.median(r["seconds"] for r in reps), "s"),
        "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
    }


def measure(workload, seed, seconds, trace):
    """Run one workload; returns the report dict."""
    deadline = time.monotonic() + TIME_LIMIT_S
    tag = f"{workload}-seed{seed}-trace{trace}-pid{os.getpid()}"
    setups = []
    if not trace:
        for k in range(SETUP_PROBES):
            probe, spawned = _worker(workload, seed, seconds, 0, f"{tag}-probe{k}", deadline, True)
            setups.append(probe["ready"] - spawned)
    plain, spawned = _worker(workload, seed, seconds, 0, f"{tag}-plain", deadline)
    setups.append(plain["ready"] - spawned)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "runs": {"plain": plain},
        "end_to_end": end_to_end(plain, setups),
        "setup_samples": setups,
    }
    replicas = list(plain["replicas"])
    if trace:
        traced, _ = _worker(workload, seed, seconds, 1, f"{tag}-traced", deadline)
        spans_path = os.path.join(OUT, f"{tag}-traced.spans.jsonl")
        spans = read_spans(spans_path)
        overhead = _wall(traced["replicas"]) - _wall(plain["replicas"])
        values = layer_metrics(spans, overhead)
        units = dict(METRICS)
        report["runs"]["traced"] = traced
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
        report["per_layer"] = {k: (v, units[k]) for k, v in values.items()}
        replicas += traced["replicas"]
        self_total = values["tracing.self_s_total"]
        # spans nest inside replicas, so their self times cannot exceed the wall
        report["self_within_wall"] = self_total <= _wall(traced["replicas"])
    report["attempted"] = len(replicas)
    report["failed"] = sum(1 for r in replicas if not r["ok"])
    report["correct"] = report["failed"] == 0 and report.get("self_within_wall", True)
    return report


def machine_info():
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "blas_thread_vars": list(THREAD_VARS),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    info["cpu_model"] = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read_lines("/proc/cpuinfo")
            if line.startswith("model name")
        ),
        "unknown",
    )
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level = "".join(_read_lines(os.path.join(index, "level"))).strip()
        kind = "".join(_read_lines(os.path.join(index, "type"))).strip()
        size = "".join(_read_lines(os.path.join(index, "size"))).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            info[f"L{level}"] = size
    info["git_commit"] = _git_commit()
    info["src_sha256"] = _source_digest()
    return info


def _read_lines(path):
    try:
        with open(path) as f:
            return f.readlines()
    except OSError:
        return []


def _git_commit():
    """HEAD when ROOT is itself a git work tree; None in a plain checkout."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest():
    """SHA-256 over src/**/*.py (path and content), identifying the code
    measured when there is no git commit."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def print_report(report):
    w = report["workload"]
    machine = report["machine"]
    plain = report["runs"]["plain"]
    print(f"== {w}  seed={report['seed']}  seconds={report['seconds']}  trace={report['trace']}")
    print("machine: " + "  ".join(f"{k}={v}" for k, v in machine.items() if k != "blas_thread_vars"))
    for run_name, run in report["runs"].items():
        for r in run["replicas"]:
            status = "ok" if r["ok"] else f"FAILED {r['error'] or ''}"
            print(
                f"{w} {run_name} replica {r['index']}: {r['seconds']:.3f} s "
                f"(user {r['user_s']:.3f} s, sys {r['sys_s']:.3f} s; checks {r['check_s']:.3f} s, "
                f"+{r['check_rss_mb']:.1f} MB peak RSS, untimed) {status}"
            )
            for c in r["checks"]:
                mark = "ok  " if c["ok"] else "FAIL"
                print(f"    {mark} {c['name']}: {c['value']:.6g} (limit {c['limit']:.6g})")
    e2e = report["end_to_end"]
    n = len(plain["replicas"])
    for name, (value, unit) in e2e.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(report['setup_samples'])} set-ups)"
        elif name == "replica_p50_s":
            note = f"  (median of {n} replicas; too few for a tail percentile)"
        print(f"{w} {name:<16} {value:12.6g} {unit}{note}")
    check_s = sum(r["check_s"] for r in plain["replicas"])
    check_rss = sum(r["check_rss_mb"] for r in plain["replicas"])
    print(
        f"{w} checks (outside wall_s): {check_s:.3f} s, "
        f"{check_s / (check_s + e2e['wall_s'][0]):.1%} of replica time; raised peak RSS by {check_rss:.1f} MB"
    )
    failed = sum(1 for r in plain["replicas"] if not r["ok"])
    print(f"{w} {'error_rate':<16} {failed / n:12.6g} 1  ({failed} of {n} replicas failed)")
    if report["trace"]:
        traced_wall = _wall(report["runs"]["traced"]["replicas"])
        untraced_wall = e2e["wall_s"][0]
        print(
            f"{w} tracing overhead: {traced_wall - untraced_wall:.4f} s "
            f"(traced wall_s {traced_wall:.4f} s - untraced wall_s {untraced_wall:.4f} s)"
        )
        table = summarize(read_spans(os.path.join(ROOT, report["spans_file"])))
        print(f"{w} {'layer / span':<30} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'errors':>6}")
        for key in sorted(table):
            row = table[key]
            busy = f"{row['busy_s']:10.4f}" if "busy_s" in row else f"{'':10}"
            print(f"{w} {key:<30} {row['calls']:8d} {busy} {row['self_s']:10.4f} {row['errors']:6d}")
        for name, (value, unit) in report["per_layer"].items():
            print(f"{w} {name:<40} {value:14.6g} {unit}")
    print(f"{w} correct: {report['correct']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "spinlab", "__init__.py")):
        print(f"perfbench: no spinlab source under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    machine = machine_info()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            report = measure(name, args.seed, args.seconds, args.trace)
            report["machine"] = machine
            print_report(report)
            path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w") as f:
                json.dump(report, f, indent=1)
            reports.append(report)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    key = "per_layer" if args.trace else "end_to_end"
    prefix = len(reports) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": u}
        for r in reports
        for k, (v, u) in r[key].items()
    }
    correct = all(r["correct"] for r in reports)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
