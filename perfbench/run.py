"""gbscavity benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload {mc_sweep,design_grid,cli_roundtrip} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from `src`,
so it need not be installed.  With --trace 0 the run reports the end-to-end
metrics of a fresh worker process that runs the workload for S seconds:
throughput, per-op latency, peak RSS, and set-up time (median of fresh
interpreters importing `gbscavity` and `gbscavity.cli`, launched between
ops at intervals over the run).  With --trace 1 a worker runs a fixed
number of calls untraced and then traced and reports the per-layer metrics;
its spans go to `perfbench/_out/`.

Every output is checked outside the timed region; ops that raise, exit with
an unexpected code or fail a check, and ops whose check raises, count as
failed.  The program is single threaded and no layer queues or waits, so no
wait time is reported.  The last line of stdout is the JSON result; a
summary table and the environment come before it, and the full record goes
to `perfbench/_out/`.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKLOADS = ("mc_sweep", "design_grid", "cli_roundtrip")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Worker time beyond --seconds: set-up launches, warm-up, and the last
# command, which may overrun --seconds by one whole mc_sweep command.
ALLOWANCE_S = 120.0


def child_env():
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def percentile(values, q):
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, min(len(ranked) - 1, -(-len(ranked) * q // 100) - 1))]


def run_worker(args, env, work_dir, trace_file, budget_s):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir),
           "--trace-file", str(trace_file)]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=budget_s)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(raw):
    per_op_ms = [s * 1e3 for s in raw["per_op_s"]]
    return {
        "setup_s": {"value": statistics.median(raw["setup_s"]), "unit": "s"},
        "ops_per_s": {"value": raw["ops"] / raw["busy_s"], "unit": "op/s"},
        "op_p50_ms": {"value": statistics.median(per_op_ms), "unit": "ms"},
        "op_p90_ms": {"value": percentile(per_op_ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": raw["maxrss_kb"] / 1024.0, "unit": "MB"},
        "failed_ops_frac": {"value": raw["failed_ops"] / raw["ops"], "unit": "1"},
    }


def declared_metrics(trace):
    """Names BENCHMARK.json lists for this mode; the result line carries these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gbscavity" / "cli.py").is_file():
        sys.exit(f"error: no gbscavity sources under {ROOT / 'src'}; "
                 "run from the root of a gbscavity checkout")
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")

    env = child_env()
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    trace_file = OUT / f"trace_{args.workload}.json"
    try:
        raw = run_worker(args, env, work_dir, trace_file, args.seconds + ALLOWANCE_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = raw["failures"]
    attempted, failed_ops = raw["ops"], raw["failed_ops"]
    measured = raw["metrics"] if args.trace else end_to_end(raw)
    declared = declared_metrics(args.trace)
    missing = sorted(set(declared) - set(measured))
    if missing:
        sys.exit(f"error: BENCHMARK.json lists metrics the run does not measure: {missing}")
    metrics = {name: measured[name] for name in declared}
    environment = {
        "python": platform.python_version(),
        "numpy": raw["numpy"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: env[k] for k in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client",
    }
    record = {
        "environment": environment,
        "attempted": attempted,
        "failed": failed_ops,
        "failures": failures[:50],
        "calls": raw["calls"],
        "latency_samples": len(raw.get("per_op_s", ())),
        "metrics": measured,
        "setup_samples_s": raw.get("setup_s", []),
        "per_call_us": raw.get("per_call_us"),
        "trace_spans": raw.get("spans"),
        "trace_file": str(trace_file.relative_to(ROOT)) if args.trace else None,
    }
    (OUT / f"result_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"environment: {json.dumps(environment)}")
    for failure in failures[:10]:
        print(f"FAILED: {failure}")
    for name, m in measured.items():
        note = "" if name in metrics else "  (reported, not in the result line)"
        print(f"  {name:<36} {m['value']:<22.8g} {m['unit']}{note}")
    if args.trace:
        print("  traced per-call means (us), ROADMAP baseline beside:")
        for name, row in raw["per_call_us"].items():
            mean = row["traced_mean_us"]
            mean = "not called" if mean is None else f"{mean:.1f}"
            print(f"    {name:<34} {mean:>10} "
                  f"(baseline {row['baseline_us']:g}, {row['calls']} calls)")
    print(f"  {raw['calls']} calls, {attempted} ops, {failed_ops} failed"
          + ("" if args.trace else f"; latency percentiles over {len(raw['per_op_s'])} calls"))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed_ops, "metrics": metrics}))


if __name__ == "__main__":
    main()
