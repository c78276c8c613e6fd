"""One workload in a fresh process; prints one JSON line with the raw results.

Started by `run.py`, which pins the thread variables and puts `src` on the
path.  Untraced, it runs a closed loop (one client, the next op starts when
the previous one ends) for the given seconds and reports throughput, a
sample of per-call latencies, peak RSS and set-up times.  The set-up
launches are spread over the run, between ops, so that they see the same
drift in machine speed as the ops do.  Traced, it runs a fixed number
of calls twice on the same inputs, untraced and with the tracer installed,
and reports the per-layer figures.
"""

import argparse
import json
import random
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as layer_tracer  # noqa: E402
import workloads  # noqa: E402

# Per-call means (us) from the ROADMAP baseline, printed beside the traced
# means for comparison only.
BASELINE_US = {
    "protocol.run_generation": 262.0,
    "protocol.run_measurement": 147.0,
    "angular.verify_eigenbasis": 164.0,
    "dynamics.jc_closed_form": 23.0,
    "states.fidelity": 11.0,
}


# Latencies kept for the percentiles.  A fixed-size uniform sample keeps the
# worker's memory, and so peak_rss_mb, independent of how many ops a run does.
LATENCY_SAMPLES = 20000

# Fresh interpreters timed per untraced run, one after each 1/SETUP_LAUNCHES
# of the timed calls' time.
SETUP_LAUNCHES = 15
SETUP_CODE = "import gbscavity, gbscavity.cli, time; print(time.monotonic())"


class Reservoir:
    """Uniform random sample of at most `size` values (Algorithm R)."""

    def __init__(self, size, seed):
        self.values = array("d")
        self.size = size
        self.seen = 0
        self.rng = random.Random(seed)

    def add(self, value):
        self.seen += 1
        if len(self.values) < self.size:
            self.values.append(value)
        else:
            slot = self.rng.randrange(self.seen)
            if slot < self.size:
                self.values[slot] = value


class Failures:
    """Failed ops and their messages; a call fails all the ops it counts."""

    def __init__(self):
        self.ops = 0
        self.messages = []

    def add(self, messages, ops):
        if messages:
            self.ops += ops
            self.messages += messages


def setup_launch():
    """Seconds from launching a fresh interpreter until `gbscavity` and
    `gbscavity.cli` are imported.

    The child reports CLOCK_MONOTONIC after importing, which is the same
    clock read here before launching.  It inherits this process's
    environment: `src` on the path and the thread variables pinned.
    """
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) - t0


def timed_call(workload, inp):
    """Run one call; an exception is returned as its failure message."""
    t0 = time.perf_counter()
    try:
        result, error = workload.run(inp), None
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, error


def checked(workload, inp, result, error):
    """Failure messages of one call, from its exception or its checks."""
    if error:
        return [error]
    try:
        return workload.check(inp, result)
    except Exception as exc:  # noqa: BLE001
        return [f"check raised {type(exc).__name__}: {exc}"]


def warm_up(workload):
    for inp in workload.warmup_inputs():
        checked(workload, inp, *timed_call(workload, inp)[1:])


def untraced(workload, seconds, seed):
    """Closed loop until the timed calls add up to `seconds`."""
    per_op_s, ops, busy, tally = Reservoir(LATENCY_SAMPLES, seed), 0, 0.0, Failures()
    setup_launch()  # unmeasured: fills the bytecode and page caches
    setup_s = []
    while busy < seconds:
        inp = workload.next_input()
        dt, result, error = timed_call(workload, inp)
        n = workload.ops_in(inp)
        busy += dt
        ops += n
        per_op_s.add(dt / n)
        tally.add(checked(workload, inp, result, error), n)
        while len(setup_s) < SETUP_LAUNCHES and busy >= seconds * len(setup_s) / SETUP_LAUNCHES:
            setup_s.append(setup_launch())
    return {
        "ops": ops,
        "failed_ops": tally.ops,
        "failures": tally.messages,
        "calls": per_op_s.seen,
        "busy_s": busy,
        "per_op_s": per_op_s.values.tolist(),
        "setup_s": setup_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def traced(workload, trace_path, meta):
    """Alternate untraced and traced passes over the same blocks of calls,
    so that a drift in machine speed affects both sides of the overhead."""
    inputs = [workload.next_input() for _ in range(workload.traced_calls)]
    tr = layer_tracer.Tracer()
    tally = Failures()
    plain_s = traced_s = 0.0
    ops = files = nbytes = stdout_bytes = 0
    for first in range(0, len(inputs), workload.trace_block):
        block = inputs[first:first + workload.trace_block]
        for inp in block:
            dt, result, error = timed_call(workload, inp)
            plain_s += dt
            # Ops count once, in the traced pass; this pass adds only messages.
            tally.add(checked(workload, inp, result, error), 0)
        tr.install()
        try:
            for inp in block:
                tr.begin_op()
                dt, result, error = timed_call(workload, inp)
                tr.end_op()
                traced_s += dt
                ops += workload.ops_in(inp)
                if not error:
                    f, b, o = workload.io(result)
                    files, nbytes, stdout_bytes = files + f, nbytes + b, stdout_bytes + o
                tally.add(checked(workload, inp, result, error), workload.ops_in(inp))
        finally:
            tr.uninstall()

    totals = tr.totals()
    layers = tr.layer_self_s(totals)

    def row(name):
        return totals.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    built = sum(row(f"states.{c}.__post_init__")["calls"] for c in layer_tracer.STATE_CLASSES)
    metrics = {
        "protocol.run_generation.calls": (row("protocol.run_generation")["calls"], "count"),
        "protocol.run_generation.self_s": (row("protocol.run_generation")["self_s"], "s"),
        "protocol.run_measurement.self_s": (row("protocol.run_measurement")["self_s"], "s"),
        "protocol.monte_carlo_jitter.self_s": (row("protocol.monte_carlo_jitter")["self_s"], "s"),
        "protocol.detected_frac": (tr.mc_used / tr.mc_attempted if tr.mc_attempted else 0.0, "1"),
        "protocol.p2_mean": (tr.mc_p2_sum / tr.mc_used if tr.mc_used else 0.0, "1"),
        "states.objects_built": (built / ops, "count/op"),
        "states.self_s": (layers["states"], "s"),
        "states.serialize_self_s": (sum(row(n)["self_s"] for n in layer_tracer.SERIALIZERS), "s"),
        "dynamics.jc_closed_form.calls": (row("dynamics.jc_closed_form")["calls"], "count"),
        "dynamics.jc_closed_form.self_s": (row("dynamics.jc_closed_form")["self_s"], "s"),
        "dynamics.self_s": (layers["dynamics"], "s"),
        "angular.verify_eigenbasis.calls": (row("angular.verify_eigenbasis")["calls"], "count"),
        "angular.self_s": (layers["angular"], "s"),
        "cli.main.calls": (row("cli.main")["calls"], "count"),
        "cli.self_s": (layers["cli"], "s"),
        "cli.bytes_written": (nbytes, "B"),
        "cli.files_written": (files, "count"),
        "cli.stdout_bytes": (stdout_bytes, "B"),
        "trace.ops": (ops, "count"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "1"),
    }
    tally.messages += count_assertions(workload, metrics, ops)
    per_call_us = {
        name: {"traced_mean_us": row(name)["incl_s"] / row(name)["calls"] * 1e6
               if row(name)["calls"] else None,
               "calls": row(name)["calls"], "baseline_us": base}
        for name, base in BASELINE_US.items()
    }
    tr.dump(trace_path, meta)
    return {
        "ops": ops,
        "failed_ops": tally.ops,
        "failures": tally.messages,
        "calls": len(inputs),
        "busy_s": traced_s,
        "untraced_s": plain_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_call_us": per_call_us,
        "spans": len(tr.start),
    }


def count_assertions(workload, metrics, ops):
    """Counts that must repeat exactly for a given input size.

    mc_sweep: every MC sample runs the scalar pipeline once (two JC transits
    each), or, once the sweep is batched, none does.
    design_grid: one run_generation per design point.
    """
    generations = metrics["protocol.run_generation.calls"][0]
    transits = metrics["dynamics.jc_closed_form.calls"][0]
    failures = []
    if workload.name == "mc_sweep":
        if generations not in (0, ops) or transits != 2 * generations:
            failures.append(f"count assertion: run_generation.calls={generations}, "
                            f"jc_closed_form.calls={transits} for {ops} MC samples")
    elif workload.name == "design_grid" and generations != ops:
        failures.append(f"count assertion: run_generation.calls={generations} "
                        f"for {ops} design points")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True, help="scratch for --out artifacts")
    parser.add_argument("--trace-file", required=True, help="where traced runs dump spans")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed, args.work_dir)
    warm_up(workload)
    if args.trace:
        meta = {"workload": args.workload, "seed": args.seed}
        out = traced(workload, args.trace_file, meta)
    else:
        out = untraced(workload, args.seconds, args.seed)
    out["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(out, allow_nan=False))


if __name__ == "__main__":
    main()
