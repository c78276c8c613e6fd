"""Record the mc_sweep reference rows that every benchmark run checks against.

Runs the README error sweep once per command seed and writes the report rows
to `mc_reference.json`.  Re-record only on a commit whose Monte Carlo output
is trusted, since the benchmark compares to these rows at 1e-9 relative:

    python3 perfbench/make_reference.py
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

SEEDS = 16  # command seeds 0..SEEDS-1


def main():
    sweep = workloads.McSweep
    rows_by_seed = {}
    for seed in range(SEEDS):
        out = Path(tempfile.mkdtemp(dir=HERE))
        try:
            result = workloads.run_cli(sweep.argv(seed, sweep.SAMPLES, out), out)
            if result.code != 0:
                sys.exit(f"error-sweep --seed {seed} exited {result.code}: {result.stderr}")
            report = json.loads((out / "error_sweep_report.json").read_text(encoding="utf-8"))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        rows_by_seed[str(seed)] = report["rows"]
        print(f"seed {seed}: {[r['mean_delivered_infidelity'] for r in report['rows']]}")
    doc = {"command": sweep.argv("<seed>", sweep.SAMPLES, "<out>"), "rows_by_seed": rows_by_seed}
    (HERE / "mc_reference.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
