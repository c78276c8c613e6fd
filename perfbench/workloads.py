"""The three benchmark workloads: inputs from a seed, one timed op, its check.

Every workload drives the package through the same call sites a user would:
`mc_sweep` and `cli_roundtrip` through `gbscavity.cli.main(argv)`, and
`design_grid` through the library functions.  Functions are looked up on their
modules at call time, so a traced run sees the wrapped bindings.

A workload object offers:

- `warmup_inputs()`: inputs of untimed calls, run and checked in order so
  lazy set-up is done before timing; their failures are ignored, since any
  real fault shows again in the timed calls;
- `next_input()`: the next op input, drawn from the seeded stream;
- `run(inp)`: the timed call, returning what `check` needs;
- `ops_in(inp)`: how many ops one call counts (MC samples for `mc_sweep`);
- `io(result)`: files, bytes and stdout bytes the call produced (traced
  runs only, before `check`);
- `check(inp, result)`: untimed output checks, a list of failure messages.
  It also removes the call's output directory.
- `traced_calls`, `trace_block`: how many calls a traced run makes, and in
  blocks of how many it alternates untraced and traced passes.
"""

import contextlib
import io
import json
import math
import random
import shutil
from pathlib import Path

import gbscavity.angular as angular
import gbscavity.cli as cli
import gbscavity.protocol as protocol
import gbscavity.states as states

HERE = Path(__file__).resolve().parent
TOL_ALGEBRA = 1e-12
TOL_REFERENCE = 1e-9  # relative, against rows recorded at the parent commit


class CommandResult:
    """Exit code, captured streams and output directory of one CLI command."""

    def __init__(self, code, stdout, stderr, out_dir):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.out_dir = out_dir


def run_cli(argv, out_dir):
    """Run `gbscavity.cli.main(argv)` in-process with both streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects malformed flags this way
            code = exc.code
    return CommandResult(code, out.getvalue(), err.getvalue(), out_dir)


class _CliWorkload:
    """Shared bookkeeping of the workloads that call the CLI."""

    def __init__(self, seed, work_dir):
        self.rng = random.Random(seed)
        self.work_dir = Path(work_dir)
        self.calls = 0

    def _fresh_dir(self):
        self.calls += 1
        return self.work_dir / f"out{self.calls:06d}"

    def io(self, result):
        files = _listing(result.out_dir)
        return (len(files), sum((result.out_dir / f).stat().st_size for f in files),
                len(result.stdout.encode("utf-8")))

    def _check_artifacts(self, result, expected_code):
        """Exit code, and the manifest against the files on disk."""
        failures = []
        if result.code != expected_code:
            failures.append(f"exit {result.code}, expected {expected_code}: "
                            f"{result.stderr.strip()[:200]}")
        out = result.out_dir
        on_disk = _listing(out)
        if expected_code != cli.EXIT_OK:
            if not result.stderr.startswith("error: "):
                failures.append(f"stderr is not a one-line error: {result.stderr[:200]!r}")
            if on_disk:
                failures.append(f"failed command left files: {on_disk}")
            return failures
        if not result.stdout:
            failures.append("empty stdout")
        if "manifest.json" not in on_disk:
            return failures + ["no manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        listed = sorted(manifest["outputs"] + ["manifest.json"])
        if listed != on_disk:
            failures.append(f"manifest lists {listed}, disk has {on_disk}")
        return failures

    def _read_report(self, result, name):
        return json.loads((result.out_dir / name).read_text(encoding="utf-8"))


class McSweep(_CliWorkload):
    """The README error sweep: 2 jitters x 10 000 MC samples per command.

    The command seed cycles through the seeds of `mc_reference.json`, in an
    order drawn from the benchmark seed, so every row is checked against the
    values recorded at the parent commit.
    """

    name = "mc_sweep"
    JITTERS = "1e-2,1e-3"
    SAMPLES = 10000
    traced_calls = 1
    trace_block = 1

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        ref = json.loads((HERE / "mc_reference.json").read_text(encoding="utf-8"))
        self.reference = {int(k): rows for k, rows in ref["rows_by_seed"].items()}
        self.order = sorted(self.reference)
        self.rng.shuffle(self.order)
        self.position = 0

    @classmethod
    def argv(cls, cli_seed, samples, out_dir):
        return ["error-sweep", "--p", "1.0", "--jitter", cls.JITTERS,
                "--samples", str(samples), "--seed", str(cli_seed),
                "--out", str(out_dir)]

    def warmup_inputs(self):
        out = self._fresh_dir()  # a short sweep; its check removes `out`
        return [(0, self.argv(0, 100, out), out)]

    def next_input(self):
        cli_seed = self.order[self.position % len(self.order)]
        self.position += 1
        out = self._fresh_dir()
        return cli_seed, self.argv(cli_seed, self.SAMPLES, out), out

    def ops_in(self, inp):
        return self.SAMPLES * len(self.JITTERS.split(","))

    def run(self, inp):
        _, argv, out = inp
        return run_cli(argv, out)

    def check(self, inp, result):
        cli_seed = inp[0]
        try:
            failures = self._check_artifacts(result, cli.EXIT_OK)
            if not failures:
                rows = self._read_report(result, "error_sweep_report.json")["rows"]
                failures += self._check_rows(rows, self.reference[cli_seed])
        finally:
            shutil.rmtree(result.out_dir, ignore_errors=True)
        return [f"seed {cli_seed}: {f}" for f in failures]

    def _check_rows(self, rows, reference):
        failures = []
        if len(rows) != len(reference):
            return [f"{len(rows)} rows, expected {len(reference)}"]
        for row, ref in zip(rows, reference):
            if row["samples_used"] != self.SAMPLES:
                failures.append(f"jitter {row['jitter']}: samples_used {row['samples_used']}")
            if row["jitter"] == 1e-2:
                scale = protocol.delta_exp(protocol.GT_PROBE, 1e-2)
                if not scale / 2 <= row["mean_delivered_infidelity"] <= 2 * scale:
                    failures.append(f"delivered infidelity {row['mean_delivered_infidelity']} "
                                    f"not within a factor 2 of {scale}")
            for key, want in _flatten(ref):
                got = _lookup(row, key)
                # abs_tol only matters for values at rounding level (std of
                # fidelities that are all 1 to rounding), not for the physics.
                if not math.isclose(got, want, rel_tol=TOL_REFERENCE, abs_tol=TOL_ALGEBRA):
                    failures.append(f"jitter {ref['jitter']}: {'.'.join(key)} = {got!r}, "
                                    f"reference {want!r}")
        return failures


def _listing(directory):
    return sorted(p.name for p in directory.iterdir()) if directory.is_dir() else []


def _flatten(obj, prefix=()):
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _flatten(value, prefix + (key,))
        else:
            yield prefix + (key,), value


def _lookup(obj, key):
    for part in key:
        obj = obj[part]
    return obj


class DesignGrid:
    """Scalar object path through states, dynamics, protocol and angular.

    One op is one design point: generation, readout of the post-selected
    field, single-shot labelling of its orthogonal partner and the eigenbasis
    check.  No RNG and no I/O inside the op.
    """

    name = "design_grid"
    traced_calls = 3000
    trace_block = 150

    def __init__(self, seed, work_dir):
        self.rng = random.Random(seed)

    def io(self, result):
        return 0, 0, 0

    def warmup_inputs(self):
        return [self.next_input() for _ in range(50)]

    def next_input(self):
        r = self.rng
        return (r.random(), r.random() * 2 * math.pi, r.random() * 2 * math.pi,
                r.randint(protocol.M2_MIN, protocol.M2_MAX), r.choice((3, 4, 8)))

    def ops_in(self, inp):
        return 1

    def run(self, inp):
        p, phi1, omega, m2, n_max = inp
        cfg = protocol.GenerationConfig(p=p, phi1=phi1, omega=omega, dt_gap=1.0,
                                        n_max=n_max, m2=m2)
        gen = protocol.run_generation(cfg)
        phi = gen.target.phi
        readout = protocol.run_measurement(gen.post_selected_field, p, phi)
        partner = states.make_gbs(states.GBSParams(2, 1.0 - p, math.pi + phi), n_max)
        label = protocol.distinguish_orthogonal(partner, p, phi)
        basis = angular.verify_eigenbasis(p, phi)
        return cfg, gen, readout, label, basis

    def check(self, inp, result):
        cfg, gen, readout, label, basis = result
        p, _, _, m2, n_max = inp
        failures = []
        delta = 1.0 - math.sin(math.sqrt(2.0) * protocol.gt_second(m2))
        expected = protocol.predicted_psi2(p, cfg.phi_effective, delta, n_max)
        miss = 1.0 - states.fidelity(gen.post_selected_field, expected)
        if miss > TOL_ALGEBRA:
            failures.append(f"post-selected field misses the closed form by {miss}")
        if abs(readout.prob_up + readout.prob_down - 1.0) > TOL_ALGEBRA:
            failures.append("readout probabilities do not sum to 1")
        if label.label != "2GBS(1-p,pi+phi)":
            failures.append(f"partner labelled {label.label}")
        if not basis.max_residual < TOL_ALGEBRA:
            failures.append(f"eigenbasis residual {basis.max_residual}")
        return [f"point {inp}: {f}" for f in failures]


class CliRoundtrip(_CliWorkload):
    """A cycle of short CLI commands, each writing to a fresh directory.

    generate -> measure (reads the generated post_field.json back) ->
    optimize-timing -> verify-basis -> feasibility -> one invalid generate
    that must exit 2.  Formats rotate between cycles where a command has more
    than one rendering.
    """

    name = "cli_roundtrip"
    CYCLE = 6
    traced_calls = 200 * CYCLE
    trace_block = 10 * CYCLE  # whole cycles: measure reads what generate wrote

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.pending = []
        self.generated = None
        self.cycle = 0

    def warmup_inputs(self):
        return [self.next_input() for _ in range(self.CYCLE)]

    def next_input(self):
        if not self.pending:
            self.pending = self._cycle_inputs()
        return self.pending.pop(0)

    def _cycle_inputs(self):
        r = self.rng
        self.cycle += 1
        fmt = ("json", "text")[self.cycle % 2]
        p = r.random()
        phi1 = r.random() * 2 * math.pi
        target_phi = math.pi - phi1
        gt_min = r.uniform(0.1, 40.0)
        gt_max = r.uniform(gt_min + 2 * math.pi, 100.0)
        dirs = [self._fresh_dir() for _ in range(self.CYCLE)]
        gen_dir = dirs[0]
        # target_phi may be negative; "--flag=value" keeps argparse from
        # taking a value such as -1.2e-05 for an option.
        commands = [
            ("generate", cli.EXIT_OK, gen_dir,
             ["generate", "--p", repr(p), "--phi1", repr(phi1),
              "--n-max", str(r.choice((3, 4, 8))), "--format", fmt]),
            ("measure", cli.EXIT_OK, dirs[1],
             ["measure", "--state-file", str(gen_dir / "post_field.json"),
              "--decode-p", repr(p), f"--decode-phi={target_phi!r}", "--format", fmt]),
            ("optimize-timing", cli.EXIT_OK, dirs[2],
             ["optimize-timing", "--gt-min", repr(gt_min), "--gt-max", repr(gt_max),
              "--format", "csv"]),
            ("verify-basis", cli.EXIT_OK, dirs[3],
             ["verify-basis", "--p", repr(p), f"--phi={target_phi!r}", "--format", "json"]),
            ("feasibility", cli.EXIT_OK, dirs[4],
             ["feasibility", "--tau-at", repr(10 ** r.uniform(-3, -1)),
              "--tau-cav", repr(10 ** r.uniform(-2, 0)), "--g", repr(10 ** r.uniform(4, 6)),
              "--units", "si", "--format", ("text", "json")[self.cycle % 2]]),
            ("invalid", cli.EXIT_USAGE, dirs[5],
             ["generate", "--p", repr(r.uniform(1.01, 2.0))]),
        ]
        return [(kind, code, out, argv + ["--out", str(out)])
                for kind, code, out, argv in commands]

    def ops_in(self, inp):
        return 1

    def run(self, inp):
        _, _, out, argv = inp
        return run_cli(argv, out)

    def check(self, inp, result):
        kind, expected_code, out, _ = inp
        failures = self._check_artifacts(result, expected_code)
        if not failures and kind == "measure":
            prob_up = self._read_report(result, "measure_report.json")["prob_up"]
            if prob_up < 0.999:
                failures.append(f"prob_up {prob_up}")
        if not failures and kind == "verify-basis":
            if self._read_report(result, "verify_basis_report.json")["pass"] is not True:
                failures.append("eigenbasis check did not pass")
        if kind == "generate":
            self.generated = out  # kept until measure has read it back
        else:
            shutil.rmtree(out, ignore_errors=True)
        if kind == "measure" and self.generated is not None:
            shutil.rmtree(self.generated, ignore_errors=True)
            self.generated = None
        return [f"{kind}: {f}" for f in failures]


WORKLOADS = {w.name: w for w in (McSweep, DesignGrid, CliRoundtrip)}
