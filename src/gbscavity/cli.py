"""Command line for reproducible runs.

Subcommands cover state generation, single-shot readout, timing optimization,
jitter error sweeps, the pseudo-angular-momentum eigenbasis check and the
coherence feasibility budget.  Every run prints a report to stdout (text,
JSON or CSV) and, when --out is given, writes machine-readable files plus a
manifest that digests the resolved configuration.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 truncation
leak, 4 verification failure.
"""

import argparse
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .angular import verify_eigenbasis
from .constants import ATOL_ALGEBRA, DEFAULT_N_MAX, M2_MAX, M2_MIN
from .dynamics import TruncationLeakError
from .protocol import (
    GT_FIRST,
    ErrorModel,
    FeasibilityInput,
    GenerationConfig,
    delta_exp,
    feasibility_check,
    gt_second,
    monte_carlo_jitter,
    optimize_t2,
    run_generation,
    run_measurement,
    scan_t2,
)
from .states import FieldState, GBSParams, make_gbs, state_from_dict, state_to_dict

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LEAK = 3
EXIT_VERIFY = 4

_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(GenerationConfig))
_MODEL_KEYS = tuple(f.name for f in dataclasses.fields(ErrorModel))
_SWEEP_CSV_COLUMNS = ("jitter", "delta_exp", "mean_infidelity", "std_infidelity",
                      "mean_delivered_infidelity", "mean_p2", "samples_used")


def _num(x: float) -> str:
    return f"{x:.6g}"


def _kv_text(title: str, record: dict) -> str:
    """Aligned `key  value` lines; numbers at 6 significant digits."""
    width = max(map(len, record))
    lines = [title]
    lines += [f"  {k:<{width}}  {v if isinstance(v, str) else _num(v)}" for k, v in record.items()]
    return "\n".join(lines) + "\n"


def _csv(columns, rows) -> str:
    """CSV of the given columns of row dicts at 17 significant digits (exact
    for the small integer cells too)."""
    lines = [",".join(columns)]
    lines += [",".join(f"{row[c]:.17g}" for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _deliver(args, digest_obj, json_obj, human_text: str, csv_text: str | None = None,
             extra_files: dict | None = None) -> int:
    """Render the format, write the --out files (str as UTF-8, bytes raw) and a manifest
    with the digested config's seed, then print: a missing format writes nothing."""
    command = args.command
    report = json.dumps(json_obj, indent=2) + "\n"
    rendered = {"json": report, "csv": csv_text, "text": human_text}[args.format]
    if rendered is None:
        raise ValueError(f"{command} has no CSV rendering; use json or text")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = command.replace("-", "_")
        files = {f"{stem}_report.json": report, f"{stem}_summary.txt": human_text}
        if csv_text is not None:
            files[f"{stem}.csv"] = csv_text
        files.update(extra_files or {})
        blob = json.dumps(digest_obj, sort_keys=True, separators=(",", ":"))
        manifest = {
            "command": command,
            "config_digest": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
            "seed": digest_obj.get("seed"),
            "tool_version": __version__,
            "outputs": sorted(files),
        }
        files["manifest.json"] = json.dumps(manifest, indent=2) + "\n"
        for name, content in files.items():  # write, then rename: no half-written files
            data = content if isinstance(content, bytes) else content.encode("utf-8")
            (out / f"{name}.tmp").write_bytes(data)
            os.replace(out / f"{name}.tmp", out / name)

    try:
        print(rendered, end="", flush=True)
    except BrokenPipeError:
        # The reader left early (e.g. `| head`), which is not an error.  Point
        # stdout at devnull so the interpreter's flush at exit cannot fail too.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return EXIT_OK


def _resolve_config(args):
    """Generation config and error_model settings: config file, then flags."""
    data = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    model = data.get("error_model", {}) if isinstance(data, dict) else None
    for what, section, keys in (("config", data, (*_CONFIG_KEYS, "error_model")),
                                ("error_model", model, _MODEL_KEYS)):
        if not isinstance(section, dict):
            raise ValueError(f"{what} must be a JSON object")
        unknown = set(section) - set(keys)
        if unknown:
            raise ValueError(f"unknown {what} keys: {sorted(unknown)}")

    flags = {k: v for k, v in vars(args).items() if v is not None}
    merged = {k: v for k, v in data.items() if k != "error_model"}
    merged.update((k, flags[k]) for k in _CONFIG_KEYS if k in flags)
    model.update((k, flags[k]) for k in _MODEL_KEYS if k in flags)
    # json reads true/false as bool, which Python also counts as an int
    for key, value in (*merged.items(), *model.items()):
        boolean = key == "jitter_t1"
        if isinstance(value, bool) != boolean or not isinstance(value, (int, float)):
            kind = "true or false" if boolean else "a number"
            raise ValueError(f"{key} must be {kind}, got {json.dumps(value)}")
    if "p" not in merged:
        raise ValueError("p is required (flag --p or config file)")
    return GenerationConfig(**merged), model


def cmd_generate(args) -> int:
    cfg, _ = _resolve_config(args)
    gt1 = GT_FIRST if args.gt1 is None else args.gt1
    gt2 = gt_second(cfg.m2) if args.gt2 is None else args.gt2
    report = run_generation(cfg, gt1=gt1, gt2=gt2)

    cfg_dict = {**dataclasses.asdict(cfg), "gt1": gt1, "gt2": gt2}
    json_obj = {
        "config": cfg_dict,
        "p2": report.p2,
        "fidelity_to_target": report.fidelity_to_target,
        "infidelity": 1.0 - report.fidelity_to_target,
        "leakage": report.leakage,
        "target": dataclasses.asdict(report.target),
        "post_selected_field": state_to_dict(report.post_selected_field),
        "joint_before_projection": state_to_dict(report.joint_before_projection),
    }
    human = _kv_text("generation report", {
        "p": cfg.p, "phi1": cfg.phi1, "phi_effective": cfg.phi_effective, "m2": cfg.m2,
        "gt1": gt1, "gt2": gt2,
        **{k: json_obj[k] for k in ("p2", "fidelity_to_target", "infidelity", "leakage")},
        "target_phi": report.target.phi,
    })
    extra = {"post_field.json": json.dumps(json_obj["post_selected_field"], indent=2) + "\n"}
    return _deliver(args, cfg_dict, json_obj, human, extra_files=extra)


def cmd_measure(args) -> int:
    if (args.state_file is None) == (args.gbs is None):
        raise ValueError("measure needs exactly one of --gbs or --state-file")
    if args.state_file:
        if args.n_max is not None:
            raise ValueError("--n-max builds the --gbs state; a state file carries its own n_max")
        field = state_from_dict(json.loads(Path(args.state_file).read_text(encoding="utf-8")))
        if not isinstance(field, FieldState):
            raise ValueError("state file must hold a field state")
        if args.decode_p is None or args.decode_phi is None:
            raise ValueError("--decode-p and --decode-phi are required with --state-file")
        source = {"state_file": args.state_file}
    else:
        parts = args.gbs.split(",")
        if len(parts) != 3:
            raise ValueError(f"--gbs expects 'N,p,phi', got {args.gbs!r}")
        params = GBSParams(int(parts[0]), float(parts[1]), float(parts[2]))
        n_max = DEFAULT_N_MAX if args.n_max is None else args.n_max
        field = make_gbs(params, n_max)
        source = {"gbs": dataclasses.asdict(params), "n_max": n_max}
    decode_p = args.decode_p if args.decode_p is not None else params.p
    decode_phi = args.decode_phi if args.decode_phi is not None else params.phi

    report = run_measurement(field, decode_p, decode_phi)
    digest_obj = {"state": state_to_dict(field), "decode_p": decode_p, "decode_phi": decode_phi}
    json_obj = {
        "input": source,
        "decode_p": decode_p,
        "decode_phi": decode_phi,
        "prob_up": report.prob_up,
        "prob_down": report.prob_down,
        "post_field_up": state_to_dict(report.post_field_up),
        "post_field_down": state_to_dict(report.post_field_down),
    }
    human = _kv_text("measurement report", {
        k: json_obj[k] for k in ("decode_p", "decode_phi", "prob_up", "prob_down")
    })
    return _deliver(args, digest_obj, json_obj, human)


def cmd_optimize_timing(args) -> int:
    inside = [m2 for m2 in range(M2_MIN, M2_MAX + 1)
              if args.gt_min <= gt_second(m2) <= args.gt_max]
    if not inside:
        raise ValueError(
            f"window [{args.gt_min}, {args.gt_max}] holds no admissible "
            f"g*T2 = pi/4 + 2 pi m2 with m2 in [{M2_MIN}, {M2_MAX}]"
        )
    lo, hi = inside[0], inside[-1]
    rows = scan_t2(lo, hi)
    winner = optimize_t2(lo, hi)

    digest_obj = {"gt_min": args.gt_min, "gt_max": args.gt_max, "m2_min": lo, "m2_max": hi}
    row_dicts = [
        {"m2": r.m2, "gt2": r.gt2, "sin_g_sqrt2_t2": 1.0 - r.delta, "delta": r.delta}
        for r in rows
    ]
    json_obj = {
        "window": digest_obj,
        "rows": row_dicts,
        "winner": {"m2": winner.m2, "gt2": winner.gt2, "delta": winner.delta,
                   "residual_first": winner.residual_first},
    }
    lines = ["timing scan", f"  {'m2':>3} {'gt2':>12} {'delta':>12}"]
    lines += [f"  {r.m2:>3} {r.gt2:>12.6g} {r.delta:>12.6g}" for r in rows]
    lines.append(f"winner: m2={winner.m2} gt2={_num(winner.gt2)} delta={_num(winner.delta)}")
    human = "\n".join(lines) + "\n"
    return _deliver(args, digest_obj, json_obj, human, _csv(tuple(row_dicts[0]), row_dicts))


def cmd_error_sweep(args) -> int:
    cfg, model_cfg = _resolve_config(args)

    jitters = [model_cfg.pop("rel_timing_jitter", 1e-2)]
    if args.jitter is not None:
        jitters = [float(s) for s in args.jitter.split(",") if s.strip()]
    if not jitters:
        raise ValueError("--jitter lists no values")
    if args.no_t1_jitter:
        model_cfg["jitter_t1"] = False
    # ErrorModel checks the values unconverted (4.5 samples, a 400-digit efficiency)
    # and holds the defaults; the report reads both back from the built model.
    models = [ErrorModel(rel_timing_jitter=jit, **model_cfg) for jit in jitters]
    jitters = [float(model.rel_timing_jitter) for model in models]
    model = models[0]
    model_dict = {"samples": model.samples, "seed": model.seed,
                  "detector_efficiency": float(model.detector_efficiency),
                  "jitter_t1": model.jitter_t1}
    if model.samples < 100:
        raise ValueError("error sweeps need at least 100 samples")

    gt2 = gt_second(cfg.m2)
    rows = []
    extra_files = {}
    for jit, model in zip(jitters, models):
        rpt = monte_carlo_jitter(cfg, model)
        rows.append({
            "jitter": jit,
            "delta_exp": delta_exp(gt2, jit),
            "mean_infidelity": 1.0 - rpt.mean_fidelity,
            "std_infidelity": rpt.std_fidelity,
            "mean_fidelity": rpt.mean_fidelity,
            "mean_delivered_infidelity": rpt.mean_delivered_infidelity,
            "mean_p2": rpt.mean_p2,
            "samples_used": rpt.samples_used,
            "quantiles": rpt.quantiles,
        })
        np.save(buf := io.BytesIO(), rpt.samples, allow_pickle=False)  # raw, exact doubles
        extra_files[f"mc_samples_j{jit!r}.npy"] = buf.getvalue()
        del rpt  # its records would otherwise stay alive through the next jitter

    digest_obj = {"config": dataclasses.asdict(cfg), "jitters": jitters, **model_dict}
    json_obj = {"config": digest_obj["config"], "model": model_dict, "rows": rows}
    lines = ["error sweep",
             f"  {'jitter':>10} {'delta_exp':>12} {'mean_infid':>12} {'std_infid':>12}"
             f" {'delivered':>12} {'mean_p2':>10} {'used':>6}"]
    lines += [
        f"  {r['jitter']:>10.3g} {r['delta_exp']:>12.6g} {r['mean_infidelity']:>12.6g}"
        f" {r['std_infidelity']:>12.6g} {r['mean_delivered_infidelity']:>12.6g}"
        f" {r['mean_p2']:>10.6g} {r['samples_used']:>6}"
        for r in rows
    ]
    human = "\n".join(lines) + "\n"
    return _deliver(args, digest_obj, json_obj, human, _csv(_SWEEP_CSV_COLUMNS, rows), extra_files)


def cmd_verify_basis(args) -> int:
    report = verify_eigenbasis(args.p, args.phi)
    ok = report.max_residual < ATOL_ALGEBRA

    digest_obj = {"p": args.p, "phi": args.phi}
    json_obj = {
        "p": args.p, "phi": args.phi,
        "eigenvalues": list(report.eigenvalues),
        "residuals": list(report.residuals),
        "max_residual": report.max_residual,
        "pass": ok,
    }
    human = _kv_text(f"eigenbasis check at p={_num(args.p)} phi={_num(args.phi)}", {
        "residual at +1": report.residuals[0],
        "residual at  0": report.residuals[1],
        "residual at -1": report.residuals[2],
        "spectrum": ", ".join(_num(v) for v in report.eigenvalues),
        "verdict": "PASS" if ok else "FAIL",
    })
    code = _deliver(args, digest_obj, json_obj, human)
    return code if ok else EXIT_VERIFY


def cmd_feasibility(args) -> int:
    if (args.interaction_times is None) == (args.g is None):
        raise ValueError("feasibility needs exactly one of --interaction-times or --g")
    if args.dt_gap is not None and (args.g is None or args.sequence_duration is not None):
        raise ValueError("--dt-gap needs --g and no --sequence-duration: it derives the sequence")
    if args.interaction_times is not None:
        times = tuple(float(s) for s in args.interaction_times.split(",") if s.strip())
        if args.sequence_duration is None:
            raise ValueError("--sequence-duration is required with --interaction-times")
        sequence = args.sequence_duration
    else:
        # SI derivation from the coupling: nominal transit times of the pipeline.
        if not (math.isfinite(args.g) and args.g > 0.0):
            raise ValueError(f"--g must be positive and finite, got {args.g}")
        times = (GT_FIRST / args.g, gt_second(args.m2) / args.g)
        gap = args.dt_gap or 0.0
        if not (math.isfinite(gap) and gap >= 0.0):
            raise ValueError(f"--dt-gap must be non-negative and finite, got {gap}")
        sequence = (args.sequence_duration if args.sequence_duration is not None
                    else times[0] + gap + times[1])
    inp = FeasibilityInput(tau_at=args.tau_at, tau_cav=args.tau_cav,
                           interaction_times=times, sequence_duration=sequence)
    report = feasibility_check(inp)

    digest_obj = {"tau_at": inp.tau_at, "tau_cav": inp.tau_cav,
                  "interaction_times": list(inp.interaction_times),
                  "sequence_duration": inp.sequence_duration}
    json_obj = {"inputs": digest_obj, "pass": report.passed, "margins": report.margins}
    human = _kv_text("coherence budget (margins are lifetime/duration)", {
        "tau_at": inp.tau_at, "tau_cav": inp.tau_cav, **report.margins,
        "verdict": "PASS" if report.passed else "FAIL",
    })
    return _deliver(args, digest_obj, json_obj, human)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="directory for reports and the run manifest")
    common.add_argument("--format", choices=("json", "csv", "text"), default="text",
                        help="stdout rendering")

    pipeline = argparse.ArgumentParser(add_help=False)
    pipeline.add_argument("--config", help="JSON config file")
    pipeline.add_argument("--p", type=float, help="excited-state weight of the atomic preparation")
    pipeline.add_argument("--phi1", type=float, help="preparation phase of atom 1")
    pipeline.add_argument("--omega", type=float, help="bare cavity frequency")
    pipeline.add_argument("--dt-gap", type=float, help="free evolution time between the atoms")
    pipeline.add_argument("--n-max", type=int, help="Fock truncation")
    pipeline.add_argument("--m2", type=int, help=f"timing index in [{M2_MIN}, {M2_MAX}]")

    # allow_abbrev=False: a flag is spelled in full, so a prefix of a flag
    # (or a removed flag that is a prefix of a kept one) is an error
    parser = argparse.ArgumentParser(
        prog="gbscavity", allow_abbrev=False,
        description="Two-photon binomial cavity states: generation, readout and error budget.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, *parents):
        cmd = sub.add_parser(name, parents=[common, *parents], help=help, allow_abbrev=False)
        cmd.set_defaults(func=func, parser=cmd)
        return cmd

    gen = add("generate", cmd_generate, "run the two-atom generation pipeline", pipeline)
    gen.add_argument("--gt1", type=float, help="manual first transit g*t")
    gen.add_argument("--gt2", type=float, help="manual second transit g*t")

    mea = add("measure", cmd_measure, "probe a field state and decode the probe")
    mea.add_argument("--gbs", help="input binomial state as 'N,p,phi'")
    mea.add_argument("--state-file", help="serialized field state (JSON)")
    mea.add_argument("--n-max", type=int,
                     help=f"Fock truncation of the --gbs state (default {DEFAULT_N_MAX})")
    mea.add_argument("--decode-p", type=float,
                     help="decoding zone weight (defaults to the --gbs p)")
    mea.add_argument("--decode-phi", type=float,
                     help="decoding zone phase (defaults to the --gbs phi)")

    opt = add("optimize-timing", cmd_optimize_timing,
              "scan the admissible second interaction times")
    opt.add_argument("--gt-min", type=float, default=0.1, help="shortest admissible g*T")
    opt.add_argument("--gt-max", type=float, default=gt_second(M2_MAX),
                     help="longest admissible g*T")

    err = add("error-sweep", cmd_error_sweep, "Monte Carlo timing-jitter sweep", pipeline)
    err.add_argument("--jitter", help="comma-separated relative jitters, e.g. '1e-2,1e-3'")
    err.add_argument("--samples", type=int, help="Monte Carlo samples (at least 100)")
    err.add_argument("--seed", type=int, help="Monte Carlo seed")
    err.add_argument("--detector-efficiency", type=float,
                     help="Bernoulli thinning of detected samples")
    err.add_argument("--no-t1-jitter", action="store_true", help="jitter only the second transit")

    ver = add("verify-basis", cmd_verify_basis, "check the pseudo-angular-momentum eigenbasis")
    ver.add_argument("--p", type=float, required=True)
    ver.add_argument("--phi", type=float, default=0.0)

    fea = add("feasibility", cmd_feasibility,
              "coherence budget against atomic and cavity lifetimes")
    fea.add_argument("--units", choices=("si",), default="si",
                     help="time unit of every input: SI seconds")
    fea.add_argument("--tau-at", type=float, required=True, help="atomic lifetime (s)")
    fea.add_argument("--tau-cav", type=float, required=True, help="cavity lifetime (s)")
    fea.add_argument("--interaction-times", help="comma-separated transit durations (s)")
    fea.add_argument("--sequence-duration", type=float, help="total protocol duration (s)")
    fea.add_argument("--g", type=float, help="derive transit times from the coupling (rad/s)")
    fea.add_argument("--dt-gap", type=float, help="gap between atoms (s)")
    fea.add_argument("--m2", type=int, default=5, choices=range(M2_MIN, M2_MAX + 1),
                     metavar="M2", help="timing index for the derived T2")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:  # a flag before the subcommand is the top-level parser's; others, the subcommand's
        owner = parser if argv.index(args.command) else args.parser
        owner.error(f"unrecognized arguments: {' '.join(extras)}")
    del args.parser, parser  # let the parsers go before the command runs
    try:
        return args.func(args)
    except (TruncationLeakError, ValueError, TypeError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_LEAK if isinstance(exc, TruncationLeakError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
