"""Command line for reproducible runs.

Subcommands cover state generation, single-shot readout, timing optimization,
jitter error sweeps, the pseudo-angular-momentum eigenbasis check and the
coherence feasibility budget.  Every run prints a report to stdout (text,
JSON, or CSV for a table) and, when --out is given, writes machine-readable
files plus a manifest that digests the resolved configuration.

Exit codes: 0 success, 2 invalid configuration or arguments, 3 truncation
leak, 4 verification failure.
"""

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from .angular import verify_eigenbasis
from .constants import ATOL_ALGEBRA, DEFAULT_N_MAX, M2_MAX, M2_MIN
from .dynamics import TruncationLeakError
from .protocol import (
    GT_FIRST,
    ErrorModel,
    GenerationConfig,
    TimingResult,
    delta_exp,
    feasibility_check,
    gt_second,
    monte_carlo_jitter,
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
# What a command hands main to deliver: digest object, report, text, --out extras, exit code
_Result = namedtuple("_Result", "digest report text extra_files code", defaults=(None, EXIT_OK))


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


def _deliver(args, result: _Result) -> int:
    """Render the format (CSV of the report's rows), write the --out files (str as UTF-8,
    an ndarray as .npy) and a manifest with the digest's seed, print, and return the exit code."""
    command, columns = args.command, _COMMANDS[args.command][3]
    report = json.dumps(result.report, indent=2, allow_nan=False) + "\n"  # strict JSON
    csv_text = _csv(columns, result.report["rows"]) if columns else None
    rendered = {"json": report, "csv": csv_text, "text": result.text}[args.format]

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = command.replace("-", "_")
        files = {f"{stem}_report.json": report, f"{stem}_summary.txt": result.text}
        if csv_text is not None:
            files[f"{stem}.csv"] = csv_text
        files.update(result.extra_files or {})
        blob = json.dumps(result.digest, sort_keys=True, separators=(",", ":"))
        manifest = {
            "command": command,
            "config_digest": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
            "seed": result.digest.get("seed"),
            "tool_version": __version__,
            "outputs": sorted(files),
        }
        files["manifest.json"] = json.dumps(manifest, indent=2) + "\n"
        for name, content in files.items():  # write, then rename: no half-written files
            with open(out / f"{name}.tmp", "wb") as fh:
                if isinstance(content, np.ndarray):
                    np.save(fh, content, allow_pickle=False)
                else:
                    fh.write(content.encode("utf-8"))
            os.replace(out / f"{name}.tmp", out / name)

    try:
        print(rendered, end="", flush=True)
    except BrokenPipeError:
        # The reader left early (e.g. `| head`), which is not an error.  Point
        # stdout at devnull so the interpreter's flush at exit cannot fail too.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return result.code


def _read_json(path):
    """The JSON document in a file; nesting too deep to decode is a ValueError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _floats(flag, text):
    """The numbers of a comma-separated flag value; a part that does not parse names the flag."""
    try:
        return [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _resolve_config(args):
    """Generation config and error_model settings: type-checked config file values, then flags."""
    data = _read_json(args.config) if args.config else {}
    model = data.get("error_model", {}) if isinstance(data, dict) else None
    for what, section, keys in (("config", data, (*_CONFIG_KEYS, "error_model")),
                                ("error_model", model, _MODEL_KEYS)):
        if not isinstance(section, dict):
            raise ValueError(f"{what} must be a JSON object")
        unknown = set(section) - set(keys)
        if unknown:
            raise ValueError(f"unknown {what} keys: {sorted(unknown)}")

    merged = {k: v for k, v in data.items() if k != "error_model"}
    # json reads true/false as bool, which Python also counts as an int
    for key, value in (*merged.items(), *model.items()):
        boolean = key == "jitter_t1"
        if isinstance(value, bool) != boolean or not isinstance(value, (int, float)):
            kind = "true or false" if boolean else "a number"
            raise ValueError(f"{key} must be {kind}, got {json.dumps(value)}")
    flags = {k: v for k, v in vars(args).items() if v is not None}
    merged.update((k, flags[k]) for k in _CONFIG_KEYS if k in flags)
    model.update((k, flags[k]) for k in _MODEL_KEYS if k in flags)
    if "p" not in merged:
        raise ValueError("p is required (flag --p or config file)")
    return GenerationConfig(**merged), model


def cmd_generate(args) -> _Result:
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
        "target": dataclasses.asdict(report.target),
        "post_selected_field": state_to_dict(report.post_selected_field),
        "joint_before_projection": state_to_dict(report.joint_before_projection),
    }
    human = _kv_text("generation report", {
        "p": cfg.p, "phi1": cfg.phi1, "phi_effective": cfg.phi_effective, "m2": cfg.m2,
        "gt1": gt1, "gt2": gt2,
        **{k: json_obj[k] for k in ("p2", "fidelity_to_target", "infidelity")},
        "target_phi": report.target.phi,
    })
    extra = {"post_field.json": json.dumps(json_obj["post_selected_field"], indent=2) + "\n"}
    return _Result(cfg_dict, json_obj, human, extra)


def cmd_measure(args) -> _Result:
    if (args.state_file is None) == (args.gbs is None):
        raise ValueError("measure needs exactly one of --gbs or --state-file")
    if args.state_file:
        if args.n_max is not None:
            raise ValueError("--n-max builds the --gbs state; a state file carries its own n_max")
        field = state_from_dict(_read_json(args.state_file))
        if not isinstance(field, FieldState):
            raise ValueError("state file must hold a field state")
        if args.decode_p is None or args.decode_phi is None:
            raise ValueError("--decode-p and --decode-phi are required with --state-file")
        source = {"state_file": args.state_file}
    else:
        try:  # a part that does not parse names the flag; GBSParams checks the ranges
            n, p, phi = args.gbs.split(",")
            n, p, phi = int(n), float(p), float(phi)
        except ValueError:
            raise ValueError(f"--gbs expects 'N,p,phi', got {args.gbs!r}") from None
        params = GBSParams(n, p, phi)
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
    return _Result(digest_obj, json_obj, human)


def cmd_optimize_timing(args) -> _Result:
    # g*T2 rises with m2, so the rows inside the window form one contiguous range
    rows = [r for r in scan_t2() if args.gt_min <= r.gt2 <= args.gt_max]
    if not rows:
        raise ValueError(
            f"window [{args.gt_min}, {args.gt_max}] holds no admissible "
            f"g*T2 = pi/4 + 2 pi m2 with m2 in [{M2_MIN}, {M2_MAX}]"
        )
    lo, hi, winner = rows[0].m2, rows[-1].m2, min(rows, key=lambda r: r.delta)  # optimize_t2's rule

    digest_obj = {"gt_min": args.gt_min, "gt_max": args.gt_max, "m2_min": lo, "m2_max": hi}
    json_obj = {  # an infinite bound leaves its side open: strict JSON records it as null
        "window": {k: v if math.isfinite(v) else None for k, v in digest_obj.items()},
        "rows": [dict(vars(r)) for r in rows],  # scan_t2's records, field for field
        "winner": {"m2": winner.m2, "gt2": winner.gt2, "delta": winner.delta},
    }
    lines = ["timing scan", f"  {'m2':>3} {'gt2':>12} {'delta':>12}"]
    lines += [f"  {r.m2:>3} {r.gt2:>12.6g} {r.delta:>12.6g}" for r in rows]
    lines.append(f"winner: m2={winner.m2} gt2={_num(winner.gt2)} delta={_num(winner.delta)}")
    return _Result(digest_obj, json_obj, "\n".join(lines) + "\n")


def cmd_error_sweep(args) -> _Result:
    cfg, model_cfg = _resolve_config(args)

    jitters = [model_cfg.pop("rel_timing_jitter", 1e-2)]
    if args.jitter is not None:
        jitters = _floats("--jitter", args.jitter)
    if not jitters:
        raise ValueError("--jitter lists no values")
    # ErrorModel checks the values unconverted (4.5 samples, a 400-digit efficiency)
    # and holds the defaults; the report reads both back from the built model.
    models = [ErrorModel(rel_timing_jitter=jit, **model_cfg) for jit in jitters]
    jitters = [float(model.rel_timing_jitter) for model in models]
    if len(set(jitters)) < len(jitters):  # by value: 1e-2,0.01 and 0,-0 are repeats too
        raise ValueError(f"--jitter repeats a value: {args.jitter}")
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
        if rpt.samples_used == 0:  # every mean would be NaN, which JSON cannot hold
            raise ValueError(f"no sample was detected at detector_efficiency="
                             f"{model_dict['detector_efficiency']!r} and samples={model.samples}; "
                             "raise detector_efficiency or samples")
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
        extra_files[f"mc_samples_j{jit!r}.npy"] = rpt.samples  # saved raw: exact doubles

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
    return _Result(digest_obj, json_obj, "\n".join(lines) + "\n", extra_files)


def cmd_verify_basis(args) -> _Result:
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
    return _Result(digest_obj, json_obj, human, code=EXIT_OK if ok else EXIT_VERIFY)


def cmd_feasibility(args) -> _Result:
    if (args.interaction_times is None) == (args.g is None):
        raise ValueError("feasibility needs exactly one of --interaction-times or --g")
    if args.dt_gap is not None and (args.g is None or args.sequence_duration is not None):
        raise ValueError("--dt-gap needs --g and no --sequence-duration: it derives the sequence")
    if args.m2 is not None and args.g is None:
        raise ValueError("--m2 needs --g: it derives the second transit time")
    if args.interaction_times is not None:
        times = tuple(_floats("--interaction-times", args.interaction_times))
        if args.sequence_duration is None:
            raise ValueError("--sequence-duration is required with --interaction-times")
        sequence = args.sequence_duration
    else:
        # SI derivation from the coupling: nominal transit times of the pipeline.
        if not (math.isfinite(args.g) and args.g > 0.0):
            raise ValueError(f"--g must be positive and finite, got {args.g}")
        times = (GT_FIRST / args.g, gt_second(5 if args.m2 is None else args.m2) / args.g)
        gap = args.dt_gap or 0.0
        if not (math.isfinite(gap) and gap >= 0.0):
            raise ValueError(f"--dt-gap must be non-negative and finite, got {gap}")
        sequence = (args.sequence_duration if args.sequence_duration is not None
                    else times[0] + gap + times[1])
    passed, margins = feasibility_check(args.tau_at, args.tau_cav, times, sequence)

    digest_obj = {"tau_at": args.tau_at, "tau_cav": args.tau_cav,
                  "interaction_times": list(times), "sequence_duration": sequence}
    json_obj = {"inputs": digest_obj, "pass": passed, "margins": margins}
    human = _kv_text("coherence budget (margins are lifetime/duration)", {
        "tau_at": args.tau_at, "tau_cav": args.tau_cav, **margins,
        "verdict": "PASS" if passed else "FAIL",
    })
    return _Result(digest_obj, json_obj, human)


_PIPELINE = (
    ("--config", dict(help="JSON config file")),
    ("--p", dict(type=float, help="excited-state weight of the atomic preparation")),
    ("--phi1", dict(type=float, help="preparation phase of atom 1")),
    ("--omega", dict(type=float, help="bare cavity frequency")),
    ("--dt-gap", dict(type=float, help="free evolution time between the atoms")),
    ("--n-max", dict(type=int, help="Fock truncation")),
    ("--m2", dict(type=int, help=f"timing index in [{M2_MIN}, {M2_MAX}]")),
)
# name: (command, its line in the top-level help, its flags after --out and --format in help
# order, the CSV columns of its report's rows: --format csv only where the command has a table)
_COMMANDS = {
    "generate": (cmd_generate, "run the two-atom generation pipeline", (
        *_PIPELINE,
        ("--gt1", dict(type=float, help="manual first transit g*t")),
        ("--gt2", dict(type=float, help="manual second transit g*t")),
    ), None),
    "measure": (cmd_measure, "probe a field state and decode the probe", (
        ("--gbs", dict(help="input binomial state as 'N,p,phi'")),
        ("--state-file", dict(help="serialized field state (JSON)")),
        ("--n-max", dict(type=int,
                         help=f"Fock truncation of the --gbs state (default {DEFAULT_N_MAX})")),
        ("--decode-p", dict(type=float, help="decoding zone weight (defaults to the --gbs p)")),
        ("--decode-phi", dict(type=float, help="decoding zone phase (defaults to the --gbs phi)")),
    ), None),
    "optimize-timing": (cmd_optimize_timing, "scan the admissible second interaction times", (
        ("--gt-min", dict(type=float, default=0.1, help="shortest admissible g*T")),
        ("--gt-max", dict(type=float, default=gt_second(M2_MAX), help="longest admissible g*T")),
    ), tuple(f.name for f in dataclasses.fields(TimingResult))),
    "error-sweep": (cmd_error_sweep, "Monte Carlo timing-jitter sweep", (
        *_PIPELINE,
        ("--jitter", dict(help="comma-separated relative jitters, e.g. '1e-2,1e-3'")),
        ("--samples", dict(type=int, help="Monte Carlo samples (at least 100)")),
        ("--seed", dict(type=int, help="Monte Carlo seed")),
        ("--detector-efficiency", dict(type=float, help="Bernoulli thinning of detected samples")),
        ("--no-t1-jitter", dict(dest="jitter_t1", action="store_false", default=None,
                                help="jitter only the second transit")),
    ), ("jitter", "delta_exp", "mean_infidelity", "std_infidelity", "mean_delivered_infidelity",
        "mean_p2", "samples_used")),
    "verify-basis": (cmd_verify_basis, "check the pseudo-angular-momentum eigenbasis", (
        ("--p", dict(type=float, required=True)),
        ("--phi", dict(type=float, default=0.0)),
    ), None),
    "feasibility": (cmd_feasibility, "coherence budget against atomic and cavity lifetimes", (
        ("--units", dict(choices=("si",), default="si",
                         help="time unit of every input: SI seconds")),
        ("--tau-at", dict(type=float, required=True, help="atomic lifetime (s)")),
        ("--tau-cav", dict(type=float, required=True, help="cavity lifetime (s)")),
        ("--interaction-times", dict(help="comma-separated transit durations (s)")),
        ("--sequence-duration", dict(type=float, help="total protocol duration (s)")),
        ("--g", dict(type=float, help="derive transit times from the coupling (rad/s)")),
        ("--dt-gap", dict(type=float, help="gap between atoms (s)")),
        ("--m2", dict(type=int, choices=range(M2_MIN, M2_MAX + 1), metavar="M2",
                      help="timing index for the derived T2")),
    ), None),
}


def _add_command(parser, name):
    """Give parser the named subcommand's flags, and its command and func defaults."""
    func, _, flags, columns = _COMMANDS[name]
    formats = ("json", "csv", "text") if columns else ("json", "text")
    parser.add_argument("--out", help="directory for reports and the run manifest")
    parser.add_argument("--format", choices=formats, default="text", help="stdout rendering")
    for flag, kwargs in flags:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(command=name, func=func)


@functools.cache
def _parser(name=None) -> argparse.ArgumentParser:
    """The named subcommand's parser alone, or with no name the full tree.  Built once per
    process: parsing only reads a parser, and help reads its width when it is formatted."""
    # allow_abbrev=False: a flag is spelled in full, so a prefix of a flag
    # (or a removed flag that is a prefix of a kept one) is an error
    if name:
        parser = argparse.ArgumentParser(prog=f"gbscavity {name}", allow_abbrev=False)
        _add_command(parser, name)
        return parser
    parser = argparse.ArgumentParser(
        prog="gbscavity", allow_abbrev=False,
        description="Two-photon binomial cavity states: generation, readout and error budget.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(command, help=help, allow_abbrev=False), command)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes -1.2e-05 after a flag for an option, so join it as --flag=-1.2e-05
    for i in range(len(argv) - 1, 0, -1):
        flag, value = argv[i - 1], argv[i]
        if flag.startswith("--") and flag != "--" and "=" not in flag and value.startswith("-"):
            with contextlib.suppress(ValueError):  # joined only where float() reads the value
                float(value)
                argv[i - 1:i + 1] = [f"{flag}={value}"]
    # The full tree hands all that follows a leading subcommand to that subcommand's parser, so
    # parse with it alone; any other argv (help, --version, a flag first) ends in exit 0 or 2 there.
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _parser(name).parse_args(argv[1:] if name else argv)
    try:
        return _deliver(args, args.func(args))
    except (TruncationLeakError, ValueError, TypeError, KeyError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_LEAK if isinstance(exc, TruncationLeakError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
