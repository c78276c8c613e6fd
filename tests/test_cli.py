import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gbscavity
from gbscavity import (GT_FIRST, ErrorModel, GenerationConfig, TimingResult, gt_second,
                       monte_carlo_jitter, optimize_t2, run_generation, scan_t2)
from gbscavity import cli
from gbscavity.cli import main


def not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out, parse_constant=not_json)  # strictly


# ----------------------------------------------------------------- generate


def test_generate_report_and_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["generate", "--p", "0.5", "--out", str(out), "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["infidelity"] - 1.6e-9) <= 0.3e-9
    assert sorted(report) == ["config", "fidelity_to_target", "infidelity",
                              "joint_before_projection", "p2", "post_selected_field", "target"]

    for name in ("generate_report.json", "generate_summary.txt",
                 "post_field.json", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert len(manifest["config_digest"]) == 64
    assert int(manifest["config_digest"], 16) >= 0
    assert manifest["outputs"] == sorted(manifest["outputs"])

    # digest is a pure function of the resolved config
    out2 = tmp_path / "rerun"
    assert main(["generate", "--p", "0.5", "--out", str(out2)]) == 0
    capsys.readouterr()
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["config_digest"] == manifest["config_digest"]


def test_generate_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 0.5, "phi1": 0.4}))
    code, report = run_json(capsys, ["generate", "--config", str(cfg)])
    assert code == 0
    assert abs(report["target"]["phi"] - (math.pi - 0.4)) < 1e-12

    code, report = run_json(
        capsys, ["generate", "--config", str(cfg), "--phi1", "1.0"]
    )
    assert code == 0
    assert abs(report["target"]["phi"] - (math.pi - 1.0)) < 1e-12


def test_generate_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p": 0.5, "bogus": 1}))
    assert main(["generate", "--config", str(bad)]) == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["generate", "--config", str(garbled)]) == 2

    assert main(["generate"]) == 2  # p unspecified
    assert main(["generate", "--p", "1.5"]) == 2
    assert main(["generate", "--p", "0.5", "--n-max", "1001"]) == 2  # above the n_max ceiling


def test_config_values_have_their_json_types(tmp_path, capsys):
    # json reads true as a bool, which Python also counts as the integer 1
    cfg = tmp_path / "cfg.json"
    for command, config, flags, message in (
        ("generate", {"p": True, "m2": True}, [], "p must be a number, got true"),
        ("generate", {"p": 0.5, "m2": True}, [], "m2 must be a number, got true"),
        ("error-sweep", {"p": 0.5, "error_model": {"seed": True}}, [],
         "seed must be a number, got true"),
        ("error-sweep", {"p": 0.5, "error_model": {"rel_timing_jitter": "1e-2"}}, [],
         'rel_timing_jitter must be a number, got "1e-2"'),
        ("error-sweep", {"p": 0.5, "error_model": {"jitter_t1": 0}}, [],
         "jitter_t1 must be true or false, got 0"),
        ("error-sweep", {"p": 0.5, "error_model": {"jitter_t1": "false"}}, ["--no-t1-jitter"],
         'jitter_t1 must be true or false, got "false"'),
        # a flag that overrides a value does not hide its type
        ("generate", {"p": "abc"}, ["--p", "0.5"], 'p must be a number, got "abc"'),
        ("error-sweep", {"p": 0.5, "error_model": {"samples": "many"}}, ["--samples", "100"],
         'samples must be a number, got "many"'),
    ):
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_config_sections_must_be_objects(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for config, message in (([], "config must be a JSON object"),
                            ({"p": 0.5, "error_model": 5}, "error_model must be a JSON object")):
        cfg.write_text(json.dumps(config))
        for command in ("generate", "error-sweep"):
            assert main([command, "--config", str(cfg)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", [["generate"], ["error-sweep", "--samples", "100"]],
                         ids=["generate", "error-sweep"])
def test_pipeline_truncation_below_the_target_exits_2(command, tmp_path, capsys):
    # the two-photon target needs n_max >= 2: every p gets one error, before any work
    for p in ("0", "0.5", "1"):
        for n_max in ("0", "1"):
            out = tmp_path / f"p{p}_n{n_max}"
            assert main([*command, "--p", p, "--n-max", n_max, "--out", str(out)]) == 2
            assert capsys.readouterr() == ("", "error: n_max must be an integer in [2, 1000]\n")
            assert not out.exists()


# ------------------------------------------------------------------ measure


def test_measure_hit_and_miss(capsys):
    code, hit = run_json(capsys, ["measure", "--gbs", "2,0.3,0.9"])
    assert code == 0
    assert hit["prob_up"] >= 0.999

    miss_phi = math.pi + 0.9
    code, miss = run_json(capsys, [
        "measure", "--gbs", f"2,0.7,{miss_phi}",
        "--decode-p", "0.3", "--decode-phi", "0.9",
    ])
    assert code == 0
    assert miss["prob_down"] >= 0.999


def test_measure_consumes_generated_state(tmp_path, capsys):
    # n_max = 2 is the smallest truncation generate accepts; measure takes it too
    for name, p, phi1, n_max in (("gen", 0.4, 0.2, 4), ("gen_small", 0.5, 0.0, 2)):
        out = tmp_path / name
        assert main(["generate", "--p", str(p), "--phi1", str(phi1), "--n-max", str(n_max),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        code, report = run_json(capsys, [
            "measure", "--state-file", str(out / "post_field.json"),
            "--decode-p", str(p), "--decode-phi", str(math.pi - phi1),
        ])
        assert code == 0
        assert report["prob_up"] >= 0.999


def test_measure_input_errors(tmp_path, capsys):
    assert main(["measure"]) == 2
    assert main(["measure", "--gbs", "2,0.3,0.9",
                 "--state-file", "whatever.json"]) == 2
    assert main(["measure", "--state-file", str(tmp_path / "missing.json"),
                 "--decode-p", "0.5", "--decode-phi", "0"]) == 2
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"n_max": 4, "basis": "field",
                                 "amps": [[1.0, 0.0]] + [[0.0, 0.0]] * 4}))
    assert main(["measure", "--state-file", str(state)]) == 2  # decode params missing
    # the state file carries its own n_max; --n-max only builds a --gbs state
    assert main(["measure", "--state-file", str(state), "--n-max", "99",
                 "--decode-p", "0.5", "--decode-phi", "0"]) == 2
    joint = tmp_path / "joint.json"
    joint.write_text(json.dumps({"n_max": 1, "basis": "joint-atom-major",
                                 "amps": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    assert main(["measure", "--state-file", str(joint),
                 "--decode-p", "0.5", "--decode-phi", "0"]) == 2
    amps = json.dumps([[1.0, 0.0]] + [[0.0, 0.0]] * 4)
    for n_max in ("1e400", "4.5"):  # no overflow, no silent truncation to 4
        state.write_text(f'{{"n_max": {n_max}, "basis": "field", "amps": {amps}}}')
        assert main(["measure", "--state-file", str(state),
                     "--decode-p", "0.5", "--decode-phi", "0"]) == 2
    capsys.readouterr()
    for gbs in ("2,0.3", "2,0.3,0.9,1", "2.5,0.5,0", "2,abc,0"):  # one line naming the flag
        assert main(["measure", "--gbs", gbs]) == 2
        assert capsys.readouterr() == ("", f"error: --gbs expects 'N,p,phi', got {gbs!r}\n")
    assert main(["measure", "--gbs", "2,1e400,0"]) == 2  # parsed, but out of range
    assert capsys.readouterr() == ("", "error: p must be in [0, 1], got inf\n")
    # above the n_max ceiling, with as many amplitudes as that n_max asks for
    assert main(["measure", "--gbs", "2,0.3,0.9", "--n-max", "1001"]) == 2
    state.write_text(json.dumps({"n_max": 1001, "basis": "field",
                                 "amps": [[1.0, 0.0]] + [[0.0, 0.0]] * 1001}))
    assert main(["measure", "--state-file", str(state),
                 "--decode-p", "0.5", "--decode-phi", "0"]) == 2


def test_a_negative_exponent_value_after_a_flag_is_its_value(capsys):
    # argparse alone takes -1.2e-05 for an option and exits 2: "expected one argument"
    assert main(["measure", "--gbs", "2,0.5,0", "--decode-phi=-1.2e-05"]) == 0
    joined = capsys.readouterr()
    assert main(["measure", "--gbs", "2,0.5,0", "--decode-phi", "-1.2e-05"]) == 0
    assert capsys.readouterr() == joined
    assert "-1.2e-05" in joined.out


def test_a_negative_infinite_value_after_a_flag_is_named(capsys):
    assert main(["measure", "--gbs", "2,0.5,0", "--decode-phi", "-inf"]) == 2
    assert capsys.readouterr() == ("", "error: phi must be finite, got -inf\n")


@pytest.mark.parametrize("argv", [
    ["generate", "--config"],
    ["measure", "--decode-p", "0.5", "--decode-phi", "0", "--state-file"],
], ids=["config", "state-file"])
def test_deeply_nested_json_is_a_usage_error(argv, tmp_path, capsys):
    # json's decoder recurses once per level; too deep a file is named in one line, no traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    out = tmp_path / "out"
    assert main([*argv, str(deep), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {deep}: JSON nested too deeply to read\n")
    assert not out.exists()


def test_measure_has_no_csv_rendering(monkeypatch, capsys):
    # csv is offered only where a table exists: the parser rejects it before any computation
    def unreachable(*args):
        raise AssertionError("the computation ran")

    for computation in ("run_generation", "run_measurement", "verify_eigenbasis",
                        "feasibility_check"):
        monkeypatch.setattr(cli, computation, unreachable)
    for argv in (["generate", "--p", "0.5"], ["measure", "--gbs", "2,0.3,0.9"],
                 ["verify-basis", "--p", "0.5"],
                 ["feasibility", "--tau-at", "1e-2", "--tau-cav", "1e-1", "--g", "314159"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"gbscavity {argv[0]}: error: argument --format: invalid choice: 'csv' "
            "(choose from 'json', 'text')")


# ---------------------------------------------------------- optimize-timing


def test_optimize_timing_defaults(tmp_path, capsys):
    out = tmp_path / "scan"
    code, report = run_json(capsys, ["optimize-timing", "--out", str(out)])
    assert code == 0
    assert report["winner"]["m2"] == 5
    assert abs(report["winner"]["gt2"] - 41.0 * math.pi / 4.0) < 1e-12
    assert abs(report["winner"]["delta"] - 9.1e-5) < 1e-6
    assert len(report["rows"]) == 17

    csv_lines = (out / "optimize_timing.csv").read_text().splitlines()
    assert csv_lines[0] == "m2,gt2,sin_g_sqrt2_t2,delta"
    assert len(csv_lines) == 18
    first = csv_lines[1].split(",")
    assert first[0] == "0"
    assert abs(float(first[1]) - math.pi / 4.0) < 1e-15


def test_optimize_timing_window_errors(capsys):
    assert main(["optimize-timing", "--gt-min", "200", "--gt-max", "300"]) == 2
    assert main(["optimize-timing", "--gt-min", "5", "--gt-max", "2"]) == 2
    # g*T2 = 0.785, 7.07, ...: no admissible time lies inside [3, 4]
    assert main(["optimize-timing", "--gt-min", "3", "--gt-max", "4"]) == 2
    capsys.readouterr()
    # every comparison with NaN is false, so a NaN bound holds no time
    for bound in ("--gt-min", "--gt-max"):
        for fmt in ("text", "json", "csv"):
            assert main(["optimize-timing", bound, "nan", "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: window [")
            assert len(captured.err.splitlines()) == 1


def test_generate_rejects_overflowing_rabi_angle(tmp_path, capsys):
    # 1e308 is finite, but g*t*sqrt(n) is not: one usage error, no numpy
    # warning (tier-1 turns RuntimeWarnings into failures) and no files
    for flag in ("--gt1", "--gt2"):
        out = tmp_path / flag.lstrip("-")
        assert main(["generate", "--p", "0.5", f"{flag}=1e308", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(
            "error: Rabi angle g*t*sqrt(max(n_max, 1) + 1) must be finite")
        assert not out.exists()


def test_generate_rejects_a_post_selection_too_small_to_normalize(tmp_path, capsys):
    # p_second = 2e-316 is subnormal: one usage error that names it, and no files
    out = tmp_path / "run"
    assert main(["generate", "--p", "1", "--gt2", "1e-158", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: atom 2 never exits in |down>")
    assert "p_second=2e-316" in captured.err
    assert not out.exists()


def test_generate_rejects_a_target_phase_that_overflows(tmp_path, capsys):
    # phi1 = 1e308 is finite, but the target's e^(2 i phi) is not: one usage error,
    # raised before numpy computes it, so no numpy warning either
    out = tmp_path / "run"
    assert main(["generate", "--p", "0.5", "--phi1=1e308", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 2*phi_effective must be finite, got phi_effective=1e+308\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["measure", "--gbs", "2,0.5,1e308"],
                                  ["verify-basis", "--p", "0.5", "--phi=1e308"]],
                         ids=["measure", "verify-basis"])
def test_a_state_phase_that_overflows_is_named(tmp_path, capsys, argv):
    # the same rule for the phase of the state a command builds or checks
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 2*phi must be finite, got phi=1e+308\n"
    assert not out.exists()


def test_optimize_timing_window_holds_only_times_inside(capsys):
    code, report = run_json(capsys, ["optimize-timing", "--gt-min", "0.5", "--gt-max", "8"])
    assert code == 0
    assert [row["m2"] for row in report["rows"]] == [0, 1]
    assert (report["window"]["m2_min"], report["window"]["m2_max"]) == (0, 1)

    code, report = run_json(capsys, ["optimize-timing", "--gt-max", "inf"])
    assert code == 0
    assert [row["m2"] for row in report["rows"]] == list(range(17))
    assert report["window"]["gt_max"] is None  # open, and strict JSON holds no Infinity

    code, report = run_json(capsys, ["optimize-timing", "--gt-min=-inf"])
    assert code == 0
    assert [row["m2"] for row in report["rows"]] == list(range(17))
    assert report["window"]["gt_min"] is None

    # both bounds are inclusive: admissible times exactly on them are inside
    code, report = run_json(capsys, ["optimize-timing", "--gt-min", repr(gt_second(3)),
                                     "--gt-max", repr(gt_second(7))])
    assert code == 0
    assert [row["m2"] for row in report["rows"]] == [3, 4, 5, 6, 7]
    assert (report["window"]["m2_min"], report["window"]["m2_max"]) == (3, 7)
    assert report["winner"]["m2"] == 5


def test_optimize_timing_winner_is_optimize_t2_of_its_rows(capsys):
    # the command picks its winner from the rows it prints, by optimize_t2's rule (least
    # delta, ties to the smaller m2); over the full window it is optimize_t2's own winner
    for lo, hi in [(0, 16), (0, 4), (6, 16), (9, 9), (2, 13)]:
        code, report = run_json(capsys, ["optimize-timing", "--gt-min", repr(gt_second(lo)),
                                         "--gt-max", repr(gt_second(hi))])
        assert code == 0
        best = min(report["rows"], key=lambda r: (r["delta"], r["m2"]))
        assert report["winner"] == {k: best[k] for k in ("m2", "gt2", "delta")}
        if (lo, hi) == (0, 16):
            best = optimize_t2()
            assert report["winner"] == {"m2": best.m2, "gt2": best.gt2, "delta": best.delta}


def test_optimize_timing_rows_are_scan_t2_records(tmp_path, capsys):
    # the printed rows are scan_t2's TimingResult records, field for field, and the CSV
    # columns are the record's fields; the sine is scan_t2's own, not 1 - delta re-derived
    columns = ",".join(f.name for f in dataclasses.fields(TimingResult))
    for lo, hi in [(0, 16), (2, 13)]:
        out = tmp_path / f"scan_{lo}_{hi}"
        code, report = run_json(capsys, ["optimize-timing", "--gt-min", repr(gt_second(lo)),
                                         "--gt-max", repr(gt_second(hi)), "--out", str(out)])
        assert code == 0
        assert report["rows"] == [vars(r) for r in scan_t2() if lo <= r.m2 <= hi]
        csv_lines = (out / "optimize_timing.csv").read_text().splitlines()
        assert csv_lines[0] == columns
        assert len(csv_lines) == hi - lo + 2
        if lo == 0:  # m2 = 1: sin(sqrt(2) g T2) and 1 - (1 - sin) differ in the last bit
            assert csv_lines[2].split(",")[2] == "-0.54106977448474936"


# -------------------------------------------------------------- error-sweep


def test_error_sweep_rows_and_determinism(tmp_path, capsys):
    argv = ["error-sweep", "--p", "1.0", "--jitter", "1e-2,0",
            "--samples", "150", "--seed", "7"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out_a)]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", str(out_b)]) == 0
    capsys.readouterr()

    csv_a = (out_a / "error_sweep.csv").read_text()
    assert csv_a == (out_b / "error_sweep.csv").read_text()
    lines = csv_a.splitlines()
    assert lines[0] == ("jitter,delta_exp,mean_infidelity,std_infidelity,"
                        "mean_delivered_infidelity,mean_p2,samples_used")
    jittered = lines[1].split(",")
    assert abs(float(jittered[1]) - 0.207) < 1e-3  # delta_exp at 1e-2
    quiet = lines[2].split(",")
    assert float(quiet[1]) == 0.0
    assert float(quiet[3]) == 0.0  # zero jitter -> zero spread

    raw = (out_a / "mc_samples_j0.01.npy").read_bytes()
    assert raw == (out_b / "mc_samples_j0.01.npy").read_bytes()  # same seed, same bytes
    per_sample = np.load(out_a / "mc_samples_j0.01.npy", allow_pickle=False)
    assert per_sample.dtype == np.dtype([("index", "<i8"), ("eps_t1", "<f8"), ("eps_t2", "<f8"),
                                         ("fidelity", "<f8"), ("p2", "<f8"), ("detected", "|b1")])
    assert len(per_sample) == 150
    assert (out_a / "mc_samples_j0.0.npy").exists()  # named by repr(jitter)
    # the file holds the report's records bit for bit
    cfg = GenerationConfig(p=1.0)
    model = ErrorModel(rel_timing_jitter=1e-2, samples=150, seed=7)
    assert per_sample.tobytes() == monte_carlo_jitter(cfg, model).samples.tobytes()
    # sample i draws from its own stream (seed, i): eps_t1, eps_t2, then the
    # detector roll
    for i, record in enumerate(per_sample):
        rng = np.random.default_rng((7, i))
        eps1, eps2 = rng.normal(0.0, 1e-2, size=2)
        assert (record["index"], record["eps_t1"], record["eps_t2"]) == (i, eps1, eps2)
        assert record["detected"] == (rng.random() < 1.0)
        report = run_generation(cfg, gt1=GT_FIRST * (1.0 + eps1),
                                gt2=gt_second(cfg.m2) * (1.0 + eps2))
        assert abs(record["fidelity"] - report.fidelity_to_target) <= 1e-14
        assert abs(record["p2"] - report.p2) <= 1e-14

    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["command"] == "error-sweep"


def test_error_sweep_rejects_repeated_jitter(tmp_path, capsys):
    # a repeat would write two report rows over one sample file; values compare as floats
    for jitters in ("1e-2,1e-2", "1e-2,0.01", "0,-0", "1e-3,1e-2,0.001"):
        out = tmp_path / jitters
        assert main(["error-sweep", "--p", "0.5", "--jitter", jitters, "--samples", "100",
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: --jitter repeats a value: {jitters}\n")
        assert not out.exists()


def test_error_sweep_names_the_flag_of_a_malformed_jitter(tmp_path, capsys):
    # a part that is no number is named by its flag, in one line; ranges keep their messages
    for jitters in ("1e-2,abc", "abc", "1e-2;1e-3"):
        out = tmp_path / "run"
        assert main(["error-sweep", "--p", "0.5", "--jitter", jitters, "--samples", "100",
                     "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: --jitter expects comma-separated numbers, got {jitters!r}\n")
        assert not out.exists()
    assert main(["error-sweep", "--p", "0.5", "--jitter", "1e-2,2", "--samples", "100"]) == 2
    assert capsys.readouterr() == ("", "error: rel_timing_jitter must be in [0, 1], got 2.0\n")


def test_error_sweep_quantiles_are_those_of_the_detected_fidelities(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["error-sweep", "--p", "0.5", "--jitter", "2e-2", "--samples", "200",
                 "--seed", "3", "--detector-efficiency", "0.6", "--out", str(out)]) == 0
    capsys.readouterr()
    (row,) = json.loads((out / "error_sweep_report.json").read_text())["rows"]
    samples = np.load(out / "mc_samples_j0.02.npy", allow_pickle=False)
    kept = samples["fidelity"][samples["detected"]]
    assert 0 < kept.size < samples.size
    assert list(row["quantiles"]) == ["0.05", "0.25", "0.5", "0.75", "0.95"]
    for key, value in row["quantiles"].items():
        assert value == np.quantile(kept, float(key))


def test_error_sweep_leaves_numpy_ma_unloaded(tmp_path):
    # numpy 1.x loads numpy.ma with numpy itself; 2.x loads it lazily, as np.quantile did
    probe = ("import sys; from gbscavity.cli import main; main({}); "
             "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(gbscavity.__file__).parents[1])}
    argv = ["error-sweep", "--p", "1.0", "--jitter", "1e-2,1e-3", "--samples", "1000",
            "--seed", "7", "--out", str(tmp_path / "run")]

    def loaded(code):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        return proc.stdout.splitlines()[-1] == "True"

    swept = loaded(probe.format(argv))
    assert (tmp_path / "run" / "manifest.json").exists()
    assert not swept or loaded("import sys, numpy; print('numpy.ma' in sys.modules)")


@pytest.mark.parametrize("efficiency", ["0", "1e-9"])
def test_error_sweep_rejects_a_run_that_detects_no_sample(tmp_path, capsys, efficiency):
    # every mean over no sample is NaN, which strict JSON cannot hold
    out = tmp_path / "run"
    assert main(["error-sweep", "--p", "1.0", "--jitter", "1e-2", "--samples", "100",
                 "--detector-efficiency", efficiency, "--format", "json", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: no sample was detected at detector_efficiency="
                                       f"{float(efficiency)!r} and samples=100; "
                                       "raise detector_efficiency or samples\n")
    assert not out.exists()
    # the library keeps its NaN summary for callers that count the drops themselves
    model = ErrorModel(rel_timing_jitter=1e-2, detector_efficiency=float(efficiency), samples=100)
    report = monte_carlo_jitter(GenerationConfig(p=1.0), model)
    assert report.samples_used == 0 and math.isnan(report.mean_fidelity)


def test_error_sweep_keeps_one_sample_file_per_jitter(tmp_path, capsys):
    # both jitters print as 0.0100001 at 6 significant digits; repr keeps them apart
    out = tmp_path / "run"
    assert main(["error-sweep", "--p", "1.0", "--jitter", "0.0100001,0.01000011",
                 "--samples", "100", "--out", str(out)]) == 0
    capsys.readouterr()
    names = ["mc_samples_j0.0100001.npy", "mc_samples_j0.01000011.npy"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [n for n in manifest["outputs"] if n.startswith("mc_samples_")] == names
    first, second = (np.load(out / n, allow_pickle=False) for n in names)
    assert first.tobytes() != second.tobytes()
    assert len(first) == len(second) == 100


def test_error_sweep_no_t1_jitter(tmp_path, capsys):
    argv = ["error-sweep", "--p", "0.5", "--jitter", "1e-2", "--samples", "100", "--seed", "3"]
    runs = []
    for flags in ([], ["--no-t1-jitter"]):
        out = tmp_path / f"run{len(runs)}"
        code, report = run_json(capsys, [*argv, *flags, "--out", str(out)])
        assert code == 0
        assert report["model"]["jitter_t1"] is (not flags)
        runs.append((np.load(out / "mc_samples_j0.01.npy", allow_pickle=False),
                     json.loads((out / "manifest.json").read_text())["config_digest"]))
    (both, both_digest), (second, second_digest) = runs
    assert np.any(both["eps_t1"] != 0.0)
    assert np.all(second["eps_t1"] == 0.0)
    assert second["eps_t2"].tobytes() == both["eps_t2"].tobytes()
    assert second_digest != both_digest
    # the flag merges like every config value: over a file's true it writes what a false does
    written = []
    for value, flags in ((True, ["--no-t1-jitter"]), (False, [])):
        cfg, out = tmp_path / f"cfg_{value}.json", tmp_path / f"cfg_run_{value}"
        cfg.write_text(json.dumps({"error_model": {"jitter_t1": value}}))
        assert main([*argv, "--config", str(cfg), *flags, "--out", str(out)]) == 0
        written.append((capsys.readouterr().out,
                        {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    assert written[0] == written[1]
    flagged = (tmp_path / "run1" / "mc_samples_j0.01.npy").read_bytes()
    assert written[0][1]["mc_samples_j0.01.npy"] == flagged


def test_error_sweep_sample_floor():
    assert main(["error-sweep", "--p", "0.5", "--jitter", "1e-2",
                 "--samples", "50"]) == 2
    assert main(["error-sweep", "--p", "0.5", "--jitter", ",", "--samples", "100"]) == 2


def test_error_sweep_sample_ceiling_and_memory_error(monkeypatch, capsys):
    # more samples than 32-bit stream keys: a usage error before any allocation
    assert main(["error-sweep", "--p", "1", "--samples", "1000000000000"]) == 2
    assert capsys.readouterr().err == "error: samples must be an integer in [1, 2**32]\n"

    def out_of_memory(config, model):
        raise MemoryError("Unable to allocate 14.6 TiB")

    monkeypatch.setattr(cli, "monte_carlo_jitter", out_of_memory)
    assert main(["error-sweep", "--p", "1", "--samples", "100"]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 14.6 TiB\n"


def test_error_sweep_reads_error_model_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "p": 0.5,
        "error_model": {"rel_timing_jitter": 0.0, "samples": 120, "seed": 3},
    }))
    code, report = run_json(capsys, ["error-sweep", "--config", str(cfg)])
    assert code == 0
    assert report["model"]["samples"] == 120
    assert report["model"]["seed"] == 3
    row = report["rows"][0]
    assert row["jitter"] == 0.0
    assert row["std_infidelity"] == 0.0
    assert row["samples_used"] == 120


# ------------------------------------------------------------- verify-basis


def test_verify_basis_passes(capsys):
    for argv in (["verify-basis", "--p", "0.5"],
                 ["verify-basis", "--p", "0.3", "--phi", "1.7"]):
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["pass"] is True
        assert report["max_residual"] < 1e-12
        assert np.allclose(report["eigenvalues"], (1.0, 0.0, -1.0), atol=1e-10)


def test_j3_spectrum_output(capsys):
    # The J3 spectrum is reported by verify-basis; the former j3-spectrum
    # subcommand is gone.
    code, report = run_json(capsys, ["verify-basis", "--p", "0.42", "--phi", "0.3"])
    assert code == 0
    assert report["pass"] is True
    assert np.allclose(report["eigenvalues"], (1.0, 0.0, -1.0), atol=1e-10)
    assert max(report["residuals"]) < 1e-12
    with pytest.raises(SystemExit) as exc:
        main(["j3-spectrum", "--p", "0.42"])
    assert exc.value.code == 2


def test_verify_basis_failure_paths(nudged_j3, capsys):
    assert main(["verify-basis", "--p", "0.5"]) == 4
    assert capsys.readouterr().out.endswith(" FAIL\n")
    assert main(["verify-basis", "--p", "1.2"]) == 2


# -------------------------------------------------------------- feasibility


def test_feasibility_explicit_times(capsys):
    code, report = run_json(capsys, [
        "feasibility", "--tau-at", "1e-2", "--tau-cav", "1e-1",
        "--interaction-times", "1e-4,3e-4", "--sequence-duration", "5e-4",
    ])
    assert code == 0
    assert report["pass"] is True
    assert abs(report["margins"]["interaction_0"] - 100.0) < 1e-9
    assert abs(report["margins"]["sequence"] - 20.0) < 1e-9

    code, report = run_json(capsys, [
        "feasibility", "--tau-at", "1e-5", "--tau-cav", "1e-1",
        "--interaction-times", "1e-4", "--sequence-duration", "2e-4",
    ])
    assert code == 0  # a failed budget is a result, not an error
    assert report["pass"] is False


def test_feasibility_derived_from_coupling(capsys):
    code, report = run_json(capsys, [
        "feasibility", "--tau-at", "1", "--tau-cav", "1", "--g", "1000",
    ])
    assert code == 0
    times = report["inputs"]["interaction_times"]
    assert abs(times[0] - math.pi / 2.0 / 1000.0) < 1e-15
    assert abs(times[1] - 41.0 * math.pi / 4.0 / 1000.0) < 1e-15
    assert abs(report["inputs"]["sequence_duration"] - sum(times)) < 1e-15
    assert report["pass"] is True
    for gap in (0.0, 1e-4):  # the gap between the atoms joins the derived sequence
        code, report = run_json(capsys, [
            "feasibility", "--tau-at", "1", "--tau-cav", "1", "--g", "1000", f"--dt-gap={gap}",
        ])
        assert code == 0
        assert report["inputs"]["sequence_duration"] == times[0] + gap + times[1]
    code, report = run_json(capsys, [  # --m2 picks the derived second transit
        "feasibility", "--tau-at", "1", "--tau-cav", "1", "--g", "1000", "--m2", "3",
    ])
    assert code == 0
    assert report["inputs"]["interaction_times"] == [times[0], gt_second(3) / 1000.0]


def test_feasibility_input_errors(capsys):
    assert main(["feasibility", "--tau-at", "1", "--tau-cav", "1"]) == 2
    assert main(["feasibility", "--tau-at", "1", "--tau-cav", "1",
                 "--g", "1000", "--interaction-times", "1e-4"]) == 2
    assert main(["feasibility", "--tau-at", "1", "--tau-cav", "1",
                 "--interaction-times", "1e-4"]) == 2  # no duration
    capsys.readouterr()
    for g in ("0", "-1", "inf", "nan"):  # refused before the division by g
        assert main(["feasibility", "--tau-at", "1", "--tau-cav", "1", "--g", g]) == 2
        assert "--g must be positive and finite" in capsys.readouterr().err
    # a negative gap would shorten the derived sequence below its own transits
    for gap in ("-1e-4", "-inf", "inf", "nan"):
        assert main(["feasibility", "--tau-at", "1e-2", "--tau-cav", "1e-1",
                     "--g", "1e5", f"--dt-gap={gap}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --dt-gap must be non-negative and finite, got {float(gap)}"]
    # --dt-gap only derives the sequence from --g; anywhere else it would be ignored
    for argv in (["--interaction-times", "1e-5,1e-5", "--sequence-duration", "3e-5"],
                 ["--g", "1e5", "--sequence-duration", "3e-5"]):
        assert main(["feasibility", "--tau-at", "1e-2", "--tau-cav", "1e-1", *argv,
                     "--dt-gap=-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --dt-gap needs --g and no --sequence-duration: it derives the sequence"]
    # --m2 only derives the second transit from --g; with explicit times it would be ignored
    assert main(["feasibility", "--tau-at", "1e-2", "--tau-cav", "1e-1", "--interaction-times",
                 "1e-4,3e-4", "--sequence-duration", "5e-4", "--m2", "3"]) == 2
    assert capsys.readouterr() == (
        "", "error: --m2 needs --g: it derives the second transit time\n")
    with pytest.raises(SystemExit) as err:
        main(["feasibility", "--tau-at", "1", "--tau-cav", "1", "--g", "1000", "--m2", "99"])
    assert err.value.code == 2


def test_feasibility_names_the_flag_of_a_malformed_time(capsys):
    base = ["feasibility", "--tau-at", "1", "--tau-cav", "1", "--sequence-duration", "1e-3"]
    for times in ("1e-3,xyz", "1e-3 1e-3"):
        assert main([*base, "--interaction-times", times]) == 2
        assert capsys.readouterr() == (
            "", f"error: --interaction-times expects comma-separated numbers, got {times!r}\n")
    assert main([*base, "--interaction-times", "1e-3,-1"]) == 2  # parsed, but out of range
    assert capsys.readouterr() == ("", "error: all lifetimes and durations must be positive\n")


def test_feasibility_margin_overflow_is_a_usage_error(tmp_path, capsys):
    # each input is finite, but 1e300 / 1e-300 is not: JSON has no Infinity to write
    out = tmp_path / "out"
    assert main(["feasibility", "--tau-at", "1e300", "--tau-cav", "1e300",
                 "--interaction-times", "1e-300", "--sequence-duration", "1e-300",
                 "--format", "json", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: feasibility margin interaction_0 (lifetime/duration) overflows\n")
    assert not out.exists()


# ------------------------------------------------------------------- parser


def test_pipeline_takes_no_coupling(tmp_path):
    # transits are g*t products, so generate and error-sweep have no --g: it
    # must not be read as an abbreviation of another flag either
    for argv in (["generate", "--p=0.5", "--g=2"],
                 ["error-sweep", "--p=0.5", "--samples=100", "--g=2"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 0.5, "g": 1.0}))
    for command in ("generate", "error-sweep"):
        assert main([command, "--config", str(cfg)]) == 2


def test_flags_are_spelled_in_full(capsys):
    # no prefix matching: --jit is not --jitter, and a removed flag that is a
    # prefix of a kept one (--g of --gt1/--gt2) stays an error, reported with
    # the subcommand's usage line so that the user sees its flags
    for argv in (["error-sweep", "--p=1", "--jit=1e-2", "--samples=100"],
                 ["error-sweep", "--p", "1", "--jitter", "1e-2", "--sam", "100"],
                 ["generate", "--g=2"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"usage: gbscavity {argv[0]} ")
        assert f"gbscavity {argv[0]}: error: unrecognized arguments: " in stderr
    # a flag before the subcommand is the top-level parser's to report
    with pytest.raises(SystemExit) as err:
        main(["--foo", "generate", "--p", "1"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: gbscavity [-h]")
    assert "gbscavity: error: unrecognized arguments: --foo" in stderr


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


SUBCOMMANDS = ("generate", "measure", "optimize-timing", "error-sweep", "verify-basis",
               "feasibility")


def _exit(capsys, argv):
    """(exit code, stdout, stderr) of an argv that argparse ends with SystemExit."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    return (err.value.code, *capsys.readouterr())


def test_top_level_help_lists_every_subcommand(capsys):
    code, out, err = _exit(capsys, ["--help"])
    assert (code, err) == (0, "")
    assert "{" + ",".join(SUBCOMMANDS) + "}" in out


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_leading_subcommand_parses_as_in_the_full_tree(name, capsys):
    # A leading subcommand builds its parser alone.  A flag before it sends the
    # argv through the full tree, which hands the rest to the same subcommand's
    # parser; that one exits (help) or errors (a bad choice) before --bogus is reported.
    code, out, err = alone = _exit(capsys, [name, "--help"])
    assert (code, err) == (0, "") and out.startswith(f"usage: gbscavity {name} [-h]")
    assert _exit(capsys, ["--bogus", name, "--help"]) == alone
    code, out, err = alone = _exit(capsys, [name, "--format=xml"])
    assert (code, out) == (2, "")
    assert f"gbscavity {name}: error: argument --format: invalid choice: 'xml'" in err
    assert _exit(capsys, ["--bogus", name, "--format=xml"]) == alone


# one good argv per subcommand, each with its own --out files
GOOD_ARGV = {
    "generate": ["generate", "--p", "0.5", "--phi1", "0.4"],
    "measure": ["measure", "--gbs", "2,0.3,0.9", "--format", "json"],
    "optimize-timing": ["optimize-timing", "--format", "csv"],
    "error-sweep": ["error-sweep", "--p", "0.5", "--jitter", "1e-2,1e-3", "--samples", "200",
                    "--seed", "3"],
    "verify-basis": ["verify-basis", "--p", "0.5", "--format", "json"],
    "feasibility": ["feasibility", "--tau-at", "1e-2", "--tau-cav", "1e-1", "--g", "314159"],
}


def _outcome(capsys, argv, out):
    """(exit code, stdout, stderr, --out file bytes by name) of one in-process run."""
    code = main([*argv, "--out", str(out)])
    return (code, *capsys.readouterr(), {f.name: f.read_bytes() for f in out.iterdir()})


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_same_argv_twice_gives_the_same_bytes(name, tmp_path, capsys):
    # each parser is built once per process and only read by parsing
    first = _outcome(capsys, GOOD_ARGV[name], tmp_path / "first")
    assert first[0] == 0 and first[1] and first[3]
    misses = cli._parser.cache_info().misses
    assert _outcome(capsys, GOOD_ARGV[name], tmp_path / "second") == first
    assert cli._parser.cache_info().misses == misses  # the second call built no parser


@pytest.mark.parametrize("between", [
    ["generate", "--bogus"], ["generate", "--p"], ["generate", "-h"],
    ["-h"], ["--bogus", "generate", "--p", "0.5"],
], ids=["unknown-flag", "missing-value", "help", "top-help", "flag-first"])
def test_a_rejected_parse_or_help_leaves_the_next_call_unchanged(between, tmp_path, capsys):
    first = _outcome(capsys, GOOD_ARGV["generate"], tmp_path / "first")
    code, _, _ = _exit(capsys, between)
    assert code == (0 if between[-1] == "-h" else 2)
    assert _outcome(capsys, GOOD_ARGV["generate"], tmp_path / "second") == first


def test_cached_help_matches_a_fresh_parser(monkeypatch, capsys):
    # help reads the terminal width when it is printed, so a parser built at one
    # COLUMNS prints at another exactly what a parser built there prints
    helps = {}
    for width, other in (("80", "200"), ("200", "80")):
        cli._parser.cache_clear()
        monkeypatch.setenv("COLUMNS", other)
        for argv in (["generate", "-h"], ["-h"]):
            _exit(capsys, argv)
        monkeypatch.setenv("COLUMNS", width)
        cached = [_exit(capsys, argv) for argv in (["generate", "-h"], ["-h"])]
        cli._parser.cache_clear()
        assert [_exit(capsys, argv) for argv in (["generate", "-h"], ["-h"])] == cached
        helps[width] = cached
    assert helps["80"][0] != helps["200"][0]  # the width reaches the text


def _run_on_closed_pipe(argv):
    """(exit code, stderr) of a fresh `python -m gbscavity.cli` whose stdout is a pipe
    with no reader, so that its first write fails."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    env = {**os.environ, "PYTHONPATH": str(Path(gbscavity.__file__).parents[1])}
    try:
        proc = subprocess.run([sys.executable, "-m", "gbscavity.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


def test_closed_stdout_pipe_is_quiet():
    assert _run_on_closed_pipe(["optimize-timing"]) == (0, b"")


def test_closed_stdout_pipe_still_writes_the_out_files(tmp_path, capsys):
    out = tmp_path / "scan"
    argv = ["optimize-timing", "--format", "csv"]
    assert _run_on_closed_pipe([*argv, "--out", str(out)]) == (0, b"")
    names = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*names, "manifest.json"])
    assert main(argv) == 0  # what the pipe would have read
    assert (out / "optimize_timing.csv").read_text() == capsys.readouterr().out
