import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gbscavity
from gbscavity import (GT_FIRST, ErrorModel, GenerationConfig, gt_second, monte_carlo_jitter,
                       run_generation)
from gbscavity import cli
from gbscavity.cli import main


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    return code, json.loads(capsys.readouterr().out)


# ----------------------------------------------------------------- generate


def test_generate_report_and_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["generate", "--p", "0.5", "--out", str(out), "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["infidelity"] - 1.6e-9) <= 0.3e-9
    assert report["leakage"] < 1e-12

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
    ):
        cfg.write_text(json.dumps(config))
        assert main([command, "--config", str(cfg), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_generate_truncation_leak_exit_code():
    assert main(["generate", "--p", "0.5", "--n-max", "1"]) == 3


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


def test_measure_input_errors(tmp_path):
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
    assert main(["measure", "--gbs", "2,0.3"]) == 2
    # above the n_max ceiling, with as many amplitudes as that n_max asks for
    assert main(["measure", "--gbs", "2,0.3,0.9", "--n-max", "1001"]) == 2
    state.write_text(json.dumps({"n_max": 1001, "basis": "field",
                                 "amps": [[1.0, 0.0]] + [[0.0, 0.0]] * 1001}))
    assert main(["measure", "--state-file", str(state),
                 "--decode-p", "0.5", "--decode-phi", "0"]) == 2


def test_measure_has_no_csv_rendering(capsys):
    assert main(["measure", "--gbs", "2,0.3,0.9", "--format", "csv"]) == 2


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


def test_optimize_timing_window_errors():
    assert main(["optimize-timing", "--gt-min", "200", "--gt-max", "300"]) == 2
    assert main(["optimize-timing", "--gt-min", "5", "--gt-max", "2"]) == 2
    # g*T2 = 0.785, 7.07, ...: no admissible time lies inside [3, 4]
    assert main(["optimize-timing", "--gt-min", "3", "--gt-max", "4"]) == 2


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


def test_optimize_timing_window_holds_only_times_inside(capsys):
    code, report = run_json(capsys, ["optimize-timing", "--gt-min", "0.5", "--gt-max", "8"])
    assert code == 0
    assert [row["m2"] for row in report["rows"]] == [0, 1]
    assert (report["window"]["m2_min"], report["window"]["m2_max"]) == (0, 1)

    code, report = run_json(capsys, ["optimize-timing", "--gt-max", "inf"])
    assert code == 0
    assert [row["m2"] for row in report["rows"]] == list(range(17))


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
    with pytest.raises(SystemExit) as err:
        main(["feasibility", "--tau-at", "1", "--tau-cav", "1", "--g", "1000", "--m2", "99"])
    assert err.value.code == 2


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


def test_closed_stdout_pipe_is_quiet():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    env = {**os.environ, "PYTHONPATH": str(Path(gbscavity.__file__).parents[1])}
    try:
        proc = subprocess.run([sys.executable, "-m", "gbscavity.cli", "optimize-timing"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""
