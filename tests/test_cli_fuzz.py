"""Property test: every CLI input ends in a documented exit code, never a traceback.

Each example is a subcommand with a valid base argv and one of its --format
choices, then a few flags overridden as `--flag=value` with values drawn from
a fixed set of awkward numbers and strings, malformed state and config files,
and --out targets.  An exit code outside {0, 2, 3, 4}, an exception escaping
`main`, a warning (a real run prints it on stderr), a stderr that is not a
single `error: ` line, or a format the subcommand lacks that gets past the
argument parser fails the test.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbscavity.cli import main

VALUES = ("0", "-1", "0.5", "2", "nan", "inf", "1e400", "abc", "")

GOOD_STATE = {"n_max": 4, "basis": "field", "amps": [[1.0, 0.0]] + [[0.0, 0.0]] * 4}
STATE_FILES = {
    "good": json.dumps(GOOD_STATE),
    "n_max_huge": json.dumps(GOOD_STATE).replace('"n_max": 4', '"n_max": 1e400'),
    "n_max_fraction": json.dumps({**GOOD_STATE, "n_max": 4.5}),
    "n_max_text": json.dumps({**GOOD_STATE, "n_max": "4"}),
    "n_max_small": json.dumps({"n_max": 2, "basis": "field", "amps": [[1, 0], [0, 0], [0, 0]]}),
    "amp_nan": json.dumps(GOOD_STATE).replace("[1.0, 0.0]", "[NaN, 0.0]"),
    "amp_huge": json.dumps(GOOD_STATE).replace("[1.0, 0.0]", "[1e400, 0.0]"),
    "amp_short": json.dumps({**GOOD_STATE, "amps": [[1.0]]}),
    "amp_text": json.dumps({**GOOD_STATE, "amps": [["a", "b"]] * 5}),
    "amps_scalar": json.dumps({**GOOD_STATE, "amps": 5}),
    "unnormalized": json.dumps({**GOOD_STATE, "amps": [[2.0, 0.0]] + [[0.0, 0.0]] * 4}),
    "joint": json.dumps({"n_max": 1, "basis": "joint-atom-major",
                         "amps": [[1, 0], [0, 0], [0, 0], [0, 0]]}),
    "no_basis": json.dumps({"n_max": 4, "amps": GOOD_STATE["amps"]}),
    "no_amps": json.dumps({"n_max": 4, "basis": "field"}),
    "amp_bool": json.dumps({**GOOD_STATE, "amps": [[True, False]] + [[False, False]] * 4}),
    "list": "[]",
    "string": '"abc"',
    "null": "null",
    "garbled": "{not json",
    "empty": "",
}
CONFIG_FILES = {
    "good": json.dumps({"p": 0.5, "error_model": {"rel_timing_jitter": 0.0, "samples": 100}}),
    "list": "[]",
    "p_text": json.dumps({"p": "abc"}),
    "p_huge": '{"p": 1e400}',
    "p_nan": '{"p": NaN}',
    "n_max_huge": '{"p": 0.5, "n_max": 1e400}',
    "n_max_long": '{"p": 0.5, "omega": 1.0, "n_max": 1' + "0" * 400 + "}",
    "n_max_above_ceiling": json.dumps({"p": 0.5, "n_max": 1001}),
    "phi1_long": '{"p": 0.5, "phi1": 1' + "0" * 400 + "}",
    "phase_long": '{"p": 0.5, "omega": 1' + "0" * 200 + ', "dt_gap": 1' + "0" * 200 + "}",
    "unknown_key": json.dumps({"p": 0.5, "bogus": 1}),
    "model_list": json.dumps({"p": 0.5, "error_model": []}),
    "model_unknown": json.dumps({"p": 0.5, "error_model": {"bogus": 1}}),
    "samples_huge": '{"p": 0.5, "error_model": {"samples": 1e400}}',
    "samples_fraction": json.dumps({"p": 0.5, "error_model": {"samples": 100.5}}),
    "seed_huge": '{"p": 0.5, "error_model": {"seed": 1e400}}',
    "jitter_long": '{"p": 0.5, "error_model": {"rel_timing_jitter": 1' + "0" * 400 + "}}",
    "efficiency_long": '{"p": 0.5, "error_model": {"detector_efficiency": 1' + "0" * 400 + "}}",
    "jitter_text": json.dumps({"p": 0.5, "error_model": {"rel_timing_jitter": "abc"}}),
    "garbled": "{not json",
}

PIPELINE = ("--p", "--phi1", "--omega", "--dt-gap", "--n-max", "--m2", "--config")
BASE = {
    "generate": ["--p=0.5"],
    "measure": ["--gbs=2,0.3,0.9"],
    "optimize-timing": [],
    # --samples is drawn from VALUES only, so a sweep never runs above 100 samples.
    "error-sweep": ["--p=0.5", "--jitter=1e-2", "--samples=100"],
    "verify-basis": ["--p=0.5"],
    "feasibility": ["--tau-at=1e-2", "--tau-cav=1e-1", "--g=314159"],
}
# a drawn --state-file replaces measure's --gbs; a drawn decode flag overrides these
STATE_FILE_BASE = ["--decode-p=0.5", "--decode-phi=0"]
# csv is offered only where the command builds a table
FORMATS = {command: ("json", "text") for command in BASE}
FORMATS["optimize-timing"] = FORMATS["error-sweep"] = ("json", "csv", "text")
FLAGS = {
    "generate": PIPELINE + ("--gt1", "--gt2"),
    "measure": ("--gbs", "--state-file", "--n-max", "--decode-p", "--decode-phi"),
    "optimize-timing": ("--gt-min", "--gt-max"),
    "error-sweep": PIPELINE + ("--jitter", "--samples", "--seed", "--detector-efficiency"),
    "verify-basis": ("--p", "--phi"),
    "feasibility": ("--tau-at", "--tau-cav", "--interaction-times", "--sequence-duration",
                    "--g", "--dt-gap", "--m2", "--units"),
}
EXTRA_VALUES = {
    "--gbs": ("2,0.3,0.9", "2,0.3", "2,nan,0", "2,0.5,inf", "1e400,0.5,0", "abc,0.5,0.1"),
    "--jitter": ("1e-2,0", ",", "1e-2,abc"),
    "--interaction-times": ("1e-4,3e-4", ","),
    "--units": ("si", "gt"),
    "--n-max": ("1001",),  # above the n_max ceiling
}
# file flags draw a file name; the fixture maps (kind, name) to a path
FILE_FLAGS = {
    "--state-file": ("state", sorted(STATE_FILES) + ["binary", "directory", "missing"]),
    "--config": ("config", sorted(CONFIG_FILES) + ["directory", "missing"]),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for kind, table in (("state", STATE_FILES), ("config", CONFIG_FILES)):
        for name, text in table.items():
            path = root / f"{kind}_{name}.json"
            path.write_text(text, encoding="utf-8")
            paths[kind, name] = str(path)
    (root / "state_binary.json").write_bytes(b"\xff\xfe\x00")
    paths["state", "binary"] = str(root / "state_binary.json")
    paths["state", "directory"] = paths["config", "directory"] = str(root)
    paths["state", "missing"] = paths["config", "missing"] = str(root / "missing.json")
    paths["out", "dir"] = str(root / "out")
    paths["out", "file"] = paths["state", "good"]  # not a directory: --out must fail
    return paths


def _values(flag):
    if flag in FILE_FLAGS:
        return FILE_FLAGS[flag][1]
    return VALUES + EXTRA_VALUES.get(flag, ())


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = draw(st.lists(st.sampled_from(FLAGS[command]), unique=True, max_size=3))
    overrides = [(flag, draw(st.sampled_from(_values(flag)))) for flag in flags]
    fmt = draw(st.sampled_from(FORMATS[command]))
    out = draw(st.sampled_from((None, "dir", "file")))
    return command, overrides, fmt, out


def _argv(files, command, overrides, fmt, out):
    base = STATE_FILE_BASE if "--state-file" in dict(overrides) else BASE[command]
    argv = [command, *base, f"--format={fmt}"]
    for flag, value in overrides:
        if flag in FILE_FLAGS:
            value = files[FILE_FLAGS[flag][0], value]
        argv.append(f"{flag}={value}")
    if out is not None:
        argv.append(f"--out={files['out', out]}")
    return argv


# omega*dt_gap = 1.5e308 is finite, but the free-field phase n*omega*dt_gap
# of the higher photon numbers is not: rejected once, by GenerationConfig.
# A relative jitter above 1 would overflow delta_exp and the jittered transit
# times: rejected once, by ErrorModel.
OVERFLOW = [
    ("generate", [("--omega", "1e308"), ("--dt-gap", "1.5")], "text", None),
    ("error-sweep", [("--omega", "1e308"), ("--dt-gap", "1.5")], "json", "dir"),
    ("error-sweep", [("--jitter", "1e300")], "text", None),
    ("error-sweep", [("--jitter", "1e308")], "json", "dir"),
]


def _run(argv):
    """(exit code, whether argparse exited, stderr, warnings caught)."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = main(argv)
            usage_error = False
        except SystemExit as exc:  # argparse rejects malformed flags this way
            code, usage_error = exc.code, True
    return code, usage_error, stderr.getvalue(), caught


def test_a_good_state_file_is_measured(files):
    good = _argv(files, "measure", [("--state-file", "good")], "json", None)
    assert _run(good)[:3] == (0, False, "")
    # the drawn --decode-p comes after the base one, so it is the one read
    bad_p = _argv(files, "measure", [("--state-file", "good"), ("--decode-p", "2")], "json", None)
    assert _run(bad_p)[:3] == (2, False, "error: p must be in [0, 1], got 2.0\n")


@pytest.mark.parametrize("invocation", OVERFLOW)
def test_free_field_overflow_is_one_usage_error(files, invocation):
    argv = _argv(files, *invocation)
    code, usage_error, err, caught = _run(argv)
    assert (code, usage_error) == (2, False), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(invocations())
@example(invocation=("feasibility", [("--g", "0")], "text", None))
@example(invocation=("measure", [("--state-file", "n_max_huge"), ("--decode-p", "0.5"),
                      ("--decode-phi", "0")], "json", None))
@example(invocation=("optimize-timing", [("--gt-max", "inf")], "csv", None))
@example(invocation=OVERFLOW[0])
@example(invocation=OVERFLOW[1])
@example(invocation=OVERFLOW[2])
@example(invocation=OVERFLOW[3])
@example(invocation=("generate", [("--config", "n_max_long")], "json", None))
@example(invocation=("generate", [("--n-max", "1001")], "json", None))
@example(invocation=("measure", [("--n-max", "1001")], "json", None))
@example(invocation=("generate", [("--config", "n_max_above_ceiling")], "json", None))
@example(invocation=("generate", [("--config", "phi1_long")], "json", None))
@example(invocation=("generate", [("--config", "phase_long")], "json", None))
@example(invocation=("error-sweep", [("--config", "jitter_long"), ("--jitter", "0")], "text", None))
@example(invocation=("error-sweep", [("--config", "jitter_long")], "text", None))
@example(invocation=("error-sweep", [("--config", "efficiency_long")], "text", None))
@example(invocation=("measure", [("--state-file", "good")], "csv", None))
def test_every_input_ends_in_a_documented_exit_code(files, invocation):
    argv = _argv(files, *invocation)
    code, usage_error, err, caught = _run(argv)
    assert code in (0, 2, 3, 4), argv
    if invocation[2] not in FORMATS[invocation[0]]:
        assert usage_error, argv
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err, argv
    if usage_error:
        assert code == 2 and ": error: " in err.splitlines()[-1], (argv, err)
    else:
        assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), (argv, err)
