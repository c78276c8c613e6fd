"""States the package builds itself, and the dispatch-free norm.

make_gbs, make_gamma and the protocol wrap the arrays they build without
copying or checking them again (`_Blocks._own`).  Each such state must be
exactly what the checked constructor would have made of the same amplitudes:
the same bytes, the right length, frozen, read-only, and owning an array that
nothing else holds.  `_norm` spells out np.linalg.norm's own formula for a 1-D
complex vector, so it must give the same bits and raise the same
RuntimeWarning (tier-1 turns RuntimeWarnings into errors).  Both claims rest on
numpy's arithmetic, so they run on every numpy the CI matrix installs.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbscavity import (FieldState, GBSParams, GenerationConfig, JointState, make_gamma, make_gbs,
                       predicted_psi2, run_generation, run_measurement, spin1_triple)
from gbscavity.states import _norm

BLOCKS = {FieldState: 1, JointState: 2}

probabilities = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))
phases = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300))


def _outcome(call):
    """(bytes of the float result, None) or (None, (class, text)) of what call() raises."""
    try:
        return np.float64(call()).tobytes(), None
    except Exception as exc:  # any class: the test compares them
        return None, (type(exc), str(exc))


magnitudes = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
parts = st.one_of(st.sampled_from((0.0, -0.0)),
                  st.builds(lambda sign, m: sign * m, st.sampled_from((1.0, -1.0)), magnitudes))
vectors = st.lists(st.builds(complex, parts, parts), min_size=1, max_size=12).map(
    lambda zs: np.array(zs, dtype=np.complex128))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(vectors)
@example(np.array([1.3e154 + 1.3e154j]))  # each dot is finite, their sum overflows
@example(np.array([1e200 + 0j, 1.0 + 0j]))  # a dot overflows
@example(np.array([1e-300 + 1e-300j]))  # the squares underflow to 0
@example(np.array([0.6 + 0.8j, 0j, -0.0 - 0.0j]))
def test_norm_is_numpys_norm_bit_for_bit(a):
    assert _outcome(lambda: _norm(a)) == _outcome(lambda: np.linalg.norm(a))


def test_norm_overflow_raises_numpys_runtime_warning():
    # the examples above compare outcomes; this pins that the warning path is taken.
    # Only the float add is asserted: whether dot itself warns depends on numpy's version
    a = np.array([1.3e154 + 1.3e154j])
    for norm in (_norm, np.linalg.norm):
        with pytest.warns(RuntimeWarning, match="overflow encountered"):
            norm(a)


def assert_owned(state):
    """What FieldState(...) / JointState(...) would have made: same bytes, frozen, read-only."""
    cls = type(state)
    assert cls in BLOCKS
    amps = state.amps
    assert isinstance(state.n_max, int) and not isinstance(state.n_max, bool)
    assert amps.dtype == np.complex128
    assert amps.shape == (BLOCKS[cls] * (state.n_max + 1),)
    assert cls(amps, state.n_max).amps.tobytes() == amps.tobytes()
    assert amps.flags.writeable is False
    assert amps.flags.owndata  # not a view of an array that something else holds
    with pytest.raises(ValueError):
        amps[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.n_max = state.n_max


def assert_unshared(*states):
    for i, a in enumerate(states):
        for b in states[i + 1:]:
            assert not np.shares_memory(a.amps, b.amps)


@st.composite
def generation_configs(draw):
    return GenerationConfig(p=draw(probabilities), phi1=draw(st.floats(-10.0, 10.0)),
                            omega=draw(st.floats(-10.0, 10.0)), dt_gap=draw(st.floats(-10.0, 10.0)),
                            n_max=draw(st.integers(2, 8)), m2=draw(st.integers(0, 16)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(generation_configs(), st.one_of(st.none(), st.floats(-50.0, 50.0)))
@example(GenerationConfig(p=0.5), None)
@example(GenerationConfig(p=1.0, n_max=2), None)  # one readout branch has probability 0
def test_protocol_outputs_pass_the_checked_constructor(config, gt2):
    try:
        gen = run_generation(config, gt2=gt2)
    except ValueError:  # a run that cannot condition builds no state
        return
    assert_owned(gen.post_selected_field)
    assert_owned(gen.joint_before_projection)
    assert_unshared(gen.post_selected_field, gen.joint_before_projection)
    readout = run_measurement(gen.post_selected_field, config.p, gen.target.phi)
    for state in (readout.post_field_up, readout.post_field_down):
        assert_owned(state)
    assert_unshared(gen.post_selected_field, readout.post_field_up, readout.post_field_down)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 6), probabilities, phases, st.integers(0, 4))
@example(2, 0.5, 8e307, 0)  # 2 * phi is still finite
@example(6, 1.0, -2.9e307, 2)
def test_state_builders_pass_the_checked_constructor(N, p, phi, spare):
    assert_owned(make_gbs(GBSParams(N, p, phi), N + spare))
    assert_owned(make_gamma(p, phi, 2 + spare))
    triple = spin1_triple(p, phi)
    for state in triple:
        assert_owned(state)
    assert_unshared(*triple)


@pytest.mark.parametrize("build, message", [
    (lambda: make_gbs(GBSParams(2, 0.5, 1e308), 2), "2*phi must be finite, got phi=1e+308"),
    (lambda: make_gbs(GBSParams(3, 0.5, -6e307), 4), "3*phi must be finite, got phi=-6e+307"),
    (lambda: make_gamma(0.5, 1e308, 2), "2*phi must be finite, got phi=1e+308"),
    (lambda: spin1_triple(0.5, -1e308), "2*phi must be finite, got phi=-1e+308"),
    (lambda: run_generation(GenerationConfig(p=0.5, phi1=1e308)),
     "2*phi_effective must be finite, got phi_effective=1e+308"),
    (lambda: predicted_psi2(0.5, -1e308, 0.0), "2*phi_eff must be finite, got phi_eff=-1e+308"),
    # a numpy scalar is doubled as a float, without numpy's overflow warning
    (lambda: make_gbs(GBSParams(2, 0.5, np.float64(1e308)), 2),
     "2*phi must be finite, got phi=1e+308"),
    # 2*phi_effective = 1e308 is finite, but the free flight's 4*omega*dt_gap is not
    (lambda: run_generation(GenerationConfig(p=0.5, omega=1e308, dt_gap=0.5)),
     "the free-field phase n_max*omega*dt must be finite, got inf"),
], ids=["gbs", "gbs-N3", "gamma", "triple", "generation-target", "predicted", "gbs-float64",
        "generation-free-field"])
def test_a_phase_that_overflows_is_a_value_error_not_a_numpy_warning(build, message):
    # N * phi overflows although phi is finite: e^(i N phi) has no value.  The error
    # names the multiple and the phase, not the state it would have built
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message
