"""Metamorphic tests: exact symmetries of the protocol, checked over wide input ranges.

- Generation is phase-free.  The |down> block atom 2 leaves carries one common
  phase times the target's phases, so p2 and the fidelity depend on p and the
  transit times alone: phi1, omega and dt_gap drop out.  `generation_batch`
  never reads them, so its bits do not move; `run_generation` builds the
  phased states and agrees to rounding.
- The readout is phase-free: decoding a binomial state in its own Ramsey zone
  gives the same |up> probability at any phi.
- Free evolution is a phase shift: (N, p, phi) goes to (N, p, phi - omega dt).
- The resonant evolution is reversible: evolving by gt, then by -gt, returns
  the state.
"""

import sys

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gbscavity import (
    GT_FIRST,
    GBSParams,
    GenerationConfig,
    JointState,
    free_field_evolve,
    generation_batch,
    gt_second,
    jc_closed_form,
    make_gbs,
    run_generation,
    run_measurement,
)

EPS = sys.float_info.epsilon
probabilities = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@st.composite
def phased(draw, phi1_max):
    """(phased config, its zero-phase twin, gt1, gt2): transits within 20% of the nominal
    ones, phi1 up to phi1_max and the free phase omega * dt_gap up to 10 in size."""
    p, n_max, m2 = draw(probabilities), draw(st.integers(2, 8)), draw(st.integers(0, 16))
    config = GenerationConfig(p=p, phi1=draw(st.floats(-phi1_max, phi1_max)),
                              omega=draw(st.floats(-10.0, 10.0)), dt_gap=draw(st.floats(0.0, 1.0)),
                              n_max=n_max, m2=m2)
    jitter = st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=8)
    gt1 = GT_FIRST * (1.0 + np.array(draw(jitter)))
    gt2 = gt_second(m2) * (1.0 + np.array(draw(jitter)))[:, None]  # a grid against gt1
    return config, GenerationConfig(p=p, n_max=n_max, m2=m2), gt1, gt2


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(phased(1e6))
@example(case=(GenerationConfig(p=0.3, phi1=1e6, omega=10.0, dt_gap=1.0),
               GenerationConfig(p=0.3), np.array([GT_FIRST]), np.array([gt_second(5)])))
def test_batch_statistics_are_bit_identical_at_any_phase(case):
    config, zero_phase, gt1, gt2 = case
    for got, want in zip(generation_batch(config, gt1, gt2), generation_batch(zero_phase, gt1, gt2)):
        assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(phased(10.0))
@example(case=(GenerationConfig(p=0.3, phi1=1e10), GenerationConfig(p=0.3),
               np.array([GT_FIRST]), np.array([[gt_second(5)]])))
@example(case=(GenerationConfig(p=0.3, phi1=1e14), GenerationConfig(p=0.3),
               np.array([GT_FIRST]), np.array([[gt_second(5)]])))
@example(case=(GenerationConfig(p=0.3, phi1=1e15), GenerationConfig(p=0.3),
               np.array([GT_FIRST]), np.array([[gt_second(5)]])))
def test_scalar_statistics_do_not_depend_on_the_phases(case):
    # run_generation carries phi1 + omega * dt_gap through complex states, so it agrees
    # to rounding.  The large-phase examples keep omega = 0: at phi1 = 1e15 the sum
    # phi1 + omega * dt_gap itself drops omega * dt_gap's low bits
    config, zero_phase, gt1, gt2 = case
    gt1, gt2 = float(gt1[0]), float(gt2[0, 0])
    got = run_generation(config, gt1=gt1, gt2=gt2)
    want = run_generation(zero_phase, gt1=gt1, gt2=gt2)
    assert abs(got.p2 - want.p2) <= 1e-14
    assert abs(got.fidelity_to_target - want.fidelity_to_target) <= 1e-14


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(probabilities, st.floats(-1e6, 1e6))
@example(0.5, 1e6)
def test_readout_of_the_target_does_not_depend_on_its_phase(p, phi):
    def prob_up(phase):
        return run_measurement(make_gbs(GBSParams(2, p, phase), 4), p, phase).prob_up

    assert abs(prob_up(phi) - prob_up(0.0)) <= 1e-15


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 12), probabilities, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
       st.floats(0.0, 10.0))
def test_free_evolution_shifts_the_binomial_phase(n, p, phi, omega, dt):
    got = free_field_evolve(make_gbs(GBSParams(n, p, phi), n), omega, dt).amps
    want = make_gbs(GBSParams(n, p, phi - omega * dt), n).amps
    # each amplitude's phase n * phi is rounded once per factor and in the difference
    bound = 4.0 * EPS * (1.0 + n * (abs(phi) + abs(omega * dt)))
    assert np.max(np.abs(got - want)) <= bound


@st.composite
def joint_states(draw):
    """A normalized random joint state with |up, n_max> empty, as the truncation needs."""
    n_max = draw(st.integers(1, 8))
    d = 2 * (n_max + 1)
    parts = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    amps = np.array(draw(parts)) + 1j * np.array(draw(parts))
    amps[-1] = 0.0
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    return JointState(amps / norm, n_max)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(joint_states(), st.floats(-100.0, 100.0))
@example(JointState(np.array([0, 0, 1, 0, 0, 0], dtype=complex), 2), 100.0)
def test_resonant_evolution_is_undone_by_the_reversed_angle(state, gt):
    back = jc_closed_form(jc_closed_form(state, gt), -gt)
    assert np.max(np.abs(back.amps - state.amps)) <= 1e-12
