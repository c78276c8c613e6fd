import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbscavity import (
    ATOL_ALGEBRA,
    ErrorModel,
    GBSParams,
    GenerationConfig,
    GT_PROBE,
    delta_exp,
    distinguish_orthogonal,
    feasibility_check,
    fidelity,
    gauge_fix,
    gt_second,
    make_fock,
    make_gamma,
    make_gbs,
    monte_carlo_jitter,
    optimize_t2,
    predicted_psi2,
    run_generation,
    run_measurement,
    scan_t2,
)
from gbscavity.protocol import _quantiles

# Frozen oracle values for the optimized timing (see test_winner_delta).
DELTA_STAR = 9.170991080431623e-05
DELTA_EXP_STAR = 0.2073850624778901


# ------------------------------------------------------------------- timing


def test_winner_is_m2_5():
    best = optimize_t2()
    assert best.m2 == 5
    assert abs(best.gt2 - 41.0 * math.pi / 4.0) < 1e-12
    assert best.gt2 == gt_second(5)


def test_winner_delta():
    # oracle: delta = 1 - sin(sqrt(2) * 41 pi / 4), evaluated independently
    best = optimize_t2()
    assert abs(best.delta - DELTA_STAR) < 1e-15
    assert 5e-5 < best.delta < 1.5e-4


def test_scan_rows_satisfy_first_condition():
    rows = scan_t2()
    assert len(rows) == 17
    for m2, row in enumerate(rows):
        assert row.m2 == m2 and row.gt2 == gt_second(m2)
        # every admissible time meets the one-photon condition sin(g T2 + pi/4) = 1
        assert abs(1.0 - math.sin(gt_second(m2) + math.pi / 4.0)) < 1e-12
        assert 0.0 <= row.delta <= 2.0
        # the row keeps its sine, and delta is 1 minus that very float
        assert row.sin_g_sqrt2_t2 == math.sin(math.sqrt(2.0) * row.gt2)
        assert row.delta == 1.0 - row.sin_g_sqrt2_t2


# --------------------------------------------------------------- generation


def test_fidelity_at_half():
    report = run_generation(GenerationConfig(p=0.5))
    assert abs((1.0 - report.fidelity_to_target) - 1.6e-9) <= 0.3e-9


def test_vacuum_limit():
    report = run_generation(GenerationConfig(p=0.0, phi1=0.7))
    assert abs(report.p2 - 1.0) < 1e-12
    assert abs(report.fidelity_to_target - 1.0) < 1e-12
    assert abs(abs(report.post_selected_field.amps[0]) - 1.0) < 1e-12


def test_p2_matches_quadratic_law():
    # success probability 1 - 2e-4 p^2 within 2e-5 absolute
    for p in np.linspace(0.0, 1.0, 11):
        report = run_generation(GenerationConfig(p=float(p)))
        assert abs(report.p2 - (1.0 - 2e-4 * p**2)) < 2e-5


def test_p2_non_increasing_in_p():
    values = [run_generation(GenerationConfig(p=float(p))).p2
              for p in np.linspace(0.0, 1.0, 11)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_pipeline_matches_analytic_prediction():
    delta = optimize_t2().delta
    for p in np.linspace(0.0, 1.0, 11):
        for phi1 in (0.0, math.pi / 3.0, math.pi, 5.0 * math.pi / 3.0):
            report = run_generation(GenerationConfig(p=float(p), phi1=phi1))
            predicted = predicted_psi2(float(p), phi1, delta, n_max=4)
            got = gauge_fix(report.post_selected_field)
            want = gauge_fix(predicted)
            assert np.max(np.abs(got.amps - want.amps)) < 1e-10


def test_joint_state_block_structure():
    # before projection: |up> branch holds only |0>,|1>; |down> only |0>,|1>,|2>
    report = run_generation(GenerationConfig(p=0.6, phi1=1.1))
    joint = report.joint_before_projection
    assert np.max(np.abs(joint.up_amps[2:])) < 1e-12
    assert np.max(np.abs(joint.down_amps[3:])) < 1e-12


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n_max=st.integers(2, 50), p=st.floats(0.0, 1.0), phi1=st.floats(-10.0, 10.0),
       omega=st.floats(-10.0, 10.0), dt_gap=st.floats(0.0, 10.0),
       gt1=st.floats(-50.0, 50.0), gt2=st.floats(-200.0, 200.0))
def test_generation_never_leaks(n_max, p, phi1, omega, dt_gap, gt1, gt2):
    # each atom adds at most one photon to the vacuum, so nothing reaches above n = 2
    config = GenerationConfig(p=p, phi1=phi1, omega=omega, dt_gap=dt_gap, n_max=n_max)
    try:
        report = run_generation(config, gt1=gt1, gt2=gt2)
    except ValueError as exc:  # an atom that never exits in |down> leaves nothing to condition on
        assert "never exits" in str(exc)
        return
    joint = report.joint_before_projection
    for amps in (report.post_selected_field.amps, joint.down_amps, joint.up_amps):
        assert np.all(amps[3:] == 0)


def test_gap_phase_compensation():
    # fidelity invariant under omega*dt sweeps because atom 2 tracks the phase
    base = run_generation(GenerationConfig(p=0.7, phi1=0.4)).fidelity_to_target
    for odt in (1.0, 2.5, 6.0):
        cfg = GenerationConfig(p=0.7, phi1=0.4, omega=1.0, dt_gap=odt)
        assert abs(run_generation(cfg).fidelity_to_target - base) < 1e-12


def test_target_phase_tracks_effective_phi():
    cfg = GenerationConfig(p=0.5, phi1=0.3, omega=2.0, dt_gap=1.1)
    report = run_generation(cfg)
    assert abs(report.target.phi - (math.pi - (0.3 + 2.0 * 1.1))) < 1e-15


def test_generation_truncation_policies():
    for n_max in (0, 1):  # the two-photon target needs n_max >= 2, refused at the config
        with pytest.raises(ValueError) as err:
            GenerationConfig(p=0.5, n_max=n_max)
        assert str(err.value) == "n_max must be an integer in [2, 1000]"
    with pytest.raises(ValueError):
        # atom 1 cannot exit in |down> when fully excited and not evolved
        run_generation(GenerationConfig(p=1.0), gt1=0.0)
    with pytest.raises(ValueError, match="atom 2 never exits"):
        run_generation(GenerationConfig(p=1.0), gt2=0.0)


def test_atom_2_conditioning_needs_a_field_that_normalizes():
    # at p = 1 atom 2 leaves |down, 2> with amplitude -sin(sqrt(2) gt2): gt2 = 1e-158 gives
    # the subnormal p_second = 2e-316, too few digits to normalize; 1e-155 keeps enough
    with pytest.raises(ValueError, match=r"^atom 2 never exits in \|down>.*2e-316"):
        run_generation(GenerationConfig(p=1.0), gt2=1e-158)
    report = run_generation(GenerationConfig(p=1.0), gt2=1e-155)
    assert report.p2 < np.finfo(float).tiny
    assert report.post_selected_field.is_normalized()
    assert report.fidelity_to_target == 1.0


def test_generation_rejects_overflowing_rabi_angle():
    # finite transits whose angle g*t*sqrt(n) overflows, and non-finite ones
    cfg = GenerationConfig(p=0.5)
    for gt in (1e308, math.inf, math.nan):
        with pytest.raises(ValueError, match="Rabi angle"):
            run_generation(cfg, gt2=gt)
        with pytest.raises(ValueError, match="Rabi angle"):
            run_generation(cfg, gt1=gt)


def test_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(p=1.5)
    with pytest.raises(ValueError):
        GenerationConfig(p=0.5, m2=17)
    with pytest.raises(ValueError):
        GenerationConfig(p=0.5, m2=2.0)  # must be an integer


# ---------------------------------------------------------------- predicted


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)), st.floats(-10.0, 10.0),
       st.one_of(st.just(0.0), st.floats(0.0, 2.0)), st.integers(2, 8))
@example(p=0.5, phi=0.0, delta=0.0, n_max=2)
@example(p=1.0, phi=0.0, delta=1.0, n_max=2)
def test_predicted_collapses_to_binomial_at_zero_delta(p, phi, delta, n_max):
    # the documented formula, written out here: (1, sqrt(2), 1 - delta) times
    # sqrt(p^n (1-p)^(2-n)) e^(i n (pi - phi)), normalized; at delta = 0 the binomial state
    n = np.arange(3)
    want = (np.array([1.0, math.sqrt(2.0), 1.0 - delta]) * np.sqrt(p**n * (1.0 - p) ** (2 - n))
            * np.exp(1j * n * (math.pi - phi)))
    norm = np.linalg.norm(want)
    if norm == 0.0:  # p = 1 and delta = 1: only |2> is weighted, and 1 - delta kills it
        with pytest.raises(ValueError, match="vanishes"):
            predicted_psi2(p, phi, delta, n_max)
        return
    predicted = predicted_psi2(p, phi, delta, n_max)
    assert predicted.n_max == n_max and not np.any(predicted.amps[3:])
    assert np.max(np.abs(predicted.amps[:3] - want / norm)) <= 1e-15
    if delta == 0.0:
        target = make_gbs(GBSParams(2, p, math.pi - phi), n_max)
        assert np.max(np.abs(predicted.amps - target.amps)) <= 1e-15


def test_predicted_top_heavy_limit():
    state = predicted_psi2(1.0, 0.0, DELTA_STAR)
    assert abs(abs(state.amps[2]) - 1.0) < 1e-12
    assert np.max(np.abs(state.amps[:2])) < 1e-15
    for args in ((1.2, 0.0, 0.0), (-0.1, 0.0, 0.0), (0.5, 0.0, 0.0, 1)):
        with pytest.raises(ValueError):
            predicted_psi2(*args)
    with pytest.raises(ValueError, match="vanishes"):
        predicted_psi2(1.0, 0.0, 1.0)  # only |2> is weighted, and 1 - delta kills it


def test_predicted_fidelity_at_half():
    predicted = predicted_psi2(0.5, 0.0, DELTA_STAR)
    target = make_gbs(GBSParams(2, 0.5, math.pi), 2)
    assert abs((1.0 - fidelity(predicted, target)) - 1.6e-9) <= 0.3e-9


def test_exact_normalization_vs_quadratic_approximation():
    # exact N2^2 = 1 - 2 delta p^2 + delta^2 p^2; the sqrt(1 - 2 delta p^2)
    # shorthand agrees within delta^2
    delta = DELTA_STAR
    for p in np.linspace(0.0, 1.0, 11):
        exact = math.sqrt(1.0 - 2.0 * delta * p**2 + delta**2 * p**2)
        approx = math.sqrt(1.0 - 2.0 * delta * p**2)
        assert abs(exact - approx) < delta**2


# -------------------------------------------------------------- measurement


def test_detection_grid():
    for p in (0.0, 0.3, 0.5, 0.8, 1.0):
        for phi in (0.0, 2.0 * math.pi / 3.0, 1.9):
            hit = run_measurement(make_gbs(GBSParams(2, p, phi), 4), p, phi)
            assert hit.prob_up >= 1.0 - 1e-3
            assert abs(hit.prob_up + hit.prob_down - 1.0) < ATOL_ALGEBRA
            miss = run_measurement(
                make_gbs(GBSParams(2, 1.0 - p, math.pi + phi), 4), p, phi
            )
            assert miss.prob_down >= 1.0 - 1e-3


def test_post_field_after_detection_is_one_photon_binomial():
    p, phi = 0.4, 0.9
    report = run_measurement(make_gbs(GBSParams(2, p, phi), 4), p, phi)
    expected = make_gbs(GBSParams(1, p, phi), 4)
    assert fidelity(report.post_field_up, expected) >= 1.0 - 1e-3


def test_vacuum_probe_statistics():
    # |down, 0> is stationary; decoding alone sets the outcome odds
    for p in (0.0, 0.25, 0.8, 1.0):
        report = run_measurement(make_fock(0, 4), p, 1.3)
        assert abs(report.prob_down - p) < 1e-12
        assert abs(report.prob_up - (1.0 - p)) < 1e-12


def test_measurement_input_validation():
    from gbscavity import FieldState

    with pytest.raises(ValueError):
        run_measurement(FieldState([0.5, 0.0, 0.0, 0.0], 3), 0.5, 0.0)
    # any n_max works: the probe never populates |up, n_max>, so the readout
    # of a two-photon state is the same at n_max = 2 as at n_max = 4
    small = run_measurement(make_gbs(GBSParams(2, 0.3, 0.9), 2), 0.3, 0.9)
    large = run_measurement(make_gbs(GBSParams(2, 0.3, 0.9), 4), 0.3, 0.9)
    assert abs(small.prob_up - large.prob_up) <= 1e-15
    assert abs(small.prob_down - large.prob_down) <= 1e-15
    for a, b in ((small.post_field_up, large.post_field_up),
                 (small.post_field_down, large.post_field_down)):
        assert np.max(np.abs(a.amps - b.amps[:3])) <= 1e-15
        assert np.all(b.amps[3:] == 0.0)


def test_distinguish_labels_the_pair():
    p, phi = 0.35, 0.6
    said = distinguish_orthogonal(make_gbs(GBSParams(2, p, phi), 4), p, phi)
    assert said.label == "2GBS(p,phi)"
    assert said.confidence >= 1.0 - 1e-3
    other = distinguish_orthogonal(
        make_gbs(GBSParams(2, 1.0 - p, math.pi + phi), 4), p, phi
    )
    assert other.label == "2GBS(1-p,pi+phi)"
    assert other.confidence >= 1.0 - 1e-3


def test_distinguish_reports_gamma_without_claims():
    said = distinguish_orthogonal(make_gamma(0.3, 0.6, 4), 0.3, 0.6)
    assert 0.5 <= said.confidence <= 1.0
    assert abs(said.prob_up + said.prob_down - 1.0) < ATOL_ALGEBRA


def test_generation_then_measurement_round_trip():
    for p in (0.1, 0.5, 0.9):
        report = run_generation(GenerationConfig(p=p, phi1=0.2))
        hit = run_measurement(report.post_selected_field, p, report.target.phi)
        assert hit.prob_up >= 1.0 - 1e-3


# ------------------------------------------------------------- error budget


def test_delta_exp_values():
    assert abs(delta_exp(GT_PROBE, 1e-2) - DELTA_EXP_STAR) < 1e-15
    assert delta_exp(3.0, 0.0) == 0.0
    assert delta_exp(0.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        delta_exp(-1.0, 0.1)
    for gt2, rel_jitter in ((32.2, 1e300), (math.nan, 0.1), (math.inf, 0.1)):
        with pytest.raises(ValueError):
            delta_exp(gt2, rel_jitter)


def test_monte_carlo_zero_jitter_collapses():
    cfg = GenerationConfig(p=0.5)
    base = run_generation(cfg)
    report = monte_carlo_jitter(cfg, ErrorModel(rel_timing_jitter=0.0, samples=150))
    assert report.std_fidelity == 0.0
    assert abs(report.mean_fidelity - base.fidelity_to_target) < 1e-15
    assert abs(report.mean_p2 - base.p2) < 1e-15
    assert report.samples_used == 150


def test_monte_carlo_is_deterministic():
    cfg = GenerationConfig(p=0.4)
    model = ErrorModel(rel_timing_jitter=1e-2, samples=120, seed=321)
    a = monte_carlo_jitter(cfg, model)
    b = monte_carlo_jitter(cfg, model)
    for field in dataclasses.fields(a):
        if field.name != "samples":
            assert getattr(a, field.name) == getattr(b, field.name), field.name
    assert a.samples.dtype.names == ("index", "eps_t1", "eps_t2", "fidelity", "p2", "detected")
    assert len(a.samples) == 120
    for column in a.samples.dtype.names:
        assert np.array_equal(a.samples[column], b.samples[column]), column
    assert a.samples.tobytes() == b.samples.tobytes()  # bit for bit, signed zeros too
    assert not a.samples.flags.writeable
    c = monte_carlo_jitter(cfg, ErrorModel(rel_timing_jitter=1e-2, samples=120, seed=322))
    assert not np.array_equal(a.samples.eps_t2, c.samples.eps_t2)


@st.composite
def quantile_inputs(draw):
    """Finite arrays of 1 to 10 000 values, made from a drawn seed: uniform, at and just
    below 1.0, or two-decimal ties; or up to 40 hypothesis floats.  With levels in [0, 1]
    beside the five monte_carlo_jitter reports.  -0.0 is made +0.0: sort and numpy's
    partition may order equal zeros of either sign differently, and no fidelity is -0.0."""
    levels = [0.05, 0.25, 0.5, 0.75, 0.95] + draw(st.lists(st.floats(0.0, 1.0), max_size=4))
    kind = draw(st.sampled_from(["uniform", "near one", "ties", "floats"]))
    if kind == "floats":
        x = np.array(draw(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.one_of(st.integers(1, 20), st.integers(1, 10_000)))
        x = {"uniform": lambda: rng.random(n),
             "near one": lambda: 1.0 - rng.integers(0, 4, n) * 2.0**-53,
             "ties": lambda: np.round(rng.random(n), 2)}[kind]()
    return x + 0.0, levels


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(quantile_inputs())
@example(case=(np.array([0.5]), [0.05, 0.25, 0.5, 0.75, 0.95]))
@example(case=(np.array([1.0, 1.0 - 2.0**-53]), [0.0, 0.5, 1.0]))
def test_quantiles_are_numpys_linear_quantiles_bit_for_bit(case):
    x, levels = case
    assert _quantiles(x, levels).tobytes() == np.quantile(x, levels).tobytes()


def test_jitter_ordering_against_delta():
    # delivered (success-weighted) infidelity dwarfs the static residual delta
    cfg = GenerationConfig(p=1.0)
    model = ErrorModel(rel_timing_jitter=1e-2, samples=1500, seed=42)
    report = monte_carlo_jitter(cfg, model)
    assert report.mean_fidelity == 1.0  # conditional state is exactly |2> at p=1
    delivered = report.mean_delivered_infidelity
    assert delivered > 10.0 * DELTA_STAR
    # same order as the analytic timing-error estimate
    assert DELTA_EXP_STAR / 4.0 < delivered < DELTA_EXP_STAR * 4.0


def test_detector_thinning():
    cfg = GenerationConfig(p=0.5)
    model = ErrorModel(rel_timing_jitter=0.0, detector_efficiency=0.7,
                       samples=400, seed=9)
    report = monte_carlo_jitter(cfg, model)
    assert 0 < report.samples_used < 400
    assert report.samples_used == np.count_nonzero(report.samples.detected)


@pytest.mark.parametrize("efficiency", [1.0, 0.3, 0.0])
def test_delivered_infidelity_matches_the_detected_records(efficiency):
    # read from the p2 and fidelity columns, it is the record-copy formula bit for bit;
    # a model that detects nothing gives NaN
    cfg = GenerationConfig(p=0.5, phi1=0.4, omega=0.91, dt_gap=1.0)
    model = ErrorModel(rel_timing_jitter=5e-2, detector_efficiency=efficiency,
                       samples=2000, seed=11)
    report = monte_carlo_jitter(cfg, model)
    kept = report.samples[report.samples.detected]
    if efficiency == 0.0:
        assert kept.size == 0 and math.isnan(report.mean_delivered_infidelity)
    else:
        want = float(np.mean(1.0 - kept.p2 * kept.fidelity))
        assert kept.size > 0
        assert np.float64(report.mean_delivered_infidelity).tobytes() == np.float64(want).tobytes()


def test_t1_jitter_flag_keeps_t2_stream():
    cfg = GenerationConfig(p=0.5)
    on = monte_carlo_jitter(cfg, ErrorModel(rel_timing_jitter=1e-2, samples=100, seed=5))
    off = monte_carlo_jitter(
        cfg, ErrorModel(rel_timing_jitter=1e-2, samples=100, seed=5, jitter_t1=False)
    )
    assert np.all(off.samples.eps_t1 == 0.0)
    assert np.any(on.samples.eps_t1 != 0.0)
    assert np.array_equal(on.samples.eps_t2, off.samples.eps_t2)


def test_error_model_validation():
    with pytest.raises(ValueError):
        ErrorModel(rel_timing_jitter=-0.1)
    with pytest.raises(ValueError):
        ErrorModel(rel_timing_jitter=0.0, detector_efficiency=1.2)
    with pytest.raises(ValueError):
        ErrorModel(rel_timing_jitter=0.0, samples=0)
    with pytest.raises(ValueError):
        ErrorModel(rel_timing_jitter=0.0, seed=-1)
    # the sample index keys its stream as one 32-bit word
    assert ErrorModel(rel_timing_jitter=0.0, samples=2**32).samples == 2**32
    with pytest.raises(ValueError):
        ErrorModel(rel_timing_jitter=0.0, samples=2**32 + 1)


# -------------------------------------------------------------- feasibility


def test_feasibility_typical_lab_numbers():
    passed, margins = feasibility_check(tau_at=1e-2, tau_cav=1e-1,
                                        interaction_times=(1e-4, 3e-4), sequence_duration=5e-4)
    assert passed is True
    assert abs(margins["interaction_0"] - 100.0) < 1e-9
    assert abs(margins["interaction_1"] - 100.0 / 3.0) < 1e-9
    assert abs(margins["sequence"] - 20.0) < 1e-9


def test_feasibility_fails_short_lifetime():
    passed, _ = feasibility_check(tau_at=1e-5, tau_cav=1e-1,
                                  interaction_times=(1e-4,), sequence_duration=2e-4)
    assert passed is False


def test_feasibility_boundary_is_strict():
    passed, _ = feasibility_check(tau_at=1e-3, tau_cav=1e-3,
                                  interaction_times=(1e-3,), sequence_duration=5e-4)
    assert passed is False


def test_feasibility_validation():
    with pytest.raises(ValueError, match="must be positive"):
        feasibility_check(tau_at=-1.0, tau_cav=1.0,
                          interaction_times=(1.0,), sequence_duration=1.0)
    with pytest.raises(ValueError, match="must not be empty"):
        feasibility_check(tau_at=1.0, tau_cav=1.0,
                          interaction_times=(), sequence_duration=1.0)


def test_feasibility_margin_overflow_is_named():
    # finite positive inputs whose lifetime/duration ratio exceeds the float range
    for times, duration, name in (((1e-300,), 1.0, "interaction_0"),
                                  ((1.0, 1e-300), 1.0, "interaction_1"),
                                  ((1.0,), 1e-300, "sequence")):
        with pytest.raises(ValueError, match=f"feasibility margin {name} "):
            feasibility_check(1e300, 1e300, times, duration)
