"""Property test: the array-level scalar path against its object-level composition.

`run_generation` and `run_measurement` carry the (down, up) amplitude blocks
as plain arrays and build only the states they return, unchecked.  The oracles
below compose the same steps from the public, checked state constructors, the
helpers of oracle.py (ramsey_prepare -> tensor -> jc_closed_form ->
project_atom -> free_field_evolve -> ...) and np.linalg.norm, so both paths
must agree bit for bit: amplitudes by `tobytes()`, every float by `==`, and
wherever the oracle raises, the same exception class.  `distinguish_orthogonal`
and `verify_eigenbasis` are held to the same rule.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbscavity import (
    ATOL_ALGEBRA,
    GT_FIRST,
    GT_PROBE,
    AtomState,
    EigenbasisReport,
    FieldState,
    GBSParams,
    GenerationConfig,
    GenerationReport,
    JointState,
    MeasurementReport,
    TruncationLeakError,
    fidelity,
    free_field_evolve,
    gt_second,
    hp_operators,
    j3_operator,
    jc_closed_form,
    make_fock,
    make_gbs,
    ramsey_decode_matrix,
    ramsey_prepare,
    distinguish_orthogonal,
    run_generation,
    run_measurement,
    verify_eigenbasis,
)
from oracle import project_atom, tensor

probabilities = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
phases = st.floats(-10.0, 10.0)
transits = st.one_of(st.none(), st.floats(-50.0, 50.0))


def _normalized(field: FieldState, prob: float) -> FieldState:
    return field if prob <= 0.0 else FieldState(field.amps / math.sqrt(prob), field.n_max)


def _no_leak(*blocks: np.ndarray, where: str):
    """The reference's own guard: each atom adds at most one photon to the vacuum, so
    nothing may reach above n = 2.  A coupling bug that leaks raises here and shows as
    a mismatch in the exception class."""
    leak = sum(float(np.sum(np.abs(amps[3:]) ** 2)) for amps in blocks)
    if leak >= ATOL_ALGEBRA:
        raise TruncationLeakError(f"population {leak:.3e} above n = 2 after {where}")


def oracle_generation(config, gt1=None, gt2=None) -> GenerationReport:
    gt1 = GT_FIRST if gt1 is None else gt1
    gt2 = gt_second(config.m2) if gt2 is None else gt2
    n_max = config.n_max
    joint = jc_closed_form(tensor(ramsey_prepare(config.p, config.phi1), make_fock(0, n_max)), gt1)
    field, p_first = project_atom(joint, "down")
    if p_first <= 0.0:
        raise ValueError("atom 1 never exits in |down>")
    field = _normalized(field, p_first)
    _no_leak(field.amps, where="the first transit")
    field = free_field_evolve(field, config.omega, config.dt_gap)
    joint = jc_closed_form(tensor(ramsey_prepare(config.p, config.phi_effective), field), gt2)
    _no_leak(joint.down_amps, joint.up_amps, where="the second transit")
    field, p_second = project_atom(joint, "down")
    post = _normalized(field, p_second)
    target = GBSParams(2, config.p, math.pi - config.phi_effective)
    # scored as (p, -phi_eff) times e^(i n pi) = (-1)^n, exactly: no float pi - phi_eff
    partner = make_gbs(GBSParams(2, config.p, -config.phi_effective), n_max)
    partner = FieldState([(-1) ** n * a for n, a in enumerate(partner.amps)], n_max)
    return GenerationReport(
        post_selected_field=post,
        p2=p_first * p_second,
        fidelity_to_target=fidelity(post, partner),
        target=target,
        joint_before_projection=joint,
    )


def oracle_measurement(field: FieldState, p: float, phi: float) -> MeasurementReport:
    if not field.is_normalized():
        raise ValueError("run_measurement requires a normalized field")
    joint = jc_closed_form(tensor(AtomState(down=1.0, up=0.0), field), GT_PROBE)
    m = ramsey_decode_matrix(p, phi)
    decoded = JointState(np.concatenate([
        m[0, 0] * joint.down_amps + m[0, 1] * joint.up_amps,
        m[1, 0] * joint.down_amps + m[1, 1] * joint.up_amps,
    ]), joint.n_max)
    f_down, prob_down = project_atom(decoded, "down")
    f_up, prob_up = project_atom(decoded, "up")
    return MeasurementReport(prob_up=prob_up, prob_down=prob_down,
                             post_field_up=_normalized(f_up, prob_up),
                             post_field_down=_normalized(f_down, prob_down))


def _outcome(call):
    """(result, None) or (None, exception class) of call()."""
    try:
        return call(), None
    except Exception as exc:  # any class: the test compares classes
        return None, type(exc)


def _same_field(a: FieldState, b: FieldState):
    assert a.n_max == b.n_max
    assert a.amps.tobytes() == b.amps.tobytes()


@st.composite
def generation_cases(draw):
    config = GenerationConfig(p=draw(probabilities), phi1=draw(phases), omega=draw(phases),
                              dt_gap=draw(phases), n_max=draw(st.integers(2, 8)),
                              m2=draw(st.integers(0, 16)))
    return config, draw(transits), draw(transits)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(generation_cases())
@example(case=(GenerationConfig(p=0.5), None, None))
@example(case=(GenerationConfig(p=1.0), 0.0, None))  # atom 1 never exits in |down>
@example(case=(GenerationConfig(p=1.0), None, 0.0))  # zero post-selection: fidelity refuses
@example(case=(GenerationConfig(p=1.0), None, 1e-158))  # p_second = 2e-316 cannot normalize
def test_run_generation_matches_object_composition(case):
    config, gt1, gt2 = case
    got, got_error = _outcome(lambda: run_generation(config, gt1=gt1, gt2=gt2))
    want, want_error = _outcome(lambda: oracle_generation(config, gt1, gt2))
    assert got_error is want_error
    if want is None:
        return
    _same_field(got.post_selected_field, want.post_selected_field)
    assert got.joint_before_projection.n_max == want.joint_before_projection.n_max
    assert got.joint_before_projection.amps.tobytes() == want.joint_before_projection.amps.tobytes()
    assert got.p2 == want.p2
    assert got.fidelity_to_target == want.fidelity_to_target
    assert got.target == want.target


@st.composite
def measurement_cases(draw):
    n_max = draw(st.integers(0, 8))
    parts = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1.0, 1.0))
    if draw(st.booleans()):  # a binomial state, with its exact zeros above n = 2
        p, phi = draw(probabilities), draw(phases)
        field = make_gbs(GBSParams(2, p, phi), max(n_max, 2))
    else:
        amps = np.array([complex(draw(parts), draw(parts)) for _ in range(n_max + 1)])
        norm = np.linalg.norm(amps)
        if draw(st.booleans()) and norm > 0.0:  # else mostly unnormalized: both refuse
            amps = amps / norm
        field = FieldState(amps, n_max)
    return field, draw(st.one_of(probabilities, st.sampled_from((-0.5, 1.5)))), draw(phases)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(measurement_cases())
@example(case=(make_gbs(GBSParams(2, 0.5, 0.3), 4), 0.5, 0.3))
@example(case=(make_gbs(GBSParams(2, 1.0, 0.0), 2), 1.0, 0.0))  # one branch has probability 0
@example(case=(make_fock(0, 0), 0.5, 0.0))
def test_run_measurement_matches_object_composition(case):
    field, p, phi = case
    got, got_error = _outcome(lambda: run_measurement(field, p, phi))
    want, want_error = _outcome(lambda: oracle_measurement(field, p, phi))
    assert got_error is want_error
    if want is None:
        return
    assert got.prob_up == want.prob_up
    assert got.prob_down == want.prob_down
    _same_field(got.post_field_up, want.post_field_up)
    _same_field(got.post_field_down, want.post_field_down)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(probabilities, phases)
def test_j3_operator_matches_fresh_ladder_composition(p, phi):
    plus, minus, zero = hp_operators()
    want = math.sqrt(p * (1.0 - p)) * (
        np.exp(-1j * phi) * plus + np.exp(1j * phi) * minus
    ) - (2.0 * p - 1.0) * zero
    assert j3_operator(p, phi).tobytes() == want.tobytes()


def oracle_distinguish(field: FieldState, p: float, phi: float) -> tuple[str, float]:
    """(label, confidence) from the oracle's readout: a tie votes for |up>."""
    m = oracle_measurement(field, p, phi)
    up = m.prob_up >= m.prob_down
    return ("2GBS(p,phi)" if up else "2GBS(1-p,pi+phi)"), (m.prob_up if up else m.prob_down)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(measurement_cases())
@example(case=(make_gbs(GBSParams(2, 0.5, math.pi + 0.3), 4), 0.5, 0.3))  # the partner
@example(case=(make_gbs(GBSParams(2, 0.5, 0.3), 4), 0.5, 0.3))
@example(case=(make_fock(1, 2), 0.5, 0.0))  # equal probabilities: the tie goes to |up>
def test_distinguish_orthogonal_matches_object_composition(case):
    field, p, phi = case
    got, got_error = _outcome(lambda: distinguish_orthogonal(field, p, phi))
    want, want_error = _outcome(lambda: oracle_distinguish(field, p, phi))
    assert got_error is want_error
    if want is None:
        return
    assert (got.label, got.confidence) == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(measurement_cases())
@example(case=(make_fock(1, 2), 0.5, 0.0))  # equal probabilities: the tie goes to |up>
def test_distinguish_orthogonal_returns_the_readout(case):
    field, p, phi = case
    got, got_error = _outcome(lambda: distinguish_orthogonal(field, p, phi))
    want, want_error = _outcome(lambda: run_measurement(field, p, phi))
    assert got_error is want_error
    if want is None:
        return
    assert type(got) is MeasurementReport
    assert got.prob_up == want.prob_up
    assert got.prob_down == want.prob_down
    _same_field(got.post_field_up, want.post_field_up)
    _same_field(got.post_field_down, want.post_field_down)


def _checked_binomial(p: float, phi: float) -> FieldState:
    """The two-photon binomial state (p, phi) from its formula, through the checked constructor."""
    return FieldState([math.sqrt(math.comb(2, n) * p**n * (1.0 - p) ** (2 - n))
                       * np.exp(1j * n * phi) for n in range(3)], 2)


def _checked_gamma(p: float, phi: float) -> FieldState:
    root = math.sqrt(2.0 * p * (1.0 - p))
    return FieldState([root, (2.0 * p - 1.0) * np.exp(1j * phi), -root * np.exp(2j * phi)], 2)


def oracle_eigenbasis(p: float, phi: float) -> EigenbasisReport:
    op = j3_operator(p, phi)  # held to its fresh ladder composition below
    partner = _checked_binomial(1.0 - p, phi)  # (1-p, pi+phi): e^(i n pi) = (-1)^n, exactly
    triple = (_checked_binomial(p, phi), _checked_gamma(p, phi),
              FieldState([(-1) ** n * a for n, a in enumerate(partner.amps)], 2))
    residuals = tuple(float(np.linalg.norm(op @ v.amps - lam * v.amps))
                      for v, lam in zip(triple, (1.0, 0.0, -1.0)))
    return EigenbasisReport(eigenvalues=tuple(float(x) for x in np.linalg.eigvalsh(op)[::-1]),
                            residuals=residuals)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(probabilities, st.sampled_from((-0.5, 1.5))),
       st.one_of(phases, st.floats(-1e300, 1e300)))
@example(p=0.5, phi=0.0)
@example(p=0.0, phi=math.pi)
@example(p=1.0, phi=-0.0)
def test_verify_eigenbasis_matches_object_composition(p, phi):
    got, got_error = _outcome(lambda: verify_eigenbasis(p, phi))
    want, want_error = _outcome(lambda: oracle_eigenbasis(p, phi))
    assert got_error is want_error
    if want is None:
        return
    assert got.eigenvalues == want.eigenvalues
    assert got.residuals == want.residuals
