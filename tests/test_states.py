import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbscavity import (
    ATOL_ALGEBRA,
    AtomState,
    FieldState,
    GBSParams,
    JointState,
    fidelity,
    gauge_fix,
    inner,
    make_fock,
    make_gamma,
    make_gbs,
    state_from_dict,
    state_to_dict,
)
from oracle import project_atom, tensor


def random_field(rng, n_max):
    amps = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    return FieldState(amps / np.linalg.norm(amps), n_max)


def test_make_fock_places_single_amplitude():
    state = make_fock(2, 4)
    assert state.amps[2] == 1.0
    assert np.sum(np.abs(state.amps)) == 1.0
    assert state.is_normalized()


def test_make_fock_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_fock(5, 4)
    with pytest.raises(ValueError):
        make_fock(-1, 4)


def test_gbs_degenerate_endpoints():
    # p = 0 collapses to vacuum, p = 1 to |N>.
    vac = make_gbs(GBSParams(2, 0.0, 0.3), 4)
    assert abs(vac.amps[0] - 1.0) < 1e-15
    assert np.all(vac.amps[1:] == 0)
    top = make_gbs(GBSParams(3, 1.0, 0.0), 4)
    assert abs(top.amps[3] - 1.0) < 1e-15


def test_gbs_amplitudes_against_binomial_oracle():
    # sqrt of C(2,n) p^n (1-p)^(2-n) at p = 1/2: (0.5, sqrt(0.5), 0.5)
    state = make_gbs(GBSParams(2, 0.5, 0.0), 2)
    expected = [0.5, 0.7071067811865476, 0.5]
    assert np.max(np.abs(state.amps - expected)) < 1e-12

    phi = 0.9
    state = make_gbs(GBSParams(2, 0.3, phi), 4)
    for n in range(3):
        mag = math.sqrt(math.comb(2, n) * 0.3**n * 0.7 ** (2 - n))
        assert abs(state.amps[n] - mag * np.exp(1j * n * phi)) < 1e-12


def test_gbs_normalized_for_binomial_theorem():
    for N in range(9):
        for p in np.linspace(0.0, 1.0, 11):
            state = make_gbs(GBSParams(N, float(p), 1.1), max(N, 1) + 1)
            assert state.is_normalized()


def test_gbs_validation():
    with pytest.raises(ValueError):
        GBSParams(2, 1.2, 0.0)
    with pytest.raises(ValueError):
        GBSParams(2, -0.1, 0.0)
    with pytest.raises(ValueError):
        make_gbs(GBSParams(3, 0.5, 0.0), 2)  # truncation cannot hold N=3
    with pytest.raises(ValueError):
        GBSParams(-1, 0.5, 0.0)
    with pytest.raises(ValueError):
        GBSParams(2, 0.5, math.nan)


def test_gamma_explicit_values():
    state = make_gamma(0.5, 0.0, 2)
    root = math.sqrt(0.5)
    assert np.max(np.abs(state.amps - [root, 0.0, -root])) < 1e-15
    edge = make_gamma(0.0, 0.0, 2)
    assert np.max(np.abs(edge.amps - [0.0, -1.0, 0.0])) < 1e-15
    with pytest.raises(ValueError):
        make_gamma(1.5, 0.0, 2)
    with pytest.raises(ValueError):
        make_gamma(0.5, 0.0, 1)  # the completion lives on {|0>, |1>, |2>}


def test_orthonormal_triple_gram_identity():
    # {2GBS(p,phi), completion, 2GBS(1-p,pi+phi)} is orthonormal.
    for p in (0.0, 0.2, 0.5, 0.77, 1.0):
        for phi in (0.0, 1.0, np.pi, 5.0):
            triple = [
                make_gbs(GBSParams(2, p, phi), 2),
                make_gamma(p, phi, 2),
                make_gbs(GBSParams(2, 1.0 - p, np.pi + phi), 2),
            ]
            gram = np.array([[inner(a, b) for b in triple] for a in triple])
            assert np.max(np.abs(gram - np.eye(3))) < ATOL_ALGEBRA


def test_inner_is_conjugate_linear_in_first_slot():
    rng = np.random.default_rng(421)
    a, b = random_field(rng, 3), random_field(rng, 3)
    z = 0.3 - 1.2j
    scaled = FieldState(z * a.amps, 3)
    assert abs(inner(scaled, b) - np.conj(z) * inner(a, b)) < 1e-12
    assert abs(inner(a, b) - np.conj(inner(b, a))) < 1e-15


def test_inner_rejects_mismatched_states():
    with pytest.raises(ValueError):
        inner(make_fock(0, 2), make_fock(0, 3))
    with pytest.raises(ValueError):
        inner(make_fock(0, 2), tensor(AtomState(1.0, 0.0), make_fock(0, 2)))


def test_fidelity_basics():
    state = make_gbs(GBSParams(2, 0.4, 0.2), 4)
    assert fidelity(state, state) == 1.0
    rotated = FieldState(np.exp(0.7j) * state.amps, 4)
    assert abs(fidelity(state, rotated) - 1.0) < 1e-15  # global phase invisible
    other = make_gbs(GBSParams(2, 0.6, 1.2), 4)
    assert abs(fidelity(state, other) - fidelity(other, state)) < 1e-15


def test_fidelity_rejects_unnormalized():
    bad = FieldState([0.5, 0.0, 0.0], 2)
    with pytest.raises(ValueError):
        fidelity(bad, make_fock(0, 2))


def test_tensor_layout_and_norm():
    atom = AtomState(down=0.6, up=0.8j)
    field = make_fock(1, 2)
    joint = tensor(atom, field)
    # down block first, then up block, photon index fastest
    assert joint.amps[1] == 0.6
    assert joint.amps[3 + 1] == 0.8j
    rng = np.random.default_rng(5)
    f = random_field(rng, 4)
    a = AtomState(down=0.3 + 0.1j, up=0.2 - 0.5j)
    assert abs(tensor(a, f).norm() - a.norm() * f.norm()) < 1e-12


def test_project_atom_probabilities():
    atom = AtomState(down=math.sqrt(0.3), up=math.sqrt(0.7))
    joint = tensor(atom, make_gbs(GBSParams(2, 0.5, 0.0), 4))
    down_field, p_down = project_atom(joint, "down")
    up_field, p_up = project_atom(joint, "up")
    assert abs(p_down - 0.3) < 1e-12
    assert abs(p_up - 0.7) < 1e-12
    assert abs(p_down + p_up - 1.0) < ATOL_ALGEBRA
    # unnormalized: squared norm carries the probability
    assert abs(down_field.norm() ** 2 - p_down) < 1e-12
    with pytest.raises(ValueError):
        project_atom(joint, "sideways")


def test_gauge_fix_pins_largest_amplitude():
    state = FieldState(np.array([0.3j, -0.8, 0.1 + 0.2j]) * np.exp(1.3j), 2)
    fixed = gauge_fix(state)
    k = int(np.argmax(np.abs(fixed.amps)))
    assert fixed.amps[k].imag == 0.0
    assert fixed.amps[k].real > 0.0
    assert abs(abs(inner(state, fixed)) - state.norm() ** 2) < 1e-12
    zero = FieldState(np.zeros(3), 2)
    assert gauge_fix(zero) is zero


def test_serialization_round_trip_is_bit_exact():
    rng = np.random.default_rng(99)
    field = random_field(rng, 4)
    joint = tensor(AtomState(down=0.6, up=0.8), field)
    # signed zeros and subnormals in both parts; np.array_equal takes -0.0 for
    # 0.0, so the buffers are compared byte for byte
    edge = FieldState(np.array([0.6 + 0.8j, complex(-0.0, 5e-324), complex(5e-324, -0.0),
                                complex(-5e-324, -0.0)]), 3)
    for state in (field, joint, edge):
        blob = json.dumps(state_to_dict(state))
        back = state_from_dict(json.loads(blob))
        assert type(back) is type(state)
        assert back.n_max == state.n_max
        assert back.amps.tobytes() == state.amps.tobytes()


@st.composite
def serializable_states(draw):
    """A FieldState or JointState, n_max in [0, 8], with any finite parts."""
    kind = draw(st.sampled_from((FieldState, JointState)))
    n_max = draw(st.integers(0, 8))
    size = (n_max + 1) * (1 if kind is FieldState else 2)
    part = st.lists(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
                    min_size=size, max_size=size)
    amps = np.empty(size, dtype=np.complex128)
    amps.real, amps.imag = draw(part), draw(part)  # keeps -0.0, unlike re + 1j * im
    return kind(amps, n_max)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(serializable_states())
@example(FieldState(np.array([complex(-0.0, 5e-324)]), 0))
@example(JointState(np.array([complex(-5e-324, -0.0), complex(1.7e308, -2.2e-308)]), 0))
def test_serialization_round_trip_property(state):
    back = state_from_dict(json.loads(json.dumps(state_to_dict(state))))
    assert type(back) is type(state)
    assert back.n_max == state.n_max
    assert back.amps.tobytes() == state.amps.tobytes()


def test_serialization_rejects_unknown_basis():
    with pytest.raises(ValueError):
        state_from_dict({"n_max": 1, "amps": [[1, 0], [0, 0]], "basis": "mystery"})
    with pytest.raises(ValueError):
        state_to_dict(AtomState(1.0, 0.0))  # only field and joint states have a basis label


def test_states_are_immutable():
    state = make_fock(0, 3)
    with pytest.raises((ValueError, RuntimeError)):
        state.amps[0] = 0.0
    with pytest.raises(AttributeError):
        state.n_max = 7


def test_constructors_reject_nonfinite():
    with pytest.raises(ValueError):
        FieldState([np.nan, 0.0], 1)
    with pytest.raises(ValueError):
        AtomState(down=np.inf, up=0.0)
    with pytest.raises(ValueError):
        JointState([1.0, 0.0, 0.0], 1)  # wrong length for n_max = 1
    with pytest.raises(ValueError):
        JointState([], -1)  # zero amplitudes is the right length for n_max = -1
