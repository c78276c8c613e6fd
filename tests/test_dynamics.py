import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracle import jc_blocks_reference

from gbscavity import (
    ATOL_ALGEBRA,
    ATOL_DYNAMICS,
    AtomState,
    GBSParams,
    JointState,
    TruncationLeakError,
    excitation_operator,
    fidelity,
    free_field_evolve,
    gauge_fix,
    jc_closed_form,
    jc_expm_evolve,
    jc_hamiltonian,
    make_fock,
    make_gbs,
    ramsey_decode_matrix,
    ramsey_prepare,
)
from gbscavity.dynamics import _jc_blocks, _rotation
from gbscavity.protocol import GT_PROBE

N_MAX = 4


def basis_joint(atom, n, n_max=N_MAX):
    """|atom, n> in the joint layout."""
    amps = np.zeros(2 * (n_max + 1), dtype=complex)
    offset = 0 if atom == "down" else n_max + 1
    amps[offset + n] = 1.0
    return JointState(amps, n_max)


def random_joint(rng, n_max=N_MAX):
    """Normalized random joint state with an empty |up, n_max> slot."""
    amps = rng.normal(size=2 * (n_max + 1)) + 1j * rng.normal(size=2 * (n_max + 1))
    amps[-1] = 0.0
    return JointState(amps / np.linalg.norm(amps), n_max)


# ---------------------------------------------------------------- closed form


def test_ground_vacuum_is_fixed_point():
    state = basis_joint("down", 0)
    out = jc_closed_form(state, 17.3)
    assert np.max(np.abs(out.amps - state.amps)) < 1e-15


def test_full_transfer_of_one_excitation():
    # |up, 0> at g t = pi/2 swaps into -|down, 1>.
    out = jc_closed_form(basis_joint("up", 0), np.pi / 2)
    expected = -basis_joint("down", 1).amps
    assert np.max(np.abs(out.amps - expected)) < 1e-12


def test_one_photon_absorption():
    # |down, 1> at g t = pi/2 swaps into +|up, 0>.
    out = jc_closed_form(basis_joint("down", 1), np.pi / 2)
    assert np.max(np.abs(out.amps - basis_joint("up", 0).amps)) < 1e-12


def test_two_photon_block_at_probe_time():
    # |down, 2> for g t = 41 pi / 4: sin(sqrt(2) g t) = 1 - delta
    out = jc_closed_form(basis_joint("down", 2), 41 * np.pi / 4)
    sin_val = 0.9999082900891957  # sin(sqrt(2) * 41 pi / 4), frozen
    up1 = out.amps[N_MAX + 1 + 1]
    down2 = out.amps[2]
    assert abs(up1 - sin_val) < 1e-12
    assert abs(down2 - math.cos(math.sqrt(2.0) * 41 * np.pi / 4)) < 1e-12
    delta = 1.0 - sin_val
    assert 5e-5 < delta < 1.5e-4


def test_closed_form_is_linear():
    rng = np.random.default_rng(7)
    a, b = random_joint(rng), random_joint(rng)
    za, zb = 0.3 - 0.4j, 1.1 + 0.2j
    combo = JointState(za * a.amps + zb * b.amps, N_MAX)
    lhs = jc_closed_form(combo, 1.89).amps
    rhs = za * jc_closed_form(a, 1.89).amps + zb * jc_closed_form(b, 1.89).amps
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_closed_form_unitary_and_composes():
    rng = np.random.default_rng(13)
    for _ in range(20):
        state = random_joint(rng)
        gt = rng.uniform(0.1, 100.0)
        out = jc_closed_form(state, gt)
        assert abs(out.norm() - 1.0) < ATOL_ALGEBRA
        # t1 then t2 equals t1 + t2
        t1, t2 = 0.37 * gt, 0.63 * gt
        seq = jc_closed_form(jc_closed_form(state, t1), t2)
        assert np.max(np.abs(seq.amps - out.amps)) < 1e-10


def test_truncation_leak_is_a_hard_error():
    leaky = basis_joint("up", N_MAX)
    with pytest.raises(TruncationLeakError):
        jc_closed_form(leaky, 0.1)
    with pytest.raises(TruncationLeakError):
        jc_expm_evolve(leaky, 0.1)


# ----------------------------------------------------------------- generator


def test_hamiltonian_matrix_elements():
    h = jc_hamiltonian(N_MAX)  # unit coupling: g enters only through g*t
    d = N_MAX + 1
    assert h[d + 0, 1] == 1j                # <up,0| H |down,1>
    assert h[d + 2, 3] == 1j * math.sqrt(3.0)
    assert np.all(np.diag(h) == 0)
    assert np.max(np.abs(h - h.conj().T)) == 0.0  # Hermitian
    with pytest.raises(ValueError):
        jc_hamiltonian(0)  # no coupling without a photon level to exchange


def test_hamiltonian_commutes_with_excitation_number():
    h = jc_hamiltonian(N_MAX)
    n_exc = excitation_operator(N_MAX)
    comm = h @ n_exc - n_exc @ h
    assert np.max(np.abs(comm)) < ATOL_ALGEBRA


def test_excitation_expectation_is_conserved():
    rng = np.random.default_rng(23)
    n_exc = excitation_operator(N_MAX)
    for _ in range(10):
        state = random_joint(rng)
        before = np.vdot(state.amps, n_exc @ state.amps).real
        evolved = jc_closed_form(state, 1.3 * rng.uniform(0.1, 30.0))
        after = np.vdot(evolved.amps, n_exc @ evolved.amps).real
        assert abs(before - after) < 1e-11


def test_expm_oracle_matches_closed_form():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        state = random_joint(rng)
        gt = rng.uniform(0.1, 100.0)
        a = gauge_fix(jc_closed_form(state, gt))
        b = gauge_fix(jc_expm_evolve(state, gt))
        assert np.max(np.abs(a.amps - b.amps)) < ATOL_DYNAMICS


@st.composite
def evolutions(draw):
    """(state, g*t): a normalized random joint state with |up, n_max> empty."""
    n_max = draw(st.integers(1, 8))
    part = st.floats(-1.0, 1.0)
    d = 2 * (n_max + 1)
    amps = (np.array(draw(st.lists(part, min_size=d, max_size=d)))
            + 1j * np.array(draw(st.lists(part, min_size=d, max_size=d))))
    amps[-1] = 0.0
    norm = np.linalg.norm(amps)
    assume(norm > 1e-3)
    gt = draw(st.floats(0.0, 100.0, exclude_min=True))
    return JointState(amps / norm, n_max), gt


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(evolutions())
def test_closed_form_matches_oracle_unitary_and_conserving(case):
    state, gt = case
    closed = jc_closed_form(state, gt)
    oracle = jc_expm_evolve(state, gt)
    # the two routes agree in phase too, so no gauge needs fixing
    assert np.max(np.abs(closed.amps - oracle.amps)) < ATOL_DYNAMICS
    assert abs(closed.norm() - 1.0) < ATOL_ALGEBRA
    n_exc = excitation_operator(state.n_max)
    before = np.vdot(state.amps, n_exc @ state.amps).real
    assert abs(np.vdot(closed.amps, n_exc @ closed.amps).real - before) < ATOL_DYNAMICS


@pytest.mark.parametrize("evolve", [jc_closed_form, jc_expm_evolve])
@pytest.mark.parametrize("gt", [1e308, math.inf, math.nan])
def test_evolvers_reject_a_non_finite_rabi_angle_by_name(evolve, gt):
    # |gt| * sqrt(n_max + 1) overflows or is not a number: one ValueError, no numpy warning
    message = f"Rabi angle g*t*sqrt(max(n_max, 1) + 1) must be finite, got gt={gt}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        evolve(basis_joint("up", 0), gt)


# ----------------------------------------------------------- rotation table

MAX_D = 12
PARTS = st.lists(st.floats(-1.0, 1.0), min_size=4 * MAX_D, max_size=4 * MAX_D)
ONES = [1.0] * (4 * MAX_D)


def padded(*parts):
    """One block of MAX_D real or imaginary parts, zero after the given ones."""
    return [*parts] + [0.0] * (MAX_D - len(parts))


# down = (0, -0-0j, 1+1j), up = (-0-0j, 0, 0): its blocks at gt = 0.0 and -0.0 differ in zero signs
SIGNED_ZEROS = padded(0.0, -0.0, 1.0) + padded(0.0, -0.0, 1.0) + padded(-0.0) + padded(-0.0)


def blocks(d, parts):
    """(down, up) blocks of d amplitudes from the real and imaginary parts, signed zeros kept;
    |up, d - 1> is left empty, so the truncation holds."""
    re_down, im_down, re_up, im_up = (parts[k * MAX_D : k * MAX_D + d] for k in range(4))
    down = np.array([complex(a, b) for a, b in zip(re_down, im_down)], dtype=np.complex128)
    up = np.array([complex(a, b) for a, b in zip(re_up, im_up)], dtype=np.complex128)
    up[-1] = 0.0
    return down, up


def same_bytes(got, want):
    return [a.tobytes() for a in got] == [a.tobytes() for a in want]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, MAX_D), st.floats(-1e3, 1e3), PARTS)
@example(3, 0.0, SIGNED_ZEROS)
@example(3, -0.0, SIGNED_ZEROS)
@example(N_MAX + 1, GT_PROBE, ONES)
@example(MAX_D, 1e300, ONES)
def test_rotation_table_gives_the_two_angle_formula_bit_for_bit(d, gt, parts):
    down, up = blocks(d, parts)
    want = jc_blocks_reference(down, up, gt)
    for _ in range(2):  # the second call reads the table the first one left
        assert same_bytes(_jc_blocks(down, up, gt), want)


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_signed_zero_angles_keep_their_own_tables(first):
    down, up = blocks(3, SIGNED_ZEROS)
    assert not same_bytes(jc_blocks_reference(down, up, 0.0), jc_blocks_reference(down, up, -0.0))
    _rotation.cache_clear()
    for gt in (first, -first, first, -first):  # a miss, then a hit, for each zero
        assert same_bytes(_jc_blocks(down, up, gt), jc_blocks_reference(down, up, gt))


def test_rotation_tables_are_read_only():
    _jc_blocks(np.ones(N_MAX + 1, dtype=complex), np.zeros(N_MAX + 1, dtype=complex), GT_PROBE)
    cos, sin = _rotation(GT_PROBE, N_MAX + 1, 1.0)
    assert cos.shape == (N_MAX + 2,) and sin.shape == (N_MAX,)
    for table in (cos, sin):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0
    assert _rotation.cache_info().maxsize == 64


# -------------------------------------------------------------- free field


def test_free_evolution_shifts_gbs_phase():
    omega, dt = 1.3, 2.1
    state = make_gbs(GBSParams(2, 0.4, 1.0), N_MAX)
    evolved = free_field_evolve(state, omega, dt)
    shifted = make_gbs(GBSParams(2, 0.4, 1.0 - omega * dt), N_MAX)
    assert abs(fidelity(evolved, shifted) - 1.0) < 1e-12
    assert abs(evolved.norm() - 1.0) < 1e-15


def test_free_evolution_period():
    state = make_gbs(GBSParams(2, 0.7, 0.3), N_MAX)
    evolved = free_field_evolve(state, 1.0, 2.0 * np.pi)
    assert np.max(np.abs(evolved.amps - state.amps)) < 1e-12


@pytest.mark.parametrize("omega, dt", [(1e308, 10.0), (1e300, 1e10)])
def test_free_evolution_rejects_a_phase_that_overflows_by_name(omega, dt):
    # omega and dt are finite, but n_max*omega*dt is not, though at 1e300 n_max*omega is:
    # one ValueError, no numpy warning
    message = "the free-field phase n_max*omega*dt must be finite, got inf"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        free_field_evolve(make_gbs(GBSParams(2, 0.7, 0.3), N_MAX), omega, dt)


# ------------------------------------------------------------- Ramsey zones


def test_ramsey_prepare_amplitudes():
    atom = ramsey_prepare(0.3, 0.8)
    assert abs(atom.up - math.sqrt(0.3)) < 1e-15
    assert abs(atom.down - math.sqrt(0.7) * np.exp(0.8j)) < 1e-15
    assert atom.is_normalized()
    assert ramsey_prepare(1.0, 0.0).down == 0.0
    with pytest.raises(ValueError):
        ramsey_prepare(1.5, 0.0)


def test_ramsey_decode_matrix_is_unitary():
    for p in (0.0, 0.3, 0.5, 1.0):
        m = ramsey_decode_matrix(p, 1.1)
        assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-15


def test_ramsey_decode_discriminates():
    # The decode collapses the matched superposition onto |up> ...
    p, phi = 0.42, 2.2
    atom = AtomState(down=math.sqrt(1 - p), up=np.exp(1j * phi) * math.sqrt(p))
    down, up = ramsey_decode_matrix(p, phi) @ atom.amps
    assert abs(abs(up) - 1.0) < 1e-12
    assert abs(down) < 1e-12
    # ... and the orthogonal superposition onto |down>
    ortho = AtomState(down=math.sqrt(p), up=-np.exp(1j * phi) * math.sqrt(1 - p))
    down2, up2 = ramsey_decode_matrix(p, phi) @ ortho.amps
    assert abs(abs(down2) - 1.0) < 1e-12
    assert abs(up2) < 1e-12
