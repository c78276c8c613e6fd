import math

import numpy as np
import pytest

from gbscavity import (
    hp_operators,
    inner,
    j3_operator,
    spin1_triple,
    verify_eigenbasis,
)

GRID = [(0.5, 0.0), (0.3, 1.7), (1.0, 0.0), (0.0, 2.2), (0.85, -0.4)]


def basis(n):
    e = np.zeros(3, dtype=np.complex128)
    e[n] = 1.0
    return e


# ---------------------------------------------------------------- ladder ops


def test_ladder_matrix_elements():
    jp, jm, j0 = hp_operators()
    assert np.allclose(jp @ basis(1), math.sqrt(2.0) * basis(0), atol=1e-15)
    assert np.allclose(jp @ basis(2), math.sqrt(2.0) * basis(1), atol=1e-15)
    assert np.allclose(jp @ basis(0), 0.0, atol=1e-15)
    assert np.allclose(jm @ basis(2), 0.0, atol=1e-15)
    assert np.allclose(j0 @ basis(0), basis(0), atol=1e-15)
    assert np.allclose(j0 @ basis(2), -basis(2), atol=1e-15)


def test_ladder_adjoint_pair():
    jp, jm, _ = hp_operators()
    assert np.max(np.abs(jp.conj().T - jm)) < 1e-15


def test_su2_commutators():
    jp, jm, j0 = hp_operators()
    assert np.max(np.abs(jp @ jm - jm @ jp - 2.0 * j0)) < 1e-12
    assert np.max(np.abs(j0 @ jp - jp @ j0 - jp)) < 1e-12
    assert np.max(np.abs(j0 @ jm - jm @ j0 + jm)) < 1e-12


# ------------------------------------------------------------- j3 observable


def test_j3_special_points():
    top = j3_operator(1.0, 0.0)
    assert np.allclose(top, np.diag([-1.0, 0.0, 1.0]), atol=1e-15)
    jp, jm, _ = hp_operators()
    balanced = j3_operator(0.5, 0.0)
    assert np.allclose(balanced, 0.5 * (jp + jm), atol=1e-15)


def test_j3_hermitian_traceless():
    for p, phi in GRID:
        m = j3_operator(p, phi)
        assert np.max(np.abs(m - m.conj().T)) < 1e-15
        assert abs(np.trace(m)) < 1e-12


def test_j3_rejects_bad_p():
    with pytest.raises(ValueError):
        j3_operator(1.2, 0.0)


# ---------------------------------------------------------------- eigenbasis


def test_triple_is_orthonormal():
    for p, phi in GRID:
        states = spin1_triple(p, phi)
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                want = 1.0 if i == j else 0.0
                assert abs(inner(a, b) - want) < 1e-12


def test_verify_eigenbasis_residuals():
    for p, phi in GRID:
        report = verify_eigenbasis(p, phi)
        assert report.max_residual < 1e-12
        assert np.allclose(report.eigenvalues, (1.0, 0.0, -1.0), atol=1e-10)


def test_numeric_eigenvectors_match_analytic_triple():
    for p, phi in GRID:
        vals, vecs = np.linalg.eigh(j3_operator(p, phi))
        for target, state in zip((1.0, 0.0, -1.0), spin1_triple(p, phi)):
            (k,) = np.nonzero(np.abs(vals - target) < 1e-6)[0]
            overlap = abs(np.vdot(vecs[:, k], state.amps)) ** 2
            assert abs(overlap - 1.0) < 1e-10


def test_perturbed_operator_breaks_verification(nudged_j3):
    report = verify_eigenbasis(0.5, 0.0)
    assert report.max_residual >= 1e-12


def test_operators_are_fresh_arrays():
    # a caller may edit what it gets without touching the next call's result
    first = j3_operator(0.5, 0.0)
    first[0, 0] += 1.0
    assert j3_operator(0.5, 0.0)[0, 0] == 0.0
    plus, _, zero = hp_operators()  # j3_operator keeps its own read-only copies
    plus[0, 1] += 1.0
    zero[0, 0] += 1.0
    assert hp_operators()[0][0, 1] == math.sqrt(2.0)
    assert j3_operator(0.5, 0.0)[0, 1] == 0.5 * math.sqrt(2.0)
    assert j3_operator(0.0, 0.0)[0, 0] == 1.0
