"""su(2) structure carried by the lowest three photon levels.

The two-photon binomial state (p, phi), its orthogonal partner (1-p, pi+phi)
and the third completion span {|0>, |1>, |2>}.  A pseudo angular momentum
built from the bosonic ladder realization on that subspace has exactly this
triple as eigenbasis, with eigenvalues +1, 0, -1.  Operators are plain
complex 3x3 arrays on that subspace, a fresh one per call.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .states import (FieldState, _check_finite, _check_weight, _gamma_amps, _gbs_amps, _norm,
                     _partner_amps)

__all__ = [
    "EigenbasisReport",
    "hp_operators",
    "j3_operator",
    "spin1_triple",
    "verify_eigenbasis",
]


def hp_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(plus, minus, zero) of the bosonic realization on {|0>, |1>, |2>}:
    raise = sqrt(2 - n) a, lower = a† sqrt(2 - n), weight = diag(1, 0, -1).

    The pair is mutually adjoint and [plus, minus] = 2 * zero.
    """
    a = np.diag(np.sqrt([1.0, 2.0]), 1).astype(np.complex128)
    root = np.diag(np.sqrt([2.0, 1.0, 0.0])).astype(np.complex128)
    plus = root @ a
    minus = a.conj().T @ root
    zero = np.diag([1.0, 0.0, -1.0]).astype(np.complex128)
    return plus, minus, zero


@functools.cache
def _ladder() -> tuple[np.ndarray, ...]:
    """hp_operators() built on first use, not at import; read-only views, as calls share them."""
    return tuple(np.broadcast_to(op, op.shape) for op in hp_operators())


def j3_operator(p: float, phi: float) -> np.ndarray:
    """Hermitian observable sqrt(p(1-p)) (e^(-i phi) J+ + e^(i phi) J-) - (2p-1) J0."""
    _check_weight("p", p)
    _check_finite("phi", phi)
    plus, minus, zero = _ladder()
    return math.sqrt(p * (1.0 - p)) * (
        np.exp(-1j * phi) * plus + np.exp(1j * phi) * minus
    ) - (2.0 * p - 1.0) * zero


def spin1_triple(p: float, phi: float) -> tuple[FieldState, FieldState, FieldState]:
    """(plus, zero, minus): eigenstates of j3_operator(p, phi) at eigenvalues +1, 0, -1."""
    _check_weight("p", p)
    return tuple(FieldState._own(amps, 2) for amps in _triple_amps(p, phi))


def _triple_amps(p: float, phi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """spin1_triple's amplitudes for a checked p; the -1 member is (1-p, pi+phi)."""
    _check_finite("phi", phi, 2)
    return _gbs_amps(2, p, phi, 2), _gamma_amps(p, phi, 2), _partner_amps(1.0 - p, phi, 2)


@dataclass(frozen=True)
class EigenbasisReport:
    """Residuals ||J3 v - lambda v|| for the triple, plus the numeric spectrum."""

    eigenvalues: tuple  # diagonalized spectrum, descending
    residuals: tuple    # for the analytic eigenpairs at +1, 0, -1

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


def verify_eigenbasis(p: float, phi: float) -> EigenbasisReport:
    """Check the analytic eigenpairs of j3_operator(p, phi)."""
    op = j3_operator(p, phi)  # checks p and phi; looked up here, so a patched one is used
    residuals = tuple(_norm(op @ amps - lam * amps)
                      for amps, lam in zip(_triple_amps(p, phi), (1.0, 0.0, -1.0)))
    spectrum = tuple(np.linalg.eigvalsh(op)[::-1].tolist())
    return EigenbasisReport(eigenvalues=spectrum, residuals=residuals)
