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

from .states import FieldState, GBSParams, _check_finite, _check_weight, make_gamma, make_gbs

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
    return (make_gbs(GBSParams(2, p, phi), 2),
            make_gamma(p, phi, 2),
            make_gbs(GBSParams(2, 1.0 - p, math.pi + phi), 2))


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
    op = j3_operator(p, phi)
    residuals = tuple(
        float(np.linalg.norm(op @ state.amps - lam * state.amps))
        for state, lam in zip(spin1_triple(p, phi), (1.0, 0.0, -1.0))
    )
    spectrum = np.linalg.eigvalsh(op)[::-1]
    return EigenbasisReport(eigenvalues=tuple(float(x) for x in spectrum), residuals=residuals)
