"""su(2) structure carried by the lowest three photon levels.

The two-photon binomial state (p, phi), its orthogonal partner (1-p, pi+phi)
and the third completion span {|0>, |1>, |2>}.  A pseudo angular momentum
built from the bosonic ladder realization on that subspace has exactly this
triple as eigenbasis, with eigenvalues +1, 0, -1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import OperatorMatrix
from .states import FieldState, GBSParams, make_gamma, make_gbs

__all__ = [
    "LadderTriple",
    "Spin1Triple",
    "EigenbasisReport",
    "hp_operators",
    "j3_operator",
    "spin1_triple",
    "verify_eigenbasis",
]


@dataclass(frozen=True)
class LadderTriple:
    """Raising, lowering and weight operators on the three-level subspace."""

    plus: OperatorMatrix
    minus: OperatorMatrix
    zero: OperatorMatrix


@dataclass(frozen=True)
class Spin1Triple:
    """Orthonormal eigenstates ordered by weight +1, 0, -1."""

    plus: FieldState
    zero: FieldState
    minus: FieldState
    p: float
    phi: float


def hp_operators() -> LadderTriple:
    """Bosonic realization on {|0>, |1>, |2>}: raise = sqrt(2 - n) a,
    lower = a† sqrt(2 - n), weight = diag(1, 0, -1).

    The pair is mutually adjoint and [plus, minus] = 2 * zero.
    """
    a = np.diag(np.sqrt([1.0, 2.0]), 1).astype(np.complex128)
    root = np.diag(np.sqrt([2.0, 1.0, 0.0])).astype(np.complex128)
    plus = root @ a
    minus = a.conj().T @ root
    zero = np.diag([1.0, 0.0, -1.0]).astype(np.complex128)
    return LadderTriple(
        plus=OperatorMatrix(plus, "field"),
        minus=OperatorMatrix(minus, "field"),
        zero=OperatorMatrix(zero, "field"),
    )


def j3_operator(p: float, phi: float) -> OperatorMatrix:
    """Hermitian observable sqrt(p(1-p)) (e^(-i phi) J+ + e^(i phi) J-) - (2p-1) J0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    ops = hp_operators()
    m = math.sqrt(p * (1.0 - p)) * (
        np.exp(-1j * phi) * ops.plus.matrix + np.exp(1j * phi) * ops.minus.matrix
    ) - (2.0 * p - 1.0) * ops.zero.matrix
    return OperatorMatrix(m, "field")


def spin1_triple(p: float, phi: float) -> Spin1Triple:
    """Eigenstates of j3_operator(p, phi) at eigenvalues +1, 0, -1."""
    return Spin1Triple(
        plus=make_gbs(GBSParams(2, p, phi), 2),
        zero=make_gamma(p, phi, 2),
        minus=make_gbs(GBSParams(2, 1.0 - p, math.pi + phi), 2),
        p=p,
        phi=phi,
    )


@dataclass(frozen=True)
class EigenbasisReport:
    """Residuals ||J3 v - lambda v|| for the triple, plus the numeric spectrum."""

    p: float
    phi: float
    eigenvalues: tuple  # diagonalized spectrum, descending
    residuals: tuple    # for the analytic eigenpairs at +1, 0, -1

    @property
    def max_residual(self) -> float:
        return max(self.residuals)


def verify_eigenbasis(p: float, phi: float, operator: OperatorMatrix | None = None) -> EigenbasisReport:
    """Check the analytic eigenpairs of the pseudo angular momentum.

    An alternative 3x3 `operator` may be supplied for diagnostics; by default
    the observable is j3_operator(p, phi).
    """
    op = j3_operator(p, phi) if operator is None else operator
    if op.dim != 3:
        raise ValueError("verify_eigenbasis needs a 3x3 operator")
    triple = spin1_triple(p, phi)
    residuals = tuple(
        float(np.linalg.norm(op.matrix @ state.amps - lam * state.amps))
        for state, lam in ((triple.plus, 1.0), (triple.zero, 0.0), (triple.minus, -1.0))
    )
    spectrum = np.linalg.eigvalsh(op.matrix)[::-1]
    return EigenbasisReport(
        p=p, phi=phi, eigenvalues=tuple(float(x) for x in spectrum), residuals=residuals
    )
