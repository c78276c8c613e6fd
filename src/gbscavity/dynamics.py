"""Resonant atom-cavity evolution and Ramsey-zone unitaries.

Everything runs in the interaction picture of the resonant one-quantum
exchange, where the dynamics reduce to rotations inside the two-dimensional
blocks spanned by {|up, n>, |down, n+1>} while |down, 0> stays fixed.  The
free cavity evolution between atom transits is a photon-number phase acting
on the field alone.  hbar = 1 throughout, so only the products g*t and
omega*dt matter.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import ATOL_ALGEBRA
from .states import AtomState, FieldState, JointState

__all__ = [
    "TruncationLeakError",
    "CouplingSpec",
    "OperatorMatrix",
    "jc_closed_form",
    "jc_hamiltonian",
    "jc_expm_evolve",
    "free_field_evolve",
    "ramsey_prepare",
    "ramsey_decode_matrix",
    "excitation_operator",
]

_BASIS_LABELS = ("field", "joint-atom-major")


class TruncationLeakError(RuntimeError):
    """Amplitude would be pushed past the highest retained photon number."""


@dataclass(frozen=True)
class CouplingSpec:
    """Atom-cavity coupling g (rad/s), positive and finite."""

    g: float

    def __post_init__(self):
        if not (math.isfinite(self.g) and self.g > 0.0):
            raise ValueError(f"coupling g must be positive, got {self.g}")


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator with an explicit basis label."""

    matrix: np.ndarray
    basis: str

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator matrix must be square, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("operator entries must be finite")
        if self.basis not in _BASIS_LABELS:
            raise ValueError(f"unknown basis label {self.basis!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_truncation(joint: JointState):
    # |up, n_max> couples to |down, n_max + 1>, which the truncation cannot hold.
    top = abs(joint.up_amps[-1])
    if top > ATOL_ALGEBRA:
        raise TruncationLeakError(
            f"|up, n_max={joint.n_max}> carries amplitude {top:.3e}; "
            "its evolution would leave the truncated space"
        )


def jc_closed_form(joint: JointState, g: float, t: float) -> JointState:
    """Resonant evolution for time t by the closed-form transition rules:

        |up, n>   -> cos(g sqrt(n+1) t) |up, n> - sin(g sqrt(n+1) t) |down, n+1>
        |down, n> -> cos(g sqrt(n) t) |down, n> + sin(g sqrt(n) t) |up, n-1>

    |down, 0> is a fixed point.  Linear, unitary, and it conserves the total
    excitation number.
    """
    _check_truncation(joint)
    d = joint.n_max + 1
    down, up = joint.down_amps, joint.up_amps
    ns = np.arange(d)
    theta_down = g * t * np.sqrt(ns)
    theta_up = g * t * np.sqrt(ns + 1.0)
    out_down = np.cos(theta_down) * down
    out_up = np.cos(theta_up) * up
    out_up[: d - 1] += np.sin(theta_down[1:]) * down[1:]
    out_down[1:] -= np.sin(theta_up[: d - 1]) * up[: d - 1]
    return JointState(np.concatenate([out_down, out_up]), joint.n_max)


def jc_hamiltonian(n_max: int, spec: CouplingSpec) -> OperatorMatrix:
    """Interaction-picture generator i g (sigma+ a - sigma- a†) on the joint basis."""
    if n_max < 1:
        raise ValueError("jc_hamiltonian needs n_max >= 1")
    d = n_max + 1
    h = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    for n in range(n_max):
        c = 1j * spec.g * math.sqrt(n + 1.0)
        h[d + n, n + 1] = c      # <up, n| H |down, n+1>
        h[n + 1, d + n] = -c
    return OperatorMatrix(h, "joint-atom-major")


@lru_cache(maxsize=None)
def _unit_coupling_eigh(n_max: int):
    h = jc_hamiltonian(n_max, CouplingSpec(g=1.0)).matrix
    vals, vecs = np.linalg.eigh(h)
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return vals, vecs


def jc_expm_evolve(joint: JointState, g: float, t: float) -> JointState:
    """Evolution by exp(-i H t) through the spectral decomposition of H.

    Independent numerical route used to cross-check jc_closed_form.  The
    eigendecomposition of the unit-coupling generator is cached per n_max
    (read-only, safe under concurrent readers) and rescaled by g*t.
    """
    _check_truncation(joint)
    vals, vecs = _unit_coupling_eigh(joint.n_max)
    phases = np.exp(-1j * vals * (g * t))
    out = vecs @ (phases * (vecs.conj().T @ joint.amps))
    return JointState(out, joint.n_max)


def free_field_evolve(field: FieldState, omega: float, dt: float) -> FieldState:
    """Free cavity evolution |n> -> e^(-i n omega dt) |n>.

    On a binomial state this shifts the phase parameter: (N, p, phi) goes to
    (N, p, phi - omega dt).
    """
    ns = np.arange(field.n_max + 1)
    return FieldState(field.amps * np.exp(-1j * ns * omega * dt), field.n_max)


def ramsey_prepare(p: float, phi_k: float) -> AtomState:
    """Atom superposition sqrt(p) |up> + e^(i phi_k) sqrt(1-p) |down>."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return AtomState(down=np.exp(1j * phi_k) * math.sqrt(1.0 - p), up=math.sqrt(p))


def ramsey_decode_matrix(p: float, phi: float) -> np.ndarray:
    """Decoding unitary on (|down>, |up>):

        |up>   -> sqrt(p) |up> - e^(-i phi) sqrt(1-p) |down>
        |down> -> e^(i phi) sqrt(1-p) |up> + sqrt(p) |down>
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    sp = math.sqrt(p)
    sq = math.sqrt(1.0 - p)
    return np.array(
        [[sp, -np.exp(-1j * phi) * sq],
         [np.exp(1j * phi) * sq, sp]],
        dtype=np.complex128,
    )


def excitation_operator(n_max: int) -> OperatorMatrix:
    """Total excitation number sigma_z / 2 + a† a, conserved by the evolution."""
    ns = np.arange(n_max + 1, dtype=np.float64)
    diag = np.concatenate([ns - 0.5, ns + 0.5])
    return OperatorMatrix(np.diag(diag), "joint-atom-major")
