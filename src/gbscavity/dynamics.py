"""Resonant atom-cavity evolution and Ramsey-zone unitaries.

Everything runs in the interaction picture of the resonant one-quantum
exchange, where the dynamics reduce to rotations inside the two-dimensional
blocks spanned by {|up, n>, |down, n+1>} while |down, 0> stays fixed.  The
free cavity evolution between atom transits is a photon-number phase acting
on the field alone.  hbar = 1 throughout, so only the products g*t and
omega*dt matter.  Operators are plain complex arrays on the joint basis
(atom-major: the |down, n> block, then the |up, n> block); each call
returns a fresh one.
"""

import functools
import math

import numpy as np

from .constants import ATOL_ALGEBRA, N_MAX_LIMIT
from .states import AtomState, FieldState, JointState, _check_finite, _check_int, _check_weight

__all__ = [
    "TruncationLeakError",
    "jc_closed_form",
    "jc_hamiltonian",
    "jc_expm_evolve",
    "free_field_evolve",
    "ramsey_prepare",
    "ramsey_decode_matrix",
    "excitation_operator",
]

class TruncationLeakError(RuntimeError):
    """Amplitude would be pushed past the highest retained photon number."""


def _check_truncation(up: np.ndarray):
    # |up, n_max> couples to |down, n_max + 1>, which the truncation cannot hold.
    top = abs(up[-1])
    if top > ATOL_ALGEBRA:
        raise TruncationLeakError(
            f"|up, n_max={up.size - 1}> carries amplitude {top:.3e}; "
            "its evolution would leave the truncated space"
        )


def _require_finite_rabi_angles(n_max: int, **angles) -> None:
    """Every transit's rule: |gt| * sqrt(max(n_max, 1) + 1) is finite, elementwise for arrays
    (sqrt(2) floors it for the batch's theta2*sqrt(2)); the error names each angle."""
    with np.errstate(over="ignore"):  # an angle that overflows to inf fails, without a warning
        scale = math.sqrt(max(n_max, 1) + 1)
        if not all(np.isfinite(np.abs(gt) * scale).all() for gt in angles.values()):
            got = ", ".join(f"{name}={gt}" for name, gt in angles.items())
            raise ValueError(f"Rabi angle g*t*sqrt(max(n_max, 1) + 1) must be finite, got {got}")


def jc_closed_form(joint: JointState, gt: float) -> JointState:
    """Resonant evolution over the Rabi angle gt by the closed-form rules:

        |up, n>   -> cos(gt sqrt(n+1)) |up, n> - sin(gt sqrt(n+1)) |down, n+1>
        |down, n> -> cos(gt sqrt(n)) |down, n> + sin(gt sqrt(n)) |up, n-1>

    |down, 0> is a fixed point.  Linear, unitary, and it conserves the total
    excitation number.
    """
    _require_finite_rabi_angles(joint.n_max, gt=gt)
    _check_truncation(joint.up_amps)
    return JointState(np.concatenate(_jc_blocks(joint.down_amps, joint.up_amps, gt)), joint.n_max)


@functools.lru_cache(maxsize=64)  # (gt, d) keys: the protocol's 18 transits at a few n_max
def _rotation(gt: float, d: int, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos(gt sqrt(n)) for n = 0..d and sin(gt sqrt(n)) for n = 1..d-1, from one
    angle vector.  sign is math.copysign(1.0, gt): it keeps -0.0 apart from 0.0 in the key,
    as their sines differ in sign.  Only finite real angles reach it."""
    theta = gt * np.sqrt(np.arange(d + 1))
    cos, sin = np.cos(theta), np.sin(theta[1:d])
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _jc_blocks(down: np.ndarray, up: np.ndarray, gt: float) -> tuple[np.ndarray, np.ndarray]:
    """jc_closed_form's rotation of the (down, up) blocks by one table, unchecked; new blocks."""
    d = down.size
    cos, sin = _rotation(gt, d, math.copysign(1.0, gt))
    out_down = cos[:d] * down
    out_up = cos[1:] * up
    out_up[: d - 1] += sin * down[1:]
    out_down[1:] -= sin * up[: d - 1]
    return out_down, out_up


def jc_hamiltonian(n_max: int) -> np.ndarray:
    """Unit-coupling generator i (sigma+ a - sigma- a†) on the joint basis;
    evolution over gt is exp(-i H gt)."""
    _check_int("n_max", n_max, 1, N_MAX_LIMIT)
    d = n_max + 1
    h = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    for n in range(n_max):
        c = 1j * math.sqrt(n + 1.0)
        h[d + n, n + 1] = c      # <up, n| H |down, n+1>
        h[n + 1, d + n] = -c
    return h


def jc_expm_evolve(joint: JointState, gt: float) -> JointState:
    """Evolution by exp(-i H gt), H = jc_hamiltonian(n_max), via the spectrum of H.

    Independent numerical route used to cross-check jc_closed_form.
    """
    _require_finite_rabi_angles(joint.n_max, gt=gt)
    _check_truncation(joint.up_amps)
    vals, vecs = np.linalg.eigh(jc_hamiltonian(joint.n_max))
    phases = np.exp(-1j * vals * gt)
    out = vecs @ (phases * (vecs.conj().T @ joint.amps))
    return JointState(out, joint.n_max)


def free_field_evolve(field: FieldState, omega: float, dt: float) -> FieldState:
    """Free cavity evolution |n> -> e^(-i n omega dt) |n>.

    On a binomial state this shifts the phase parameter: (N, p, phi) goes to
    (N, p, phi - omega dt).
    """
    return FieldState(field.amps * _free_phases(field.n_max, omega, dt), field.n_max)


def _free_phases(n_max: int, omega: float, dt: float) -> np.ndarray:
    """The factors e^(-i n omega dt) of free_field_evolve, n = 0..n_max."""
    return np.exp(-1j * np.arange(n_max + 1) * omega * dt)


def ramsey_prepare(p: float, phi_k: float) -> AtomState:
    """Atom superposition sqrt(p) |up> + e^(i phi_k) sqrt(1-p) |down>."""
    _check_weight("p", p)
    _check_finite("phi_k", phi_k)
    return AtomState(*_ramsey_amps(p, phi_k))


def _ramsey_amps(p: float, phi_k: float) -> tuple[complex, complex]:
    """The (down, up) amplitudes of ramsey_prepare, as AtomState stores them."""
    return complex(np.exp(1j * phi_k) * math.sqrt(1.0 - p)), complex(math.sqrt(p))


def ramsey_decode_matrix(p: float, phi: float) -> np.ndarray:
    """Decoding unitary on (|down>, |up>):

        |up>   -> sqrt(p) |up> - e^(-i phi) sqrt(1-p) |down>
        |down> -> e^(i phi) sqrt(1-p) |up> + sqrt(p) |down>
    """
    return np.array(_decode_entries(p, phi), dtype=np.complex128).reshape(2, 2)


def _decode_entries(p: float, phi: float) -> tuple[complex, complex, complex, complex]:
    """The entries (m00, m01, m10, m11) of ramsey_decode_matrix, checked, as Python complex."""
    _check_weight("p", p)
    _check_finite("phi", phi)
    sp, sq = math.sqrt(p), math.sqrt(1.0 - p)
    return (complex(sp), complex(-np.exp(-1j * phi) * sq),
            complex(np.exp(1j * phi) * sq), complex(sp))


def excitation_operator(n_max: int) -> np.ndarray:
    """Total excitation number sigma_z / 2 + a† a, conserved by the evolution."""
    _check_int("n_max", n_max, 0, N_MAX_LIMIT)
    ns = np.arange(n_max + 1, dtype=np.float64)
    diag = np.concatenate([ns - 0.5, ns + 0.5])
    return np.diag(diag).astype(np.complex128)
