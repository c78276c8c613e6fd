"""State algebra on truncated Fock spaces.

Field states hold complex amplitudes over the photon-number basis
|0>, ..., |n_max>.  Joint atom-field states use a fixed atom-major layout:
indices 0..n_max are |down, n> and indices n_max+1..2*n_max+1 are |up, n>.
All state objects are immutable; every operation is a pure function.
The public constructors copy and check their amplitudes.  A state the
package builds itself from checked inputs (make_gbs, make_gamma and the
protocol's outputs) is not checked again, and is frozen and read-only all
the same.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import ATOL_ALGEBRA, N_MAX_LIMIT

__all__ = [
    "FieldState",
    "AtomState",
    "JointState",
    "GBSParams",
    "make_fock",
    "make_gbs",
    "make_gamma",
    "inner",
    "fidelity",
    "gauge_fix",
    "state_to_dict",
    "state_from_dict",
]

_FLOAT_MAX = sys.float_info.max
_BOOLS = (bool, np.bool_)  # not numbers, for the checks below


def _check_weight(name, value):
    """A real number in [0, 1], not a bool."""
    try:
        if not isinstance(value, _BOOLS) and 0.0 <= value <= 1.0:
            return
    except TypeError:  # a str, None or complex has no order; a float pays no type test
        pass
    raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _check_finite(name, value):
    """A real number a float holds finitely, not a bool; an int beyond the float range fails."""
    try:
        if not isinstance(value, _BOOLS) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
            return
    except TypeError:  # a str, None or complex has no order; a float pays no type test
        pass
    raise ValueError(f"{name} must be finite, got {value!r}")


def _check_int(name, value, lo, hi, hi_text=None):
    """An integer in [lo, hi], not a bool; hi_text spells hi in the message."""
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi_text or hi}]")


def _norm(a: np.ndarray) -> float:
    """np.linalg.norm of a 1-D complex vector by its own formula, without its dispatch:
    the same bits, and the same overflow warning from the same float add."""
    return math.sqrt(a.real.dot(a.real) + a.imag.dot(a.imag))


class _Normed:
    """norm() and is_normalized() over the subclass's `amps`."""

    def norm(self) -> float:
        return _norm(self.amps)

    def is_normalized(self) -> bool:
        return abs(self.norm() ** 2 - 1.0) <= ATOL_ALGEBRA


@dataclass(frozen=True)
class _Blocks(_Normed):
    """Finite amplitudes over _blocks copies of |0>..|n_max>, frozen on construction."""

    amps: np.ndarray
    n_max: int
    _blocks = 1

    def __post_init__(self):
        _check_int("n_max", self.n_max, 0, N_MAX_LIMIT)
        what, length = type(self).__name__, self._blocks * (self.n_max + 1)
        arr = np.array(self.amps, dtype=np.complex128, copy=True).reshape(-1)
        if arr.shape != (length,):
            raise ValueError(f"{what} needs {length} amplitudes, got {arr.shape[0]}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{what} amplitudes must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "amps", arr)

    @classmethod
    def _own(cls, arr: np.ndarray, n_max: int):
        """Wrap arr without copy or check: a fresh complex128 vector of _blocks * (n_max + 1)
        finite amplitudes, built from checked inputs and shared with nothing."""
        arr.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "amps", arr)
        object.__setattr__(state, "n_max", n_max)
        return state


@dataclass(frozen=True)
class FieldState(_Blocks):
    """Cavity-mode state: amplitudes over |0>..|n_max>."""


@dataclass(frozen=True)
class AtomState(_Normed):
    """Two-level atom state with amplitudes on (|down>, |up>)."""

    down: complex
    up: complex

    def __post_init__(self):
        d, u = complex(self.down), complex(self.up)
        if not (math.isfinite(d.real) and math.isfinite(d.imag)
                and math.isfinite(u.real) and math.isfinite(u.imag)):
            raise ValueError("AtomState amplitudes must be finite")
        object.__setattr__(self, "down", d)
        object.__setattr__(self, "up", u)

    @property
    def amps(self) -> np.ndarray:
        return np.array([self.down, self.up], dtype=np.complex128)


@dataclass(frozen=True)
class JointState(_Blocks):
    """Joint atom-field state, atom-major: the |down, n> block precedes |up, n>."""

    _blocks = 2

    @property
    def down_amps(self) -> np.ndarray:
        return self.amps[: self.n_max + 1]

    @property
    def up_amps(self) -> np.ndarray:
        return self.amps[self.n_max + 1 :]


@dataclass(frozen=True)
class GBSParams:
    """Parameters (N, p, phi) of a generalized binomial field state."""

    N: int
    p: float
    phi: float

    def __post_init__(self):
        _check_int("N", self.N, 0, N_MAX_LIMIT)
        _check_weight("p", self.p)
        _check_finite("phi", self.phi)


def _require_finite_phases(top: int, phi: float, name: str = "phi") -> None:
    """e^(i n phi) is finite for every n <= top exactly when top * phi is; the error
    names that multiple and the phase, called name."""
    phi = float(phi)
    if not abs(top * phi) <= _FLOAT_MAX:  # as complex(0, n) * phi rounds it
        raise ValueError(f"{top}*{name} must be finite, got {name}={phi!r}")


def make_fock(n: int, n_max: int) -> FieldState:
    """Photon-number eigenstate |n> on a space truncated at n_max."""
    _check_int("n_max", n_max, 0, N_MAX_LIMIT)
    _check_int("n", n, 0, n_max)
    amps = np.zeros(n_max + 1, dtype=np.complex128)
    amps[n] = 1.0
    return FieldState(amps, n_max)


def make_gbs(params: GBSParams, n_max: int) -> FieldState:
    """Generalized binomial state of N photons.

    Amplitude at |n> is [C(N, n) p^n (1-p)^(N-n)]^(1/2) e^(i n phi) for
    n <= N and zero above.  Normalized by the binomial theorem.
    """
    _check_int("n_max", n_max, params.N, N_MAX_LIMIT)  # n_max >= N holds the state
    _require_finite_phases(params.N, params.phi)
    return FieldState._own(_gbs_amps(params.N, params.p, params.phi, n_max), n_max)


def _gbs_amps(N: int, p: float, phi: float, n_max: int) -> np.ndarray:
    """The amplitudes of make_gbs, from inputs it has checked."""
    amps = np.zeros(n_max + 1, dtype=np.complex128)
    for n in range(N + 1):
        weight = math.comb(N, n) * p**n * (1.0 - p) ** (N - n)
        amps[n] = math.sqrt(weight) * np.exp(1j * n * phi)
    return amps


def make_gamma(p: float, phi: float, n_max: int) -> FieldState:
    """Third orthonormal completion of the two-photon binomial pair (p, phi).

    Amplitudes: (sqrt(2p(1-p)), (2p-1) e^(i phi), -sqrt(2p(1-p)) e^(2 i phi)).
    Orthogonal to both the (p, phi) and the (1-p, pi+phi) two-photon states.
    """
    _check_weight("p", p)
    _check_finite("phi", phi)
    _check_int("n_max", n_max, 2, N_MAX_LIMIT)
    _require_finite_phases(2, phi)
    return FieldState._own(_gamma_amps(p, phi, n_max), n_max)


def _gamma_amps(p: float, phi: float, n_max: int) -> np.ndarray:
    """The amplitudes of make_gamma, from inputs it has checked."""
    root = math.sqrt(2.0 * p * (1.0 - p))
    amps = np.zeros(n_max + 1, dtype=np.complex128)
    amps[0] = root
    amps[1] = (2.0 * p - 1.0) * np.exp(1j * phi)
    amps[2] = -root * np.exp(2j * phi)
    return amps


def inner(a, b) -> complex:
    """Hermitian inner product <a|b>, conjugate-linear in the first argument."""
    if type(a) is not type(b):
        raise ValueError("inner product needs two states of the same kind")
    va = np.asarray(a.amps)
    vb = np.asarray(b.amps)
    if va.shape != vb.shape:
        raise ValueError(f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}")
    return complex(np.vdot(va, vb))


def fidelity(a, b) -> float:
    """Squared overlap |<a|b>|^2 between two normalized states."""
    if not (a.is_normalized() and b.is_normalized()):
        raise ValueError("fidelity requires normalized states")
    return min(1.0, abs(inner(a, b)) ** 2)


def gauge_fix(state):
    """Rotate the global phase so the largest-magnitude amplitude is real positive.

    Accepts FieldState or JointState; the zero vector is returned unchanged.
    """
    amps = state.amps
    k = int(np.argmax(np.abs(amps)))
    pivot = amps[k]
    if pivot == 0:
        return state
    rotated = amps * (abs(pivot) / pivot)
    rotated[k] = abs(pivot)  # exact, not just to rounding
    return type(state)(rotated, state.n_max)


def state_to_dict(state) -> dict:
    """JSON-ready form: {"n_max", "amps" as [re, im] pairs, "basis" label}."""
    if isinstance(state, FieldState):
        basis = "field"
    elif isinstance(state, JointState):
        basis = "joint-atom-major"
    else:
        raise ValueError(f"cannot serialize {type(state).__name__}")
    return {
        "n_max": state.n_max,
        "amps": [[z.real, z.imag] for z in state.amps],
        "basis": basis,
    }


def state_from_dict(data: dict):
    """Inverse of state_to_dict; bit-exact for finite doubles."""
    if not isinstance(data, dict):
        raise ValueError(f"state must be a JSON object, got {type(data).__name__}")
    try:
        basis, pairs, n_max = data["basis"], data["amps"], data["n_max"]
    except KeyError as exc:
        raise ValueError(f"state has no {exc.args[0]!r} entry") from None
    if not isinstance(pairs, list) or not all(isinstance(z, list) and len(z) == 2 for z in pairs):
        raise ValueError("state amps must be a list of [re, im] pairs")
    amps = []
    for re, im in pairs:
        _check_finite("state amplitude part", re)
        _check_finite("state amplitude part", im)
        amps.append(complex(re, im))
    if basis == "field":
        return FieldState(amps, n_max)
    if basis == "joint-atom-major":
        return JointState(amps, n_max)
    raise ValueError(f"unknown basis label {basis!r}")
