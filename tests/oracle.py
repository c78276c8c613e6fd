"""Reference code that only the tests run.

The package's scalar path works on plain (down, up) amplitude arrays; the
tests rebuild it from these state-object operations as an independent oracle.
The batch kernel's earlier, complex form is kept here as a second reference, and so is
the closed-form rotation's earlier form, which takes both angle vectors' sines and cosines.
"""

import math

import numpy as np

from gbscavity import AtomState, FieldState, GBSParams, GenerationConfig, JointState, make_gbs
from gbscavity.dynamics import _check_truncation
from gbscavity.protocol import _require_finite_rabi_angles


def tensor(atom: AtomState, field: FieldState) -> JointState:
    """Product state atom (x) field in the atom-major joint layout."""
    amps = np.concatenate([atom.down * field.amps, atom.up * field.amps])
    return JointState(amps, field.n_max)


def project_atom(joint: JointState, outcome: str):
    """Project onto an atomic level; returns (field, probability).

    The returned field is unnormalized: its squared norm is the Born
    probability of the outcome.
    """
    if outcome == "down":
        block = joint.down_amps
    elif outcome == "up":
        block = joint.up_amps
    else:
        raise ValueError(f"outcome must be 'up' or 'down', got {outcome!r}")
    prob = float(np.linalg.norm(block) ** 2)
    return FieldState(block, joint.n_max), prob


def jc_blocks_reference(down: np.ndarray, up: np.ndarray, gt: float):
    """dynamics._jc_blocks as it was before its rotation table: four trig calls on the
    angle vectors of the |down, n> and |up, n> rows; returns new (down, up) blocks."""
    _check_truncation(up)
    d = down.size
    roots = np.sqrt(np.arange(d + 1))  # its own sqrt(n), shared with no table of the package
    theta_down = gt * roots[:d]
    theta_up = gt * roots[1:]
    out_down = np.cos(theta_down) * down
    out_up = np.cos(theta_up) * up
    out_up[: d - 1] += np.sin(theta_down[1:]) * down[1:]
    out_down[1:] -= np.sin(theta_up[: d - 1]) * up[: d - 1]
    return out_down, out_up


def generation_batch_reference(config: GenerationConfig, gt1, gt2):
    """The complex three-level batch kernel that generation_batch replaced, kept as a
    reference for it: the |down> block atom 2 leaves is built as a complex (3, ...) array
    from the normalized field atom 1 leaves, and the overlap with the target is a matmul.
    Same checks and messages as generation_batch where at most one rule fails (it checks
    atom 1 on the whole batch first); returns (p2, fidelity) arrays.
    """
    n_max, root_p = config.n_max, math.sqrt(config.p)
    theta1, theta2 = np.asarray(gt1, dtype=float), np.asarray(gt2, dtype=float)
    _require_finite_rabi_angles(n_max, gt1=theta1, gt2=theta2)
    down1 = np.exp(1j * config.phi1) * math.sqrt(1.0 - config.p)
    down2 = np.exp(1j * config.phi_effective) * math.sqrt(1.0 - config.p)
    f1 = -np.sin(theta1) * root_p  # atom 1 leaves (down1, f1) in the field
    p_first = abs(down1) ** 2 + f1**2
    if np.any(p_first <= 0.0):
        raise ValueError("atom 1 never exits in |down>; cannot condition")
    f0 = down1 / np.sqrt(p_first)
    f1 = f1 / np.sqrt(p_first) * np.exp(-1j * (config.omega * config.dt_gap))
    d = np.array(np.broadcast_arrays(  # the |down> block atom 2 leaves behind
        down2 * f0,
        np.cos(theta2) * (down2 * f1) - np.sin(theta2) * (root_p * f0),
        -np.sin(theta2 * math.sqrt(2.0)) * (root_p * f1),
    ))
    p_second = np.sum(np.abs(d) ** 2, axis=0)
    # the (p, pi - phi_eff) target as (-1)^n e^(-i n phi_eff), with no float pi - phi_eff
    target = make_gbs(GBSParams(2, config.p, -config.phi_effective), n_max).amps
    target = target * (-1.0) ** np.arange(n_max + 1)
    if np.any(p_second <= 0.0):
        raise ValueError("atom 2 never exits in |down>; cannot condition")
    p2 = p_first * p_second
    overlap = (target[:3].conj() @ d.reshape(3, -1)).reshape(d.shape[1:])  # over the 3 levels
    fid = np.minimum(1.0, np.abs(overlap / np.sqrt(p_second)) ** 2)
    return p2, fid
