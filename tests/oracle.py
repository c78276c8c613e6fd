"""Object-level state helpers that only the tests compose.

The package's scalar path works on plain (down, up) amplitude arrays; the
tests rebuild it from these state-object operations as an independent oracle.
"""

import numpy as np

from gbscavity import AtomState, FieldState, JointState


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
