"""Each input rule has one owner in `states`: a weight in [0, 1], a finite real and an
integer in [lo, hi].  Every site that takes such an input applies its rule, and no
rule takes a bool for a number."""

import math

import numpy as np
import pytest

from gbscavity import (M2_MAX, ErrorModel, FieldState, GBSParams, GenerationConfig, JointState,
                       delta_exp, excitation_operator, feasibility_check, free_field_evolve,
                       j3_operator, jc_hamiltonian, make_fock, make_gamma, make_gbs,
                       predicted_psi2, ramsey_decode_matrix, ramsey_prepare)
from gbscavity.constants import N_MAX_LIMIT


def _amps(blocks, n_max):
    """Zero amplitudes of the length a state of this n_max needs, where that is a length."""
    return np.zeros(blocks * (int(n_max) + 1)) if n_max >= 0 else []


# "0.5" and None: a value of the wrong type fails the same check
WEIGHT = (r"must be in \[0, 1\]", (True, math.nan, -0.1, 1.1, "0.5", None))
PHASE = ("must be finite", (True, math.inf, "0.5", None))
REAL = ("must be finite", (True, math.inf, 10**400, "0.5", None))  # 10**400: beyond float range


def count(ceiling):
    return "must be an integer in", (True, -1, 4.5, ceiling + 1)


# site: (message pattern, bad values, the call that takes one)
SITES = {
    "GenerationConfig.p": (*WEIGHT, lambda v: GenerationConfig(p=v)),
    "ErrorModel.rel_timing_jitter": (*WEIGHT, lambda v: ErrorModel(rel_timing_jitter=v)),
    "ErrorModel.detector_efficiency": (*WEIGHT, lambda v: ErrorModel(0.0, detector_efficiency=v)),
    "GBSParams.p": (*WEIGHT, lambda v: GBSParams(2, v, 0.0)),
    "make_gamma.p": (*WEIGHT, lambda v: make_gamma(v, 0.0, 2)),
    "predicted_psi2.p": (*WEIGHT, lambda v: predicted_psi2(v, 0.0, 0.0)),
    "ramsey_prepare.p": (*WEIGHT, lambda v: ramsey_prepare(v, 0.0)),
    "ramsey_decode_matrix.p": (*WEIGHT, lambda v: ramsey_decode_matrix(v, 0.0)),
    "j3_operator.p": (*WEIGHT, lambda v: j3_operator(v, 0.0)),
    "GenerationConfig.phi1": (*PHASE, lambda v: GenerationConfig(p=0.5, phi1=v)),
    "GenerationConfig.omega": (*PHASE, lambda v: GenerationConfig(p=0.5, omega=v)),
    "GenerationConfig.dt_gap": (*PHASE, lambda v: GenerationConfig(p=0.5, dt_gap=v)),
    "GBSParams.phi": (*PHASE, lambda v: GBSParams(2, 0.5, v)),
    "ramsey_decode_matrix.phi": (*PHASE, lambda v: ramsey_decode_matrix(0.5, v)),
    "j3_operator.phi": (*PHASE, lambda v: j3_operator(0.5, v)),
    "ramsey_prepare.phi_k": (*PHASE, lambda v: ramsey_prepare(0.5, v)),
    "make_gamma.phi": (*PHASE, lambda v: make_gamma(0.5, v, 2)),
    "predicted_psi2.phi_eff": (*PHASE, lambda v: predicted_psi2(0.5, v, 0.0)),
    "free_field_evolve.omega": (*PHASE, lambda v: free_field_evolve(make_fock(0, 2), v, 1.0)),
    "free_field_evolve.dt": (*PHASE, lambda v: free_field_evolve(make_fock(0, 2), 1.0, v)),
    # delta = 1 - sin(.) lies in [0, 2]
    "predicted_psi2.delta": ("delta must be", (*PHASE[1], math.nan, -0.1, 2.1, 1e200),
                             lambda v: predicted_psi2(0.5, 0.0, v)),
    "feasibility_check.tau_at": (*REAL, lambda v: feasibility_check(v, 1.0, (1.0,), 1.0)),
    "feasibility_check.tau_cav": (*REAL, lambda v: feasibility_check(1.0, v, (1.0,), 1.0)),
    "feasibility_check.interaction_times": (*REAL,
                                            lambda v: feasibility_check(1.0, 1.0, (1.0, v), 1.0)),
    "feasibility_check.sequence_duration": (*REAL,
                                            lambda v: feasibility_check(1.0, 1.0, (1.0,), v)),
    "delta_exp.gt2": (*REAL, lambda v: delta_exp(v, 0.01)),
    "delta_exp.rel_jitter": (*REAL, lambda v: delta_exp(1.0, v)),
    "GenerationConfig.n_max": (*count(N_MAX_LIMIT), lambda v: GenerationConfig(p=0.5, n_max=v)),
    "GenerationConfig.m2": (*count(M2_MAX), lambda v: GenerationConfig(p=0.5, m2=v)),
    "ErrorModel.samples": (*count(2**32), lambda v: ErrorModel(0.0, samples=v)),
    "ErrorModel.seed": (*count(2**64 - 1), lambda v: ErrorModel(0.0, seed=v)),
    "GBSParams.N": (*count(N_MAX_LIMIT), lambda v: GBSParams(v, 0.5, 0.0)),
    "FieldState.n_max": (*count(N_MAX_LIMIT), lambda v: FieldState(_amps(1, v), v)),
    "JointState.n_max": (*count(N_MAX_LIMIT), lambda v: JointState(_amps(2, v), v)),
    "make_fock.n": (*count(4), lambda v: make_fock(v, 4)),
    "make_fock.n_max": (*count(N_MAX_LIMIT), lambda v: make_fock(0, v)),
    "make_gbs.n_max": (*count(N_MAX_LIMIT), lambda v: make_gbs(GBSParams(0, 0.5, 0.0), v)),
    "make_gamma.n_max": (*count(N_MAX_LIMIT), lambda v: make_gamma(0.5, 0.0, v)),
    "predicted_psi2.n_max": (*count(N_MAX_LIMIT), lambda v: predicted_psi2(0.5, 0.0, 0.0, v)),
    "jc_hamiltonian.n_max": (*count(N_MAX_LIMIT), lambda v: jc_hamiltonian(v)),
    "excitation_operator.n_max": (*count(N_MAX_LIMIT), lambda v: excitation_operator(v)),
    "ErrorModel.jitter_t1": ("jitter_t1 must be True or False", ("false", 0, None),
                             lambda v: ErrorModel(0.01, jitter_t1=v)),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_every_site_applies_its_rule(site):
    pattern, values, call = SITES[site]
    for value in values:
        with pytest.raises(ValueError, match=pattern):
            call(value)
