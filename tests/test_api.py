"""The public surface is a deliberate list: growing or shrinking it means editing PUBLIC."""

import gbscavity

PUBLIC = [
    "ATOL_ALGEBRA", "ATOL_DYNAMICS", "AtomState", "DEFAULT_N_MAX",
    "EigenbasisReport", "ErrorModel", "FieldState", "GBSParams", "GT_FIRST",
    "GT_PROBE", "GenerationConfig", "GenerationReport", "JitterReport", "JointState", "M2_MAX",
    "M2_MIN", "MeasurementReport", "TimingResult", "TruncationLeakError", "__version__",
    "delta_exp", "distinguish_orthogonal", "excitation_operator", "feasibility_check", "fidelity",
    "free_field_evolve", "gauge_fix", "generation_batch", "gt_second", "hp_operators", "inner",
    "j3_operator", "jc_closed_form", "jc_expm_evolve", "jc_hamiltonian", "make_fock", "make_gamma",
    "make_gbs", "monte_carlo_jitter", "optimize_t2", "predicted_psi2", "ramsey_decode_matrix",
    "ramsey_prepare", "run_generation", "run_measurement", "scan_t2", "spin1_triple",
    "state_from_dict", "state_to_dict", "verify_eigenbasis",
]


def test_public_names_are_the_listed_ones():
    assert sorted(gbscavity.__all__) == PUBLIC
    assert all(hasattr(gbscavity, name) for name in PUBLIC)
