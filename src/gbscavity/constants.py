"""Shared numerical policy constants."""

__all__ = ["ATOL_ALGEBRA", "ATOL_DYNAMICS", "DEFAULT_N_MAX", "M2_MIN", "M2_MAX"]

# Algebraic identities: normalization, orthogonality, Born-rule completeness.
ATOL_ALGEBRA = 1e-12

# Dynamics cross-checks: closed-form evolution vs the matrix-exponential oracle.
ATOL_DYNAMICS = 1e-10

# Default Fock truncation. The protocol populates photon numbers 0..2 only;
# the spare rungs stay exactly empty.
DEFAULT_N_MAX = 4

# Largest accepted truncation. States grow about 1.3 KB per Fock level, mostly
# their JSON, so an unbounded n_max could ask for any amount of memory.
N_MAX_LIMIT = 1000

# Admissible window for the second-interaction timing index m2; the second
# transit g*T2 = pi/4 + 2 pi m2 then runs from about 0.785 to 101.3.
M2_MIN = 0
M2_MAX = 16
