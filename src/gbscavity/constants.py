"""Shared numerical policy constants."""

# Algebraic identities: normalization, orthogonality, Born-rule completeness.
ATOL_ALGEBRA = 1e-12

# Dynamics cross-checks: closed-form evolution vs the matrix-exponential oracle.
ATOL_DYNAMICS = 1e-10

# Default Fock truncation. The protocol populates photon numbers 0..2 only;
# the spare rungs guard against mis-coded couplings.
DEFAULT_N_MAX = 4

# Photon number above which the protocol must leave no population.
FIELD_OCCUPANCY_CUTOFF = 2

# Admissible window for the second-interaction timing index m2; the second
# transit g*T2 = pi/4 + 2 pi m2 then runs from about 0.785 to 101.3.
M2_MIN = 0
M2_MAX = 16
