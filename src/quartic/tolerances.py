"""Shared numeric tolerances and guard thresholds.

The factorization, condition, eigenbasis, sector, series-radius and
dense-size guards read these constants.  Other checks keep local literals:
bvp's commutation and P - Q - B gaps (1e-10) and branch-cut margin (1e-14),
ProblemSpec's spectrum-on-ray margin (1e-9) and the oracles' degeneracy
tests; the verify command scales only its own per-check bounds.
"""

# Relative residual accepted for eigen/Schur factorizations and for
# back-substitution checks of direct solves.
FACTOR_RESIDUAL = 1e-12

# Condition-estimate cap used by guarded inversion, resolvent solves and the
# collocation oracle: beyond this the shift is treated as "near spectrum"
# rather than a member of the resolvent set.
CONDITION_CAP = 1e12

# Eigenvector condition number below which functions of a matrix are
# evaluated through the eigendecomposition; above it the Schur form is used.
EIG_COND_CAP = 1e6

# Probe margin (radians) added around closed sectors when sampling: the
# sector boundary itself is excluded by this angular gap.
SECTOR_MARGIN = 0.05

# Norm value treated as a blow-up by the sector probe.
BLOWUP_CAP = 1e8

# |z|-threshold separating the series evaluation of the exponential step
# integrals from the upward recurrence.  The recurrence loses about
# k! eps / |z|^k at order k (2.5e-15 for phi_6 at |z| = 2); the 30-term series
# truncates at 2^30 / 30! ~ 4e-24 there.
PHI_SERIES_RADIUS = 2.0

# Default dense-oracle size cap (matrix side dim * n_nodes).
DENSE_CAP = 2000
