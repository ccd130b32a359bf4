"""Shared numeric tolerances and guard thresholds.

The factorization, condition, eigenbasis, unitary-basis, sector,
series-radius and dense-size guards, the convolution segments and the
batch-frame budget read these constants.  Other checks keep local literals:
bvp's commutation and P - Q - B gaps (1e-10) and branch-cut margin (1e-14),
ProblemSpec's spectrum-on-ray margin (1e-9) and the oracles' degeneracy
tests; the verify command scales only its own per-check bounds.
"""

# Relative residual accepted for eigen/Schur factorizations and square roots,
# and the branch-cut margin of square-root symbols.
FACTOR_RESIDUAL = 1e-12

# Condition-estimate cap used by the frames' guarded inversions and the
# oracles' linear systems: beyond this the parameter is treated as "near
# spectrum" rather than a member of the resolvent set.
CONDITION_CAP = 1e12

# Eigenvector condition number below which functions of a matrix are
# evaluated through the eigendecomposition; above it the Schur form is used.
EIG_COND_CAP = 1e6

# eig_cond - 1 at or below which an eigenbasis counts as unitary: the sweep
# then takes resolvent norms mode by mode, off by at most eig_cond - 1.
UNITARY_BASIS_GAP = 1e-12

# Probe margin (radians) added around closed sectors when sampling: the
# sector boundary itself is excluded by this angular gap.
SECTOR_MARGIN = 0.05

# |z|-threshold separating the series evaluation of the exponential step
# integrals from the upward recurrence.  The recurrence loses about
# k! eps / |z|^k at order k (2.5e-15 for phi_6 at |z| = 2).  Inside it the
# top order's 30-term series, summed by Horner steps, truncates at
# 2^30 / 30! ~ 4e-24 relative or less, and the downward recurrence
# phi_k = z phi_{k+1} + 1/k! scales a relative error by |z| / (k+1) < 1.
PHI_SERIES_RADIUS = 2.0

# Largest |X| (x_e - x_s) of a segment [x_s, x_e] of the b = 1 convolutions
# (``kernels.Propagator.grid_stacks``): a segment's exponentials and their
# inverses stay within e^{+-64}, far from overflow at e^709.  Their arguments'
# rounding, up to 64 eps, is compensated (``kernels._exp_diff``).
SEGMENT_EXPONENT = 64.0

# Largest matrix side dim * n_nodes that the sweep's dense route and the
# dense oracles materialize; beyond it the sweep takes a Lanczos iteration.
DENSE_CAP = 2000

# Entries (parameter x block entry x grid node) of one batch frame: a batch
# of sweep points or contour nodes holds max(1, BATCH_ENTRIES // (dim(A) b N))
# parameters (``bvp._batch_size``).  A batch of more than one then has a grid
# kit of at most 20 BATCH_ENTRIES complex entries, two exponential stacks, six
# weight stacks and two inverse-exponential rows per generator (26 when the
# convolutions run more than one segment, SEGMENT_EXPONENT): 1.27 MB for the
# 21 nodes of a laplacian:3 batch at N = 64.
BATCH_ENTRIES = 4096
