"""Numerical operational calculus for fourth-order operator boundary problems.

Solves u'''' + (P+Q) u'' + PQ u = f under five boundary-condition families
through explicit semigroup representation formulas, sweeps the spectral
parameter to measure resolvent norms and sector geometry, and integrates the
associated abstract Cauchy problem by contour quadrature or implicit
stepping.  Every formula path is cross-validated against independent dense
oracles (spectral collocation, characteristic roots, matrix exponentials).
"""

from .bvp import (
    BCFrame,
    ProblemSpec,
    assemble_frame,
    fprime_boundary,
    particular_solution_F,
    resolvent_solve,
    solve_bc1,
    solve_bc2,
    solve_bc3,
    solve_bc4,
    solve_bc5,
)
from .evolution import (
    EvolutionSpec,
    evolve,
    growth_bound_probe,
    semigroup_apply_contour,
    variation_of_constants_check,
)
from .grids import Grid, GridFunction, cgl_grid, uniform_grid
from .operators import (
    OperatorHandle,
    SectorProbe,
    dirichlet_laplacian_modes,
    expm_apply,
    guarded_inverse_I_minus,
    make_operator,
    operator_norm,
    resolvent_apply,
    sector_angle_probe,
    sqrt_principal,
)
from .oracle import (
    ScalarForcing,
    characteristic_root_solve,
    collocation_solve,
    dense_expm,
    dense_generator,
)
from .spectral import (
    SweepGrid,
    SweepReport,
    branch_angle_check,
    classify_lambda,
    decay_diagnostics,
    make_sweep_grid,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
