"""Numerical operational calculus for fourth-order operator boundary problems.

Solves u'''' + (P+Q) u'' + PQ u = f under five boundary-condition families
through explicit semigroup representation formulas, sweeps the spectral
parameter to measure resolvent norms and sector geometry, and integrates the
associated abstract Cauchy problem by contour quadrature or implicit
stepping.  Every formula path is cross-validated against independent dense
oracles (spectral collocation and characteristic roots here, the dense
matrix exponential in the tests).

The names below are imported from their modules on first access (PEP 562),
so ``import quartic.cli`` loads only what the command it runs needs.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "bvp": ("BCFrame", "ProblemSpec", "assemble_frame", "particular_solution_F",
            "resolvent_solve", "solve_bc1", "solve_bc2", "solve_bc3", "solve_bc4",
            "solve_bc5"),
    "evolution": ("EvolutionSpec", "evolve", "growth_bound_probe",
                  "semigroup_apply_contour"),
    "grids": ("Grid", "GridFunction", "cgl_grid", "uniform_grid"),
    "operators": ("OperatorHandle", "dirichlet_laplacian_modes", "make_operator",
                  "operator_norm"),
    "oracle": ("ScalarForcing", "characteristic_root_solve", "collocation_solve",
               "dense_generator"),
    "spectral": ("SweepGrid", "SweepReport", "classify_lambda", "make_sweep_grid",
                 "run_sweep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
