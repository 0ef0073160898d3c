"""Boundary-element recovery of Love equivalent surface currents.

The package reconstructs the magnetic/electric equivalent current pair
on a closed surface from tangential electric-field samples taken on an
enclosing measurement surface, using a single-current boundary-element
formulation with dual-basis testing, quasi-Helmholtz stabilization and
truncated-SVD inversion.

Submodules load on first attribute access.  This keeps ``import
lovebem`` free of numeric imports, so the command line can pin the
linear-algebra thread pool through environment variables before any
backend initializes.
"""
from importlib import import_module

_SUBMODULES = {
    "mesh": ["TriangleMesh", "BarycentricRefinement", "MeshError",
             "generate_sphere_mesh", "barycentric_refine"],
    "operators": ["C0", "ETA0", "AssemblyOptions", "FrequencyContext",
                  "assemble_blocks"],
    "projectors": ["ProjectorSet", "ScalingMap", "build_projectors",
                   "build_scaling", "verify_limit_property",
                   "save_norm_table"],
    "spaces": ["BasisSpace", "basis_pair", "build_loop_star",
               "evaluate_rt0", "gram_matrix"],
    "tsvd": ["RegularizationPolicy", "SolveReport", "factorize",
             "tsvd_solve", "condition_at_threshold"],
    "dipole": ["DipoleSource", "field_arrays", "sample_measurement"],
    "formulations": ["CurrentSolution", "SPSystem", "StabilizedSystem",
                     "assemble_calderon_interior", "build_sp_system",
                     "calderon_blocks",
                     "interior_coupling", "recover_electric_current",
                     "save_solution", "solve_baseline_love", "solve_sp",
                     "solve_stabilized"],
    "fields": ["ErrorCurve", "check_love_condition", "error_curve",
               "fibonacci_directions", "radiate_arrays", "save_error_curve"],
}

_EXPORTS = {name: module
            for module, names in _SUBMODULES.items()
            for name in names}

__all__ = sorted(_EXPORTS) + sorted(_SUBMODULES) + ["experiments"]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        module = import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    if name in _SUBMODULES or name in ("experiments", "cli"):
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
