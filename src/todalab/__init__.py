"""Numerical laboratory for the coupled Gauss-Ricci curvature system on
discretized closed hyperbolic surfaces.

The package builds triangulations of the genus-2 octagon surface and its
finite covers, synthesizes section densities with prescribed zeros,
solves the Gauss equation Delta u = e^{2u} - 1 + e^{-2u} f and the Ricci
equation Delta v = c - e^{-2u} e^{2v} |alpha|^2 (separately and coupled),
and emits a solver-independent certificate of the pointwise bound
sup e^{-4u} e^{2v} |alpha|^2 < 1.
"""

import importlib
import os

# Honor the thread cap before numpy/BLAS first load in this process.
_threads = os.environ.get("TODA_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)
del os

__version__ = "0.1.0"

# Exported name -> the submodule defining it ("errors" is that submodule
# itself).  Names resolve on first use (PEP 562), so importing the package
# loads no submodule, and a command that only builds meshes never loads
# SciPy.
_EXPORTS = {
    **dict.fromkeys((
        "AdmissibilityError", "AdmissibilityLost", "DegreeRangeError",
        "DisconnectedCoverError", "InfeasibleDegree",
        "MeshError", "NonConvergence", "RelatorError", "TodaError",
        "UnboundedDetected", "errors"), "errors"),
    **dict.fromkeys((
        "CoverSpec", "HyperbolicMesh", "build_base_surface", "build_cover",
        "mesh_from_dict", "mesh_from_json", "mesh_to_json",
        "refine"), "mesh"),
    **dict.fromkeys((
        "SpectralReport", "eig_low", "laplacian", "mass_vector",
        "spectral_gap", "stiffness", "systole", "volume"), "operators"),
    **dict.fromkeys((
        "BalanceReport", "Divisor", "SectionDensity", "balanced_lift",
        "lift_density", "synth_density"), "sections"),
    **dict.fromkeys((
        "GaussProblem", "GaussSolution", "admissible_bound",
        "gauss_residual", "monotone_solve_gauss", "solve_gauss"), "gauss"),
    **dict.fromkeys((
        "RicciProblem", "RicciSolution", "StabilityReport", "eval_J",
        "grad_J", "maximize_J", "mt_probe", "solve_ricci_newton",
        "stability_check"), "ricci"),
    **dict.fromkeys((
        "AFCertificate", "CoupledConfig", "certify", "degree_bound_check",
        "solve_coupled"), "coupled"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    source = _EXPORTS.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{source}")
    value = module if name == source else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
