"""Numerical laboratory for the coupled Gauss-Ricci curvature system on
discretized closed hyperbolic surfaces.

The package builds triangulations of the genus-2 octagon surface and its
finite covers, synthesizes section densities with prescribed zeros,
solves the Gauss equation Delta u = e^{2u} - 1 + e^{-2u} f and the Ricci
equation Delta v = c - e^{-2u} e^{2v} |alpha|^2 (separately and coupled),
and emits a solver-independent certificate of the pointwise bound
sup e^{-4u} e^{2v} |alpha|^2 < 1.
"""

import os

# Honor the thread cap before numpy/BLAS first load in this process.
_threads = os.environ.get("TODA_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)
del os

from . import errors  # noqa: E402
from .errors import (  # noqa: E402
    AdmissibilityError, AdmissibilityLost, DegreeRangeError,
    DisconnectedCoverError, InfeasibleDegree, InfeasibleError, MeshError,
    NonConvergence, RelatorError, TodaError, UnboundedDetected)
from .mesh import (  # noqa: E402
    CoverSpec, HyperbolicMesh, build_base_surface, build_cover, mesh_from_dict,
    mesh_from_json, mesh_to_json, refine)
from .operators import (  # noqa: E402
    SpectralReport, eig_low, laplacian, mass_vector, spectral_gap, stiffness,
    systole, volume)
from .sections import (  # noqa: E402
    BalanceReport, Divisor, SectionDensity, balanced_lift, green_function,
    lift_density, oscillation_report, radial_barrier,
    radial_barrier_derivative, schwarz_check, synth_density)
from .gauss import (  # noqa: E402
    GaussProblem, GaussSolution, admissible_bound, gauss_residual,
    gauss_stability_probe, monotone_solve_gauss, solve_gauss)
from .ricci import (  # noqa: E402
    RicciProblem, RicciSolution, StabilityReport, eval_J, grad_J, maximize_J,
    mt_probe, solve_ricci_newton, stability_check, translate_v)
from .coupled import (  # noqa: E402
    AFCertificate, CoupledConfig, certify, degree_bound_check, solve_coupled)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "AdmissibilityLost", "DegreeRangeError",
    "DisconnectedCoverError", "InfeasibleDegree", "InfeasibleError",
    "MeshError", "NonConvergence", "RelatorError", "TodaError",
    "UnboundedDetected", "errors",
    "CoverSpec", "HyperbolicMesh", "build_base_surface", "build_cover",
    "mesh_from_dict", "mesh_from_json", "mesh_to_json",
    "refine",
    "SpectralReport", "eig_low", "laplacian", "mass_vector", "spectral_gap",
    "stiffness", "systole", "volume",
    "BalanceReport", "Divisor", "SectionDensity", "balanced_lift",
    "green_function", "lift_density", "oscillation_report", "radial_barrier",
    "radial_barrier_derivative", "schwarz_check", "synth_density",
    "GaussProblem", "GaussSolution", "admissible_bound", "gauss_residual",
    "gauss_stability_probe", "monotone_solve_gauss", "solve_gauss",
    "RicciProblem", "RicciSolution", "StabilityReport", "eval_J", "grad_J",
    "maximize_J", "mt_probe", "solve_ricci_newton", "stability_check",
    "translate_v",
    "AFCertificate", "CoupledConfig", "certify", "degree_bound_check",
    "solve_coupled",
]
