"""Exception types raised by the curvature-system laboratory.

Every error that signals a violated mathematical hypothesis derives from
:class:`TodaError`, so callers (and the CLI) can map domain failures to a
single exit path while programming errors propagate normally.
"""


class TodaError(Exception):
    """Base class for domain errors (violated hypotheses, failed solves)."""


class MeshError(TodaError):
    """Inconsistent or degenerate mesh data (e.g. a collapsed triangle)."""


class RelatorError(TodaError):
    """Cover specification whose generator images do not kill the relator."""


class DisconnectedCoverError(TodaError):
    """Cover specification whose permutation action is not transitive."""


class AdmissibilityError(TodaError):
    """Gauss data f exceeds the admissible bound eta/(1+eta)^2 somewhere."""


class AdmissibilityLost(TodaError):
    """A coupled-iteration iterate left the admissible set or the compact box."""


class NonConvergence(TodaError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class UnboundedDetected(TodaError):
    """The Ricci functional J has no maximizer to approximate:
    rho = 2c*Vol >= 8 pi, where it is critical or unbounded above."""


class InfeasibleDegree(TodaError):
    """Zero section density with positive degree: integrating the curvature
    equation over the surface gives 0 on one side and c*Vol > 0 on the other."""


class DegreeRangeError(TodaError):
    """Normal-bundle degree outside the stable range 0 <= d <= 2g-2."""
