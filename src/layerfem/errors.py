"""Exception hierarchy shared by all layerfem modules."""


class LayerFemError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(LayerFemError):
    """An argument is outside its admissible range."""


class ConfigurationError(LayerFemError):
    """A required ingredient (derivative, exact solution, reference) is missing."""


class EvaluationError(LayerFemError):
    """A coefficient or integrand returned a non-finite value."""


class ConvergenceError(LayerFemError):
    """An iterative procedure exhausted its budget without meeting tolerance."""


class OutOfRangeError(LayerFemError):
    """A root-finding target lies outside the range of the monotone function."""


class DegenerateRegimeError(LayerFemError):
    """The transition point would leave the regime the mesh is designed for."""


class ResourceError(LayerFemError):
    """A size cap (node count) was exceeded."""


class SizeError(LayerFemError):
    """An input array is too short for the requested operation."""


class AssemblyError(LayerFemError):
    """Non-finite data encountered while assembling an element."""


class SingularSystemError(LayerFemError):
    """The linear system is singular to working precision."""


class MeshMismatchError(LayerFemError):
    """Two finite element functions do not live on the same mesh."""
