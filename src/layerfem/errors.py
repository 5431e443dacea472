"""Exception hierarchy shared by all layerfem modules.

Each class names one remedy, and the CLI maps it to one exit code: 2 for a
ParameterError, 3 for a DegenerateRegimeError and 1 for every other class.
"""


class LayerFemError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(LayerFemError):
    """An argument is outside what the call accepts: its range, its shape, a
    shared mesh, a root-finding target, a node cap or a mesh scale that
    underflows.  CLI exit code 2."""


class ConfigurationError(LayerFemError):
    """A required ingredient (derivative, exact solution or reference solve,
    exemplars) is missing.  CLI exit code 1."""


class EvaluationError(LayerFemError):
    """A coefficient or integrand failed on array input or returned a
    non-finite value.  CLI exit code 1."""


class ConvergenceError(LayerFemError):
    """Quadrature or an iteration did not meet its tolerance.  CLI exit
    code 1."""


class DegenerateRegimeError(LayerFemError):
    """The transition point would leave the regime the mesh is designed for.
    CLI exit code 3."""


class SingularSystemError(LayerFemError):
    """The linear system is singular to working precision.  CLI exit code 1."""
