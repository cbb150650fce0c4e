"""Exception types shared across the workbench."""


class AdmissibilityError(ValueError):
    """Coframe normalization de^0 = 2 e^1^e^2 is violated."""


class JacobiError(ValueError):
    """d(de^i) != 0 for some i; the structure constants are not integrable."""


class DegreeError(ValueError):
    """Operation applied to forms of an unsupported degree."""


class SolveError(RuntimeError):
    """A linear solve that must succeed on validated models failed."""


class NotRealError(ValueError):
    """A gauge 1-form with non-real coefficients was supplied."""


class TorsionError(ValueError):
    """Operation requires vanishing pseudohermitian torsion."""


class BackendMismatch(ValueError):
    """Fields living on different backends were combined."""


class WrongModel(ValueError):
    """Operation restricted to a specific catalog model."""


class PreconditionError(ValueError):
    """A documented precondition (e.g. positive Webster curvature) fails."""


class ConfigError(ValueError):
    """Invalid run configuration."""
