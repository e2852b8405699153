"""Exception types shared across the package."""


class InvalidMeshError(ValueError):
    """Mesh construction arguments are unusable (too few cells, bad nodes)."""


class InvalidPerturbationError(ValueError):
    """Node perturbation large enough that cells could collapse or cross."""


class InvalidSpeedError(ValueError):
    """Advection speed outside the range supported by the upwind operator."""


class UnsupportedDegreeError(ValueError):
    """Operation requires a higher polynomial degree than the space has."""


class IncompatibleSpacesError(ValueError):
    """Two grid functions do not live on the same mesh/degree."""


class UnsupportedMeshError(ValueError):
    """Operation is only defined on a restricted mesh class (e.g. uniform)."""


class ProjectionFailureError(RuntimeError):
    """A local projection system turned out singular."""


class CflTooLargeError(RuntimeError):
    """Fixed-point resolvent solve cannot converge at this time step."""

    def __init__(self, msg, contraction):
        super().__init__(msg)
        self.contraction = contraction


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the last iterate."""

    def __init__(self, msg, last_estimate, last_vector):
        super().__init__(msg)
        self.last_estimate = last_estimate
        self.last_vector = last_vector


class BlowUpError(FloatingPointError):
    """Time stepping produced non-finite or astronomically large values."""

    def __init__(self, msg, step_index):
        super().__init__(msg)
        self.step_index = step_index


class SteppingLimitError(ValueError):
    """A run would take more time steps than stepping takes (schemes.MAX_STEPPED_STEPS)."""


class ConfigError(ValueError):
    """Invalid or contradictory run configuration."""
