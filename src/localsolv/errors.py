"""Exception types shared across the library."""


class DependentPairError(ValueError):
    """The two forms span less than a two-dimensional pencil."""


class DegeneratePairingError(ValueError):
    """A skew pairing matrix required to be non-degenerate is singular."""


class NumericalInconclusiveError(RuntimeError):
    """An iterative search hit its budget without settling the question."""


class MuSearchError(NumericalInconclusiveError):
    """No direction with a non-degenerate combined commutator matrix was found."""


class ConsistencyError(RuntimeError):
    """An internal pullback or projector identity failed its residual check."""


class GradingError(ValueError):
    """Structure constants are incompatible with the declared layer grading."""
