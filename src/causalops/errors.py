"""Exception types shared across the package."""


class NotFibrant(ValueError):
    """No companion exists for the requested vertical morphism."""


class FragmentCapExceeded(RuntimeError):
    """Fragment generation hit a configured size cap."""


class InvalidComposite(ValueError):
    """A composed bordism or two-cell failed validation."""


class NonConstantCocone(ValueError):
    """A cocone out of a colimit is not constant on some colimit class."""


class NotFiltered(ValueError):
    """A colimit was requested over a non-filtered index category."""


class TimeSliceRequired(ValueError):
    """The translation needs invertible images, i.e. a time-slice model."""


class AdditivityRequired(ValueError):
    """The translation's additivity precondition fails."""


class InvalidSurface(ValueError):
    """A surface is not a Cauchy antichain of the causal set it points."""


class NoLaterSurface(RuntimeError):
    """Exhausted the search for a valid later-surface decoration."""
