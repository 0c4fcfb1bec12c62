"""Exception types shared across limitlab."""


class LimitLabError(Exception):
    """Base class for all limitlab errors."""


class DomainError(LimitLabError):
    """A point violates a map/immersion domain, or an image is non-finite.

    Parameters
    ----------
    point : array-like
        The offending state.
    reason : str
        One of ``"excluded-point"``, ``"out-of-bounds"``, ``"non-finite-image"``,
        ``"non-finite-input"``, ``"non-finite-distance"`` (two finite points or
        images too far apart for their distance to be a float).
    """

    def __init__(self, point, reason, detail=""):
        self.point = point
        self.reason = reason
        self.detail = detail
        msg = f"domain violation ({reason}) at {point}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NoInverseError(LimitLabError):
    """Backward iteration requested on a map without an inverse."""


class UnconvergedError(LimitLabError):
    """A limit-set estimate required by the operation did not converge."""

    def __init__(self, msg, estimate=None):
        super().__init__(msg)
        self.estimate = estimate


class IllConditionedError(LimitLabError):
    """Eigen-decomposition residual too large to trust the spectral split."""


class NotStableError(LimitLabError):
    """Transient-bound requested on a subspace with unstable growth."""


class SingularGramError(LimitLabError):
    """Unregularized dictionary regression with a numerically singular Gram matrix."""


class UnknownSystemError(LimitLabError):
    """Catalog lookup for a name that is not registered."""


class InvalidParamError(LimitLabError):
    """Catalog system parameter outside its documented range."""


class NoExactImmersionError(LimitLabError):
    """Catalog entry has no closed-form lift."""


class CatalogGuardError(LimitLabError):
    """Catalog exceeds the countable-member guard (uncountable family suspected)."""


class MissingArtifactError(LimitLabError):
    """Report rendering pointed at artifacts that do not exist."""
