"""Exception types shared across the package."""


class SphereProjError(Exception):
    """Base class for all errors raised by sphereproj."""


class AntipodalPoints(SphereProjError):
    """Geodesic combination requested for an antipodal (or nearly antipodal) pair."""


class EmptyOrDegenerate(SphereProjError):
    """A projection's query point is not finite, or its cone projection
    collapsed to the zero vector (the query is a quarter turn or more away
    from the region); either indicates corrupted state."""


class NoConvergence(SphereProjError):
    """The projection solver exhausted its sweep budget before a sweep
    certified the KKT conditions, or its result missed the region."""


class FeasibilityViolated(SphereProjError):
    """A region's witness violates one of its constraints, by the margin
    the message gives: a bad witness from outside input or, on the step
    path, a generated cut that misses the cap pole, a known fixed point.
    Exact arithmetic rules the latter out, but rounding alone fires it on
    well-posed inputs when y_n lies within about 2e-8 of x_n (ROADMAP
    item 8), so it is not proof of a bug."""


class MonotonicityViolated(SphereProjError):
    """The anchored distance d(x1, x_n) decreased between iterations, by
    the amount the message gives; rounding alone can fire it too, as
    FeasibilityViolated (ROADMAP item 8)."""


class DegenerateInput(SphereProjError):
    """Closed-form projection received an input with no usable component."""


class ConfigError(SphereProjError):
    """A run configuration file failed to parse or validate."""
