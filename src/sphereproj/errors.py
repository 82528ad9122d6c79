"""Exception types shared across the package."""


class SphereProjError(Exception):
    """Base class for all errors raised by sphereproj."""


class AntipodalPoints(SphereProjError):
    """Geodesic combination requested for an antipodal (or nearly antipodal) pair."""


class PerimeterTooLarge(SphereProjError):
    """Triangle perimeter is >= 2*pi, outside the comparison inequality's domain."""


class WitnessInfeasible(SphereProjError):
    """A region was built with a witness that violates one of its constraints."""


class EmptyOrDegenerate(SphereProjError):
    """A projection's query point is not finite, or its cone projection
    collapsed to the zero vector (the query is a quarter turn or more away
    from the region); either indicates corrupted state."""


class NoConvergence(SphereProjError):
    """The projection solver exhausted its sweep budget before a sweep
    certified the KKT conditions, or its result missed the region."""


class FeasibilityViolated(SphereProjError):
    """A known common fixed point fell outside a generated constraint set.

    The convergence arguments guarantee containment in exact arithmetic,
    but rounding alone fires it on well-posed inputs when y_n lies within
    about 2e-8 of x_n (ROADMAP item 8), so it is not proof of a bug."""


class MonotonicityViolated(SphereProjError):
    """The anchored distance d(x1, x_n) decreased between iterations;
    rounding alone can fire it too, as FeasibilityViolated (ROADMAP item 8)."""


class NoFeasibleGridPoint(SphereProjError):
    """Brute-force projection found no feasible grid point; the region is
    thinner than the grid resolution."""


class DegenerateInput(SphereProjError):
    """Closed-form projection received an input with no usable component."""


class ConfigError(SphereProjError):
    """A run configuration file failed to parse or validate."""
