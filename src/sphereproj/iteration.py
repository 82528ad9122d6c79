"""Iteration drivers: the CQ method and the shrinking projection method.

Both methods iterate from a fixed anchor x1 inside the ambient cap.  Each
step evaluates the staged average y_n of the current iterate, forms the
cut "closer to y_n than to x_n" as a unit normal, appends its cuts to a
region with `intersect`, and projects the anchor onto the result:

* the CQ method appends two cuts (the fresh cut and a localization cut
  through x_n) to the bare cap, `Problem.cap_region`;
* the shrinking method appends the fresh cut to the previous region, so
  regions are nested by construction.

Every step records diagnostics and enforces the observable invariants the
convergence arguments provide, each with one check where it is established:
the known common fixed point satisfies every generated constraint (it is
the region's witness, which the region checks on construction), and the
anchored distance d(x1, x_n) never decreases (compared when x_{n+1} is
computed).  `iterate` yields the state after each step; `run` and any other
caller loop over it.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FeasibilityViolated, MonotonicityViolated, SphereProjError, WitnessInfeasible
from .geometry import SpherePoint, distance
from .mappings import MappingFamily, WMapping, common_fixed_basis, nearest_fixed_point, residuals
from .regions import Halfspace, Region, intersect, make_cn, make_qn, project

# Tolerance of the per-step monotonicity check.
FEJER_TOL = 1e-10


class StopReason(enum.Enum):
    CONVERGED = "converged"
    ITERATION_CAP = "iteration-cap"


@dataclass(frozen=True)
class StopRule:
    """Stopping thresholds: both the step length and the worst mapping
    residual must fall below their epsilons, or the iteration cap fires."""

    eps_step: float = 1e-8
    eps_residual: float = 1e-8
    max_iter: int = 10_000

    def __post_init__(self):
        # written as `not (v > 0)` so that NaN is rejected too
        if not all(v > 0 for v in (self.eps_step, self.eps_residual, self.max_iter)):
            raise ValueError("stop rule fields must be positive")

    def reason(self, state: "IterationState") -> StopReason | None:
        """Why to stop after the step that produced state, or None to go on."""
        if (state.trace[-1].step_len <= self.eps_step
                and float(state.residuals.max()) <= self.eps_residual):
            return StopReason.CONVERGED
        if len(state.trace) >= self.max_iter:
            return StopReason.ITERATION_CAP
        return None


class TraceRecord(NamedTuple):
    """Diagnostics for the step taking x_n to x_{n+1}; a named tuple, as
    `SolveStats` is, since one is built per step."""

    n: int
    dist_x1_xn: float
    step_len: float
    residuals: tuple[float, ...]
    constraint_count: int
    solver_sweeps: int


Trace = tuple[TraceRecord, ...]


class Problem:
    """A cap-constrained common-fixed-point problem.

    known_fixed_set is an orthonormal basis (columns) of the common fixed
    subspace, used for oracle checks and as the region witness.  None (the
    default) derives it with `common_fixed_basis`; an explicit set must be
    a finite (dim, k) array with orthonormal columns (ValueError otherwise).
    fixed_rep, its point nearest the cap pole, must lie in the cap
    (ValueError otherwise).  cap_region is the bare cap, witnessed by
    fixed_rep: the initial region, to which each CQ step appends its cuts.
    """

    __slots__ = ("dim", "cap_pole", "cap_radius", "family", "x1",
                 "known_fixed_set", "fixed_rep", "cap_region", "_w")

    def __init__(self, dim: int, cap_pole: SpherePoint, cap_radius: float,
                 family: MappingFamily, x1: SpherePoint,
                 known_fixed_set=None):
        if cap_pole.dim != dim or x1.dim != dim:
            raise ValueError("cap pole and start point must match the ambient dimension")
        cap = Halfspace.cap(cap_pole, cap_radius)
        if distance(x1, cap_pole) > cap_radius + 1e-12:
            raise ValueError("x1 must lie in the ambient cap")
        family.check_preserves_cap(cap_pole, cap_radius)

        if known_fixed_set is None:
            known_fixed_set = common_fixed_basis(family.maps, dim)
        else:
            known_fixed_set = _checked_basis(known_fixed_set, dim)
        rep = nearest_fixed_point(known_fixed_set, cap_pole)
        if rep is None or distance(rep, cap_pole) > cap_radius + 1e-9:
            raise ValueError("the common fixed set does not meet the ambient cap")

        self.dim = dim
        self.cap_pole = cap_pole
        self.cap_radius = float(cap_radius)
        self.family = family
        self.x1 = x1
        self.known_fixed_set = known_fixed_set
        self.fixed_rep = rep
        self.cap_region = Region(cap, (), rep)
        self._w = WMapping(family)

    def __repr__(self) -> str:
        return (f"Problem(dim={self.dim}, cap_radius={self.cap_radius:.6g}, "
                f"r={self.family.r})")


def _checked_basis(basis, dim: int) -> np.ndarray:
    """An explicit known fixed set as a float array; ValueError unless it is
    finite, has dim rows and has orthonormal columns to 1e-9."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != dim:
        raise ValueError(f"known fixed set must be a ({dim}, k) array, got shape {basis.shape}")
    if not np.isfinite(basis).all():
        raise ValueError("known fixed set must be finite")
    if np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(initial=0.0) > 1e-9:
        raise ValueError("known fixed set must have orthonormal columns")
    return basis


class IterationState:
    """Immutable snapshot after n-1 steps: the current iterate, the last
    staged average, the region used for the last projection, the trace,
    and the per-iterate quantities every step reads: d(x1, x_n), the
    mapping residuals at x_n and the images T_i x_n they are measured
    from, which the next W-map's first stage reuses.  `initial_state` and
    the step functions fill them; a state built without them gets them
    computed by its next step.  `active_cuts` holds the active cuts of the
    projection that gave x_n, from which the next projection starts; a
    state built without them starts that projection cold, which costs
    sweeps but changes no iterate.
    """

    __slots__ = ("n", "x_n", "y_n", "region", "trace", "dist_x1_xn", "residuals",
                 "active_cuts", "images")

    def __init__(self, n: int, x_n: SpherePoint, y_n: SpherePoint | None,
                 region: Region, trace: Trace, dist_x1_xn: float | None = None,
                 residuals: np.ndarray | None = None,
                 active_cuts: tuple[int, ...] = (),
                 images: tuple[SpherePoint, ...] | None = None):
        self.n = n
        self.x_n = x_n
        self.y_n = y_n
        self.region = region
        self.trace = trace
        self.dist_x1_xn = dist_x1_xn
        self.residuals = residuals
        self.active_cuts = active_cuts
        self.images = images

    def __repr__(self) -> str:
        return f"IterationState(n={self.n})"


def initial_state(problem: Problem) -> IterationState:
    """State at n = 1: the iterate is the anchor, the region is the bare cap."""
    x1 = problem.x1
    images = tuple([T.apply(x1) for T in problem.family.maps])
    return IterationState(1, x1, None, problem.cap_region, (), distance(x1, x1),
                          residuals(problem.family, x1, images), (), images)


def _step(problem: Problem, state: IterationState, shrinking: bool) -> IterationState:
    """The step kernel of both methods; `shrinking` selects the cut policy.

    One `intersect` call builds the region from the cut normals: CQ appends
    the fresh cut and the localization cut through x_n to the bare cap,
    shrinking appends the fresh cut to the accumulated region.  The region
    is built around the problem's known fixed point, which is where
    fixed-point containment is checked: the convergence arguments put the
    fixed set inside every cut, so a violation means a wrong fixed set and
    raises FeasibilityViolated.  The projection then must not decrease
    d(x1, x_n), and the record is written.  d(x1, x_{n+1}), the images
    T_i x_{n+1} and the residuals measured from them are computed once and
    carried in the new state, and so are the projection's active cuts; the
    next W-map takes T_1 x_{n+1} from the images.

    The projection starts from the previous step's active cuts.  CQ cuts
    keep their indices from step to step (fresh cut first, localization
    cut second).  A shrinking region only gains the fresh cut: if x_n
    violates it, the old optimum is cut off and the fresh cut must be
    active at the new one, so the projection starts from the old active
    cuts plus the fresh cut, and the solver drops those whose multipliers
    come out nonpositive; otherwise x_n is still optimal and its active
    cuts certify it.
    """
    x_n, dist_n, res_n, images = state.x_n, state.dist_x1_xn, state.residuals, state.images
    if dist_n is None or res_n is None:
        dist_n, res_n = distance(problem.x1, x_n), residuals(problem.family, x_n, images)
    y = problem._w.apply(x_n, state.n, images)
    cn = make_cn(x_n, y)
    if shrinking:
        base, cuts = state.region, (cn,)
    else:
        base, cuts = problem.cap_region, (cn, make_qn(problem.x1, x_n))
    try:
        region = intersect(base, cuts, problem.fixed_rep)
    except WitnessInfeasible:
        raise FeasibilityViolated(
            f"iteration {state.n}: known fixed point violates a generated cut"
        ) from None
    start = state.active_cuts
    if shrinking and cn is not None and float(cn.dot(x_n.coords)) < 0.0:
        start += (len(region.normals) - 1,)
    x_new, stats = project(region, problem.x1, start)
    dist_new = distance(problem.x1, x_new)
    if dist_new < dist_n - FEJER_TOL:
        raise MonotonicityViolated(f"iteration {state.n}: d(x1, x_n) decreased")
    rec = TraceRecord(state.n, dist_n, distance(x_n, x_new), tuple(res_n),
                      len(region.normals), stats.sweeps)
    images = tuple([T.apply(x_new) for T in problem.family.maps])
    return IterationState(state.n + 1, x_new, y, region, state.trace + (rec,), dist_new,
                          residuals(problem.family, x_new, images), stats.active_cuts, images)


def cq_step(problem: Problem, state: IterationState) -> IterationState:
    """One CQ step: fresh cut + localization cut, then project the anchor.

    At n = 1 the localization cut is trivial (the first region is the whole
    cap intersected with the fresh cut only).
    """
    return _step(problem, state, shrinking=False)


def shrink_step(problem: Problem, state: IterationState) -> IterationState:
    """One shrinking step: append the fresh cut to the accumulated region.

    Nestedness of the regions holds by construction; constraint counts grow
    by at most one per step (trivial cuts are skipped)."""
    return _step(problem, state, shrinking=True)


_STEPS = {"cq": cq_step, "shrinking": shrink_step}


def iterate(problem: Problem, method: str = "cq") -> Iterator[IterationState]:
    """Step the method from `initial_state` and yield the state after each
    step, without end; the caller decides when to stop.

    Raises ValueError for an unknown method.  Errors raised by a step are
    re-raised with the iteration index prepended.
    """
    if method not in _STEPS:
        raise ValueError(f"method must be one of {sorted(_STEPS)}, got {method!r}")
    step = _STEPS[method]

    def states():
        state = initial_state(problem)
        while True:
            try:
                state = step(problem, state)
            except SphereProjError as e:
                if str(e).startswith("iteration "):
                    raise
                raise type(e)(f"iteration {state.n}: {e}") from e
            yield state

    return states()


def run(problem: Problem, method: str = "cq",
        stop: StopRule = StopRule()) -> tuple[SpherePoint, Trace, StopReason]:
    """Iterate until the stop rule gives a reason: both the step length and
    the worst residual at the new iterate fall below it, or the iteration
    cap is reached.

    Returns the final iterate, the full trace (one record per step), and
    the stop reason.
    """
    for state in iterate(problem, method):
        reason = stop.reason(state)
        if reason is not None:
            return state.x_n, state.trace, reason


def fejer_audit(trace: Trace) -> bool:
    """True iff the anchored distance d(x1, x_n) is nondecreasing along the
    trace (within FEJER_TOL)."""
    return all(b.dist_x1_xn >= a.dist_x1_xn - FEJER_TOL
               for a, b in zip(trace, trace[1:]))
