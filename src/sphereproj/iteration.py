"""Iteration drivers: the CQ method and the shrinking projection method.

Both methods iterate from a fixed anchor x1 inside the ambient cap.  A
state carries its iterate x_n with y_n = W x_n, the staged average (the
family's W-mapping) of that iterate.  Each step forms the cut "closer to
y_n than to x_n" as a unit normal, appends its cuts to a region with
`regions._append` (`intersect` without the check of outside rows), and
projects the anchor onto the result:

* the CQ method appends two cuts (the fresh cut and a localization cut
  through x_n) to the bare cap, `Problem.cap_region`;
* the shrinking method appends the fresh cut to the previous region, so
  regions are nested by construction.

Every step records diagnostics and enforces the observable invariants the
convergence arguments provide, each with one check where it is established:
P_F x1, the common fixed point nearest the anchor, satisfies every
generated constraint (the region's witness, which the region checks on
construction), and the anchored distance d(x1, x_n) never decreases and
never passes d(x1, P_F x1) (both compared when x_{n+1} is computed).
`iterate` yields the state after each step; `run` and any other caller
loop over it.  A step that gives its iterate back bit for bit marks
its state stalled: every later step repeats it, so the kernel returns the
repeat without recomputing it and `run` stops there.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MonotonicityViolated, SphereProjError
from .geometry import SpherePoint, distance
from .mappings import MappingFamily, fixed_axes, residuals
from .regions import WITNESS_TOL, Cap, Region, _append, make_cn, make_qn, project

# Tolerance of the per-step distance checks: d(x1, x_n) may fall, or pass
# d(x1, P_F x1), by at most this.
FEJER_TOL = 1e-10


class StopReason(enum.Enum):
    CONVERGED = "converged"
    STALLED = "stalled"
    ITERATION_CAP = "iteration-cap"


@dataclass(frozen=True)
class StopRule:
    """Stopping thresholds: both the step length and the worst mapping
    residual must fall below their epsilons; otherwise a stalled walk or
    the iteration cap stops the run."""

    eps_step: float = 1e-8
    eps_residual: float = 1e-8
    max_iter: int = 10_000

    def __post_init__(self):
        # written as `not (v > 0)` so that NaN is rejected too
        if not all(v > 0 for v in (self.eps_step, self.eps_residual, self.max_iter)):
            raise ValueError("stop rule fields must be positive")

    def reason(self, state: "IterationState") -> StopReason | None:
        """Why to stop after the step that produced state, or None to go on.

        CONVERGED first, then STALLED: the state is a floating-point fixed
        point of its step (`IterationState.stalled`), so every later step
        repeats it and no later state can meet the epsilons either.  A
        still iterate need not meet eps_step = 1e-8: the arccos metric
        reads d(x, x) as 0, 1.49e-8 or 2.1e-8.  Then the iteration cap.
        A state with no record yet has no step length, so only the cap
        applies to it."""
        if (state.trace and state.trace[-1].step_len <= self.eps_step
                and max(state.residuals) <= self.eps_residual):
            return StopReason.CONVERGED
        if state.stalled:
            return StopReason.STALLED
        if state.n > self.max_iter:
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

    x1 must lie in the cap as a region witness must: `Cap.slack(x1)`, an
    angle, at least -WITNESS_TOL (ValueError otherwise).  fixed_axes masks
    the axes that apply leaves exactly in place under every map, which span
    the common fixed set F (`mappings.fixed_axes`).  The maps fix the cap
    pole exactly when it has no coordinate off F (ValueError otherwise);
    then the family must pass the sampled cap check
    (`check_preserves_cap`).  target is P_F x1, x1's coordinates on F made
    unit: the methods' limit, in the cap since the pole is in F, and no
    farther from the pole than x1.  cap_region is the bare cap, witnessed
    by the target: the initial region, to which each CQ step appends its
    cuts.  dist_x1_target is d(x1, P_F x1), the paper's bound on every
    d(x1, x_n).
    """

    __slots__ = ("dim", "cap_pole", "cap_radius", "family", "x1",
                 "fixed_axes", "target", "dist_x1_target", "cap_region")

    def __init__(self, dim: int, cap_pole: SpherePoint, cap_radius: float,
                 family: MappingFamily, x1: SpherePoint):
        if cap_pole.dim != dim or x1.dim != dim:
            raise ValueError("cap pole and start point must match the ambient dimension")
        cap = Cap(cap_pole, cap_radius)
        if not cap.slack(x1) >= -WITNESS_TOL:
            raise ValueError("x1 must lie in the ambient cap")
        fixed = fixed_axes(family, dim)
        off = cap_pole.coords[~fixed]
        if off.any():
            raise ValueError(f"the maps move the cap pole: it lies "
                             f"{float(np.linalg.norm(off)):.3e} off their common fixed set")
        family.check_preserves_cap(cap_pole, cap_radius)
        comp = np.where(fixed, x1.coords, 0.0)

        self.dim = dim
        self.cap_pole = cap_pole
        self.cap_radius = float(cap_radius)
        self.family = family
        self.x1 = x1
        self.fixed_axes = fixed
        self.target = SpherePoint._wrap(comp / float(np.linalg.norm(comp)))
        self.dist_x1_target = distance(x1, self.target)
        self.cap_region = Region(cap, (), self.target)

    def __repr__(self) -> str:
        return (f"Problem(dim={self.dim}, cap_radius={self.cap_radius:.6g}, "
                f"r={self.family.r})")


class IterationState(NamedTuple):
    """Immutable snapshot after n-1 steps: the current iterate x_n, its
    staged average y_n = W x_n (the point the next step cuts with), the
    region used for the last projection, the trace, and the per-iterate
    quantities the next step and its record read: d(x1, x_n) and the
    mapping residuals at x_n.  `_measure` makes y_n, d(x1, x_n) and the
    residuals with one application of each map at x_n, which no state
    keeps; `initial_state` and the step functions fill them.  A state
    built from its first five fields alone can be read but not stepped
    (ROADMAP item 4c drops the defaults).
    `active_cuts` holds the active cuts of the projection that gave x_n,
    from which the next projection starts; a state built without them
    starts that projection cold, which costs sweeps but changes no iterate.

    `stalled` is set by the step kernel alone, on a state whose step
    repeated its predecessor's: the same iterate bit for bit, the same
    d(x1, x_n), the same active cuts and, for shrinking, the same region.
    The next step then reads bitwise-equal inputs, so it gives the same
    state with n one higher, and the kernel returns that without
    recomputing it.  The mark speaks for the method whose step set it, so
    a walk keeps one method, as `iterate` does.
    """

    n: int
    x_n: SpherePoint
    y_n: SpherePoint
    region: Region
    trace: Trace
    dist_x1_xn: float | None = None
    residuals: tuple[float, ...] | None = None
    active_cuts: tuple[int, ...] = ()
    stalled: bool = False

    def __repr__(self) -> str:
        return f"IterationState(n={self.n})"


def _measure(problem: Problem,
             x: SpherePoint) -> tuple[SpherePoint, float, tuple[float, ...]]:
    """W x, d(x1, x) and the residuals at x: the per-iterate quantities a
    state carries.  The images T_i x are applied once, here; the W-map's
    first stage and the residuals both read them."""
    images = [T.apply(x) for T in problem.family.maps]
    res = tuple(residuals(problem.family, x, images).tolist())
    return problem.family.apply(x, images=images), distance(problem.x1, x), res


def initial_state(problem: Problem) -> IterationState:
    """State at n = 1: the iterate is the anchor, the region is the bare cap."""
    x1 = problem.x1
    y, dist, res = _measure(problem, x1)
    return IterationState(1, x1, y, problem.cap_region, (), dist, res)


def _step(problem: Problem, state: IterationState, shrinking: bool) -> IterationState:
    """The step kernel of both methods; `shrinking` selects the cut policy.

    One `_append` call builds the region from the cut normals: CQ appends
    the fresh cut and the localization cut through x_n to the bare cap,
    shrinking appends the fresh cut to the accumulated region.  Both keep
    the witness of `Problem.cap_region`, P_F x1, and `_append` checks it
    against the fresh cuts: that is where fixed-point containment is
    checked.  The convergence arguments put the fixed set inside every
    cut, so a violation means a wrong fixed set (or rounding, ROADMAP item
    8): FeasibilityViolated, with its margin.  The projection then must
    not decrease d(x1, x_n) (MonotonicityViolated, with the decrease), nor
    carry it past d(x1, P_F x1), since P_F x1 lies in the region
    (MonotonicityViolated, with the excess), and the record is written.
    These errors carry no iteration index; `iterate` adds it.  The step
    cuts with the state's y_n = W x_n and records its d(x1, x_n) and
    residuals as they stand; `_measure` gives W x_{n+1}, d(x1, x_{n+1})
    and the residuals at x_{n+1} once, and the new state carries them with
    the projection's active cuts.  Only such a state steps: a five-field
    one can be read, not stepped (ROADMAP item 4c drops the defaults).

    The projection starts from the previous step's active cuts.  CQ cuts
    keep their indices from step to step (fresh cut first, localization
    cut second).  A shrinking region only gains the fresh cut: if x_n
    violates it, the old optimum is cut off and the fresh cut must be
    active at the new one, so the projection starts from the old active
    cuts plus the fresh cut, and the solver drops those whose multipliers
    come out nonpositive; otherwise x_n is still optimal and its active
    cuts certify it.

    A step whose projection gives x_n back bit for bit, with the same
    d(x1, x_n) and active cuts, and for shrinking the same region (the
    regenerated cut is not appended again), marks the new state stalled.
    A step from a stalled state reads only inputs it repeats: x_n, y_n,
    the region and the start set.  So it would give the same state with
    n one higher, and it returns that without computing anything, with
    the last record repeated under the new index (the trace is copied, as
    on every step).  Nothing it skips could raise:
    the witness already passed the same cuts, d(x1, x_n) does not change
    and the projection already met its tolerance.
    """
    if state.stalled:
        return state._replace(n=state.n + 1,
                              trace=state.trace + (state.trace[-1]._replace(n=state.n),))
    x_n, y, dist_n, res_n = state.x_n, state.y_n, state.dist_x1_xn, state.residuals
    cn = make_cn(x_n, y)
    if shrinking:
        base, cuts = state.region, (cn,)
    else:
        base, cuts = problem.cap_region, (cn, make_qn(problem.x1, x_n))
    region = _append(base, cuts)
    start = state.active_cuts
    if shrinking and cn is not None and float(cn.dot(x_n.coords)) < 0.0:
        start += (len(region.normals) - 1,)
    x_new, stats = project(region, problem.x1, start)
    y_new, dist_new, res_new = _measure(problem, x_new)
    if dist_new < dist_n - FEJER_TOL:
        raise MonotonicityViolated(f"d(x1, x_n) decreased by {dist_n - dist_new:.3e}")
    if (excess := dist_new - problem.dist_x1_target) > FEJER_TOL:
        raise MonotonicityViolated(f"d(x1, x_n) passed d(x1, P_F x1) by {excess:.3e}")
    rec = TraceRecord(state.n, dist_n, distance(x_n, x_new), res_n,
                      len(region.normals), stats.sweeps)
    # the distance test is free and fails on every step that moves
    stalled = (dist_new == dist_n and stats.active_cuts == state.active_cuts
               and (region is state.region or not shrinking)
               and x_new.coords.tobytes() == x_n.coords.tobytes())
    return IterationState(state.n + 1, x_new, y_new, region, state.trace + (rec,), dist_new,
                          res_new, stats.active_cuts, stalled)


def cq_step(problem: Problem, state: IterationState) -> IterationState:
    """One CQ step: fresh cut + localization cut, then project the anchor.

    At n = 1 the localization cut is trivial (the first region is the whole
    cap intersected with the fresh cut only).
    """
    return _step(problem, state, shrinking=False)


def shrink_step(problem: Problem, state: IterationState) -> IterationState:
    """One shrinking step: append the fresh cut to the accumulated region.

    Nestedness of the regions holds by construction; constraint counts grow
    by at most one per step (a vanishing or repeated cut is skipped)."""
    return _step(problem, state, shrinking=True)


_STEPS = {"cq": cq_step, "shrinking": shrink_step}


def iterate(problem: Problem, method: str = "cq") -> Iterator[IterationState]:
    """Step the method from `initial_state` and yield the state after each
    step, without end; the caller decides when to stop.

    Raises ValueError for an unknown method.  This is the one place that
    annotates a step error: every SphereProjError a step raises is
    re-raised as the same type with "iteration N: " prepended, N being the
    index of the state the step started from.  A direct caller of
    `cq_step` or `shrink_step` sees the bare message.
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
                raise type(e)(f"iteration {state.n}: {e}") from e
            yield state

    return states()


def run(problem: Problem, method: str = "cq",
        stop: StopRule = StopRule()) -> tuple[SpherePoint, Trace, StopReason]:
    """Iterate until the stop rule gives a reason: both the step length and
    the worst residual at the new iterate fall below it, the walk stalls
    at a floating-point fixed point of its step, or the iteration cap is
    reached.

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
