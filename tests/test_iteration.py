"""Tests for the CQ and shrinking iteration drivers."""

import math
import re
import sys

import numpy as np
import pytest

from sphereproj.geometry import basis_point, distance, random_point_in_cap, SpherePoint
from sphereproj.iteration import (
    IterationState,
    Problem,
    StopReason,
    StopRule,
    TraceRecord,
    cq_step,
    fejer_audit,
    initial_state,
    iterate,
    run,
    shrink_step,
)
from sphereproj.errors import FeasibilityViolated, MonotonicityViolated
from sphereproj.mappings import (
    Identity,
    MappingFamily,
    PlaneRotation,
    residuals,
)
from sphereproj.oracle import subspace_project
from sphereproj.regions import WITNESS_TOL, Cap, Region, contains, make_cn

POLE = basis_point(3, 4)
RHO = math.pi / 5

# An audit error's margin, as its message prints it
MARGIN = r"\d\.\d{3}e[+-]\d{2}"


def two_rotation_family():
    return MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])


def make_problem(x1, family=None):
    return Problem(4, POLE, RHO, family or two_rotation_family(), x1)


class TestHighDimension:
    def test_embedded_two_rotation_problem(self):
        """The two-rotation family embedded in d = 1024: the fixed set is
        every axis from e3 on, and both methods step on it."""
        dim = 1024
        pole = basis_point(3, dim)
        x1 = random_point_in_cap(pole, RHO, 20250801)
        prob = Problem(dim, pole, RHO, two_rotation_family(), x1)
        assert np.flatnonzero(~prob.fixed_axes).tolist() == [0, 1, 2]
        for stepper in (cq_step, shrink_step):
            s = initial_state(prob)
            for _ in range(10):
                s = stepper(prob, s)
            assert s.n == 11


class TestProblemValidation:
    def test_x1_outside_cap_rejected(self):
        with pytest.raises(ValueError):
            make_problem(basis_point(0, 4))

    def test_tiny_cap_anchor_is_tested_by_the_cap_slack(self):
        """On cap(e3, 1e-6) an anchor on the boundary builds, and one 1.5
        radii out is rejected."""
        def anchor(d):
            return SpherePoint([math.sin(d), 0.0, 0.0, math.cos(d)])

        Problem(4, POLE, 1e-6, two_rotation_family(), anchor(1e-6))
        with pytest.raises(ValueError, match="^x1 must lie in the ambient cap$"):
            Problem(4, POLE, 1e-6, two_rotation_family(), anchor(1.5e-6))

    @pytest.mark.parametrize("off", [0.0, 1e-9])
    @pytest.mark.parametrize("past", [1e-12, 5e-11, 9.9e-11])
    def test_anchor_on_the_cap_edge_is_witnessed_by_the_target(self, past, off):
        """x1 `past` beyond the edge of cap(e3, pi/5), with a coordinate of
        `off` on e0, off F = span{e2, e3}: its cap slack lies in
        [-WITNESS_TOL, 0), and the problem builds with P_F x1 as the cap
        region's witness.  P_F x1 is no farther from the pole than x1 in
        exact arithmetic, so only rounding could push its slack past the
        tolerance; here it is x1 or within 1e-18 of it."""
        fam = MappingFamily([PlaneRotation(0, 1, 0.8)])
        a = RHO + past
        x1 = SpherePoint([math.sin(a) * off, 0.0, math.sin(a), math.cos(a)])
        assert -WITNESS_TOL <= Cap(POLE, RHO).slack(x1) < 0.0
        p = Problem(4, POLE, RHO, fam, x1)
        assert p.fixed_axes.tolist() == [False, False, True, True]
        assert p.cap_region.witness is p.target

    def test_cap_radius_range(self):
        with pytest.raises(ValueError):
            Problem(4, POLE, math.pi / 3, two_rotation_family(), POLE)

    def test_x1_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="must match the ambient dimension"):
            make_problem(basis_point(3, 5))

    def test_family_must_preserve_cap(self):
        with pytest.raises(ValueError):
            Problem(4, basis_point(0, 4), RHO, two_rotation_family(), basis_point(0, 4))

    def test_auto_fixed_set_for_linear_family(self):
        p = make_problem(POLE)
        assert p.fixed_axes.tolist() == [False, False, False, True]
        assert p.cap_region.witness is p.target
        assert p.target.coords.tobytes() == p.cap_pole.coords.tobytes()

    def test_fixed_set_must_meet_cap(self):
        """A rotation of (e0, e3) by 5e-10 moves e0 and e3, so the fixed set
        is span{e1, e2}, and the pole e3 lies wholly on a moved axis."""
        fam = MappingFamily([PlaneRotation(0, 3, 5e-10)])
        with pytest.raises(ValueError, match=r"^the maps move the cap pole: it lies 1\.000e\+00 off"):
            Problem(4, POLE, RHO, fam, POLE)

    def test_family_must_fix_the_pole(self):
        """A rotation that moves the pole by 1e-4 pushes cap boundary points
        out of the cap, although its fixed set meets the cap at e2 and the
        sampled cap points all stay inside: the pole's coordinate on the
        moved axis e3 rejects it."""
        pole = SpherePoint([0.0, 0.0, 1.0, 0.1])
        fam = MappingFamily([PlaneRotation(0, 3, 1e-3)])
        with pytest.raises(ValueError, match=r"^the maps move the cap pole: it lies 9\.950e-02 off"):
            Problem(4, pole, 0.6, fam, pole)


def random_zoo_problem(seed):
    """A seeded random closed-zoo problem: d = 2..8, one to three plane
    rotations, half of them by 3e-11 to 3e-9 (moves a tolerance would miss),
    a pole on one to two axes, three in ten of them with a coordinate of
    1e-14 to 1e-8 added on one more axis, and a radius of 0.2 to 0.75."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    maps = []
    for _ in range(int(rng.integers(1, 4))):
        i, j = sorted(int(a) for a in rng.choice(dim, 2, replace=False))
        angle = min(3.0, 10 ** (rng.uniform(-10.5, -8.5) if rng.random() < 0.5
                                else rng.uniform(-1, 0.5)))
        maps.append(PlaneRotation(i, j, angle if rng.random() < 0.5 else -angle))
    coords = np.zeros(dim)
    axes = rng.choice(dim, int(rng.integers(1, 3)), replace=False)
    coords[axes] = 1.0, *rng.uniform(0.05, 0.6, len(axes) - 1)
    if rng.random() < 0.3:
        coords[rng.integers(dim)] += 10 ** rng.uniform(-14, -8)
    pole = SpherePoint(coords)
    radius = float(rng.uniform(0.2, 0.75))
    return Problem(dim, pole, radius, MappingFamily(maps), random_point_in_cap(pole, radius, seed))


class TestPolePanel:
    def test_built_problems_fix_the_pole(self):
        """On a seeded panel of random problems, each one that builds has
        target, the oracle's P_F x1 bit for bit, as its witness, and every
        member leaves the pole exactly in place.  The rest fail at the pole
        test, at the sampled cap check or at x1; a pole with a tiny
        coordinate on a moved axis is among those rejected."""
        built, pole_rejects = 0, 0
        for seed in range(120):
            try:
                prob = random_zoo_problem(seed)
            except ValueError as e:
                pole_rejects += str(e).startswith("the maps move the cap pole")
                continue
            built += 1
            pole = prob.cap_pole
            assert prob.cap_region.witness is prob.target
            for T in prob.family.maps:
                np.testing.assert_array_equal(T.apply(pole).coords, pole.coords)
            oracle = subspace_project(prob.x1, np.eye(prob.dim)[:, prob.fixed_axes])
            assert prob.target.coords.tobytes() == oracle.coords.tobytes()
        assert built >= 20 and pole_rejects >= 20
        with pytest.raises(ValueError, match=r"^the maps move the cap pole: it lies 1\.000e-12 off"):
            Problem(4, SpherePoint([1e-12, 0.0, 0.0, 1.0]), RHO, two_rotation_family(), POLE)


class TestInitialState:
    def test_region_is_the_problem_cap_region(self):
        p = make_problem(random_point_in_cap(POLE, RHO, 3))
        s = initial_state(p)
        assert s.region is p.cap_region
        assert s.region.witness is p.target
        assert s.region.normals.shape == (0, 4)


class TestStationaryStart:
    """x1 already a common fixed point: nothing moves, everything is trivial."""

    @pytest.mark.parametrize("method", ["cq", "shrinking"])
    def test_converges_at_first_step(self, method):
        prob = make_problem(POLE)
        x, trace, reason = run(prob, method, StopRule())
        assert reason is StopReason.CONVERGED
        assert len(trace) == 1
        assert distance(x, POLE) <= 1e-12
        assert trace[0].step_len <= 1e-12
        assert trace[0].constraint_count == 0


class TestSingleSteps:
    def test_first_cq_step_has_no_localization_cut(self):
        """At n = 1 the localization halfspace is trivial: the region carries
        at most the fresh cut."""
        x1 = random_point_in_cap(POLE, RHO, 3)
        prob = make_problem(x1)
        s = cq_step(prob, initial_state(prob))
        assert s.trace[0].constraint_count == 1
        assert s.n == 2

    def test_iterate_feasible_for_its_region(self):
        x1 = random_point_in_cap(POLE, RHO, 4)
        prob = make_problem(x1)
        s = initial_state(prob)
        for _ in range(10):
            s = cq_step(prob, s)
            assert contains(s.region, s.x_n, 1e-8)

    def test_shrink_constraint_count_bounded_by_n(self):
        x1 = random_point_in_cap(POLE, RHO, 5)
        prob = make_problem(x1)
        s = initial_state(prob)
        for k in range(1, 11):
            s = shrink_step(prob, s)
            assert s.trace[-1].constraint_count <= k

    def test_shrink_regions_nested(self):
        """Every point in a later region belongs to all earlier ones."""
        x1 = random_point_in_cap(POLE, RHO, 6)
        prob = make_problem(x1)
        s = initial_state(prob)
        regions = []
        for _ in range(8):
            s = shrink_step(prob, s)
            regions.append(s.region)
        rng = np.random.default_rng(60)
        from sphereproj.geometry import sample_cap
        for row in sample_cap(POLE.coords, RHO, 500, rng):
            z = SpherePoint(row)
            flags = [contains(r, z, 1e-12) for r in regions]
            for earlier, later in zip(flags, flags[1:]):
                assert earlier or not later

    def test_shrink_region_rebuilds_bitwise(self):
        """A region's cuts read back as halfspaces rebuild it bit for bit:
        renormalizing a stored unit row would move the last bit of some."""
        prob = make_problem(random_point_in_cap(POLE, RHO, 20250801))
        s = initial_state(prob)
        for _ in range(100):
            s = shrink_step(prob, s)
        r = s.region
        assert len(r.normals) == 100
        assert Region(r.cap, r.linear, r.witness).normals.tobytes() == r.normals.tobytes()

    def test_fixed_point_contained_every_step(self):
        """The known common fixed point stays feasible for every generated
        region, with slack no worse than -1e-8."""
        x1 = random_point_in_cap(POLE, RHO, 7)
        prob = make_problem(x1)
        for stepper in (cq_step, shrink_step):
            s = initial_state(prob)
            for _ in range(15):
                s = stepper(prob, s)
                assert contains(s.region, prob.cap_pole, 1e-8)

    def test_anchored_distance_monotone(self):
        x1 = random_point_in_cap(POLE, RHO, 8)
        prob = make_problem(x1)
        s = initial_state(prob)
        dists = []
        for _ in range(20):
            s = cq_step(prob, s)
            dists.append(distance(prob.x1, s.x_n))
        assert all(b >= a - 1e-10 for a, b in zip(dists, dists[1:]))

    def test_anchored_distance_bounded_by_fixed_projection(self):
        """d(x1, x_n) never exceeds d(x1, P_F x1); F cap C = {pole} here."""
        x1 = random_point_in_cap(POLE, RHO, 9)
        prob = make_problem(x1)
        bound = distance(x1, POLE)
        for stepper in (cq_step, shrink_step):
            s = initial_state(prob)
            for _ in range(15):
                s = stepper(prob, s)
                assert distance(prob.x1, s.x_n) <= bound + 1e-8


class TestRun:
    def test_iteration_cap(self):
        x1 = random_point_in_cap(POLE, RHO, 10)
        prob = make_problem(x1)
        x, trace, reason = run(prob, "cq", StopRule(1e-12, 1e-12, 1))
        assert reason is StopReason.ITERATION_CAP
        assert len(trace) == 1

    def test_method_validated(self):
        prob = make_problem(POLE)
        with pytest.raises(ValueError):
            run(prob, "unknown")
        with pytest.raises(ValueError):
            iterate(prob, "unknown")  # raised on the call, before any step

    def test_stalled_walk_stops_stalled(self, monkeypatch):
        """The c05 shrinking walk stops moving after 2162 steps; under the
        default rule it stops there, its last two iterates bitwise equal."""
        from sphereproj import iteration as it

        last = [None]
        real = it._STEPS["shrinking"]

        def step(problem, state):
            last[0] = state
            return real(problem, state)

        monkeypatch.setitem(it._STEPS, "shrinking", step)
        prob = make_problem(random_point_in_cap(POLE, RHO, 20250801))
        x, trace, reason = run(prob, "shrinking", StopRule())
        assert reason is StopReason.STALLED
        assert len(trace) == 2162
        assert x.coords.tobytes() == last[0].x_n.coords.tobytes()
        assert trace[-1].constraint_count == 2161

    @pytest.mark.parametrize("method", ["cq", "shrinking"])
    def test_half_turn_family_converges(self, method):
        """A half-turn rotation's staged average points straight at its fixed
        circle, so both methods settle quickly at moderate tolerance."""
        x1 = random_point_in_cap(POLE, RHO, 7)
        fam = MappingFamily([PlaneRotation(0, 1, math.pi)])
        prob = make_problem(x1, fam)
        x, trace, reason = run(prob, method, StopRule(1e-3, 1e-3, 100))
        assert reason is StopReason.CONVERGED
        assert len(trace) <= 20
        assert trace[-1].step_len <= 1e-3
        assert max(residuals(fam, x)) <= 1e-3
        target = subspace_project(x1, np.eye(4)[:, [2, 3]])
        assert distance(x, target) <= 5e-3
        assert fejer_audit(trace)


class TestCachedFields:
    """The state carries W x_n, d(x1, x_n) and the residuals at x_n, so
    that each is computed once per iterate; the records must not notice."""

    @pytest.mark.parametrize("stepper", [cq_step, shrink_step])
    def test_records_match_direct_recomputation(self, stepper):
        fam = two_rotation_family()
        x1 = random_point_in_cap(POLE, RHO, 14)
        prob = make_problem(x1, fam)
        s = initial_state(prob)
        iterates = [s.x_n]
        for _ in range(25):
            s = stepper(prob, s)
            iterates.append(s.x_n)
        assert [rec.n for rec in s.trace] == list(range(1, 26))
        for rec, x_n, x_next in zip(s.trace, iterates, iterates[1:]):
            assert rec.dist_x1_xn == distance(x1, x_n)
            assert rec.step_len == distance(x_n, x_next)
            assert rec.residuals == tuple(residuals(fam, x_n))
        assert s.dist_x1_xn == distance(x1, s.x_n)
        assert np.array_equal(s.residuals, residuals(fam, s.x_n))

    @pytest.mark.parametrize("method", ["cq", "shrinking"])
    def test_run_computes_residuals_once_per_iterate(self, method, monkeypatch):
        from sphereproj import iteration as it

        calls = {"n": 0}
        real = it.residuals

        def counted(family, x, images=None):
            calls["n"] += 1
            return real(family, x, images)

        monkeypatch.setattr(it, "residuals", counted)
        prob = make_problem(random_point_in_cap(POLE, RHO, 15))
        _, trace, reason = run(prob, method, StopRule(1e-12, 1e-12, 17))
        assert reason is StopReason.ITERATION_CAP
        assert calls["n"] == len(trace) + 1 == 18

    @pytest.mark.parametrize("method", ["cq", "shrinking"])
    def test_run_evaluates_the_w_map_once_per_iterate(self, method, monkeypatch):
        calls = {"n": 0}
        real = MappingFamily.apply

        def counted(self, x, **kwargs):
            calls["n"] += 1
            return real(self, x, **kwargs)

        monkeypatch.setattr(MappingFamily, "apply", counted)
        prob = make_problem(random_point_in_cap(POLE, RHO, 15))
        _, trace, reason = run(prob, method, StopRule(1e-12, 1e-12, 17))
        assert reason is StopReason.ITERATION_CAP
        assert calls["n"] == len(trace) + 1 == 18

    @pytest.mark.parametrize("stepper", [cq_step, shrink_step])
    def test_state_pairs_its_iterate_with_its_staged_average(self, stepper):
        """The state's y_n is W x_n, byte for byte, from the first state on."""
        prob = make_problem(random_point_in_cap(POLE, RHO, 17))
        states = [initial_state(prob)]
        for _ in range(6):
            states.append(stepper(prob, states[-1]))
        for s in states:
            assert s.y_n.coords.tobytes() == prob.family.apply(s.x_n).coords.tobytes()


class TestStepIgnoresIndex:
    """A step is a function of x_n, the region and the active cuts alone:
    the iteration index only labels the record.  So a bitwise repeat of
    x_n repeats the step."""

    @pytest.mark.parametrize("stepper", [cq_step, shrink_step])
    @pytest.mark.parametrize("alphas", [(0.5, 0.5), (0.3, 0.8)])
    def test_shifted_index_steps_to_the_same_bytes(self, stepper, alphas):
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)], alphas)
        prob = make_problem(random_point_in_cap(POLE, RHO, 21), fam)
        s = initial_state(prob)
        for _ in range(5):
            s = stepper(prob, s)
            a, b = stepper(prob, s), stepper(prob, s._replace(n=s.n + 1000))
            assert b.n == a.n + 1000
            assert a.x_n.coords.tobytes() == b.x_n.coords.tobytes()
            assert a.y_n.coords.tobytes() == b.y_n.coords.tobytes()
            assert a.region.normals.tobytes() == b.region.normals.tobytes()
            assert a.active_cuts == b.active_cuts
            assert b.trace[-1].n == a.trace[-1].n + 1000
            assert repr(a.trace[-1]._replace(n=0)) == repr(b.trace[-1]._replace(n=0))


class TestIterationState:
    def test_fields_cannot_be_assigned(self):
        """The snapshot is immutable: a field cannot be rebound."""
        s = initial_state(make_problem(random_point_in_cap(POLE, RHO, 19)))
        for field in ("n", "x_n", "y_n", "dist_x1_xn", "residuals"):
            assert field in IterationState._fields
            with pytest.raises(AttributeError):
                setattr(s, field, None)
        assert repr(s) == "IterationState(n=1)"


def _without_sweeps(trace):
    return [rec._replace(solver_sweeps=0) for rec in trace]


def single_rotation_problem(anchor):
    """The c06 family: one rotation by 0.8 in plane (0,1), cap around
    (0, 0, s, s) of radius pi/5."""
    s = math.sqrt(2) / 2
    pole = SpherePoint([0.0, 0.0, s, s])
    x1 = random_point_in_cap(pole, RHO, anchor)
    return Problem(4, pole, RHO, MappingFamily([PlaneRotation(0, 1, 0.8)]), x1)


class TestWarmStart:
    """Each projection starts from the previous step's active cuts.  That
    may only save solver sweeps: stepping from states whose active cuts
    are dropped, which starts every projection cold, must give the same
    iterates bit for bit."""

    @pytest.mark.parametrize("stepper", [cq_step, shrink_step])
    @pytest.mark.parametrize("family, anchor", [
        ("two-rotation", 20250801),      # c05
        ("single-rotation", 20250802),   # c06
        ("single-rotation", 20250803),   # its shrinking walk freezes
    ])
    def test_cold_steps_give_the_same_iterates(self, family, anchor, stepper):
        if family == "two-rotation":
            prob = make_problem(random_point_in_cap(POLE, RHO, anchor))
        else:
            prob = single_rotation_problem(anchor)
        warm = cold = initial_state(prob)
        for _ in range(200):
            warm = stepper(prob, warm)
            cold = stepper(prob, cold._replace(active_cuts=()))
            assert warm.x_n.coords.tobytes() == cold.x_n.coords.tobytes()
            assert warm.active_cuts == cold.active_cuts
        assert _without_sweeps(warm.trace) == _without_sweeps(cold.trace)
        if family == "single-rotation":
            assert (sum(rec.solver_sweeps for rec in warm.trace)
                    < sum(rec.solver_sweeps for rec in cold.trace))

    def test_shrinking_start_set(self, monkeypatch):
        """A shrinking projection starts from x_n's active cuts plus the
        fresh cut when that cut cuts x_n off, and from x_n's active cuts
        otherwise.  This walk freezes near step 50, after which x_n
        satisfies every fresh cut."""
        from sphereproj import iteration as it

        starts = []
        real_project = it.project

        def spy(region, x, start=()):
            starts.append((len(region.normals), tuple(start)))
            return real_project(region, x, start)

        monkeypatch.setattr(it, "project", spy)
        prob = single_rotation_problem(20250803)
        s = initial_state(prob)
        branches = set()
        for _ in range(80):
            prev = s
            a = make_cn(s.x_n, prob.family.apply(s.x_n))
            cut_off = a is not None and float(a.dot(s.x_n.coords)) < 0.0
            s = shrink_step(prob, s)
            m, start = starts[-1]
            assert start == (prev.active_cuts + (m - 1,) if cut_off else prev.active_cuts)
            branches.add(cut_off)
        assert branches == {True, False}


def test_step_path_projections_never_bind_the_cap(monkeypatch):
    """Every certified map fixes the pole, so the pole lies in every cut
    and the cut-cone projection of x1 is already in the cap (ROADMAP
    State): no step-path projection binds the cap.  Checked on every
    projection of 150 steps of the c05 and c06 walks under both methods
    (the stalled steps repeat without one)."""
    from sphereproj import iteration as it

    stats = []
    real_project = it.project

    def spy(region, x, start=()):
        z, st = real_project(region, x, start)
        stats.append(st)
        return z, st

    monkeypatch.setattr(it, "project", spy)
    for prob in (make_problem(random_point_in_cap(POLE, RHO, 20250801)),
                 single_rotation_problem(20250802)):
        for method in ("cq", "shrinking"):
            for state in iterate(prob, method):
                if state.n > 150:
                    break
    assert len(stats) >= 500
    assert all(st.cap_active is False for st in stats)


def _fields(state):
    """Every field of a state, in a form that compares bit for bit, but of
    the trace only its length and last record."""
    return (state.n, state.x_n.coords.tobytes(), state.y_n.coords.tobytes(),
            state.region.normals.tobytes(), state.region.witness.coords.tobytes(),
            len(state.trace), repr(state.trace[-1]), state.dist_x1_xn.hex(),
            [v.hex() for v in state.residuals], state.active_cuts, state.stalled)


class TestStalledStep:
    """A state whose step repeated its predecessor's is marked stalled, and
    the kernel steps it in O(1): the shortcut must give what the full
    kernel gives on the same state unmarked, field by field, bit for bit."""

    @pytest.mark.parametrize("anchor, stepper, first, budget", [
        (20250803, shrink_step, 53, 100),    # perfbench single-rotation shrinking walk
        (20250802, cq_step, 8668, 20),       # c06 CQ walk
    ])
    def test_shortcut_is_the_full_kernel(self, anchor, stepper, first, budget):
        prob = single_rotation_problem(anchor)
        s = initial_state(prob)
        while not s.stalled:
            prev, s = s, stepper(prob, s)
        assert s.n == first
        assert s.x_n.coords.tobytes() == prev.x_n.coords.tobytes()
        for _ in range(budget):
            fast, full = stepper(prob, s), stepper(prob, s._replace(stalled=False))
            assert fast.stalled and fast.n == s.n + 1
            assert _fields(fast) == _fields(full)
            assert fast.trace[:-1] == full.trace[:-1] == s.trace
            if stepper is shrink_step:
                assert fast.region is full.region is s.region
            s = fast

    def test_stalled_step_does_no_kernel_work(self, monkeypatch):
        from sphereproj import iteration as it

        prob = single_rotation_problem(20250803)
        s = initial_state(prob)
        while not s.stalled:
            s = shrink_step(prob, s)

        def forbidden(*args, **kwargs):
            raise AssertionError("a stalled step recomputed its state")

        for name in ("project", "intersect", "make_cn", "residuals", "distance"):
            monkeypatch.setattr(it, name, forbidden)
        after = shrink_step(prob, shrink_step(prob, s))
        assert after.n == s.n + 2 and after.x_n is s.x_n
        assert [rec.n for rec in after.trace[-3:]] == [s.n - 1, s.n, s.n + 1]

    @pytest.mark.parametrize("stepper", [cq_step, shrink_step])
    def test_moving_steps_are_not_stalled(self, stepper):
        prob = make_problem(random_point_in_cap(POLE, RHO, 20250801))
        s = initial_state(prob)
        for _ in range(100):
            s = stepper(prob, s)
            assert not s.stalled


class TestStopRule:
    def test_fields_positive(self):
        # NaN too: it fails every comparison, so it could never stop a run
        for bad in ({"eps_step": 0.0}, {"max_iter": 0}, {"eps_step": math.nan},
                    {"eps_residual": math.nan}):
            with pytest.raises(ValueError):
                StopRule(**bad)

    def test_reason(self):
        """The stop rule reads the last step length and the residuals at the
        new iterate (the state's, not the record's), then the budget."""
        rule = StopRule(1e-8, 1e-8, 3)
        region = initial_state(make_problem(POLE)).region

        def state(step_len, res, steps):
            rec = TraceRecord(steps, 0.0, step_len, (1.0,), 0, 0)
            return IterationState(steps + 1, POLE, POLE, region, (rec,) * steps,
                                  0.0, (res, 0.0))

        assert rule.reason(state(1e-9, 1e-9, 1)) is StopReason.CONVERGED
        assert rule.reason(state(1e-9, 1e-9, 3)) is StopReason.CONVERGED
        assert rule.reason(state(1e-7, 1e-9, 3)) is StopReason.ITERATION_CAP
        assert rule.reason(state(1e-9, 1e-7, 4)) is StopReason.ITERATION_CAP
        assert rule.reason(state(1e-7, 1e-9, 2)) is None
        assert rule.reason(state(1e-9, 1e-7, 2)) is None

    def test_stalled_after_converged_before_cap(self):
        rule = StopRule(1e-8, 1e-8, 3)
        region = initial_state(make_problem(POLE)).region

        def state(step_len, steps, stalled):
            rec = TraceRecord(steps, 0.0, step_len, (0.0,), 0, 0)
            return IterationState(steps + 1, POLE, POLE, region, (rec,) * steps,
                                  0.0, (0.0, 0.0), (), stalled)

        assert rule.reason(state(1e-9, 2, True)) is StopReason.CONVERGED
        assert rule.reason(state(2.1e-8, 2, True)) is StopReason.STALLED
        assert rule.reason(state(2.1e-8, 5, True)) is StopReason.STALLED
        assert rule.reason(state(2.1e-8, 5, False)) is StopReason.ITERATION_CAP
        assert rule.reason(state(2.1e-8, 2, False)) is None

    def test_reason_before_any_step(self):
        """The initial state has no record, so its step-length clause is
        unmet even at a common fixed point, and only the cap can stop it."""
        start = initial_state(make_problem(POLE))
        assert start.trace == () and max(start.residuals) == 0.0
        assert StopRule().reason(start) is None
        assert StopRule(1e-8, 1e-8, 1).reason(start._replace(n=2)) is StopReason.ITERATION_CAP


def wrong_fixed_set_problem(monkeypatch):
    """A problem whose claimed fixed point the mappings do not fix: a
    stand-in for `fixed_axes` claims span{e3}, which holds the pole e3, but
    the rotation of (e0, e3) by 1e-3 moves it, too little for the sampled
    cap check to see."""
    fake = np.array([False, False, False, True])
    monkeypatch.setattr("sphereproj.iteration.fixed_axes", lambda family, dim: fake)
    return Problem(4, POLE, RHO, MappingFamily([PlaneRotation(0, 3, 1e-3)]),
                   random_point_in_cap(POLE, RHO, 11))


class TestErrorSurfacing:
    def test_wrong_fixed_set_raises_feasibility_violated(self, monkeypatch):
        """A claimed fixed point that the mappings do not actually fix must
        fall outside some generated cut and abort the run, under both
        methods; the region's own witness check is what catches it."""
        from sphereproj.errors import FeasibilityViolated

        prob = wrong_fixed_set_problem(monkeypatch)
        for method in ("cq", "shrinking"):
            with pytest.raises(FeasibilityViolated) as info:
                run(prob, method, StopRule(1e-10, 1e-10, 50))
            margin = re.fullmatch(r"iteration \d+: witness violates a region constraint by (\S+)",
                                  str(info.value))
            assert margin and float(margin[1]) > 1e-6, str(info.value)

    def test_solver_failure_carries_iteration_index(self, monkeypatch):
        """Numerical errors escaping a step are annotated with the step."""
        from sphereproj import iteration as it
        from sphereproj.errors import NoConvergence

        calls = {"n": 0}
        real_project = it.project

        def flaky(region, x, *rest):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise NoConvergence("sweep budget exhausted")
            return real_project(region, x, *rest)

        monkeypatch.setattr(it, "project", flaky)
        x1 = random_point_in_cap(POLE, RHO, 12)
        prob = make_problem(x1)
        with pytest.raises(NoConvergence, match=r"^iteration 3:"):
            run(prob, "cq", StopRule(1e-10, 1e-10, 50))

    def test_iterate_ends_on_the_last_good_state(self, monkeypatch):
        """A step error ends the loop; the caller holds the state after the
        last completed step and the annotated error."""
        from sphereproj import iteration as it
        from sphereproj.errors import NoConvergence

        calls = {"n": 0}
        real_project = it.project

        def flaky(region, x, *rest):
            calls["n"] += 1
            if calls["n"] == 3:
                raise NoConvergence("sweep budget exhausted")
            return real_project(region, x, *rest)

        monkeypatch.setattr(it, "project", flaky)
        prob = make_problem(random_point_in_cap(POLE, RHO, 12))
        last = None
        with pytest.raises(NoConvergence) as info:
            for last in iterate(prob, "cq"):
                pass
        assert str(info.value).startswith("iteration 3:")
        assert last.n == 3 and len(last.trace) == 2

    @pytest.mark.parametrize("method", ["cq", "shrinking"])
    def test_fejer_violation_annotated_once(self, method, monkeypatch):
        """A projection that hands back the anchor x1 decreases d(x1, x_n):
        the step's audit raises, and `iterate` adds the index once."""
        from sphereproj import iteration as it
        from sphereproj.errors import MonotonicityViolated

        calls = {"n": 0}
        real_project = it.project

        def back_to_anchor(region, x, *rest):
            calls["n"] += 1
            z, stats = real_project(region, x, *rest)
            return (x if calls["n"] == 3 else z), stats

        monkeypatch.setattr(it, "project", back_to_anchor)
        prob = make_problem(random_point_in_cap(POLE, RHO, 12))
        with pytest.raises(MonotonicityViolated) as info:
            run(prob, method, StopRule(1e-12, 1e-12, 50))
        assert re.fullmatch(rf"iteration 3: d\(x1, x_n\) decreased by {MARGIN}", str(info.value))

    @pytest.mark.parametrize("method", ["cq", "shrinking"])
    def test_bound_violation_annotated_once(self, method, monkeypatch):
        """A projection that hands back x1 reflected through P_F x1 moves
        away from x1, so the Fejer check passes, but lands twice as far from
        x1 as P_F x1, which lies in every region: the bound audit raises,
        with the excess d(x1, P_F x1), and `iterate` adds the index once."""
        from sphereproj import iteration as it

        calls = {"n": 0}
        real_project = it.project

        def past_the_target(region, x, *rest):
            calls["n"] += 1
            z, stats = real_project(region, x, *rest)
            if calls["n"] == 3:
                t = prob.target.coords
                z = SpherePoint(2.0 * float(x.coords.dot(t)) * t - x.coords)
            return z, stats

        monkeypatch.setattr(it, "project", past_the_target)
        prob = make_problem(random_point_in_cap(POLE, RHO, 12))
        with pytest.raises(MonotonicityViolated) as info:
            run(prob, method, StopRule(1e-12, 1e-12, 50))
        m = re.fullmatch(rf"iteration 3: d\(x1, x_n\) passed d\(x1, P_F x1\) by ({MARGIN})",
                         str(info.value))
        assert m and float(m[1]) == pytest.approx(prob.dist_x1_target, rel=1e-3)

    def test_direct_step_callers_see_the_bare_message(self, monkeypatch):
        """Only `iterate` annotates: a step called directly raises the
        audit errors without an iteration index."""
        from sphereproj import iteration as it
        from sphereproj.errors import FeasibilityViolated, MonotonicityViolated

        prob = make_problem(random_point_in_cap(POLE, RHO, 12))
        s = cq_step(prob, initial_state(prob))
        monkeypatch.setattr(it, "project", lambda region, x, *rest: (x, None))
        with pytest.raises(MonotonicityViolated) as info:
            cq_step(prob, s)
        assert re.fullmatch(rf"d\(x1, x_n\) decreased by {MARGIN}", str(info.value))

        bad = wrong_fixed_set_problem(monkeypatch)
        monkeypatch.undo()  # the stepping below needs the real projection
        with pytest.raises(FeasibilityViolated) as info:
            s = initial_state(bad)
            for _ in range(50):
                s = shrink_step(bad, s)
        assert re.fullmatch(rf"witness violates a region constraint by {MARGIN}", str(info.value))


class TestFejerAudit:
    def test_single_record_passes(self):
        rec = TraceRecord(1, 0.0, 0.1, (0.1,), 1, 2)
        assert fejer_audit((rec,))

    def test_decreasing_trace_fails(self):
        a = TraceRecord(1, 0.2, 0.1, (0.1,), 1, 2)
        b = TraceRecord(2, 0.1, 0.1, (0.1,), 1, 2)
        assert not fejer_audit((a, b))

    def test_real_run_passes(self):
        x1 = random_point_in_cap(POLE, RHO, 11)
        prob = make_problem(x1)
        _, trace, _ = run(prob, "cq", StopRule(1e-10, 1e-10, 40))
        assert fejer_audit(trace)


# ROADMAP item 8's reproducers: on these well-posed inputs an audit fires on
# rounding, not on a real violation.  Each is a strict xfail, so the change
# that mends item 8 must turn them into passes.  Problems are built in the
# test, so that one that stops building fails its own case alone.
ITEM_8 = "ROADMAP item 8: an audit fires on rounding in a well-posed walk"

ITEM_8_REPRODUCERS = {
    "near-identity-cq": (
        lambda: Problem(
            3, basis_point(2, 3), 0.2807282173844884,
            MappingFamily([PlaneRotation(0, 1, 1.5142109095622761e-10)], [0.4712856772558896]),
            SpherePoint([0.2584618403012716, -0.09978571935965722, 0.9608539365168651])),
        "cq", MonotonicityViolated),
    "rotation-and-identity-cq": (
        lambda: Problem(
            4, SpherePoint([0.0, 0.9854797016142218, 0.0, -0.16979327933208713]),
            0.2779182093605484,
            MappingFamily([PlaneRotation(0, 2, 4.8520539095302036e-08), Identity()],
                          [0.12019456686327828, 0.19081985755986028]),
            SpherePoint([-0.2445259535985366, 0.9687881176405728,
                         -0.0012494239708561409, -0.040682675365603986])),
        "cq", FeasibilityViolated),
    "widest-cap-shrinking": (
        lambda: Problem(
            7, SpherePoint([0.3967665712948906, -0.2596631129742377, 0.0, 0.0,
                            0.46250096085319325, 0.7491623434698902, 0.0]),
            math.pi / 4 - 1e-12,
            MappingFamily([PlaneRotation(2, 3, -2.869557682193364)], [0.6160151588870203]),
            SpherePoint([0.40073815096034815, -0.25714110477778435, 0.027111355022162477,
                         0.032898957566990766, 0.436360936917224, 0.7621657670018783,
                         -0.01274739038275403])),
        "shrinking", FeasibilityViolated),
}


@pytest.mark.parametrize("build, method", [
    pytest.param(build, method, id=name,
                 marks=pytest.mark.xfail(strict=True, raises=error, reason=ITEM_8))
    for name, (build, method, error) in ITEM_8_REPRODUCERS.items()
])
def test_item_8_reproducer_steps_without_an_audit_error(build, method):
    """Stepped through `iterate`, which goes on past a converged state:
    the walk raises at iteration 4 (both CQ cases) or 40 (shrinking)."""
    states = iterate(build(), method)
    for _ in range(100):
        state = next(states)
    assert fejer_audit(state.trace)


def fuzz_problem(seed):
    """ROADMAP item 8's fuzz generator: a seeded random closed-zoo problem.

    d is 3 to 8.  The pole is a random vector on a random subset of the
    axes (one axis 30 % of the time), leaving at least two axes free; one
    to three rotations act in planes of the free axes, by an angle
    log-uniform in [1e-12, 1e-2] (25 %), pi (10 %) or uniform in (-pi, pi),
    and an Identity member joins 20 % of the time.  Each stage weight is
    uniform in (0.01, 0.99); r is pi/4 - 1e-12 (20 %) or uniform in
    (0.01, pi/4); x1 lies on the cap boundary (40 %) or is
    `random_point_in_cap(pole, r, seed)`."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 9))
    k = 1 if dim == 3 or rng.random() < 0.3 else int(rng.integers(2, dim - 1))
    axes = rng.permutation(dim)
    on, free = axes[:k], axes[k:]
    coords = np.zeros(dim)
    coords[on] = rng.standard_normal(k)
    pole = SpherePoint(coords)
    maps = []
    for _ in range(int(rng.integers(1, 4))):
        i, j = sorted(int(a) for a in rng.choice(free, 2, replace=False))
        u = rng.random()
        if u < 0.25:
            angle = float(rng.choice((-1.0, 1.0))) * 10 ** rng.uniform(-12, -2)
        elif u < 0.35:
            angle = math.pi
        else:
            angle = rng.uniform(-math.pi, math.pi)
        maps.append(PlaneRotation(i, j, angle))
    if rng.random() < 0.2:
        maps.append(Identity())
    alphas = rng.uniform(0.01, 0.99, len(maps))
    radius = math.pi / 4 - 1e-12 if rng.random() < 0.2 else float(rng.uniform(0.01, math.pi / 4))
    if rng.random() < 0.4:
        g = rng.standard_normal(dim)
        g -= g.dot(pole.coords) * pole.coords
        x1 = SpherePoint(math.cos(radius) * pole.coords + math.sin(radius) * g / np.linalg.norm(g))
    else:
        x1 = random_point_in_cap(pole, radius, seed)
    return Problem(dim, pole, radius, MappingFamily(maps, alphas), x1)


def test_fuzz_panel_steps_or_reports_a_rounding_margin():
    """Robustness of the whole step path on 150 fuzzed problems, 40 steps
    per method: a walk takes its steps (a stalled one included) or raises
    an audit error whose reported margin is rounding-sized, at most 1e-6;
    any other error fails.  Real violations are larger: the wrong fixed
    set above reports 1.08e-5.  With ROADMAP item 8 mended the audits stop
    raising here, and the test still passes.  Every state reached keeps
    the paper's bound d(x1, x_n) <= d(x1, P_F x1), since P_F x1 lies in
    every region, on every seed."""
    for seed in range(150):
        problem = fuzz_problem(seed)
        bound = distance(problem.x1, problem.target) + 1e-10
        for method in ("cq", "shrinking"):
            states = iterate(problem, method)
            try:
                for _ in range(40):
                    state = next(states)
                    assert state.dist_x1_xn <= bound, \
                        f"seed {seed}, {method}: d(x1, x_{state.n}) past d(x1, P_F x1)"
            except (FeasibilityViolated, MonotonicityViolated) as e:
                margin = re.search(r" by (\S+)$", str(e))
                assert margin and float(margin[1]) <= 1e-6, f"seed {seed}, {method}: {e}"


@pytest.mark.parametrize("method", ["cq", "shrinking"])
def test_item_6_fuzz_seed_66_keeps_the_bound(method):
    """`fuzz_problem(66)`: its one map, `PlaneRotation(2, 6, 2.68e-11)`,
    moves x1 by 1.25e-12, just above DEGENERATE_TOL, so the first fresh
    cut's direction is rounding and the walk moves 3.65e-8 from x1.  The
    map moves axes 2 and 6, so F leaves them out and P_F x1 lies 4.64e-2
    from x1, in every region: the walk keeps the paper's bound.  (With F
    decided by a tolerance, F was every axis, P_F x1 = x1 and the walk
    broke the bound by 3.65e-8 from step 1 on.)"""
    problem = fuzz_problem(66)
    bound = distance(problem.x1, problem.target) + 1e-10
    states = iterate(problem, method)
    for _ in range(40):
        state = next(states)
        assert state.dist_x1_xn <= bound, f"d(x1, x_{state.n}) past d(x1, P_F x1)"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: the arccos metric reads a 2.04e-8 residual as 0.0")
@pytest.mark.parametrize("method", ["cq", "shrinking"])
def test_item_6_no_false_converged_at_the_arccos_floor(method):
    """`fuzz_problem(35)`: the map moves x1 by 2.04e-8, more than
    eps_residual = 1e-8, but <T x1, x1> rounds to 1.0, so the residual reads
    0.0, no cut is made and both methods stop CONVERGED after one record,
    0.640 from P_F x1.  Item 6's accurate distance must flip this."""
    problem = fuzz_problem(35)
    x, _, reason = run(problem, method)
    assert reason is not StopReason.CONVERGED or distance(x, problem.target) <= 1e-5, \
        f"{method} stopped CONVERGED {distance(x, problem.target):.4f} from P_F x1"


def test_step_path_runs_no_numpy_reduction_wrapper():
    """`ndarray.min`, `sum`, `all` and `any` run through a Python wrapper in
    numpy's `_methods.py`, which costs 1-2 us on a 2-element array; the
    step path takes its minima by `argmin` and its sums by `np.add.reduce`
    instead.  20 CQ and 20 shrinking steps of the c05 problem run no frame
    of that module."""
    prob = make_problem(random_point_in_cap(POLE, RHO, 20250801))
    wrapper = re.compile(r"numpy[/\\]_?core[/\\]_methods\.py$")
    seen = []

    def profile(frame, event, arg):
        if event == "call" and wrapper.search(frame.f_code.co_filename):
            seen.append(frame.f_code.co_name)

    for stepper in (cq_step, shrink_step):
        state = initial_state(prob)
        saved = sys.getprofile()
        sys.setprofile(profile)
        try:
            for _ in range(20):
                state = stepper(prob, state)
        finally:
            sys.setprofile(saved)
        assert state.n == 21
    assert seen == []


# The theorem panel (ROADMAP item 12): the fuzz seeds below whose rotations
# all turn by at least THEOREM_MIN_ANGLE and whose W-map moves x1 by at
# least THEOREM_MIN_PULL times d(x1, P_F x1), each walked for the budgets.
THEOREM_SEEDS = range(40)
THEOREM_MIN_ANGLE = 0.05
THEOREM_MIN_PULL = 0.1
THEOREM_BUDGETS = {"cq": StopRule(max_iter=30), "shrinking": StopRule(max_iter=300)}


def test_theorem_panel_keeps_the_bound_and_reaches_the_projection():
    """The paper's theorem on random problems: every state keeps the
    proof's bound d(x1, x_n) <= d(x1, P_F x1) + 1e-10 (P_F x1 lies in every
    region), and every shrinking walk that stops STALLED or CONVERGED ends
    within 1e-5 of P_F x1.  CQ's rate is too slow for its limit within a
    test's time, so its walks check the bound alone, and a walk stopped by
    its budget is not asked for the limit.

    The panel is fixed by a rule on each problem before any walk runs.  It
    excludes two classes: near-identity families, with a rotation by less
    than 0.05 (item 6's rounding cuts and false CONVERGED; seed 35 keeps
    its strict xfail), and families whose W-map nearly cancels,
    moving x1 by less than a tenth of its distance to P_F x1, which
    converge too slowly for the budget (seed 14 is still 6.7e-2 away at
    n = 3000).  Until ROADMAP item 8 lands, an audit raise with a margin of
    at most 1e-6 counts as its rounding, as in the fuzz panel."""
    limits = 0
    for seed in THEOREM_SEEDS:
        problem = fuzz_problem(seed)
        to_target = distance(problem.x1, problem.target)
        if (any(isinstance(m, PlaneRotation) and abs(m.angle) < THEOREM_MIN_ANGLE
                for m in problem.family.maps)
                or distance(problem.family.apply(problem.x1), problem.x1)
                < THEOREM_MIN_PULL * to_target):
            continue
        for method, stop in THEOREM_BUDGETS.items():
            try:
                for state in iterate(problem, method):
                    assert state.dist_x1_xn <= to_target + 1e-10, \
                        f"seed {seed}, {method}: d(x1, x_{state.n}) past d(x1, P_F x1)"
                    if (reason := stop.reason(state)) is not None:
                        break
            except (FeasibilityViolated, MonotonicityViolated) as e:
                margin = re.search(r" by (\S+)$", str(e))
                assert margin and float(margin[1]) <= 1e-6, f"seed {seed}, {method}: {e}"
                continue
            if method == "shrinking" and reason is not StopReason.ITERATION_CAP:
                limits += 1
                assert distance(state.x_n, problem.target) <= 1e-5, \
                    f"seed {seed}: shrinking stopped {reason.name} away from P_F x1"
    assert limits >= 8
