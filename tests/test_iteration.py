"""Tests for the CQ and shrinking iteration drivers."""

import math

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
from sphereproj.mappings import (
    MappingFamily,
    PlaneRotation,
    residuals,
)
from sphereproj.oracle import circle_project
from sphereproj.regions import Region, contains, make_cn

POLE = basis_point(3, 4)
RHO = math.pi / 5


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
        assert np.array_equal(prob.known_fixed_set, np.eye(dim)[:, 3:])
        for stepper in (cq_step, shrink_step):
            s = initial_state(prob)
            for _ in range(10):
                s = stepper(prob, s)
            assert s.n == 11


class TestProblemValidation:
    def test_x1_outside_cap_rejected(self):
        with pytest.raises(ValueError):
            make_problem(basis_point(0, 4))

    def test_cap_radius_range(self):
        with pytest.raises(ValueError):
            Problem(4, POLE, math.pi / 3, two_rotation_family(), POLE)

    def test_family_must_preserve_cap(self):
        with pytest.raises(ValueError):
            Problem(4, basis_point(0, 4), RHO, two_rotation_family(), basis_point(0, 4))

    def test_auto_fixed_set_for_linear_family(self):
        p = make_problem(POLE)
        assert p.known_fixed_set is not None
        assert p.known_fixed_set.shape == (4, 1)
        np.testing.assert_allclose(p.fixed_rep.coords, POLE.coords, atol=1e-12)

    def test_explicit_fixed_set_must_meet_cap(self):
        basis = np.zeros((4, 1))
        basis[0, 0] = 1.0  # span{e0}: orthogonal to the cap pole
        fam = MappingFamily([PlaneRotation(0, 1, 0.0)])  # identity rotation
        with pytest.raises(ValueError):
            Problem(4, POLE, RHO, fam, POLE, known_fixed_set=basis)

    def test_explicit_fixed_set_must_be_finite(self):
        """A NaN would make the fixed point NaN, and a NaN witness would
        switch the containment audit off."""
        fake = np.zeros((4, 1))
        fake[0, 0], fake[1, 0], fake[3, 0] = 0.3, math.nan, 1.0
        fam = MappingFamily([PlaneRotation(0, 1, 0.8)])
        with pytest.raises(ValueError, match="finite"):
            Problem(4, POLE, RHO, fam, POLE, known_fixed_set=fake)

    def test_explicit_fixed_set_must_be_two_dimensional(self):
        fam = MappingFamily([PlaneRotation(0, 1, 0.8)])
        with pytest.raises(ValueError, match="array"):
            Problem(4, POLE, RHO, fam, POLE, known_fixed_set=POLE.coords)

    def test_explicit_fixed_set_must_be_orthonormal(self):
        """The right span with non-orthonormal columns would give a wrong
        nearest fixed point."""
        pole = SpherePoint([0.0, 0.0, 1.0, 1.0])
        fam = MappingFamily([PlaneRotation(0, 1, 0.8)])
        basis = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="orthonormal"):
            Problem(4, pole, RHO, fam, pole, known_fixed_set=basis)
        p = Problem(4, pole, RHO, fam, pole, known_fixed_set=np.eye(4)[:, 2:])
        np.testing.assert_allclose(p.fixed_rep.coords, pole.coords, atol=1e-15)

    def test_none_fixed_set_is_the_default(self):
        """known_fixed_set=None derives the same basis and fixed point as
        leaving it out, bit for bit."""
        x1 = random_point_in_cap(POLE, RHO, 3)
        default = make_problem(x1)
        derived = Problem(4, POLE, RHO, two_rotation_family(), x1, known_fixed_set=None)
        assert derived.known_fixed_set.tobytes() == default.known_fixed_set.tobytes()
        assert derived.known_fixed_set.shape == default.known_fixed_set.shape
        assert derived.fixed_rep.coords.tobytes() == default.fixed_rep.coords.tobytes()


class TestInitialState:
    def test_region_is_the_problem_cap_region(self):
        p = make_problem(random_point_in_cap(POLE, RHO, 3))
        s = initial_state(p)
        assert s.region is p.cap_region
        assert s.region.witness is p.fixed_rep
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
                assert contains(s.region, prob.fixed_rep, 1e-8)

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
        target = circle_project(x1, (2, 3))
        assert distance(x, target) <= 5e-3
        assert fejer_audit(trace)

    def test_scheduled_weights_drive_the_run(self):
        """An iteration-dependent weight row flows through every step."""
        rows = []

        def schedule(n):
            row = [0.5 + 0.2 * math.sin(n)]
            rows.append(n)
            return row

        fam = MappingFamily([PlaneRotation(0, 1, math.pi)], schedule=schedule)
        x1 = random_point_in_cap(POLE, RHO, 13)
        prob = make_problem(x1, fam)
        _, trace, reason = run(prob, "cq", StopRule(1e-3, 1e-3, 50))
        assert reason is StopReason.CONVERGED
        assert fejer_audit(trace)
        assert rows[: len(trace)] == list(range(1, len(trace) + 1))


class TestCachedFields:
    """The state carries d(x1, x_n) and the residuals at x_n, so that each
    is computed once per iterate; the records must not notice."""

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

    @pytest.mark.parametrize("stepper", [cq_step, shrink_step])
    def test_state_without_cached_fields_steps_the_same(self, stepper):
        """A bare state recomputes d(x1, x_n) and the residuals and starts
        its projection cold: the same iterate and record, bar solver effort."""
        prob = make_problem(random_point_in_cap(POLE, RHO, 16))
        s = stepper(prob, stepper(prob, initial_state(prob)))
        bare = IterationState(s.n, s.x_n, s.y_n, s.region, s.trace)
        a, b = stepper(prob, s), stepper(prob, bare)
        assert a.x_n.coords.tobytes() == b.x_n.coords.tobytes()
        assert _without_sweeps(a.trace) == _without_sweeps(b.trace)
        assert a.trace[-1].solver_sweeps <= b.trace[-1].solver_sweeps

    @pytest.mark.parametrize("stepper", [cq_step, shrink_step])
    def test_carried_images_are_the_maps_applied(self, stepper):
        """The images the state carries are T_i x_n, byte for byte."""
        prob = make_problem(random_point_in_cap(POLE, RHO, 17))
        s = initial_state(prob)
        for _ in range(6):
            assert [img.coords.tobytes() for img in s.images] == \
                [T.apply(s.x_n).coords.tobytes() for T in prob.family.maps]
            s = stepper(prob, s)

    @pytest.mark.parametrize("stepper", [cq_step, shrink_step])
    def test_positional_five_field_state_steps_to_the_same_bytes(self, stepper):
        """A state built from its first five fields alone, as outside
        callers build one, steps to the same iterate and record bytes."""
        prob = make_problem(random_point_in_cap(POLE, RHO, 18))
        s = stepper(prob, stepper(prob, initial_state(prob)))
        bare = IterationState(s.n, s.x_n, s.y_n, s.region, s.trace)
        assert bare.images is None
        a, b = stepper(prob, s), stepper(prob, bare)
        assert a.x_n.coords.tobytes() == b.x_n.coords.tobytes()
        assert a.y_n.coords.tobytes() == b.y_n.coords.tobytes()
        assert repr(_without_sweeps(a.trace)) == repr(_without_sweeps(b.trace))
        assert [img.coords.tobytes() for img in a.images] == \
            [img.coords.tobytes() for img in b.images]


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
    may only save solver sweeps: stepping from a bare state, which starts
    every projection cold, must give the same iterates bit for bit."""

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
            cold = stepper(prob, IterationState(cold.n, cold.x_n, cold.y_n,
                                                cold.region, cold.trace))
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
            a = make_cn(s.x_n, prob._w.apply(s.x_n, s.n))
            cut_off = a is not None and float(a.dot(s.x_n.coords)) < 0.0
            s = shrink_step(prob, s)
            m, start = starts[-1]
            assert start == (prev.active_cuts + (m - 1,) if cut_off else prev.active_cuts)
            branches.add(cut_off)
        assert branches == {True, False}


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
                                  0.0, np.array([res, 0.0]))

        assert rule.reason(state(1e-9, 1e-9, 1)) is StopReason.CONVERGED
        assert rule.reason(state(1e-9, 1e-9, 3)) is StopReason.CONVERGED
        assert rule.reason(state(1e-7, 1e-9, 3)) is StopReason.ITERATION_CAP
        assert rule.reason(state(1e-9, 1e-7, 4)) is StopReason.ITERATION_CAP
        assert rule.reason(state(1e-7, 1e-9, 2)) is None
        assert rule.reason(state(1e-9, 1e-7, 2)) is None


class TestErrorSurfacing:
    def test_wrong_fixed_set_raises_feasibility_violated(self):
        """A claimed fixed point that the mappings do not actually fix must
        fall outside some generated cut and abort the run, under both
        methods; the region's own witness check is what catches it."""
        from sphereproj.errors import FeasibilityViolated

        fam = MappingFamily([PlaneRotation(0, 1, 0.8)])
        x1 = random_point_in_cap(POLE, RHO, 11)
        fake = np.zeros((4, 1))
        fake[0, 0] = 0.3
        fake[3, 0] = 1.0
        fake /= np.linalg.norm(fake)
        prob = Problem(4, POLE, RHO, fam, x1, known_fixed_set=fake)
        for method in ("cq", "shrinking"):
            with pytest.raises(FeasibilityViolated, match=r"^iteration \d+:"):
                run(prob, method, StopRule(1e-10, 1e-10, 50))

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
