"""Tests for the mapping zoo and staged geodesic averaging."""

import math
import tracemalloc

import numpy as np
import pytest

from sphereproj.geometry import (
    SpherePoint,
    basis_point,
    distance,
    geodesic_combine,
    sample_cap,
)
from sphereproj.iteration import Problem
from sphereproj.mappings import (
    NULLSPACE_TOL,
    Identity,
    MappingFamily,
    PlaneRotation,
    WMapping,
    fixed_axes,
    residuals,
)


def e(i, dim=4):
    return basis_point(i, dim)


class Uncertified:
    """A map with apply, outside the zoo."""

    def apply(self, x):
        return x


class MarkedLinear(Uncertified):
    """A map outside the zoo that carries the old is_linear marker."""

    is_linear = True


class TestApplyMap:
    def test_identity(self):
        x = e(2)
        assert Identity().apply(x) is x

    def test_quarter_turn(self):
        img = PlaneRotation(0, 1, math.pi / 2).apply(e(0))
        np.testing.assert_allclose(img.coords, e(1).coords, atol=1e-15)

    def test_off_plane_coordinates_fixed(self):
        img = PlaneRotation(0, 1, 1.234).apply(e(3))
        np.testing.assert_allclose(img.coords, e(3).coords, atol=0)

    def test_rotation_angle_range(self):
        with pytest.raises(ValueError):
            PlaneRotation(0, 1, 3.5)

    def test_rotation_axes_must_be_ordered(self):
        """The README quotes this message, prefixed by the CLI's field."""
        for i, j in ((1, 1), (2, 1), (-1, 2)):
            with pytest.raises(ValueError, match=r"^need 0 <= axis_i < axis_j$"):
                PlaneRotation(i, j, 0.3)

    def test_rotation_axes_are_integers(self):
        """A float axis raises when the rotation is built; numpy integers
        and bools become int and rotate as the plain ints would."""
        for bad in ((0, 1.5), (0.0, 2)):
            with pytest.raises(TypeError):
                PlaneRotation(*bad, 0.3)
        for i, j in ((np.int64(1), np.int32(2)), (True, 2)):
            t = PlaneRotation(i, j, 0.3)
            assert type(t.axis_i) is int and type(t.axis_j) is int
            x = SpherePoint([0.1, 0.2, 0.3, 0.4])
            assert t.apply(x).coords.tobytes() == \
                PlaneRotation(1, 2, 0.3).apply(x).coords.tobytes()

    def test_isometry_random_pairs(self):
        """Rotations preserve the metric exactly, hence are nonexpansive."""
        rng = np.random.default_rng(21)
        maps = [PlaneRotation(0, 1, 0.8),
                PlaneRotation(1, 3, -2.0)]
        for T in maps:
            for _ in range(300):
                x = SpherePoint(rng.standard_normal(4))
                y = SpherePoint(rng.standard_normal(4))
                assert distance(T.apply(x), T.apply(y)) == pytest.approx(
                    distance(x, y), abs=1e-12)


class TestOneStageQuasinonexpansive:
    def test_averaged_map_contracts_toward_fixed_points(self):
        """x -> alpha*Tx (+) (1-alpha)*x never moves away from a fixed point."""
        rng = np.random.default_rng(22)
        T = PlaneRotation(0, 1, 0.8)
        p = e(3)  # fixed by T
        for _ in range(1000):
            x = SpherePoint(sample_cap(p.coords, 1.2, 1, rng)[0])
            a = float(rng.uniform(0.05, 0.95))
            y = geodesic_combine(a, T.apply(x), x)
            assert distance(y, p) <= distance(x, p) + 1e-10


class TestFixedSetBasis:
    def test_plane_rotation_complement(self):
        mask = fixed_axes(MappingFamily([PlaneRotation(0, 1, 0.7)]), 4)
        # span must be exactly coords 2 and 3
        assert mask.dtype == bool and mask.tolist() == [False, False, True, True]

    def test_identity_full_basis(self):
        assert fixed_axes(MappingFamily([Identity()]), 4).all()

    def test_zero_angle_rotation_full_basis(self):
        assert fixed_axes(MappingFamily([PlaneRotation(0, 1, 0.0)]), 4).all()

    def test_fixed_axes_pair(self):
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])
        assert fixed_axes(fam, 4).tolist() == [False, False, False, True]

    def test_agrees_with_svd_null_space(self):
        """Seeded families of 1 to 3 zoo members in d = 4..8, with angles
        of every size and on both sides of the cut: the projector onto the
        masked axes is the projector onto the SVD null space of the stacked
        T - I, each T - I read from apply on the axes, and every masked
        axis is fixed by every map."""
        rng = np.random.default_rng(27)

        def angle():
            kind = int(rng.integers(4))
            if kind == 0:
                return float(rng.uniform(-math.pi, math.pi))
            if kind == 1:
                return 0.0
            sign = float(rng.choice([-1.0, 1.0]))
            if kind == 2:  # at most a quarter of the cut: still
                return sign * 10 ** float(rng.uniform(-12.0, -10.6))
            return sign * 10 ** float(rng.uniform(-9.4, -8.0))  # over twice the cut: moved

        def draw(dim):
            if rng.integers(5) == 0:
                return Identity()
            i, j = sorted(rng.choice(dim, 2, replace=False).tolist())
            return PlaneRotation(i, j, angle())

        for _ in range(200):
            dim = int(rng.integers(4, 9))
            maps = [draw(dim) for _ in range(int(rng.integers(1, 4)))]
            b = np.eye(dim)[:, fixed_axes(MappingFamily(maps), dim)]
            axes = [e(j, dim) for j in range(dim)]
            stacked = np.vstack([np.array([T.apply(a).coords - a.coords for a in axes]).T
                                 for T in maps])
            _, sv, vt = np.linalg.svd(stacked)
            null = vt[int((sv > NULLSPACE_TOL).sum()):].T
            np.testing.assert_allclose(b @ b.T, null @ null.T, rtol=0, atol=1e-12)
            for T in maps:
                for col in b.T:
                    # a still axis moves by at most the cut
                    np.testing.assert_allclose(T.apply(SpherePoint(col)).coords, col,
                                               rtol=0, atol=NULLSPACE_TOL)
            with pytest.raises(ValueError):
                fixed_axes(MappingFamily(maps + [PlaneRotation(1, dim, 0.3)]), dim)

    def test_sub_threshold_rotation_counts_as_still(self):
        """An axis is still when no map moves it by more than the cut,
        NULLSPACE_TOL times the largest move (at least 1)."""
        def still(*maps):
            return np.flatnonzero(fixed_axes(MappingFamily(maps), 4)).tolist()

        assert still(PlaneRotation(0, 1, 1e-12), PlaneRotation(0, 2, 0.5)) == [1, 3]
        # a move of 1.5e-10 is past the bare cut of 1e-10 ...
        assert still(PlaneRotation(0, 1, 1.5e-10)) == [2, 3]
        # ... but within it beside a move of 2 sin(1.25) = 1.90
        assert still(PlaneRotation(0, 1, 1.5e-10), PlaneRotation(2, 3, 2.5)) == [0, 1]

    def test_marked_linear_class_rejected(self):
        """The zoo is closed: a class of one's own with apply and the old
        is_linear marker does not join a family."""
        with pytest.raises(ValueError, match="not a certified isometry"):
            MappingFamily([PlaneRotation(0, 1, 0.8), MarkedLinear()])

    def test_memory_at_high_dimension(self):
        """The two-rotation family at d = 1024: one move per axis is held and
        the answer is a mask of the axes, so the peak is tens of KB (44 KB
        measured); a d x (d - 3) array for F would break the 1 MB bound.  The
        mask is read-only: a Problem hands out the one it checked."""
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])
        tracemalloc.start()
        try:
            mask = fixed_axes(fam, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.flatnonzero(~mask).tolist() == [0, 1, 2]
        assert peak <= 1e6, f"peak {peak / 1e6:.2f} MB"
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0] = True

    def test_nearest_fixed_point(self):
        """Problem.target is P_F x1: the fixed set of a (0, 1) rotation is
        span{e2, e3}, so it drops x1's e0 coordinate and renormalizes."""
        x = SpherePoint([0.6, 0.0, 0.8, 0.0])
        prob = Problem(4, e(2), 0.7, MappingFamily([PlaneRotation(0, 1, 0.7)]), x)
        np.testing.assert_array_equal(prob.target.coords, [0, 0, 1, 0])


class TestMappingFamily:
    def test_needs_at_least_one_map(self):
        with pytest.raises(ValueError):
            MappingFamily([])

    def test_default_alphas(self):
        fam = MappingFamily([Identity(), Identity()])
        assert fam.alphas == (0.5, 0.5)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            MappingFamily([Identity()], alphas=[1.0])

    def test_member_outside_zoo_rejected(self):
        """A member outside the closed zoo is rejected, and there is no
        opt-out: `allow_experimental` is not a parameter."""
        with pytest.raises(ValueError, match="not a certified isometry"):
            MappingFamily([Identity(), Uncertified()])
        with pytest.raises(TypeError):
            MappingFamily([Uncertified()], allow_experimental=True)

    def test_cap_preservation_check(self):
        fam = MappingFamily([PlaneRotation(0, 1, 0.8)])
        fam.check_preserves_cap(e(3), math.pi / 5)  # pole fixed: passes
        with pytest.raises(ValueError):
            fam.check_preserves_cap(e(0), math.pi / 5)  # pole rotated away


class TestWMapping:
    def test_common_fixed_point_is_fixed(self):
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])
        w = WMapping(fam)
        img = w.apply(e(3))
        assert distance(img, e(3)) <= 1e-12

    def test_single_stage_midpoint(self):
        fam = MappingFamily([PlaneRotation(0, 1, math.pi / 2)], alphas=[0.5])
        img = WMapping(fam).apply(e(0))
        s = math.sqrt(2) / 2
        np.testing.assert_allclose(img.coords, [s, s, 0, 0], atol=1e-15)

    def test_two_stage_hand_unrolled(self):
        """The staged recursion matches an independent unrolling, and the
        second combination argument is the original point at every stage.
        The unequal row tells alpha_k from 1 - alpha_k."""
        t1 = PlaneRotation(0, 1, 0.8)
        t2 = PlaneRotation(0, 2, 0.5)
        rng = np.random.default_rng(23)
        for a1, a2 in ((0.5, 0.5), (0.3, 0.8)):
            w = WMapping(MappingFamily([t1, t2], alphas=[a1, a2]))
            for _ in range(50):
                x = SpherePoint(sample_cap(e(3).coords, math.pi / 5, 1, rng)[0])
                u1 = geodesic_combine(a1, t1.apply(x), x)
                u2 = geodesic_combine(a2, t2.apply(u1), x)
                # apply, with or without T_i x given, is u2 bit for bit
                assert w.apply(x).coords.tobytes() == u2.coords.tobytes()
                assert w.apply(x, images=(t1.apply(x), t2.apply(x))).coords.tobytes() == \
                    u2.coords.tobytes()

    def test_images_keyword_only(self):
        """A positional second argument (the old iteration index) is refused,
        not taken for the images."""
        w = WMapping(MappingFamily([PlaneRotation(0, 1, 0.8)]))
        with pytest.raises(TypeError):
            w.apply(e(0), 1)

    def test_fixed_points_are_exactly_common_fixed_points(self):
        """Points fixed by the staged average are the family's common fixed
        points: common ones do not move, every other cap point does."""
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])
        w = WMapping(fam)
        assert distance(w.apply(e(3)), e(3)) <= 1e-10
        rng = np.random.default_rng(24)
        pts = sample_cap(e(3).coords, math.pi / 5, 1000, rng)
        for row in pts:
            x = SpherePoint(row)
            if distance(x, e(3)) < 1e-6:
                continue
            assert distance(w.apply(x), x) > 1e-8

    def test_cap_preserved_by_w(self):
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])
        w = WMapping(fam)
        rng = np.random.default_rng(25)
        for row in sample_cap(e(3).coords, math.pi / 5, 300, rng):
            x = SpherePoint(row)
            assert distance(w.apply(x), e(3)) <= math.pi / 5 + 1e-12


class TestResiduals:
    def test_zero_at_common_fixed_point(self):
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])
        np.testing.assert_allclose(residuals(fam, e(3)), [0.0, 0.0], atol=1e-15)

    def test_rotation_moves_plane_point_by_angle(self):
        for theta in (0.1, 1.0, math.pi / 2, math.pi):
            fam = MappingFamily([PlaneRotation(0, 1, theta)])
            assert residuals(fam, e(0))[0] == pytest.approx(theta, abs=1e-12)

    def test_permutation_equivariance(self):
        t1, t2 = PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)
        rng = np.random.default_rng(26)
        x = SpherePoint(rng.standard_normal(4))
        r12 = residuals(MappingFamily([t1, t2]), x)
        r21 = residuals(MappingFamily([t2, t1]), x)
        np.testing.assert_allclose(r12, r21[::-1])
