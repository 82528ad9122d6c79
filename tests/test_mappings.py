"""Tests for the mapping zoo and staged geodesic averaging."""

import math
import tracemalloc
from fractions import Fraction

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
    Identity,
    MappingFamily,
    PlaneRotation,
    fixed_axes,
    residuals,
)


def e(i, dim=4):
    return basis_point(i, dim)


def exact_rank(a):
    """Rank of a float matrix in exact rational arithmetic: Gaussian
    elimination on its entries as Fractions, so no tolerance decides it."""
    rows = [[Fraction(float(v)) for v in row] for row in a]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [v - f * p for v, p in zip(rows[r], rows[rank])]
        rank += 1
    return rank


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

    def test_agrees_with_an_exact_rank_test(self):
        """Seeded families of 1 to 3 zoo members in d = 4..8, with angles
        of every size down to the smallest subnormal: the masked axes span
        the null space of the stacked T - I, each T - I read from apply on
        the axes, in exact rational arithmetic.  Every masked axis is left
        exactly in place by every map, so their span lies in the null
        space, and the stacked matrix has exact rank d minus their count,
        so the null space is no larger."""
        rng = np.random.default_rng(27)

        def angle():
            kind = int(rng.integers(4))
            if kind == 0:
                return float(rng.uniform(-math.pi, math.pi))
            if kind == 1:
                return 0.0
            sign = float(rng.choice([-1.0, 1.0]))
            if kind == 2:  # far below any rounding tolerance: still a move
                return sign * 10 ** float(rng.uniform(-320.0, -10.0))
            return sign * 10 ** float(rng.uniform(-10.0, -8.0))

        def draw(dim):
            if rng.integers(5) == 0:
                return Identity()
            i, j = sorted(rng.choice(dim, 2, replace=False).tolist())
            return PlaneRotation(i, j, angle())

        for _ in range(200):
            dim = int(rng.integers(4, 9))
            maps = [draw(dim) for _ in range(int(rng.integers(1, 4)))]
            mask = fixed_axes(MappingFamily(maps), dim)
            axes = [e(j, dim) for j in range(dim)]
            stacked = np.vstack([np.array([T.apply(a).coords - a.coords for a in axes]).T
                                 for T in maps])
            assert not stacked[:, mask].any()
            assert exact_rank(stacked) == dim - int(mask.sum())
            for T in maps:
                for j in np.flatnonzero(mask):
                    np.testing.assert_array_equal(T.apply(axes[j]).coords, axes[j].coords)
            with pytest.raises(ValueError):
                fixed_axes(MappingFamily(maps + [PlaneRotation(1, dim, 0.3)]), dim)

    def test_tiny_rotation_moves_both_axes_of_its_plane(self):
        """An axis is fixed only when apply leaves it exactly in place: a
        rotation by 1e-12, or by the smallest subnormal, moves both axes of
        its plane, whatever else the family moves, and only a zero angle
        of either sign moves none."""
        def still(*maps):
            return np.flatnonzero(fixed_axes(MappingFamily(maps), 4)).tolist()

        assert still(PlaneRotation(0, 1, 1e-12)) == [2, 3]
        assert still(PlaneRotation(0, 1, 1e-12), PlaneRotation(0, 2, 0.5)) == [3]
        assert still(PlaneRotation(0, 1, 1e-12), PlaneRotation(2, 3, 2.5)) == []
        assert still(PlaneRotation(2, 3, -5e-324)) == [0, 1]
        assert still(PlaneRotation(0, 1, 0.0), PlaneRotation(2, 3, -0.0)) == [0, 1, 2, 3]

    def test_marked_linear_class_rejected(self):
        """The zoo is closed: a class of one's own with apply and the old
        is_linear marker does not join a family."""
        with pytest.raises(ValueError, match="not a certified isometry"):
            MappingFamily([PlaneRotation(0, 1, 0.8), MarkedLinear()])

    def test_memory_at_high_dimension(self):
        """The two-rotation family at d = 1024: the answer is a mask of the
        axes, built beside one basis point and its image at a time, so the
        peak is tens of KB (28 KB measured); a d x (d - 3) array for F would
        break the 1 MB bound.  The
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

    @pytest.mark.parametrize("angle, loop_sees_it", [(1e-6, False), (1e-3, False),
                                                     (3e-3, True)])
    def test_sampled_loop_certifies_nothing_the_pole_check_does_not(self, angle, loop_sees_it):
        """`Problem` refuses a rotation that moves the pole by 1e-6, 1e-3 or
        3e-3, from the common fixed set; the sampled loop sees only the
        largest.  The loop half goes with the loop (ROADMAP item 4c)."""
        fam = MappingFamily([PlaneRotation(0, 3, angle)])
        with pytest.raises(ValueError, match="the maps move the cap pole"):
            Problem(4, e(3), math.pi / 5, fam, e(3))
        if loop_sees_it:
            with pytest.raises(ValueError, match="outside the cap"):
                fam.check_preserves_cap(e(3), math.pi / 5)
        else:
            fam.check_preserves_cap(e(3), math.pi / 5)


class TestWMapping:
    """The family's W-mapping, `MappingFamily.apply`."""

    def test_common_fixed_point_is_fixed(self):
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])
        img = fam.apply(e(3))
        assert distance(img, e(3)) <= 1e-12

    def test_single_stage_midpoint(self):
        fam = MappingFamily([PlaneRotation(0, 1, math.pi / 2)], alphas=[0.5])
        img = fam.apply(e(0))
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
            fam = MappingFamily([t1, t2], alphas=[a1, a2])
            for _ in range(50):
                x = SpherePoint(sample_cap(e(3).coords, math.pi / 5, 1, rng)[0])
                u1 = geodesic_combine(a1, t1.apply(x), x)
                u2 = geodesic_combine(a2, t2.apply(u1), x)
                # apply, with or without T_i x given, is u2 bit for bit
                assert fam.apply(x).coords.tobytes() == u2.coords.tobytes()
                assert fam.apply(x, images=(t1.apply(x), t2.apply(x))).coords.tobytes() == \
                    u2.coords.tobytes()

    def test_images_keyword_only(self):
        """A positional second argument (the old iteration index) is refused,
        not taken for the images."""
        fam = MappingFamily([PlaneRotation(0, 1, 0.8)])
        with pytest.raises(TypeError):
            fam.apply(e(0), 1)

    def test_fixed_points_are_exactly_common_fixed_points(self):
        """Points fixed by the staged average are the family's common fixed
        points: common ones do not move, every other cap point does."""
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])
        assert distance(fam.apply(e(3)), e(3)) <= 1e-10
        rng = np.random.default_rng(24)
        pts = sample_cap(e(3).coords, math.pi / 5, 1000, rng)
        for row in pts:
            x = SpherePoint(row)
            if distance(x, e(3)) < 1e-6:
                continue
            assert distance(fam.apply(x), x) > 1e-8

    def test_cap_preserved_by_w(self):
        fam = MappingFamily([PlaneRotation(0, 1, 0.8), PlaneRotation(0, 2, 0.5)])
        rng = np.random.default_rng(25)
        for row in sample_cap(e(3).coords, math.pi / 5, 300, rng):
            x = SpherePoint(row)
            assert distance(fam.apply(x), e(3)) <= math.pi / 5 + 1e-12


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
