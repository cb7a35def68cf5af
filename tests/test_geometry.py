"""Geometry: signed distances, Hausdorff, smooth inner approximation, projections."""

import numpy as np
import numpy.testing as npt
import pytest
from conftest import rasterize
from hypothesis import given, settings, strategies as st
from scipy import ndimage
from scipy.spatial import cKDTree

from lsmlab import geometry
from lsmlab.geometry import (Annulus, Ball, Cap, DegenerateApproximationError, FullBall,
                             GeometryError, GridRegion, Intersection, boundary_samples,
                             hausdorff_distance, inradius, project_to_boundary_batch,
                             save_mask_csv, signed_distance, smooth_inner_approximation)
from lsmlab.grids import cartesian_grid


def region_of(mask):
    """The mask as a region whose cells all lie inside the unit ball."""
    return GridRegion(mask=mask, spacing=0.5 / max(mask.shape))


def assert_sdf_matches_ndimage(mask):
    """``sdf_table`` and ``inradius`` against the ``distance_transform_edt``
    formulas they replace, bit for bit."""
    region = region_of(mask)
    d_in = ndimage.distance_transform_edt(mask)
    want = np.where(mask, -(d_in - 0.5), ndimage.distance_transform_edt(~mask) - 0.5)
    assert np.array_equal(region.sdf_table, want * region.spacing)
    assert inradius(region) == float((d_in.max() - 0.5) * region.spacing)


class TestDistanceTransform:
    """The numpy distance transform against ``scipy.ndimage.distance_transform_edt``."""

    @pytest.mark.parametrize("shape", [(1, 2), (2, 1), (7, 3), (33, 64), (50, 50), (97, 41)])
    def test_random_masks(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        for density in (0.01, 0.1, 0.5, 0.9, 0.99):
            for _ in range(4):
                mask = rng.random(shape) < density
                if mask.any() and not mask.all():
                    assert_sdf_matches_ndimage(mask)

    def test_checkerboard(self):
        board = np.indices((40, 31)).sum(axis=0) % 2 == 0
        assert_sdf_matches_ndimage(board)
        assert_sdf_matches_ndimage(~board)

    @pytest.mark.parametrize("cell", [(0, 0), (12, 30), (19, 0), (7, 13)])
    def test_single_outside_and_single_inside_cell(self, cell):
        mask = np.ones((20, 31), dtype=bool)
        mask[cell] = False
        assert_sdf_matches_ndimage(mask)
        assert_sdf_matches_ndimage(~mask)

    def test_masks_touching_the_array_edge(self):
        rows, cols = np.indices((45, 60))
        for mask in (rows < 3, cols >= 57, (rows + cols) % 17 == 0, rows * cols < 40):
            assert_sdf_matches_ndimage(mask)
            assert_sdf_matches_ndimage(~mask)

    @pytest.mark.parametrize("seq", ["annulus_cart_seq", "cap_cart_seq"])
    def test_every_257_level(self, seq, request):
        for contact in request.getfixturevalue(seq).contacts:
            assert_sdf_matches_ndimage(contact.noncontact_mask)
            assert_sdf_matches_ndimage(contact.contact_mask)

    def test_mask_without_an_outside_cell_is_rejected(self):
        # The transform would have to measure to cells off the array.
        with pytest.raises(GeometryError):
            GridRegion(mask=np.ones((3, 4), dtype=bool), spacing=0.1)

    def test_empty_region_lies_at_infinite_distance(self):
        region = region_of(np.zeros((4, 5), dtype=bool))
        assert np.all(region.sdf_table == np.inf)
        assert inradius(region) == 0.0

    def test_one_transform_per_region(self, monkeypatch):
        # inradius and the mollified table both read the region's cached table:
        # one transform of each phase.
        calls = []
        transform = geometry._squared_distance_to

        def counted(target):
            calls.append(target)
            return transform(target)

        monkeypatch.setattr(geometry, "_squared_distance_to", counted)
        region = rasterize(Ball((0.2, 0.1), 0.4), n=256)
        smooth_inner_approximation(region, 0.05)
        assert len(calls) == 2


class TestGaussian:
    """The numpy Gaussian against ``scipy.ndimage.gaussian_filter(mode="nearest")``."""

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 1.5, 2.7, 6.0])
    def test_matches_gaussian_filter(self, sigma):
        rng = np.random.default_rng(5)
        table = rasterize(Annulus((0.1, 0.0), 0.2, 0.6), n=128).sdf_table
        for a in (table, rng.standard_normal((41, 17)), rng.standard_normal((3, 60))):
            want = ndimage.gaussian_filter(a, sigma=sigma, mode="nearest")
            assert np.max(np.abs(geometry._gaussian_nearest(a, sigma) - want)) <= 1e-15

    @pytest.mark.parametrize("seq", ["annulus_cart_seq", "cap_cart_seq"])
    def test_shrunk_masks_match_the_scipy_shrink(self, seq, request):
        # smooth_inner_approximation's sublevel set, with scipy's filter in its place.
        fld = request.getfixturevalue(seq).levels[0]
        for contact in request.getfixturevalue(seq).contacts:
            region = GridRegion(mask=contact.noncontact_mask, spacing=fld.spacing)
            delta = 6.0 * region.spacing
            sigma = (delta / 4.0) / region.spacing
            want = ndimage.gaussian_filter(region.sdf_table, sigma=sigma, mode="nearest")
            got = geometry._gaussian_nearest(region.sdf_table, sigma)
            assert np.array_equal(got < -delta / 2.0, want < -delta / 2.0)


class TestSignedDistance:
    def test_ball_inside(self):
        assert signed_distance(Ball((0.0, 0.0), 0.5), np.array([0.3, 0.0])) == pytest.approx(-0.2)

    def test_full_ball_boundary_point(self):
        assert signed_distance(FullBall(2), np.array([1.0, 0.0])) == pytest.approx(0.0)

    def test_annulus_midway(self):
        d = signed_distance(Annulus((0.0, 0.0), 0.2, 0.8), np.array([0.5, 0.0]))
        assert d == pytest.approx(-0.3)

    def test_cap_sign(self):
        cap = Cap((1.0, 0.0), 0.5)
        assert signed_distance(cap, np.array([0.8, 0.0])) < 0
        assert signed_distance(cap, np.array([0.2, 0.0])) > 0

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            signed_distance(Ball((0.0, 0.0), 0.5), np.array([0.1, 0.2, 0.3]))

    def test_grid_region_interior(self):
        region = rasterize(Ball((0.0, 0.0), 0.5), n=256)
        assert signed_distance(region, np.array([0.0, 0.0])) == pytest.approx(-0.5, abs=0.02)
        assert signed_distance(region, np.array([0.7, 0.0])) == pytest.approx(0.2, abs=0.02)

    def test_grid_region_table_belongs_to_its_region(self):
        # Each region is freed before the next is built, so CPython may reuse
        # its address: a distance table cached by id() would be served to a
        # disc of another radius.
        coords, spacing = cartesian_grid(129)
        node_r = np.linalg.norm(coords, axis=-1)

        def origin_distance(radius):
            return signed_distance(GridRegion(mask=node_r < radius, spacing=spacing), np.zeros(2))

        radii = 0.05 + 0.9 * np.arange(400) / 400
        errors = np.array([origin_distance(r) + r for r in radii])
        assert np.max(np.abs(errors)) <= spacing

    @given(st.floats(0.1, 0.9), st.floats(-0.05, 0.05), st.floats(-0.05, 0.05))
    @settings(max_examples=40, deadline=None)
    def test_lipschitz_ball(self, r, cx, cy):
        dom = Ball((cx, cy), r)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, size=(200, 2))
        d = signed_distance(dom, pts)
        i, j = rng.integers(0, 200, size=50), rng.integers(0, 200, size=50)
        gaps = np.abs(d[i] - d[j])
        dists = np.linalg.norm(pts[i] - pts[j], axis=1)
        assert np.all(gaps <= dists + 1e-12)

    def test_lipschitz_all_variants(self):
        rng = np.random.default_rng(7)
        doms = [Ball((0.1, -0.2), 0.4), Annulus((0.0, 0.0), 0.2, 0.7),
                Cap((0.0, 1.0), 0.3), FullBall(2),
                rasterize(Annulus((0.0, 0.0), 0.15, 0.6), n=256)]
        for dom in doms:
            pts = rng.uniform(-1, 1, size=(1000, 2))
            d = signed_distance(dom, pts)
            i = rng.integers(0, 1000, size=1000)
            j = rng.integers(0, 1000, size=1000)
            gaps = np.abs(d[i] - d[j])
            dists = np.linalg.norm(pts[i] - pts[j], axis=1)
            tol = 2 * (dom.spacing if isinstance(dom, GridRegion) else 0.0) + 1e-12
            assert np.all(gaps <= dists + tol), f"lipschitz violated for {dom}"


class TestIntersection:
    PARTS = (Ball((0.1, 0.0), 0.6), Annulus((0.0, 0.0), 0.15, 0.8), Cap((0.0, 1.0), -0.3))

    def test_signed_distance_is_max_over_parts(self):
        pts = np.random.default_rng(3).uniform(-1, 1, size=(2000, 2))
        parts = self.PARTS + (rasterize(Ball((0.0, 0.0), 0.5), n=128),)
        want = np.max([signed_distance(p, pts) for p in parts], axis=0)
        assert np.array_equal(signed_distance(Intersection(parts), pts), want)
        assert signed_distance(Intersection(parts), pts[0]) == want[0]

    def test_projection_lands_on_binding_part(self):
        pts = np.random.default_rng(4).uniform(-1, 1, size=(4000, 2))
        dom = Intersection(self.PARTS)
        pts = pts[signed_distance(dom, pts) < 0.0]
        binding = np.argmax([signed_distance(p, pts) for p in self.PARTS], axis=0)
        assert set(binding) == {0, 1, 2}
        out = project_to_boundary_batch(dom, pts)
        for k, part in enumerate(self.PARTS):
            sel = binding == k
            assert np.max(np.abs(signed_distance(part, out[sel]))) <= 1e-12

    def test_parts_must_share_a_dimension(self):
        with pytest.raises(GeometryError):
            Intersection((Ball((0.0, 0.0), 0.5), FullBall(3)))
        with pytest.raises(GeometryError):
            Intersection(())


class TestHausdorff:
    def test_identical_singletons(self):
        assert hausdorff_distance([[0.0, 0.0]], [[0.0, 0.0]]) == 0.0

    def test_unit_separation(self):
        assert hausdorff_distance([[0.0, 0.0]], [[1.0, 0.0]]) == pytest.approx(1.0)

    def test_concentric_circles_brute_force(self):
        # Independent oracle: dense double-loop max-min on the same samplings.
        ang = 2 * np.pi * np.arange(360) / 360
        a = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        b = 0.9 * a
        diff = a[:, None, :] - b[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        brute = max(dist.min(axis=1).max(), dist.min(axis=0).max())
        assert hausdorff_distance(a, b) == pytest.approx(brute, abs=1e-12)
        assert hausdorff_distance(a, b) == pytest.approx(0.1, abs=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            hausdorff_distance(np.zeros((0, 2)), [[0.0, 0.0]])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(GeometryError):
            hausdorff_distance([[0.0, 0.0, 0.0]], [[0.0, 0.0]])

    @staticmethod
    def kdtree_hausdorff(a, b):
        return max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max())

    @pytest.mark.parametrize("block", [geometry.HAUSDORFF_BLOCK, 1, 1000])
    def test_matches_kdtree_on_random_sets(self, block, monkeypatch):
        # Small blocks split the rows of the first set; the result must not move.
        monkeypatch.setattr(geometry, "HAUSDORFF_BLOCK", block)
        rng = np.random.default_rng(11)
        for na, nb in [(1, 1), (1, 300), (300, 1), (513, 512), (2000, 37)]:
            a, b = rng.standard_normal((na, 2)), rng.uniform(-1, 1, (nb, 2))
            assert hausdorff_distance(a, b) == self.kdtree_hausdorff(a, b)

    def test_matches_kdtree_on_concentric_circles(self):
        for r in (0.9, 0.5, 0.1):
            a = boundary_samples(Ball((0.0, 0.0), 1.0), 512)
            b = boundary_samples(Ball((0.0, 0.0), r), 360)
            assert hausdorff_distance(a, b) == self.kdtree_hausdorff(a, b)


class TestSmoothInnerApproximation:
    def test_ball_mask_matches_exact_shrink(self):
        region = rasterize(Ball((0.0, 0.0), 0.5), n=512)
        out = smooth_inner_approximation(region, 0.05)
        # Oracle: the exact shrunken ball at the sublevel offset delta/2.
        assert isinstance(out, Ball)
        assert out.radius == pytest.approx(0.5 - 0.025, abs=0.01)
        dh = hausdorff_distance(boundary_samples(region, 512),
                                boundary_samples(out, 512))
        assert dh < 0.05

    def test_annulus_keeps_two_boundary_components(self):
        region = rasterize(Annulus((0.0, 0.0), 0.1, 0.6), n=512)
        out = smooth_inner_approximation(region, 0.02)
        if isinstance(out, GridRegion):
            # Complement flood fill: an annulus splits the rest of the square
            # into the hole and the outside, so two non-region components.
            inv = ~out.mask & rasterize(FullBall(2), n=out.mask.shape[0]).mask
            _, n = ndimage.label(inv, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
            assert n == 2
        else:
            assert isinstance(out, Annulus)
            assert out.inner == pytest.approx(0.11, abs=0.02)
            assert out.outer == pytest.approx(0.59, abs=0.02)

    def test_oversized_shrink_rejected(self):
        region = rasterize(Ball((0.0, 0.0), 0.4), n=256)
        with pytest.raises(DegenerateApproximationError):
            smooth_inner_approximation(region, 0.3)

    def test_output_closure_inside_input(self):
        region = rasterize(Ball((0.2, 0.1), 0.4), n=512)
        delta = 0.05
        out = smooth_inner_approximation(region, delta)
        pts = boundary_samples(out, 256)
        assert np.all(signed_distance(region, pts) <= -delta / 4)

    def test_hausdorff_bound_on_shapes(self):
        shapes = [Ball((0.0, 0.0), 0.5), Ball((0.2, 0.1), 0.4),
                  Annulus((0.0, 0.0), 0.1, 0.6)]
        for shape in shapes:
            region = rasterize(shape, n=512)
            for delta in (0.05, 0.02):
                out = smooth_inner_approximation(region, delta)
                dh = hausdorff_distance(boundary_samples(region, 512),
                                        boundary_samples(out, 512))
                assert dh < delta, f"{shape} at delta={delta}: {dh}"


class TestRaysAndProjection:
    def test_projection_variants(self):
        cases = [
            (Ball((0.0, 0.0), 0.5), np.array([0.3, 0.0]), [0.5, 0.0]),
            (FullBall(2), np.array([0.0, 0.9]), [0.0, 1.0]),
            (Annulus((0.0, 0.0), 0.2, 0.8), np.array([0.3, 0.0]), [0.2, 0.0]),
        ]
        for dom, x, want in cases:
            npt.assert_allclose(project_to_boundary_batch(dom, x[None, :])[0], want, atol=1e-12)
        batch = project_to_boundary_batch(Ball((0.0, 0.0), 0.5),
                                          np.array([[0.3, 0.0], [0.0, -0.1]]))
        npt.assert_allclose(batch, [[0.5, 0.0], [0.0, -0.5]], atol=1e-12)


class TestMaskSerialisation:
    def test_roundtrip(self, tmp_path):
        region = rasterize(Annulus((0.0, 0.0), 0.2, 0.6), n=128)
        path = tmp_path / "mask.csv"
        save_mask_csv(region, path)
        header = path.read_text().splitlines()[0]
        mask = np.loadtxt(path, delimiter=",", skiprows=1, dtype=int).astype(bool)
        assert float(header.split(",")[3]) == pytest.approx(region.spacing)
        assert np.array_equal(mask, region.mask)
        assert header.startswith("2,128,128,")
