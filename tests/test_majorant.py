"""Harmonic patches and branched majorants: values, matching error,
translation, regularisation, gain domination, tree structure."""

import numpy as np
import pytest
from conftest import constant_disc_patch

from lsmlab.gain import mollify, spiked_gain
from lsmlab.geometry import signed_distance
from lsmlab.harmonic import INF
from lsmlab.majorant import (BranchedMajorant, ContiguityError, MajorantError, annulus_patch,
                             annulus_to_boundary_patch, branched, cap_patch, constant_patch,
                             continuous_regularisation, interior_boundary_samples, leaf,
                             majorises_gain, matching_error, tree_json, upward_translate)

GSTAR = 1.25


@pytest.fixture(scope="module")
def gain():
    return mollify(spiked_gain(0.05), 0.01)


def two_level_tree(parent_level=1.0, child_level=0.9):
    """Disc patch at a constant level whose children sit at another level."""
    base = constant_disc_patch(0.5, parent_level, GSTAR)
    child = leaf(constant_patch(child_level, GSTAR))
    return branched(base, lambda u: child, depth=2,
                    error_bound=abs(parent_level - child_level))


class TestPatchValue:
    def test_cap_vanishes_at_tangency(self):
        delta = 0.49
        x = np.array([1.0, 0.0])
        patch = cap_patch(x, delta / GSTAR, GSTAR)
        assert leaf(patch).value(x) == pytest.approx(0.0, abs=1e-12)

    def test_off_domain_sentinel(self):
        patch = annulus_patch(0.3, 0.7, 1.0, 0.5, GSTAR)
        assert leaf(patch).value(np.array([0.1, 0.0])) == INF

    def test_constant_patch_interior(self):
        patch = constant_patch(0.8, GSTAR)
        assert leaf(patch).value(np.array([0.4, -0.2])) == pytest.approx(0.8)


class TestInteriorBoundary:
    def test_annulus_to_boundary_is_closed(self):
        patch = annulus_to_boundary_patch(0.3, GSTAR)
        pts = interior_boundary_samples(leaf(patch), 64)
        assert pts.shape[0] == 0

    def test_low_data_ball_samples_full_sphere(self):
        patch = constant_disc_patch(0.5, 0.3 * GSTAR, GSTAR)
        pts = interior_boundary_samples(leaf(patch), 64)
        assert pts.shape[0] == 64
        assert np.allclose(np.linalg.norm(pts, axis=1), 0.5, atol=1e-12)

    def test_mixed_annulus_samples_only_open_side(self):
        patch = annulus_patch(0.2, 0.7, GSTAR, 0.5 * GSTAR, GSTAR)
        pts = interior_boundary_samples(leaf(patch), 64)
        radii = np.linalg.norm(pts, axis=1)
        assert pts.shape[0] > 0
        assert np.all(np.abs(radii - 0.7) < 1e-9)


class TestMatchingError:
    def test_depth_one_is_zero(self):
        assert matching_error(leaf(constant_patch(0.5, GSTAR))) == (0.0, 0.0)

    def test_exact_match_two_level(self):
        base = constant_disc_patch(0.5, 0.9, GSTAR)
        child = leaf(constant_patch(0.9, GSTAR))
        tree = branched(base, lambda u: child, depth=2, error_bound=0.0)
        delta, norm = matching_error(tree)
        assert delta == pytest.approx(0.0, abs=1e-12)
        assert norm == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_mismatch(self):
        delta, norm = matching_error(two_level_tree(1.0, 0.9))
        assert delta == pytest.approx(0.1, abs=1e-12)
        assert norm == pytest.approx(0.1, abs=1e-12)

    def test_three_level_accumulates(self):
        grandchild = leaf(constant_patch(0.7, GSTAR))
        mid_patch = constant_disc_patch(0.7, 0.85, GSTAR)
        mid = branched(mid_patch, lambda u: grandchild, depth=2, error_bound=0.15)
        base = constant_disc_patch(0.4, 1.0, GSTAR)
        tree = branched(base, lambda u: mid, depth=3, error_bound=0.3)
        delta, norm = matching_error(tree)
        assert delta == pytest.approx(0.15, abs=1e-12)
        assert norm == pytest.approx(0.30, abs=1e-12)

    def test_contiguity_enforced(self):
        base = constant_disc_patch(0.5, 0.9, GSTAR)
        stray = leaf(annulus_patch(0.8, 0.9, GSTAR, GSTAR, GSTAR))
        tree = branched(base, lambda u: stray, depth=2, error_bound=0.0)
        with pytest.raises(ContiguityError):
            matching_error(tree)


class TestUpwardTranslate:
    def test_zero_shift_identity(self):
        tree = two_level_tree()
        out = upward_translate(tree, 0.0)
        x = np.array([0.2, 0.1])
        assert out.value(x) == tree.value(x)

    def test_truncation_at_cap(self):
        patch = constant_patch(GSTAR - 0.1, GSTAR)
        out = upward_translate(leaf(patch), 0.3)
        assert out.value(np.array([0.1, 0.0])) == pytest.approx(GSTAR)

    def test_norm_never_grows(self):
        tree = two_level_tree()
        _, before = matching_error(tree)
        for c in (0.05, 0.2, 0.5):
            _, after = matching_error(upward_translate(tree, c))
            assert after <= before + 1e-12


class TestRegularisation:
    def test_depth_one_unchanged(self):
        h = leaf(constant_patch(0.6, GSTAR))
        assert continuous_regularisation(h) is h

    def test_hand_computed_tree(self):
        tree = two_level_tree(1.0, 0.9)
        reg = continuous_regularisation(tree)
        x = np.array([0.2, 0.0])
        # Base lifted by the measured mismatch, child lifted to match.
        assert reg.value(x) == pytest.approx(1.1, abs=1e-12)
        child = reg.extension(np.array([0.5, 0.0]))
        assert child.value(np.array([0.5, 0.0])) == pytest.approx(1.1, abs=1e-12)
        d0, n0 = matching_error(reg)
        assert n0 <= 1e-12

    def test_already_continuous_unchanged(self):
        base = constant_disc_patch(0.5, 0.9, GSTAR)
        child = leaf(constant_patch(0.9, GSTAR))
        tree = branched(base, lambda u: child, depth=2, error_bound=0.0)
        reg = continuous_regularisation(tree)
        x = np.array([0.3, 0.1])
        assert reg.value(x) == pytest.approx(tree.value(x), abs=1e-12)

    def test_sandwich_on_probes(self):
        tree = two_level_tree(1.0, 0.85)
        _, norm = matching_error(tree)
        reg = continuous_regularisation(tree)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.45, 0.45, size=(1000, 2))
        inside = np.linalg.norm(pts, axis=1) < 0.5
        hv = np.atleast_1d(tree.value(pts[inside]))
        rv = np.atleast_1d(reg.value(pts[inside]))
        assert np.all(hv - 1e-12 <= rv)
        assert np.all(rv <= hv + norm + 1e-12)

    def test_gain_precondition(self, gain):
        bad = leaf(constant_patch(0.0, GSTAR))
        with pytest.raises(MajorantError):
            continuous_regularisation(bad, gain)


class TestMajorisesGain:
    def test_cap_level_constant(self, gain):
        ok, worst = majorises_gain(leaf(constant_patch(GSTAR, GSTAR)), gain)
        assert ok
        assert worst >= 0.0

    def test_zero_patch_fails_at_spike(self, gain):
        ok, worst = majorises_gain(leaf(constant_patch(0.0, GSTAR)), gain, probes=2048)
        assert not ok
        assert worst == pytest.approx(-1.0, abs=0.05)

    def test_feasible_annulus_patch(self, gain):
        # The envelope scan's smallest feasible inner radius, checked directly.
        ok, worst = majorises_gain(leaf(annulus_to_boundary_patch(0.0405, GSTAR)),
                                   gain, probes=2048)
        assert ok, f"worst gap {worst}"


class TestTreeStructure:
    def test_depth_one_invariants(self):
        with pytest.raises(MajorantError):
            BranchedMajorant(base=constant_patch(0.5, GSTAR), extension=None,
                             depth=1, error_bound=0.1)

    def test_json_dump(self):
        tree = two_level_tree()
        payload = tree_json(tree)
        assert payload["nodes"][0]["depth"] == 2
        assert len(payload["edges"]) >= 1
        for edge in payload["edges"]:
            assert len(edge["at"]) == 2

    def test_extension_contiguity_spot_check(self):
        tree = two_level_tree()
        for p in interior_boundary_samples(tree, 16):
            child = tree.extension(p)
            assert signed_distance(child.base.domain, p) < 0
