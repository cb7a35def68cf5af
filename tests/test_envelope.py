"""Envelope scan, contact sets, balayage, monotone refinement, witnesses."""

import json
from dataclasses import replace

import numpy as np
import pytest
from conftest import highest_chords
from hypothesis import given, settings, strategies as st
from scipy import ndimage

import lsmlab as L
from lsmlab import envelope
from lsmlab.cli import load_config, main, parse_config
from lsmlab.envelope import (ContactSet, ConvergenceError, NoWitnessError, RadialProfile,
                             balayage_step, build_branched_witness, cartesian_field,
                             contact_set, envelope_step, gain_on_grid, iterate_envelopes,
                             unbranched_envelope)
from lsmlab.gain import GainField
from lsmlab.majorant import (annulus_to_boundary_patch, majorises_gain, matching_error,
                             reflect)
from lsmlab.oracle import neg_laplacian


class TestUnbranchedEnvelope:
    def test_vanishes_at_sphere(self, spiked_run):
        assert spiked_run.field.values[-1] == pytest.approx(0.0, abs=1e-12)

    def test_harnack_annulus_noncontact(self, spiked, spiked_run):
        fld = spiked_run.field
        c1 = contact_set(fld, spiked)
        harnack_r = (np.sqrt(1.25) - 1.0) / (np.sqrt(1.25) + 1.0)
        edge_idx = np.nonzero(c1.contact_mask & (fld.radii < 0.25))[0]
        edge = fld.radii[edge_idx[-1]]
        band = (fld.radii > edge) & (fld.radii <= harnack_r)
        assert band.sum() > 10
        assert np.all(c1.noncontact_mask[band])

    def test_bounded_by_constant_and_gain(self, spiked, spiked_run):
        gv = gain_on_grid(spiked, spiked_run.field)
        w = spiked_run.field.values
        assert np.all(w >= gv - 1e-10)
        assert np.all(w <= spiked.max_gain + 1e-12)

    def test_envelope_dominates_oracle(self, spiked_run, spiked_oracle):
        # Every dictionary patch dominates the value function.
        assert np.all(spiked_run.field.values >= spiked_oracle.values - 1e-9)

    def test_cartesian_envelope_with_caps_only(self, cap_gain, cap_cart_seq):
        fld = cap_cart_seq.levels[0]
        inside = fld.inside
        gv = gain_on_grid(cap_gain, fld)
        assert np.all(fld.values[inside] >= gv[inside] - 1e-10)
        assert np.all(fld.values[inside] <= cap_gain.max_gain + 1e-12)


class TestAnnulusRule:
    """One annulus inner-radius rule, with its safeguard between sweep radii,
    for both grids."""

    def test_cartesian_and_radial_runs_pick_one_inner_radius(self):
        g = L.radial_bump_gain(0.3, 0.15)
        cart = unbranched_envelope(g, 129)
        rad = unbranched_envelope(g, L.radial_grid(2048))
        assert cart.annulus_inner == rad.annulus_inner
        fine = L.radial_grid(8 * 2047 + 1)  # 8 steps per gap of the 2048-node sweep
        for run in (cart, rad):
            patch = annulus_to_boundary_patch(run.annulus_inner, g.gstar)
            r = fine[fine >= run.annulus_inner]
            assert np.all(patch.value(np.outer(r, [1.0, 0.0])) >= g.profile(r))

    @pytest.mark.parametrize("dim, want", [(2, "0x1.a9269e2c06648p+3"),
                                           (3, "0x1.4a6f57b65f89cp+3")])
    def test_class_lipschitz_is_the_annulus_gradient_on_its_inner_sphere(self, dim, want):
        # The spiked-ball preset's radial run in d = 2, and a d = 3 spike: in
        # both the annulus family is present and its bound exceeds the caps'.
        if dim == 2:
            cfg = parse_config(load_config("spiked-ball"))
            gain, radii = cfg.gain, cfg.grid.radii()
        else:
            gain, radii = L.mollify(L.spiked_gain(0.05, dim=3), 0.01), L.radial_grid(512, 5e-3)
        run = unbranched_envelope(gain, radii)
        assert run.annulus_inner is not None and run.class_lipschitz > np.max(1.0 / run.slopes)
        assert run.class_lipschitz.hex() == want


class TestContactSet:
    def test_all_contact_zero_components(self, spiked, radii):
        gv = spiked.profile(radii)
        fld = RadialProfile(radii, gv.copy(), tag="unbranched-envelope")
        c = contact_set(fld, spiked)
        assert c.n_components == 0
        assert np.all(c.contact_mask)

    def test_uniform_gap_single_component(self, spiked, radii):
        gv = spiked.profile(radii)
        fld = RadialProfile(radii, gv + 2e-9, tag="unbranched-envelope")
        c = contact_set(fld, spiked, tol=1e-9)
        assert c.n_components == 1
        assert np.all(c.noncontact_mask)

    def test_spiked_annular_component(self, spiked, spiked_run):
        c = contact_set(spiked_run.field, spiked)
        fld = spiked_run.field
        i = np.argmin(np.abs(fld.radii - 0.2))
        label = c.labels[i]
        assert label > 0
        nodes = fld.radii[c.labels == label]
        assert nodes.min() < 0.06 and nodes.max() > 0.9

    def test_radial_components_are_runs(self, spiked, radii):
        gv = spiked.profile(radii)
        rng = np.random.default_rng(3)
        for share in rng.uniform(0.05, 0.95, 20):
            gap = rng.random(radii.size) < share
            c = contact_set(RadialProfile(radii, gv + 1e-6 * gap, tag="t"), spiked)
            starts = gap & ~np.concatenate([[False], gap[:-1]])
            assert np.array_equal(c.labels, np.where(gap, np.cumsum(starts), 0))
            assert c.n_components == starts.sum()

    def test_radial_runs_match_find_objects(self, spiked_seq):
        rng = np.random.default_rng(5)
        masks = [c.noncontact_mask for c in spiked_seq.contacts]
        masks += [rng.random(n) < share for n in (1, 2, 50, 2048)
                  for share in (0.0, 0.3, 0.7, 1.0)]
        for mask in masks:
            labels = ndimage.label(mask)[0]
            ref = [(run.start, run.stop - 1) for (run,) in ndimage.find_objects(labels)]
            assert envelope._runs(labels) == ref

    def test_contact_mask_meaning(self, spiked, spiked_run):
        c = contact_set(spiked_run.field, spiked)
        gv = gain_on_grid(spiked, spiked_run.field)
        gaps = np.abs(spiked_run.field.values[c.contact_mask] - gv[c.contact_mask])
        assert np.all(gaps <= c.tol)


class TestBalayage:
    def test_fixed_point_on_converged_field(self, spiked, spiked_seq):
        lim = spiked_seq.levels[-1]
        c = spiked_seq.contacts[-1]
        again = balayage_step(lim, c)
        assert np.max(np.abs(again.values - lim.values)) <= 1e-9

    def test_radial_log_interpolation(self, spiked, radii):
        # One synthetic non-contact interval: the replacement is the chord in ln r.
        gv = spiked.profile(radii)
        vals = gv + 1e-6
        sel = (radii > 0.2) & (radii < 0.4)
        vals[sel] += 0.3
        fld = RadialProfile(radii, vals, tag="unbranched-envelope")
        c = contact_set(fld, spiked, tol=1e-5)
        bal = balayage_step(fld, c)
        runs = np.nonzero(sel)[0]
        i0, i1 = runs[0], runs[-1]
        s = np.log(radii)
        t = (s[i0:i1 + 1] - s[i0 - 1]) / (s[i1 + 1] - s[i0 - 1])
        chord = vals[i0 - 1] + (vals[i1 + 1] - vals[i0 - 1]) * t
        expect = np.minimum(chord, vals[i0:i1 + 1])
        assert np.allclose(bal.values[i0:i1 + 1], expect, atol=1e-12)

    def test_spiked_balayage_drops_below_envelope(self, spiked, spiked_run):
        fld = spiked_run.field
        c = contact_set(fld, spiked)
        bal = balayage_step(fld, c)
        i = np.argmin(np.abs(fld.radii - 0.2))
        assert bal.values[i] < fld.values[i] - 1e-3
        # The balayage is allowed below the gain; the spiked gain realises it.
        gv = gain_on_grid(spiked, fld)
        assert np.any(bal.values < gv - 1e-3)


class TestIterate:
    def test_no_spike_means_single_step(self, annulus_gain):
        # The dictionary envelope already agrees with the value function for
        # the annulus bump up to the one-node feasibility conservatism, so the
        # first refinement is a no-op at that scale and the iteration stops
        # immediately after it.
        radii = L.radial_grid(2048)
        run = unbranched_envelope(annulus_gain, radii)
        seq = iterate_envelopes(annulus_gain, run, max_iter=8)
        assert seq.converged
        assert len(seq.levels) <= 3
        ds = np.max(np.diff(np.log(radii)))
        slack = 2.0 * annulus_gain.gstar * ds
        change = np.max(np.abs(seq.levels[1].values - seq.levels[0].values))
        assert change <= slack
        from lsmlab.oracle import radial_value_oracle
        oracle = radial_value_oracle(annulus_gain, 2, radii)
        assert np.max(np.abs(seq.levels[-1].values - oracle.values)) <= 1e-3

    def test_spiked_limit_matches_oracle(self, spiked_seq, spiked_oracle):
        lim = spiked_seq.levels[-1]
        assert np.max(np.abs(lim.values - spiked_oracle.values)) <= 1e-3

    def test_max_iter_zero(self, spiked, spiked_run):
        seq = iterate_envelopes(spiked, spiked_run, max_iter=0)
        assert len(seq.levels) == 1
        assert not seq.converged

    def test_monotone_and_nested(self, spiked, spiked_seq):
        for a, b in zip(spiked_seq.levels, spiked_seq.levels[1:]):
            assert np.all(b.values <= a.values + 1e-12)
        for ca, cb in zip(spiked_seq.contacts, spiked_seq.contacts[1:]):
            grown = _dilate_radial(ca.noncontact_mask)
            assert not np.any(cb.noncontact_mask & ~grown)

    def test_envelope_dominates_gain_every_level(self, spiked, spiked_seq):
        for fld in spiked_seq.levels:
            gv = gain_on_grid(spiked, fld)
            assert np.all(fld.values >= gv - 1e-10)

    def test_discrete_modulus(self, spiked, spiked_run, spiked_seq):
        m = max(spiked_run.class_lipschitz, spiked.lipschitz_bound)
        for fld in [spiked_run.field] + list(spiked_seq.levels):
            jumps = np.abs(np.diff(fld.values))
            gaps = np.diff(fld.radii)
            assert np.all(jumps <= m * gaps * 1.1 + 1e-12), fld.tag

    def test_boundary_vanishing_bound(self, spiked, spiked_run):
        fld = spiked_run.field
        m = spiked.lipschitz_bound
        near = fld.radii > 1.0 - 2 * (fld.radii[-1] - fld.radii[-2])
        slack = spiked_run.class_lipschitz * np.max(np.diff(fld.radii))
        assert np.all(fld.values[near] <= m * (1.0 - fld.radii[near]) + slack + 1e-9)

    def test_cartesian_monotone(self, cap_gain, cap_cart_seq):
        for a, b in zip(cap_cart_seq.levels, cap_cart_seq.levels[1:]):
            assert np.all(b.values <= a.values + 1e-12)


def _dilate_radial(mask: np.ndarray) -> np.ndarray:
    grown = mask.copy()
    grown[:-1] |= mask[1:]
    grown[1:] |= mask[:-1]
    return grown


class TestEnvelopeStep:
    def test_rides_gain_where_chord_dips(self, spiked, spiked_run):
        fld = spiked_run.field
        c = contact_set(fld, spiked)
        stepped = envelope_step(fld, c, spiked)
        gv = gain_on_grid(spiked, fld)
        assert np.all(stepped.values >= gv - 1e-12)
        bal = balayage_step(fld, c)
        assert np.any(stepped.values > bal.values + 1e-3)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_radial_step_is_pinned_concave_majorant(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        radii = L.radial_grid(n, r_min=1e-2)
        g = rng.uniform(0.0, 1.0, n) * (rng.uniform(size=n) < 0.8)
        g[-1] = rng.choice([0.0, rng.uniform(0.0, 0.3)])
        lift = np.where(rng.uniform(size=n) < 0.6, rng.uniform(0.01, 1.0, n), 0.0)
        lift[[0, -1]] = rng.uniform(0.01, 1.0, 2)  # a run at the origin and one at the sphere
        lift[n // 2] = 0.0
        gain = GainField(profile_fn=lambda r: np.interp(r, radii, g),
                         support_radius=0.99, max_gain=1.0, gstar=2.0, lipschitz=1.0)
        w = RadialProfile(radii, g + lift, tag="w")
        contact = contact_set(w, gain)
        stepped = envelope_step(w, contact, gain)

        s = np.log(radii)
        expect = w.values.copy()
        for label in range(1, contact.n_components + 1):
            i0, i1 = np.nonzero(contact.labels == label)[0][[0, -1]]
            xs, ys = list(s[i0:i1 + 1]), list(g[i0:i1 + 1])
            if i1 == n - 1:
                ys[-1] = max(ys[-1], 0.0)
            else:
                xs.append(s[i1 + 1])
                ys.append(w.values[i1 + 1])
            if i0 > 0:
                xs.insert(0, s[i0 - 1])
                ys.insert(0, w.values[i0 - 1])
            run = slice(1 if i0 > 0 else 0, None if i1 == n - 1 else -1)
            major = highest_chords(np.array(xs), np.array(ys))[run]
            if i0 == 0:
                # Bounded at the origin: concave on (-inf, 0] means nondecreasing.
                major = np.maximum(major, np.maximum.accumulate(ys[::-1])[::-1][run])
            expect[i0:i1 + 1] = major
        expect = np.minimum(expect, w.values)
        assert np.allclose(stepped.values, expect, rtol=0.0, atol=1e-12)


class TestCartesianKernel:
    """The red-black SOR kernel behind the Cartesian balayage and envelope steps."""

    N = 49

    @pytest.mark.parametrize("which", ["x", "x2-y2", "xy"])
    def test_balayage_reproduces_discrete_harmonic_data(self, which):
        n = self.N
        fld = cartesian_field(n, np.zeros((n, n)), tag="grid")
        stencil = fld.stencil
        x, y = fld.coords[..., 0], fld.coords[..., 1]
        u = {"x": x, "x2-y2": x * x - y * y, "xy": x * y}[which]
        # On full-stencil nodes the cut-cell stencil is the plain 5-point one,
        # for which u is exactly discrete harmonic; the ring around them holds
        # u as Dirichlet data, so the harmonic replacement is u itself.
        comp = (np.diff(stencil.offdiag.indptr) == 4).reshape(n, n)
        w = fld.copy_with(np.where(comp, u + 1.0, u), tag="lifted")
        contact = ContactSet(contact_mask=stencil.inside & ~comp, noncontact_mask=comp,
                             labels=comp.astype(int), n_components=1, tol=0.0)
        bal = balayage_step(w, contact)
        assert np.max(np.abs(bal.values - u)[stencil.inside]) <= 1e-9

    def test_arms_leaving_the_disc_read_the_circle_not_the_array(self):
        gain = L.radial_bump_gain(0.3, 0.15)
        w = unbranched_envelope(gain, self.N).field
        contact = contact_set(w, gain)
        rim = ~ndimage.binary_erosion(w.inside)  # nodes with an arm that leaves the disc
        assert np.any(contact.noncontact_mask & rim)
        junk = w.copy_with(np.where(w.inside, w.values, 7.0), tag="junk")
        for solve in (balayage_step, lambda f, c: envelope_step(f, c, gain)):
            assert np.array_equal(solve(junk, contact).values[w.inside],
                                  solve(w, contact).values[w.inside])

    @pytest.mark.parametrize("kind", ["annulus", "cap"])
    def test_projected_solve_is_complementary(self, kind):
        gain = (L.radial_bump_gain(0.3, 0.15) if kind == "annulus"
                else L.offset_bump_gain((0.4, 0.0), 0.15))
        w = unbranched_envelope(gain, self.N).field
        contact = contact_set(w, gain)
        comp = contact.noncontact_mask
        stepped = envelope_step(w, contact, gain).values
        gap = (stepped - gain_on_grid(gain, w))[comp]
        assert np.all(gap >= 0.0)
        assert np.any(gap == 0.0)  # the obstacle is active somewhere
        # -Laplacian in the stencil's own units (times spacing**2): the sweep
        # stops on a 1e-11-relative update, so this residual sits near 1e-10.
        lap = neg_laplacian(stepped, w.stencil, w.spacing)
        residual = np.minimum(lap * w.spacing ** 2, stepped - gain_on_grid(gain, w))
        assert np.max(np.abs(residual[comp])) <= 1e-8

    def test_sweep_budget_raises_with_residual(self, monkeypatch, tmp_path):
        monkeypatch.setattr(envelope, "MAX_SWEEPS", 1)
        gain = L.radial_bump_gain(0.3, 0.15)
        w = unbranched_envelope(gain, 33).field
        with pytest.raises(ConvergenceError) as err:
            envelope_step(w, contact_set(w, gain), gain)
        assert np.isfinite(err.value.residual) and err.value.residual > 0.0
        assert "sweep limit after 1 sweeps at omega 1.9000 (residual" in str(err.value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "gain": {"kind": "radial-bump", "center_radius": 0.3, "width": 0.15},
            "grid": {"kind": "cartesian", "nodes": 33}}))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "envelope"]) == 5

    def test_non_finite_update_raises_at_once(self, nan_sweeps):
        gain = L.radial_bump_gain(0.3, 0.15)
        w = unbranched_envelope(gain, 33).field
        with pytest.raises(ConvergenceError) as err:
            envelope_step(w, contact_set(w, gain), gain)
        assert np.isnan(err.value.residual)
        assert len(nan_sweeps) == 1
        assert "diverged after 1 sweeps at omega 1.9000" in str(err.value)


def test_radial_interpolate_reads_every_array_as_radii(spiked_run, spiked_oracle):
    """``w1`` and the radial oracle are one class, whose interpolant reads an
    (n, 2) array as 2n radii, not as n points."""
    r = np.random.default_rng(11).uniform(0.0, 1.2, (300, 2))
    for fld in (spiked_run.field, spiked_oracle):
        got = fld.interpolate(r)
        assert got.shape == r.shape
        assert np.array_equal(got, fld.interpolate(r.ravel()).reshape(r.shape))
    assert type(spiked_run.field) is type(spiked_oracle)


class TestNearestNode:
    """``nearest_node`` of each field class against a brute-force search over every node."""

    def test_radial_matches_argmin_and_ties_to_the_lower_node(self):
        radii = L.radial_grid(2048)
        fld = RadialProfile(radii, np.zeros(radii.size), tag="t")
        mid = 0.5 * (radii[:-1] + radii[1:])
        r = np.concatenate([radii, mid, np.random.default_rng(8).uniform(0.0, 1.2, 4000)])
        node, = fld.nearest_node(np.stack([r, np.zeros_like(r)], axis=1))
        expect = np.concatenate([np.argmin(np.abs(radii[None, :] - r[k:k + 512, None]), axis=1)
                                 for k in range(0, r.size, 512)])
        assert np.array_equal(node, expect)
        assert fld.nearest_node(np.array([0.0, mid[7]])) == (int(expect[radii.size + 7]),)

    def test_cartesian_node_is_a_nearest_one(self):
        fld = cartesian_field(65, np.zeros((65, 65)), tag="t")
        axis = fld.coords[:, 0, 0]
        mid = 0.5 * (axis[:-1] + axis[1:])
        cells = np.stack(np.meshgrid(mid, mid, indexing="ij"), axis=-1).reshape(-1, 2)
        pts = np.concatenate([cells, np.random.default_rng(9).uniform(-1.1, 1.1, (1000, 2))])
        i, j = fld.nearest_node(pts)
        assert not (i[:len(cells)] % 2).any() and not (j[:len(cells)] % 2).any()
        nodes = fld.coords.reshape(-1, 2)
        for k in range(0, len(pts), 128):
            d2 = np.sum((pts[k:k + 128, None, :] - nodes[None, :, :]) ** 2, axis=-1)
            got = d2[np.arange(len(d2)), i[k:k + 128] * 65 + j[k:k + 128]]
            assert np.array_equal(got, d2.min(axis=1))
        assert fld.nearest_node(pts[5]) == (int(i[5]), int(j[5]))


class TestBestPatches:
    """``best_patches`` against a per-point nearest-node search and ``best_patch``."""

    @staticmethod
    def _agrees_with_best_patch(run, pts, family, param):
        for p, fam, par in zip(pts, family.tolist(), param.tolist()):
            patch, keyed = run.best_patch(p), run.key_patch(fam, par)
            assert patch.label == keyed.label
            if fam == envelope.FAMILY_CAP and run.rotated_caps:
                assert np.allclose(patch.domain.direction, p / np.linalg.norm(p), atol=1e-15)
                assert patch.domain.threshold == keyed.domain.threshold
            else:
                assert patch.domain == keyed.domain

    def test_radial_nearest_node_ties_to_the_lower_one(self, spiked_run):
        radii = spiked_run.field.radii
        rng = np.random.default_rng(5)
        mid = 0.5 * (radii[:-1] + radii[1:])
        ties = np.abs(radii[:-1] - mid) == np.abs(radii[1:] - mid)
        assert ties.sum() > 100
        r = np.concatenate([mid, radii, rng.uniform(0.0, 1.0, 500), [0.0, 1.0]])
        # Midpoints on the first axis keep their radius exact; the rest turn.
        turn = rng.uniform(0.0, 2.0 * np.pi, r.size)
        turn[:mid.size] = 0.0
        pts = r[:, None] * np.stack([np.cos(turn), np.sin(turn)], axis=1)
        nearest = np.array([np.argmin(np.abs(radii - q)) for q in np.linalg.norm(pts, axis=1)])
        # Families that differ at every neighbour make the chosen node visible.
        marked = replace(spiked_run, family=np.arange(radii.size) % 3)
        family, param = marked.best_patches(pts)
        assert np.array_equal(family, nearest % 3)
        assert np.array_equal(family[:mid.size][ties], np.nonzero(ties)[0] % 3)
        assert not param.any()
        family, param = spiked_run.best_patches(pts)
        assert np.array_equal(family, spiked_run.family[nearest])
        assert set(family.tolist()) == {envelope.FAMILY_CONSTANT, envelope.FAMILY_CAP,
                                        envelope.FAMILY_ANNULUS}
        off_origin = r > 0.0
        self._agrees_with_best_patch(spiked_run, pts[off_origin], family[off_origin],
                                     param[off_origin])

    def test_cartesian_nearest_node_and_direction(self, annulus_cart_seq):
        run = annulus_cart_seq.run
        fld = run.field
        rng = np.random.default_rng(6)
        nodes = fld.coords[fld.inside][::37]
        halfway = nodes[:-1] + 0.5 * fld.spacing
        pts = np.concatenate([nodes, halfway, rng.uniform(-0.7, 0.7, (400, 2))])
        lo = fld.coords[0, 0]
        ij = [(round((x - lo[0]) / fld.spacing), round((y - lo[1]) / fld.spacing))
              for x, y in pts]
        family, param = run.best_patches(pts)
        assert family.tolist() == [int(run.family[i]) for i in ij]
        caps = family == envelope.FAMILY_CAP
        assert param[caps].tolist() == [int(run.index[i]) for i, cap in zip(ij, caps) if cap]
        assert not param[~caps].any()
        assert np.unique(param[caps]).size > 1
        self._agrees_with_best_patch(run, pts, family, param)


# 257-node fixtures and probes of Cartesian witnesses: the shrunk component is
# a grid region for the first two and a centred disc for the third.
GRID_WITNESSES = [("cap_cart_seq", (0.1, 0.0)), ("annulus_cart_seq", (0.6, 0.0)),
                  ("annulus_cart_seq", (0.05, 0.0))]


def base_nodes(w, fld) -> np.ndarray:
    """Mask of the grid nodes strictly inside the witness base's domain."""
    sd = L.signed_distance(w.base.domain, fld.coords.reshape(-1, 2))
    return sd.reshape(fld.values.shape) < 0.0


class TestWitness:
    def test_level0_shape_and_value(self, spiked_seq):
        x = np.array([0.3, 0.0])
        w = build_branched_witness(spiked_seq, 0, x)
        assert w.depth == 2
        assert w.base.label.startswith("witness-annulus")
        child = w.extension(np.array([0.06, 0.0]))
        assert child.depth == 1
        target = spiked_seq.levels[1].interpolate(0.3)
        assert abs(float(w.value(x)) - target) <= w.error_bound

    def test_batch_successors_match_the_scalar_query(self, spiked_seq):
        w = build_branched_witness(spiked_seq, 0, np.array([0.3, 0.0]))
        rng = np.random.default_rng(8)
        turn = rng.uniform(0.0, 2.0 * np.pi, 64)
        r = np.concatenate([rng.uniform(0.02, 0.1, 32), rng.uniform(0.6, 0.99, 32)])
        pts = r[:, None] * np.stack([np.cos(turn), np.sin(turn)], axis=1)
        keys, nodes, frames = w.extension.successors(pts)
        assert len(nodes) == 3 and np.allclose(np.linalg.norm(frames, axis=1), 1.0)
        for p, key, v in zip(pts, keys, frames):
            child = w.extension(p)
            assert child.base.label == nodes[key].base.label
            assert nodes[key].base.value(reflect(p[None], v[None]))[0] == pytest.approx(
                float(child.base.value(p)), abs=1e-12)
        # One leaf per key: the map holds three successors, not one per query.
        assert len({id(nodes[k]) for k in w.extension.successors(pts[::-1])[0]}) == 3

    def test_witness_majorises(self, spiked, spiked_seq):
        w = build_branched_witness(spiked_seq, 0, np.array([0.3, 0.0]))
        ok, worst = majorises_gain(w, spiked, probes=512)
        assert ok, f"worst gap {worst}"

    def test_witness_matching_error_within_bound(self, spiked_seq):
        for level in range(len(spiked_seq.levels)):
            w = build_branched_witness(spiked_seq, level, np.array([0.3, 0.0]))
            delta, norm = matching_error(w)
            assert norm <= w.error_bound + 1e-12

    def test_contact_point_has_no_witness(self, spiked_seq):
        with pytest.raises(NoWitnessError):
            build_branched_witness(spiked_seq, 0, np.array([0.005, 0.0]))

    def test_limit_consistency(self, spiked_seq):
        # Witness values converge to the limit field as the level grows.
        lim = spiked_seq.levels[-1]
        rng = np.random.default_rng(4)
        for r in rng.uniform(0.09, 0.3, size=10):
            x = np.array([r, 0.0])
            w = build_branched_witness(spiked_seq, len(spiked_seq.levels) - 1, x)
            assert abs(float(w.value(x)) - float(lim.interpolate(r))) <= w.error_bound

    def test_cartesian_witness(self, cap_gain, cap_cart_seq):
        x = np.array([0.1, 0.0])
        w = build_branched_witness(cap_cart_seq, len(cap_cart_seq.levels) - 1, x)
        lim = cap_cart_seq.levels[-1]
        val = float(w.value(x))
        assert np.isfinite(val)
        assert abs(val - float(lim.interpolate(x))) <= w.error_bound
        ok, worst = majorises_gain(w, cap_gain, probes=256)
        assert ok, f"worst gap {worst}"

    @pytest.mark.parametrize("seq_name, x", GRID_WITNESSES)
    def test_grid_base_is_the_last_level(self, request, seq_name, x):
        # The last level is discretely harmonic on its non-contact set, so the
        # Dirichlet solve on the shrunk component returns it, and two builds
        # agree bit for bit.
        seq = request.getfixturevalue(seq_name)
        last = len(seq.levels) - 1
        fld = seq.levels[last]
        builds = [build_branched_witness(seq, last, np.array(x)) for _ in range(2)]
        nodes = base_nodes(builds[0], fld)
        values = [w.base.value(fld.coords[nodes]) for w in builds]
        assert np.max(np.abs(values[0] - fld.values[nodes])) <= 1e-10
        assert np.array_equal(values[0], values[1])
        assert builds[0].error_bound == builds[1].error_bound

    @pytest.mark.parametrize("seq_name, x", GRID_WITNESSES)
    def test_grid_base_dominates_the_next_level(self, request, seq_name, x):
        # At level 0 the base solves with the larger data of w1, so by the
        # discrete maximum principle it lies above level 1 on the shrunk
        # component.
        seq = request.getfixturevalue(seq_name)
        w = build_branched_witness(seq, 0, np.array(x))
        nodes = base_nodes(w, seq.levels[0])
        base = w.base.value(seq.levels[0].coords[nodes])
        assert np.all(base >= seq.levels[1].values[nodes])

    @pytest.mark.parametrize("seq_name, x", GRID_WITNESSES)
    def test_grid_base_majorises_the_gain_within_its_bound(self, request, seq_name, x):
        # On every node inside the base's domain the base clears the gain, and
        # the error bound covers its gap to the next level.
        seq = request.getfixturevalue(seq_name)
        gain = seq.run.gain
        for level in (0, len(seq.levels) - 1):
            fld = seq.levels[level]
            nxt = seq.levels[min(level + 1, len(seq.levels) - 1)]
            w = build_branched_witness(seq, level, np.array(x))
            nodes = base_nodes(w, fld)
            base = w.base.value(fld.coords[nodes])
            assert np.all(base >= gain_on_grid(gain, fld)[nodes])
            assert w.error_bound >= np.max(np.abs(base - nxt.values[nodes]))


class TestDimensionThree:
    def test_radial_pipeline_matches_oracle_in_d3(self):
        g = L.mollify(L.spiked_gain(0.05, dim=3), 0.01)
        radii = L.radial_grid(512, r_min=5e-3)
        run = unbranched_envelope(g, radii)
        seq = iterate_envelopes(g, run, max_iter=16)
        assert seq.converged
        from lsmlab.oracle import radial_value_oracle
        oracle = radial_value_oracle(g, 3, radii)
        assert np.all(run.field.values >= oracle.values - 1e-9)
        assert np.max(np.abs(seq.levels[-1].values - oracle.values)) <= 5e-3
