"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a [AC-k] PASS line with the measured quantities (visible
with pytest -s or in failure output).  The heavy pipelines are rebuilt inside
the timed criteria so the runtime limits are honest.
"""

import time

import numpy as np
from scipy import ndimage

import lsmlab as L
from lsmlab import rng as rngmod
from lsmlab.envelope import (balayage_step, contact_set, iterate_envelopes,
                             unbranched_envelope)
from lsmlab.gain import mollify, spiked_gain
from lsmlab.geometry import (Annulus, Ball, FullBall, GridRegion, boundary_samples,
                             hausdorff_distance, rasterize, smooth_inner_approximation)
from lsmlab.harmonic import BoundaryData, WosConfig, poisson_ball_eval, wos_harmonic_eval
from lsmlab.majorant import (annulus_patch, annulus_to_boundary_patch, ball_patch, branched,
                             cap_patch, constant_patch, continuous_regularisation, leaf,
                             majorises_gain, matching_error)
from lsmlab.harmonic import constant_data
from lsmlab.oracle import cross_validate, psor_obstacle_solve, radial_value_oracle
from lsmlab.pathsim import (ContactHit, FirstExit, FixedTime, PathConfig, optimality_test,
                            payoff_estimate)

GSTAR = 1.25


def report(tag: str, detail: str) -> None:
    print(f"[{tag}] PASS {detail}", flush=True)


class TestAC1HarmonicCore:
    def test_wos_matches_poisson_on_random_discs(self):
        t0 = time.time()
        gen = rngmod.stream(2024, 1)
        worst = 0.0
        for k in range(20):
            c = gen.uniform(-0.25, 0.25, size=2)
            r = gen.uniform(0.2, min(0.6, 0.93 - float(np.linalg.norm(c))))
            a, b, d = gen.uniform(-1.0, 1.0, size=3)

            def data_fn(p, c=c, r=r, a=a, b=b, d=d):
                ang = np.arctan2(p[:, 1] - c[1], p[:, 0] - c[0])
                return 1.0 + a * np.cos(ang) + b * np.sin(ang) + d * np.cos(2 * ang)

            data = BoundaryData(evaluator=data_fn)
            x = c + gen.uniform(-0.5, 0.5, size=2) * r / np.sqrt(2.0)
            exact = poisson_ball_eval(c, r, data, x)
            mean, sem = wos_harmonic_eval(Ball(tuple(c), r), data, x,
                                          WosConfig(walks=100_000, seed=300 + k))
            z = abs(mean - exact) / max(sem, 1e-12)
            worst = max(worst, z)
            assert abs(mean - exact) <= 3.0 * sem, f"fixture {k}: z={z:.2f}"

        data = BoundaryData(lambda p: p[:, 0])
        mean, _ = wos_harmonic_eval(FullBall(2), data, np.array([0.3, 0.0]),
                                    WosConfig(walks=100_000, seed=299))
        assert abs(mean - 0.3) <= 5e-3
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"AC-1 took {elapsed:.1f}s"
        report("AC-1", f"20 disc fixtures worst |z|={worst:.2f}, "
                       f"closed-form fixture within 5e-3, {elapsed:.1f}s")


class TestAC2SpikedBallFailure:
    def test_unbranched_envelope_fails_strictly(self):
        t0 = time.time()
        gain = mollify(spiked_gain(0.05), 0.01)
        radii = L.radial_grid(2048)
        run = unbranched_envelope(gain, radii)
        fld = run.field
        c1 = contact_set(fld, gain)

        # (a) the Harnack-predicted annulus around the spike is non-contact.
        d = gain.dim
        ratio = (5.0 / 4.0) ** (1.0 / d)
        harnack_r = (ratio - 1.0) / (ratio + 1.0)
        edge_idx = np.nonzero(c1.contact_mask & (radii < 0.25))[0]
        assert edge_idx.size > 0
        edge = float(radii[edge_idx[-1]])
        band = (radii > edge) & (radii <= harnack_r)
        assert band.sum() > 0, "no grid nodes between the plateau edge and the Harnack radius"
        assert np.all(c1.noncontact_mask[band])

        # (b) the balayage drops below the envelope on the annular component.
        bal = balayage_step(fld, c1, gain)
        margin = fld.values - bal.values
        i = int(np.argmin(np.abs(radii - 0.1)))
        label = c1.labels[i]
        assert label > 0
        comp = c1.labels == label
        frac = float(np.mean(margin[comp] > 1e-3))
        assert frac >= 0.10
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"AC-2 took {elapsed:.1f}s"
        report("AC-2", f"annulus ({edge:.4f}, {harnack_r:.4f}] non-contact "
                       f"({band.sum()} nodes); balayage gap at {frac:.0%} of nodes, "
                       f"max {margin[comp].max():.3g}, {elapsed:.1f}s")


class TestAC3MonotoneScheme:
    def test_all_presets_monotone_and_nested(self, spiked_seq, annulus_cart_seq, cap_cart_seq):
        for name, seq in (("spiked-ball", spiked_seq), ("annulus-gain", annulus_cart_seq),
                          ("cap-gain", cap_cart_seq)):
            for a, b in zip(seq.levels, seq.levels[1:]):
                assert np.all(b.values <= a.values + 1e-12), f"{name}: not monotone"
            for ca, cb in zip(seq.contacts, seq.contacts[1:]):
                na, nb = ca.noncontact_mask, cb.noncontact_mask
                if na.ndim == 1:
                    grown = na.copy()
                    grown[:-1] |= na[1:]
                    grown[1:] |= na[:-1]
                else:
                    struct = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
                    grown = ndimage.binary_dilation(na, structure=struct)
                assert not np.any(nb & ~grown), f"{name}: non-contact sets not nested"
        report("AC-3", "levels decrease nodewise (1e-12) and non-contact sets nest "
                       "after one-cell dilation on all three presets")


class TestAC4OracleAgreement:
    def test_radial_and_cartesian_limits_match_oracles(self):
        t0 = time.time()
        # Radial spiked preset against the concave-majorant oracle.
        gain = mollify(spiked_gain(0.05), 0.01)
        radii = L.radial_grid(2048)
        seq = iterate_envelopes(gain, unbranched_envelope(gain, radii), max_iter=32)
        assert seq.converged
        oracle = radial_value_oracle(gain, 2, radii)
        sup_radial = float(np.max(np.abs(seq.levels[-1].values - oracle.values)))
        assert sup_radial <= 1e-3

        # Cartesian presets against projected SOR on the 257^2 grid.
        sups = {}
        for name, g in (("annulus-gain", L.radial_bump_gain(0.3, 0.15)),
                        ("cap-gain", L.offset_bump_gain((0.4, 0.0), 0.15))):
            cart = iterate_envelopes(g, unbranched_envelope(g, 257), max_iter=16)
            assert cart.converged
            psor = psor_obstacle_solve(g, n=257)
            rep = cross_validate(cart.levels[-1], psor=psor)
            sups[name] = rep["psor"]["sup"]
            assert sups[name] <= 5e-3, f"{name}: {sups[name]}"
            if g.radial:
                prof = radial_value_oracle(g, 2, radii)
                cross = cross_validate(psor, radial=prof)["radial"]["sup"]
                assert cross <= 5e-3
                sups["oracle-vs-oracle"] = cross
        elapsed = time.time() - t0
        assert elapsed < 300.0, f"AC-4 took {elapsed:.1f}s"
        report("AC-4", f"radial sup {sup_radial:.2e}; cartesian sup "
                       + ", ".join(f"{k}={v:.2e}" for k, v in sups.items())
                       + f"; {elapsed:.1f}s")


class TestAC5OptimalStopping:
    def test_contact_rule_is_optimal(self):
        t0 = time.time()
        gain = mollify(spiked_gain(0.05), 0.01)
        radii = L.radial_grid(2048)
        seq = iterate_envelopes(gain, unbranched_envelope(gain, radii), max_iter=32)
        oracle = radial_value_oracle(gain, 2, radii)
        rule = ContactHit(contact=seq.contacts[-1], grid=seq.levels[-1])
        cfg = PathConfig(seed=77)
        n_paths = 100_000
        rivals = [FixedTime(0.0), FirstExit(Ball((0.0, 0.0), 0.9)),
                  FirstExit(Annulus((0.0, 0.0), 0.1, 0.5)),
                  FirstExit(Ball((0.3, 0.0), 0.2))]
        worst_z = 0.0
        for probe_i, r in enumerate((0.02, 0.1, 0.3, 0.45, 0.7)):
            x = np.array([r, 0.0])
            mean, sem = payoff_estimate(x, rule, gain, n_paths, cfg,
                                        stream_key=500 + probe_i)
            v = float(oracle.interpolate(r))
            assert abs(mean - v) <= 3.0 * sem + 1e-12, f"probe r={r}"
            worst_z = max(worst_z, abs(mean - v) / max(sem, 1e-12) if sem > 0 else 0.0)
            rep = optimality_test(x, rule, rivals, gain, n_paths, cfg)
            assert rep.all_dominated(), f"probe r={r}: {rep.rows}"
            assert rep.all_truncations_ok(), f"probe r={r}: {rep.rows}"
        elapsed = time.time() - t0
        assert elapsed < 600.0, f"AC-5 took {elapsed:.1f}s"
        report("AC-5", f"5 probes at 1e5 paths: payoff matches oracle "
                       f"(worst |z|={worst_z:.2f}), 4 rivals dominated, "
                       f"truncations never hurt; {elapsed:.1f}s")


def _excessivity_corpus(gain):
    """(majorant, start point, stopping rule) triples across depths 1-3."""
    corpus = []
    depth1 = [
        leaf(constant_patch(gain.max_gain, GSTAR)),
        leaf(cap_patch(np.array([1.0, 0.0]), 0.49 / GSTAR, GSTAR)),
        leaf(annulus_to_boundary_patch(0.0405, GSTAR)),
        leaf(annulus_to_boundary_patch(0.1, GSTAR)),
        leaf(annulus_to_boundary_patch(0.2, GSTAR)),
    ]
    base_a = annulus_patch(0.15, 0.6, 1.0, 0.35, GSTAR)
    kid_a = leaf(annulus_to_boundary_patch(0.05, GSTAR))
    base_b = annulus_patch(0.1, 0.5, 1.0, 0.5, GSTAR)
    kid_b = leaf(constant_patch(gain.max_gain, GSTAR))
    depth2 = [
        branched(base_a, lambda u: kid_a, depth=2, error_bound=1.0),
        branched(base_b, lambda u: kid_b, depth=2, error_bound=1.0),
    ]
    mid_patch = annulus_patch(0.12, 0.7, 1.0, 0.3, GSTAR)
    mid = branched(mid_patch, lambda u: kid_a, depth=2, error_bound=1.0)
    base_c = annulus_patch(0.25, 0.5, 0.9, 0.45, GSTAR)
    depth3 = [branched(base_c, lambda u: mid, depth=3, error_bound=1.0)]

    rules = [FirstExit(Ball((0.0, 0.0), 0.7)), FirstExit(Annulus((0.0, 0.0), 0.08, 0.9))]
    xs = [np.array([0.17, 0.0]), np.array([0.0, 0.33]), np.array([-0.42, 0.0])]
    for h in depth1 + depth2 + depth3:
        for x in xs:
            if not np.isfinite(h.value(x)):
                continue
            for rule in rules:
                corpus.append((h, x, rule))
    return corpus


class TestAC6Excessivity:
    def test_corpus_statistical_bound(self):
        gain = mollify(spiked_gain(0.05), 0.01)
        corpus = _excessivity_corpus(gain)
        assert len(corpus) >= 30
        cfg = PathConfig(seed=31)
        checked = 0
        for k, (h, x, rule) in enumerate(corpus):
            ok, worst = majorises_gain(h, gain, probes=256, seed=k)
            assert ok, f"fixture {k} fails majorisation: {worst}"
            _, norm = matching_error(h)
            mean, sem = payoff_estimate(x, rule, gain, 10_000, cfg, stream_key=k)
            hx = float(h.value(x))
            assert mean <= hx + norm + 3.0 * sem + 1e-12, (
                f"fixture {k}: payoff {mean:.4f} vs bound {hx + norm:.4f} (sem {sem:.2g})")
            checked += 1
        report("AC-6", f"{checked} (majorant, start, rule) triples across depths 1-3 "
                       f"satisfy payoff <= value + norm + 3 sigma at 1e4 paths")


class TestAC7Regularisation:
    def test_sandwich_and_zero_norm(self):
        fixtures = []
        for parent, child in ((1.0, 0.9), (1.0, 0.85), (0.8, 0.95)):
            base = ball_patch((0.0, 0.0), 0.5, constant_data(parent), GSTAR)
            kid = leaf(constant_patch(child, GSTAR))
            fixtures.append(branched(base, lambda u, kid=kid: kid, depth=2,
                                     error_bound=abs(parent - child)))
        base_a = annulus_patch(0.15, 0.6, 1.0, 0.35, GSTAR)
        kid_a = leaf(annulus_to_boundary_patch(0.05, GSTAR))
        fixtures.append(branched(base_a, lambda u: kid_a, depth=2, error_bound=1.0))
        mid = branched(annulus_patch(0.12, 0.7, 1.0, 0.3, GSTAR), lambda u: kid_a,
                       depth=2, error_bound=1.0)
        fixtures.append(branched(annulus_patch(0.25, 0.5, 0.9, 0.45, GSTAR),
                                 lambda u: mid, depth=3, error_bound=1.0))
        rng = np.random.default_rng(12)
        worst_norm = 0.0
        for k, tree in enumerate(fixtures):
            _, norm = matching_error(tree)
            reg = continuous_regularisation(tree, samples=256)
            _, norm0 = matching_error(reg)
            worst_norm = max(worst_norm, norm0)
            assert norm0 <= 1e-9, f"fixture {k}: regularised norm {norm0}"
            pts = rng.uniform(-0.9, 0.9, size=(12_000, 2))
            hv = np.atleast_1d(tree.value(pts))
            keep = np.isfinite(hv)
            pts, hv = pts[keep][:1000], hv[keep][:1000]
            assert pts.shape[0] >= 1000, "need 1e3 interior probes"
            rv = np.atleast_1d(reg.value(pts))
            assert np.all(hv - 1e-12 <= rv), f"fixture {k}: lower sandwich"
            assert np.all(rv <= hv + norm + 1e-9), f"fixture {k}: upper sandwich"
        report("AC-7", f"{len(fixtures)} trees: h <= h0 <= h + |h| at 1e3 probes, "
                       f"worst regularised norm {worst_norm:.2e}")


class TestAC8Geometry:
    def test_hausdorff_bound_on_shape_fixtures(self):
        two_balls = rasterize(Ball((-0.3, 0.0), 0.3), n=512).mask \
            | rasterize(Ball((0.3, 0.0), 0.3), n=512).mask
        xs = (np.arange(512) - 255.5) * (2.0 / 512)
        xx, yy = np.meshgrid(xs, xs, indexing="ij")
        ellipse = (xx / 0.55) ** 2 + (yy / 0.35) ** 2 < 1.0
        shapes = {
            "disc": rasterize(Ball((0.0, 0.0), 0.5), n=512),
            "offset-disc": rasterize(Ball((0.2, 0.1), 0.4), n=512),
            "annulus": rasterize(Annulus((0.0, 0.0), 0.1, 0.6), n=512),
            "two-balls": GridRegion(mask=two_balls, spacing=2.0 / 512),
            "ellipse": GridRegion(mask=ellipse, spacing=2.0 / 512),
        }
        results = []
        for name, region in shapes.items():
            for delta in (0.05, 0.02):
                out = smooth_inner_approximation(region, delta, check_samples=512)
                dh = hausdorff_distance(boundary_samples(region, 512),
                                        boundary_samples(out, 512))
                assert dh < delta, f"{name} at delta={delta}: {dh}"
                results.append(f"{name}@{delta}:{dh:.3f}")
        report("AC-8", "; ".join(results))


class TestAC9BoundaryVanishing:
    def test_envelope_vanishes_linearly_at_sphere(self, spiked, spiked_run,
                                                  annulus_gain, annulus_cart_seq,
                                                  cap_gain, cap_cart_seq):
        # Radial preset.
        fld = spiked_run.field
        m = spiked.lipschitz_bound
        cell = float(np.max(np.diff(fld.radii)))
        near = fld.radii > 1.0 - cell
        tol = spiked_run.class_lipschitz * cell
        assert np.all(fld.values[near] <= m * (1.0 - fld.radii[near]) + tol + 1e-12)

        # Cartesian presets.
        for gain, seq in ((annulus_gain, annulus_cart_seq), (cap_gain, cap_cart_seq)):
            w1 = seq.levels[0]
            sp = w1.spacing
            node_r = np.linalg.norm(w1.coords, axis=-1)
            near = w1.inside & (node_r > 1.0 - sp)
            mm = gain.lipschitz_bound
            # grid tolerance: one cell of envelope slope plus the angular
            # quantisation of the cap dictionary.
            tol = seq.run.class_lipschitz * sp + mm * (2 * np.pi / 256) ** 2
            assert np.all(w1.values[near] <= mm * (1.0 - node_r[near]) + tol + 1e-12), gain
        report("AC-9", "w1 <= M (1-|x|) + grid tol within one cell of the sphere "
                       "on all presets")
