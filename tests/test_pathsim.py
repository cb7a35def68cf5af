"""Path simulation: absorption, stopping rules, the patch-extension walk,
payoff estimation and optimality reports."""

import numpy as np
import pytest
from scipy import stats

import lsmlab as L
from lsmlab.envelope import build_branched_witness
from lsmlab.geometry import Annulus, Ball, signed_distance
from lsmlab.majorant import annulus_patch, annulus_to_boundary_patch, branched, leaf, \
    matching_error
from lsmlab.harmonic import WosConfig, wos_exit_batch
from lsmlab.pathsim import (ContactHit, EarlierOf, FirstExit, FixedTime, PathConfig,
                            PathError, StructuralError, continuation_domain, payoff_estimate,
                            optimality_test, run_algorithm1, run_algorithm1_batch,
                            simulate_path)

GSTAR = 1.25


@pytest.fixture(scope="module")
def contact_rule(spiked_seq):
    return ContactHit(contact=spiked_seq.contacts[-1], grid=spiked_seq.levels[-1])


class TestSimulatePath:
    def test_boundary_start_absorbs_instantly(self):
        rec = simulate_path(np.array([1.0, 0.0]), PathConfig(seed=0), FixedTime(1.0))
        assert rec.absorbed
        assert rec.termination == "hit_boundary"
        assert rec.times[-1] == 0.0

    def test_fixed_time_zero(self):
        rec = simulate_path(np.array([0.2, 0.1]), PathConfig(seed=0), FixedTime(0.0))
        assert rec.termination == "stopped"
        assert np.allclose(rec.points[-1], [0.2, 0.1])

    def test_exit_radius_and_uniform_angle(self):
        cfg = PathConfig(dt=2e-3, seed=3, scheme="euler")
        rule = FirstExit(Ball((0.0, 0.0), 0.5))
        angles = []
        radii = []
        for k in range(2048):
            rec = simulate_path(np.zeros(2), cfg, rule, path_index=k)
            assert rec.termination == "stopped"
            p = rec.points[-1]
            radii.append(np.linalg.norm(p))
            angles.append(np.arctan2(p[1], p[0]))
        radii = np.asarray(radii)
        # Crossing interpolation keeps the recorded exits within one step of the circle.
        assert abs(np.mean(radii) - 0.5) < 3 * np.sqrt(cfg.dt)
        u = (np.asarray(angles) + np.pi) / (2 * np.pi)
        assert stats.kstest(u, "uniform").pvalue > 0.01

    def test_increment_statistics(self):
        cfg = PathConfig(dt=1e-3, seed=9, scheme="euler")
        incs = []
        for k in range(64):
            rec = simulate_path(np.zeros(2), cfg, FixedTime(0.25), path_index=k)
            pts = rec.points
            if rec.absorbed:
                pts = pts[:-1]  # final segment is interpolation-truncated
            if len(pts) > 2:
                incs.append(np.diff(pts, axis=0))
        pooled = np.concatenate(incs, axis=0).ravel()
        n = pooled.size
        assert n > 20_000
        var = pooled.var()
        # Chi-squared two-sided test at 1% for the variance dt.
        stat = n * var / cfg.dt
        lo, hi = stats.chi2.ppf([0.005, 0.995], df=n)
        assert lo < stat < hi
        assert abs(pooled.mean()) < 3 * np.sqrt(cfg.dt / n)

    def test_absorbed_endpoint_on_sphere(self):
        cfg = PathConfig(dt=1e-3, seed=1, scheme="euler", max_time=100.0)
        rec = simulate_path(np.array([0.8, 0.0]), cfg, FixedTime(50.0))
        if rec.absorbed:
            assert abs(np.linalg.norm(rec.points[-1]) - 1.0) <= max(1e-4, np.sqrt(cfg.dt))


class TestAlgorithm1:
    def test_depth_one_terminates(self, spiked):
        tree = leaf(annulus_to_boundary_patch(0.05, GSTAR))
        rec = run_algorithm1(tree, np.array([0.4, 0.0]), PathConfig(seed=2))
        assert rec.termination in ("hit_boundary", "hit_gstar")
        final = rec.points[-1]
        r = np.linalg.norm(final)
        assert min(abs(r - 0.05), abs(r - 1.0)) <= 1e-3

    def test_two_patch_trace_contiguity(self):
        base = annulus_patch(0.15, 0.6, 1.0, 0.35, GSTAR)
        kid = leaf(annulus_to_boundary_patch(0.05, GSTAR))
        tree = branched(base, lambda u: kid, depth=2, error_bound=1.0)
        cfg = PathConfig(seed=4)
        seen_child = False
        for k in range(32):
            rec = run_algorithm1(tree, np.array([0.3, 0.0]), cfg, path_index=k)
            labels = [t[0] for t in rec.patch_trace]
            assert labels[0].startswith("annulus[0.15")
            if any(lab.startswith("annulus[0.05") for lab in labels):
                seen_child = True
            # Every point recorded for a patch lies in (or on) that patch domain.
            for label, _t, pt in rec.patch_trace:
                dom = kid.base.domain if label.startswith("annulus[0.05") else base.domain
                assert signed_distance(dom, pt) <= cfg.shell
        assert seen_child

    def test_structural_error_on_bad_extension(self):
        base = annulus_patch(0.15, 0.6, 1.0, 0.35, GSTAR)
        stray = leaf(annulus_patch(0.8, 0.9, GSTAR, GSTAR, GSTAR))
        tree = branched(base, lambda u: stray, depth=2, error_bound=1.0)
        cfg = PathConfig(seed=5)
        with pytest.raises(StructuralError):
            for k in range(64):
                run_algorithm1(tree, np.array([0.3, 0.0]), cfg, path_index=k)

    def test_witness_excessivity(self, spiked, spiked_seq):
        x = np.array([0.3, 0.0])
        witness = build_branched_witness(spiked_seq, 0, x)
        _, norm = matching_error(witness)
        finals, terms = run_algorithm1_batch(witness, x, 10_000, PathConfig(seed=6))
        payoff = spiked(finals)
        mean = payoff.mean()
        sem = payoff.std(ddof=1) / np.sqrt(len(payoff))
        bound = float(witness.value(x)) + max(norm, witness.error_bound)
        assert mean <= bound + 3 * sem


class TestPayoff:
    def test_fixed_time_zero_exact(self, spiked):
        mean, sem = payoff_estimate(np.array([0.2, 0.0]), FixedTime(0.0), spiked,
                                    1000, PathConfig(seed=0))
        assert mean == pytest.approx(spiked(np.array([0.2, 0.0])))
        assert sem == 0.0

    def test_contact_point_pays_gain_exactly(self, spiked, contact_rule):
        x = np.array([0.01, 0.0])
        mean, sem = payoff_estimate(x, contact_rule, spiked, 1000, PathConfig(seed=0))
        assert mean == pytest.approx(spiked(x))
        assert sem == 0.0

    def test_contact_hit_matches_oracle(self, spiked, spiked_oracle, contact_rule):
        x = np.array([0.2, 0.0])
        mean, sem = payoff_estimate(x, contact_rule, spiked, 100_000,
                                    PathConfig(seed=8), stream_key=42)
        assert abs(mean - spiked_oracle.interpolate(0.2)) <= 3 * sem

    def test_first_exit_matches_harmonic_measure(self, spiked):
        # Expected gain at the exit of an annulus = radial harmonic interpolation
        # of the gain values at the two spheres.
        from lsmlab.harmonic import radial_annulus_harmonic
        x = np.array([0.3, 0.0])
        rule = FirstExit(Annulus((0.0, 0.0), 0.2, 0.45))
        mean, sem = payoff_estimate(x, rule, spiked, 100_000, PathConfig(seed=12))
        ga = spiked(np.array([0.2, 0.0]))
        gb = spiked(np.array([0.45, 0.0]))
        want = radial_annulus_harmonic(0.2, 0.45, ga, gb, 0.3, 2)
        assert abs(mean - want) <= 3 * sem + 1e-4

    def test_needs_paths(self, spiked):
        with pytest.raises(PathError):
            payoff_estimate(np.zeros(2), FixedTime(0.0), spiked, 0, PathConfig(seed=0))


class TestStatisticalExcessivity:
    """One-sided excessivity of majorising patches under arbitrary stopping."""

    def _rules(self):
        return [FirstExit(Ball((0.0, 0.0), 0.7)),
                FirstExit(Ball((0.0, 0.0), 0.95)),
                FirstExit(Annulus((0.0, 0.0), 0.05, 0.6)),
                FirstExit(Annulus((0.0, 0.0), 0.12, 0.85)),
                FixedTime(0.0)]

    def test_random_unbranched_patches(self, spiked):
        rng = np.random.default_rng(21)
        patches = [leaf(L.majorant.constant_patch(spiked.max_gain, GSTAR))]
        for _ in range(5):
            a = rng.uniform(0.0405, 0.2)
            patches.append(leaf(annulus_to_boundary_patch(a, GSTAR)))
        for _ in range(4):
            z = rng.uniform(0.3, 0.94)
            ang = rng.uniform(0, 2 * np.pi)
            patches.append(leaf(L.majorant.cap_patch(
                np.array([np.cos(ang), np.sin(ang)]), z, GSTAR)))
        cfg = PathConfig(seed=22)
        checked = 0
        for k, h in enumerate(patches):
            ok, worst = L.majorant.majorises_gain(h, spiked, probes=512, seed=k)
            assert ok, f"patch {k} infeasible: {worst}"
            x = np.array([rng.uniform(0.1, 0.45), 0.0])
            if not np.isfinite(h.value(x)):
                x = np.array([0.3, 0.0])
            for j, rule in enumerate(self._rules()):
                mean, sem = payoff_estimate(x, rule, spiked, 10_000, cfg,
                                            stream_key=100 * k + j)
                assert float(h.value(x)) >= mean - 3 * sem - 1e-12
                checked += 1
        assert checked >= 50

    def test_random_branched_trees(self, spiked):
        rng = np.random.default_rng(23)
        cfg = PathConfig(seed=24)
        kid = leaf(annulus_to_boundary_patch(0.05, GSTAR))
        for k in range(6):
            a = rng.uniform(0.12, 0.2)
            b = rng.uniform(0.45, 0.65)
            va = rng.uniform(0.95, 1.1)
            vb = rng.uniform(0.3, 0.45)
            tree = branched(annulus_patch(a, b, va, vb, GSTAR), lambda u: kid,
                            depth=2, error_bound=1.0)
            ok, worst = L.majorant.majorises_gain(tree, spiked, probes=512, seed=k)
            if not ok:
                continue
            _, norm = matching_error(tree)
            x = np.array([rng.uniform(a + 0.03, b - 0.03), 0.0])
            for j, rule in enumerate(self._rules()):
                mean, sem = payoff_estimate(x, rule, spiked, 10_000, cfg,
                                            stream_key=100 * k + j + 5000)
                assert float(tree.value(x)) >= mean - norm - 3 * sem - 1e-12


class TestOptimality:
    def test_contact_rule_dominates(self, spiked, contact_rule):
        rivals = [FixedTime(0.0), FirstExit(Ball((0.0, 0.0), 0.9)),
                  FirstExit(Annulus((0.0, 0.0), 0.1, 0.5)), contact_rule]
        report = optimality_test(np.array([0.3, 0.0]), contact_rule, rivals, spiked,
                                 20_000, PathConfig(seed=13))
        assert report.all_dominated()
        assert report.all_truncations_ok()

    def test_gain_floor(self, spiked, contact_rule):
        x = np.array([0.25, 0.0])
        report = optimality_test(x, contact_rule, [FixedTime(0.0)], spiked,
                                 20_000, PathConfig(seed=14))
        base_mean, base_sem = report.contact_payoff
        assert base_mean >= float(spiked(x)) - 3 * base_sem

    def test_earlier_of_composition(self, spiked, contact_rule):
        x = np.array([0.3, 0.0])
        rule = EarlierOf(FirstExit(Ball((0.0, 0.0), 0.9)), contact_rule)
        mean, sem = payoff_estimate(x, rule, spiked, 20_000, PathConfig(seed=15))
        base, bsem = payoff_estimate(x, contact_rule, spiked, 20_000,
                                     PathConfig(seed=15), stream_key=7)
        # Truncation at the contact hit reproduces the contact-hit payoff here,
        # because the contact set is inside the 0.9 ball.
        assert abs(mean - base) <= 3 * np.hypot(sem, bsem)

    def test_nested_earlier_of_lands_on_a_part(self, spiked, contact_rule):
        # The inner earlier-of is an intersection inside an intersection; its
        # exits are projected onto its own binding part like any other.
        x = np.array([0.3, 0.0])
        ball = FirstExit(Ball((0.3, 0.0), 0.15))
        ann = FirstExit(Annulus((0.0, 0.0), 0.22, 0.8))
        rule = EarlierOf(EarlierOf(ball, ann), contact_rule)
        dom = continuation_domain(rule, x)
        leaves = [ball.domain, ann.domain, dom.parts[1]]
        exits = wos_exit_batch(dom, x, WosConfig(walks=2000, seed=3))
        gaps = np.abs([signed_distance(leaf, exits) for leaf in leaves])
        assert set(np.argmin(gaps, axis=0)) == {0, 1, 2}
        assert np.max(np.min(gaps, axis=0)) <= 1e-12
        # Grouping the same three rules the other way gives the same exits.
        other = EarlierOf(ball, EarlierOf(ann, contact_rule))
        assert (payoff_estimate(x, rule, spiked, 2000, PathConfig(seed=3))
                == payoff_estimate(x, other, spiked, 2000, PathConfig(seed=3)))
