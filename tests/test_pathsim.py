"""Path simulation: absorption, stopping rules, the patch-extension walk,
payoff estimation and optimality reports."""

import csv

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
                            PathError, PathRecord, StructuralError, continuation_domain,
                            euler_exits, payoff_estimate, optimality_test, run_algorithm1,
                            run_algorithm1_batch, trace_to_csv)

GSTAR = 1.25


@pytest.fixture(scope="module")
def contact_rule(spiked_seq):
    return ContactHit(contact=spiked_seq.contacts[-1], grid=spiked_seq.levels[-1])


class TestSimulatePath:
    """Euler paths (``euler_exits``): absorption, stopping and increments."""

    def test_boundary_start_absorbs_instantly(self):
        x = np.array([1.0, 0.0])
        stops = euler_exits(x, FixedTime(1.0), 8, PathConfig(seed=0))
        assert np.array_equal(stops, np.tile(x, (8, 1)))
        with pytest.raises(PathError):
            euler_exits(np.array([1.1, 0.0]), FixedTime(1.0), 8, PathConfig(seed=0))

    def test_fixed_time_zero(self):
        stops = euler_exits(np.array([0.2, 0.1]), FixedTime(0.0), 8, PathConfig(seed=0))
        assert np.allclose(stops, [0.2, 0.1])

    def test_exit_radius_and_uniform_angle(self):
        cfg = PathConfig(dt=2e-3, seed=3)
        rule = FirstExit(Ball((0.0, 0.0), 0.5))
        stops = euler_exits(np.zeros(2), rule, 2048, cfg)
        radii = np.linalg.norm(stops, axis=1)
        angles = np.arctan2(stops[:, 1], stops[:, 0])
        # Crossing interpolation keeps the recorded exits within one step of the circle.
        assert abs(np.mean(radii) - 0.5) < 3 * np.sqrt(cfg.dt)
        u = (angles + np.pi) / (2 * np.pi)
        assert stats.kstest(u, "uniform").pvalue > 0.01

    def test_increment_statistics(self):
        # One-step paths from the origin: each stop is one Gaussian increment.
        cfg = PathConfig(dt=1e-3, seed=9)
        pooled = euler_exits(np.zeros(2), FixedTime(cfg.dt), 16384, cfg).ravel()
        n = pooled.size
        assert n > 20_000
        var = pooled.var()
        # Chi-squared two-sided test at 1% for the variance dt.
        stat = n * var / cfg.dt
        lo, hi = stats.chi2.ppf([0.005, 0.995], df=n)
        assert lo < stat < hi
        assert abs(pooled.mean()) < 3 * np.sqrt(cfg.dt / n)

    def test_absorbed_endpoint_on_sphere(self):
        cfg = PathConfig(dt=1e-3, seed=1, max_time=100.0)
        stops = euler_exits(np.array([0.8, 0.0]), FixedTime(50.0), 16, cfg)
        assert np.all(np.abs(np.linalg.norm(stops, axis=1) - 1.0) <= max(1e-4, np.sqrt(cfg.dt)))


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

    def test_trace_csv_of_a_3d_record(self, tmp_path):
        pts = np.array([[0.1, 0.0, 0.0], [0.5, 0.0, 0.0], [0.9, 0.1, 0.0]])
        rec = PathRecord(times=np.array([0.0, 1.0, 2.0]), points=pts, absorbed=False,
                         patch_trace=[("annulus[0.05,1]*", 0.0, pts[0]), ("ball", 1.0, pts[1])],
                         termination="exhausted")
        trace_to_csv(rec, tmp_path / "trace.csv")
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[1] == "t,x,y,z,patch"
        rows = list(csv.reader(lines[2:]))
        assert rows[0] == ["0", "0.1", "0", "0", "annulus[0.05,1]*"]
        assert [row[-1] for row in rows] == ["annulus[0.05,1]*", "ball", "ball"]

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
