"""The red-black SOR kernel: its flat-slice sweep and its per-solve relaxation factor."""

import functools

import numpy as np
import pytest
from conftest import offdiag_matrix
from scipy import sparse
from scipy.sparse.linalg import eigs

import lsmlab as L
from lsmlab.envelope import (RELAX_TOL, cartesian_field, contact_set, gain_on_grid,
                             iterate_envelopes, unbranched_envelope)
from lsmlab.grids import ARMS, SOR_OMEGA, RedBlackSOR


class GatherSOR:
    """A gather-table red-black sweep of the stencil's arm table, at a given omega.

    Per colour: flat node indices; per arm (E, W, N, S), each node's
    coefficient from ``stencil.arms`` and its neighbour's flat index into a
    copy of ``values`` padded with a zero slot (the target of a cut arm); the
    diagonal and obstacle slices.  The neighbour sum is four gathers and
    multiply-adds from zero in E, W, N, S order, the operator's row order.
    """

    def __init__(self, values, nodes, stencil, obstacle):
        ii, jj = np.nonzero(nodes)
        ncols = values.shape[1]
        self._flat = ii * ncols + jj
        self._work = np.append(values.ravel(), 0.0)
        zero = self._work.size - 1
        red = (ii + jj) % 2 == 0
        self._tables = []
        for idx in (self._flat[red], self._flat[~red]):
            arms = []
            for table, (di, dj) in zip(stencil.arms, ARMS.values()):
                coeff = table.flat[idx]
                arms.append((np.where(coeff > 0.0, idx + di * ncols + dj, zero), coeff))
            phi = obstacle.flat[idx] if obstacle is not None else None
            self._tables.append((idx, arms, stencil.diag.flat[idx], phi))

    def sweep(self, omega):
        work = self._work
        biggest = 0.0
        for idx, arms, diag, phi in self._tables:
            s = np.zeros(idx.size)
            for nbr, coeff in arms:
                s += work[nbr] * coeff
            old = work[idx]
            new = (1.0 - omega) * old + omega * (s / diag)
            if phi is not None:
                new = np.maximum(phi, new)
            biggest = float(np.max(np.abs(new - old), initial=biggest))
            work[idx] = new
        return biggest

    def store(self, values):
        values.flat[self._flat] = self._work[self._flat]


GAINS = {"annulus": (L.radial_bump_gain(0.3, 0.15), 129),
         "cap": (L.offset_bump_gain((0.4, 0.0), 0.15), 97)}


@functools.cache
def level0_case(kind, n=None):
    """The level-0 solve of one of the benchmark's two Cartesian cases (at its
    own grid size, or at n): its largest non-contact component, the
    dictionary envelope and the gain on the grid."""
    gain, size = GAINS[kind]
    w = unbranched_envelope(gain, n or size).field
    contact = contact_set(w, gain)
    sizes = np.bincount(contact.labels.ravel())[1:]
    comp = contact.labels == 1 + int(np.argmax(sizes))
    return kind, w, comp, gain_on_grid(gain, w)


@pytest.fixture(scope="module", params=sorted(GAINS))
def level0(request):
    return level0_case(request.param)


@pytest.fixture(scope="module")
def inner_disc():
    """The annulus case's level 1, its non-contact inner disc, and a start that
    is zero there and level 1 elsewhere (level 1 is already harmonic there)."""
    gain, n = GAINS["annulus"]
    seq = iterate_envelopes(gain, unbranched_envelope(gain, n), max_iter=1)
    level1, contact = seq.levels[1], seq.contacts[1]
    comp = contact.labels == contact.labels[n // 2, n // 2]
    assert contact.n_components == 2 and comp.sum() < 2000
    return level1, comp, np.where(comp, 0.0, level1.values), gain_on_grid(gain, level1)


@pytest.fixture(scope="module", params=["annulus", "cap", "annulus-disc", "cap-disc",
                                        "inner-disc", "annulus-64", "cap-96", "ring-96"])
def node_set(request, inner_disc):
    """Its name, a start, a node mask, the stencil and the gain on the grid: a
    level-0 component (at the case's size, or on the even grids 64^2 and
    96^2, stored with a padding column), the PSOR oracle's whole disc from
    max(g, 0), the small component of ``inner_disc``, or a ring
    0.35 < |x| < 0.75 on 96^2 holding the annulus case's level 0 off it."""
    name = request.param
    if name in GAINS:
        _, w, comp, gvals = level0_case(name)
        return name, w.values, comp, w.stencil, gvals
    if name in ("annulus-64", "cap-96"):
        kind, n = name.split("-")
        _, w, comp, gvals = level0_case(kind, int(n))
        return name, w.values, comp, w.stencil, gvals
    if name == "ring-96":
        _, w, _, gvals = level0_case("annulus", 96)
        radius = np.linalg.norm(w.coords, axis=-1)
        return name, w.values, (radius > 0.35) & (radius < 0.75), w.stencil, gvals
    if name == "inner-disc":
        level1, comp, start, gvals = inner_disc
        return name, start, comp, level1.stencil, gvals
    gain, n = GAINS[name.removesuffix("-disc")]
    fld = cartesian_field(n, np.zeros((n, n)), "psor")
    phi = np.where(fld.inside, gain_on_grid(gain, fld), 0.0)
    return name, np.maximum(phi, 0.0), fld.inside, fld.stencil, phi


def solve(sweep, values):
    """Sweeps until the refinement's stop rule holds; returns their count."""
    scale = float(np.max(np.abs(values)))
    for count in range(1, 5001):
        if sweep() <= RELAX_TOL * scale:
            return count
    raise AssertionError("no convergence in 5000 sweeps")


def young_omega(comp, stencil):
    """Young's optimum from the spectral radius of the component's Jacobi matrix."""
    idx = np.flatnonzero(comp)
    jacobi = sparse.diags_array(1.0 / stencil.diag.flat[idx]) @ offdiag_matrix(stencil, idx)
    rho = float(np.abs(eigs(jacobi, k=1, which="LM", return_eigenvectors=False)[0]))
    return 2.0 / (1.0 + np.sqrt(1.0 - rho * rho))


@pytest.mark.parametrize("projected", [False, True], ids=["dirichlet", "obstacle"])
def test_csr_sweep_matches_the_gather_sweep(node_set, projected):
    """The flat-slice sweep against the gather sweep, bit for bit, across the omega switch."""
    name, values, nodes, stencil, gvals = node_set
    obstacle = gvals if projected else None
    new = RedBlackSOR(values, nodes, stencil, obstacle)
    old = GatherSOR(values, nodes, stencil, obstacle)
    omegas = set()
    for _ in range(600):
        omegas.add(new.omega)
        omega = new.omega
        assert new.sweep() == old.sweep(omega)
    got, expect = values.copy(), values.copy()
    new.store(got)
    old.store(expect)
    assert np.array_equal(got, expect)
    assert new.sweeps == 600
    if name == "cap":
        assert len(omegas) == 2  # the switch happened inside the compared sweeps


@pytest.mark.parametrize("n", [3, 4, 6])
def test_small_grids_match_the_gather_sweep(n):
    # 3^2 has one disc node, so one colour has no node to relax; 4^2 and 6^2
    # are stored with a padding column and every disc node has a cut arm.
    fld = cartesian_field(n, np.zeros((n, n)), "grid")
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, n))
    for obstacle in (None, rng.standard_normal((n, n)) - 1.0):
        new = RedBlackSOR(values, fld.inside, fld.stencil, obstacle)
        old = GatherSOR(values, fld.inside, fld.stencil, obstacle)
        for _ in range(30):
            omega = new.omega
            assert new.sweep() == old.sweep(omega)
        got, expect = values.copy(), values.copy()
        new.store(got)
        old.store(expect)
        assert np.array_equal(got, expect)


def test_store_leaves_every_node_off_the_mask(node_set):
    _, values, nodes, stencil, gvals = node_set
    sor = RedBlackSOR(values, nodes, stencil, gvals)
    for _ in range(20):
        sor.sweep()
    field = np.random.default_rng(7).standard_normal(values.shape)
    field[::3, ::5] = -0.0  # told from 0.0 only by the bitwise compare below
    before = field.copy()
    sor.store(field)
    assert np.array_equal(field.view(np.int64)[~nodes], before.view(np.int64)[~nodes])
    assert not np.array_equal(field[nodes], before[nodes])


def test_switched_omega_matches_the_spectrum(level0):
    _, w, comp, _ = level0
    stencil = w.stencil
    sor = RedBlackSOR(w.values, comp, stencil, None)
    solve(sor.sweep, w.values)
    assert abs(sor.omega - young_omega(comp, stencil)) <= 0.01


@pytest.mark.parametrize("projected", [False, True], ids=["dirichlet", "obstacle"])
def test_sweeps_against_a_fixed_start(level0, projected):
    kind, w, comp, gvals = level0
    stencil = w.stencil
    obstacle = gvals if projected else None
    sor = RedBlackSOR(w.values, comp, stencil, obstacle)
    fixed = GatherSOR(w.values, comp, stencil, obstacle)
    adaptive = solve(sor.sweep, w.values)
    assert adaptive == sor.sweeps
    baseline = solve(lambda: fixed.sweep(SOR_OMEGA), w.values)
    if kind == "cap":
        assert sor.omega > SOR_OMEGA
        assert adaptive <= 0.7 * baseline
    else:
        assert adaptive <= baseline + 2


def test_a_component_below_the_start_keeps_it(inner_disc):
    level1, comp, start, _ = inner_disc
    stencil = level1.stencil
    assert young_omega(comp, stencil) < SOR_OMEGA - 0.05
    # Level 1 is already harmonic there; relax it again from zero.
    sor = RedBlackSOR(start, comp, stencil, None)
    solve(sor.sweep, start)
    assert sor.sweeps > 50
    assert sor.omega == SOR_OMEGA


def test_a_settled_ratio_at_or_below_omega_minus_one_keeps_watching():
    stencil = cartesian_field(9, np.zeros((9, 9)), "grid").stencil
    sor = RedBlackSOR(np.zeros((9, 9)), stencil.inside, stencil, None)
    for k in range(40):  # settled at q = 0.85 <= omega - 1: a transient or past the optimum
        sor._watch(0.85 ** k)
    assert sor.omega == SOR_OMEGA
    for k in range(40):  # then settled at q = 0.95: Carre's estimate, once
        sor._watch(0.85 ** 40 * 0.95 ** k)
    rho2 = (0.95 + SOR_OMEGA - 1.0) ** 2 / (0.95 * SOR_OMEGA ** 2)
    assert sor.omega == pytest.approx(2.0 / (1.0 + np.sqrt(1.0 - rho2)), rel=1e-12)
    switched = sor.omega
    for k in range(40):
        sor._watch(0.5 ** k)
    assert sor.omega == switched
