"""Metamorphic guards: a quarter turn or a transpose of the gain turns every
Cartesian field, and a change of the gain's height scales every field.

The refinement, the balayage and the PSOR oracle treat every grid node alike,
so turning an offset bump by a quarter turn about the origin, or reflecting it
in the diagonal x = y, turns ``w1``, each level, each level's balayage and the
PSOR solution with it: the fields agree up to the order of the stencil's four
products, and each SOR solve takes as many sweeps.  The dictionary, the
refinement and the oracles are positively homogeneous in the gain, so a
height change by a power of two scales a radial run and every level of a
Cartesian run bit for bit: each SOR solve stops once its largest update is at
most RELAX_TOL * max|value|, a threshold that scales with the gain, so both
runs stop at the same sweeps.  A pointwise larger gain of the same cap g* (a
wider spike, or a bump with a second bump beside it) has fewer majorants, so
its ``w1`` and its refinement limit are pointwise larger, on both grids."""

import contextlib
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

import lsmlab as L
from lsmlab.envelope import balayage_step, iterate_envelopes, unbranched_envelope
from lsmlab.grids import RedBlackSOR
from lsmlab.oracle import psor_obstacle_solve

CENTRES = st.tuples(st.floats(0.25, 0.45), st.floats(0.0, 2.0 * np.pi))
GRIDS = st.sampled_from([33, 49, 65])
HEIGHTS = st.sampled_from([2.0, 0.5])
RUN_GRIDS = st.sampled_from(["radial", 33, 49, 65])
# iterate_envelopes stops once a level moves by less than this in sup norm.
REFINE_TOL = 1e-9


def _offset_bump(centre, height=1.0):
    return L.offset_bump_gain(centre, 0.15, height=height)


def _refine(gain, grid):
    seq = iterate_envelopes(gain, unbranched_envelope(gain, grid), max_iter=32)
    assert seq.converged
    return seq


@contextlib.contextmanager
def sweep_counts():
    """Records the sweeps of every SOR solve that stores its field, in order."""
    counts = []
    store = RedBlackSOR.store

    def counted(self, values):
        counts.append(self.sweeps)
        store(self, values)
    RedBlackSOR.store = counted
    try:
        yield counts
    finally:
        RedBlackSOR.store = store


def _balayages(seq):
    """Each level's balayage and, per level, the sorted sweep counts of its solves.

    Components are numbered in raster order, which a turn permutes, so the
    counts are compared as multisets."""
    fields, counts = [], []
    for fld, contact in zip(seq.levels, seq.contacts):
        with sweep_counts() as sweeps:
            fields.append(balayage_step(fld, contact).values)
        counts.append(sorted(sweeps))
    return fields, counts


@given(CENTRES, GRIDS)
@settings(max_examples=8, deadline=None, derandomize=True)
def test_quarter_turns_turn_every_cartesian_field(polar, n):
    rho, angle = polar
    centre = (rho * np.cos(angle), rho * np.sin(angle))
    seq = _refine(_offset_bump(centre), n)
    balayages, sweeps = _balayages(seq)
    psor = psor_obstacle_solve(_offset_bump(centre), n=n).values
    for k in (1, 2, 3):
        # Node [i, j] sits at (x_i, y_j) on an axis symmetric about 0, so the
        # quarter turn (x, y) -> (-y, x) of the plane is np.rot90 of a field.
        turned = centre
        for _ in range(k):
            turned = (-turned[1], turned[0])
        other = _refine(_offset_bump(turned), n)
        assert len(other.levels) == len(seq.levels)
        for fld, contact, got, got_contact in zip(seq.levels, seq.contacts,
                                                  other.levels, other.contacts):
            assert np.max(np.abs(got.values - np.rot90(fld.values, k))) <= 1e-14
            assert np.array_equal(got_contact.contact_mask, np.rot90(contact.contact_mask, k))
        got_balayages, got_sweeps = _balayages(other)
        assert got_sweeps == sweeps
        for bal, got_bal in zip(balayages, got_balayages):
            assert np.max(np.abs(got_bal - np.rot90(bal, k))) <= 1e-14
        got_psor = psor_obstacle_solve(_offset_bump(turned), n=n).values
        assert np.max(np.abs(got_psor - np.rot90(psor, k))) <= 1e-14


@given(CENTRES, GRIDS)
@settings(max_examples=6, deadline=None, derandomize=True)
def test_transposes_transpose_every_cartesian_field(polar, n):
    rho, angle = polar
    centre = (rho * np.cos(angle), rho * np.sin(angle))
    # Node [i, j] sits at (x_i, y_j) on one axis for x and y, so the
    # reflection (x, y) -> (y, x) of the plane is the transpose of a field.
    seq = _refine(_offset_bump(centre), n)
    other = _refine(_offset_bump(centre[::-1]), n)
    assert len(other.levels) == len(seq.levels)
    for fld, contact, got, got_contact in zip(seq.levels, seq.contacts,
                                              other.levels, other.contacts):
        assert np.max(np.abs(got.values - fld.values.T)) <= 1e-14
        assert np.array_equal(got_contact.contact_mask, contact.contact_mask.T)
    balayages, sweeps = _balayages(seq)
    got_balayages, got_sweeps = _balayages(other)
    assert got_sweeps == sweeps
    for bal, got_bal in zip(balayages, got_balayages):
        assert np.max(np.abs(got_bal - bal.T)) <= 1e-14
    psor = psor_obstacle_solve(_offset_bump(centre), n=n).values
    got_psor = psor_obstacle_solve(_offset_bump(centre[::-1]), n=n).values
    assert np.max(np.abs(got_psor - psor.T)) <= 1e-14


@given(st.floats(0.25, 0.35), st.floats(0.12, 0.18), HEIGHTS)
@settings(max_examples=6, deadline=None, derandomize=True)
def test_height_scales_a_radial_run_bit_for_bit(centre_radius, width, height):
    radii = L.radial_grid(512)
    base = _refine(L.radial_bump_gain(centre_radius, width), radii)
    scaled = _refine(L.radial_bump_gain(centre_radius, width, height=height), radii)
    assert len(scaled.levels) == len(base.levels)
    for fld, contact, got, got_contact in zip(base.levels, base.contacts,
                                              scaled.levels, scaled.contacts):
        assert np.array_equal(got.values, height * fld.values)
        assert np.array_equal(got_contact.contact_mask, contact.contact_mask)


@given(CENTRES, HEIGHTS)
@settings(max_examples=6, deadline=None, derandomize=True)
def test_height_scales_a_cartesian_run(polar, height):
    rho, angle = polar
    centre = (rho * np.cos(angle), rho * np.sin(angle))
    base = _refine(_offset_bump(centre), 49)
    scaled = _refine(_offset_bump(centre, height), 49)
    assert len(scaled.levels) == len(base.levels)
    for fld, contact, got, got_contact in zip(base.levels, base.contacts,
                                              scaled.levels, scaled.contacts):
        assert np.array_equal(got.values, height * fld.values)
        assert np.array_equal(got_contact.contact_mask, contact.contact_mask)


def _assert_ordered(lower, upper, grid):
    """``w1`` and the refinement limit of ``upper`` lie above those of ``lower``."""
    grid = L.radial_grid(512) if grid == "radial" else grid
    low, high = _refine(lower, grid), _refine(upper, grid)
    for k in (0, -1):
        assert np.min(high.levels[k].values - low.levels[k].values) >= -REFINE_TOL


@given(st.floats(0.03, 0.08), st.floats(0.01, 0.05), RUN_GRIDS)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_a_wider_spike_gives_larger_fields(eps, wider, grid):
    _assert_ordered(L.spiked_gain(eps), L.spiked_gain(eps + wider), grid)


@given(st.floats(0.2, 0.35), st.floats(0.6, 0.75), st.floats(0.3, 1.0), RUN_GRIDS)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_a_second_bump_gives_larger_fields(centre, other, height, grid):
    # The bump covers radii (centre - 0.1, centre + 0.1) and the second bump
    # (other - 0.08, other + 0.08), outside it and no taller, so g* stays.
    bump, extra = L.radial_bump_gain(centre, 0.1), L.radial_bump_gain(other, 0.08, height=height)
    both = replace(bump, profile_fn=lambda r: bump.profile_fn(r) + extra.profile_fn(r),
                   support_radius=max(bump.support_radius, extra.support_radius),
                   lipschitz=max(bump.lipschitz, extra.lipschitz))
    _assert_ordered(bump, both, grid)
