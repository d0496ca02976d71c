import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from hmimo import (
    LinkGeometry,
    NumericalError,
    assemble_fscm,
    assemble_ocm,
    assemble_pscm,
    build_planar_surface,
    nmse,
)
from hmimo.green import Lattice, _claimed
from _helpers import _rotation


def _pair(d0=0.8):
    tx = build_planar_surface(2, 2, 0.05)
    rx = build_planar_surface(2, 1, 0.05)
    link = LinkGeometry.from_angles(d0)
    ref = assemble_ocm(tx, rx, link, 2 * np.pi)
    cand = assemble_pscm(tx, rx, link, 2 * np.pi)
    return cand, ref


def test_nmse_of_identical_matrices_is_zero():
    _, ref = _pair()
    assert nmse(ref, ref) == 0.0


def test_nmse_of_doubled_matrix_is_one():
    _, ref = _pair()
    doubled = replace(ref, entries=2.0 * ref.matrix)
    assert nmse(doubled, ref) == pytest.approx(1.0, rel=1e-14)


@given(scale=st.floats(1e-3, 1e3), phase=st.floats(0, 2 * np.pi))
@settings(max_examples=100, deadline=None)
def test_nmse_is_invariant_under_common_rescaling(scale, phase):
    cand, ref = _pair()
    base = nmse(cand, ref)
    c = scale * np.exp(1j * phase)
    scaled = nmse(replace(cand, entries=c * cand.matrix), replace(ref, entries=c * ref.matrix))
    assert scaled == pytest.approx(base, rel=1e-12)


def test_chunked_nmse_matches_one_sum_over_the_matrix():
    # 3 x 3 x 1681 x 36 entries span two full chunks and a partial one;
    # replace() drops the lattice, so every entry is summed
    tx = build_planar_surface(41, 41, 0.003)
    rx = build_planar_surface(6, 6, 0.003)
    link = LinkGeometry.from_angles(0.3, theta=0.2)
    ref = assemble_ocm(tx, rx, link, 2 * np.pi)
    ref = replace(ref, entries=ref.matrix)
    cand = assemble_pscm(tx, rx, link, 2 * np.pi, "12")
    cand = replace(cand, entries=cand.matrix)
    assert ref.lattice is None and cand.lattice is None
    assert ref.matrix.size > 2 * 2**18
    num = np.sum(np.abs(cand.matrix - ref.matrix) ** 2, dtype=np.longdouble)
    den = np.sum(np.abs(ref.matrix) ** 2, dtype=np.longdouble)
    assert nmse(cand, ref) == pytest.approx(float(num / den), rel=1e-15)


def test_chunked_nmse_without_a_lattice_matches_one_sum_over_the_matrix():
    # a rotated RX surface breaks the offset lattice, so every entry is summed
    tx = build_planar_surface(41, 41, 0.003)
    rx = build_planar_surface(6, 6, 0.003)
    link = LinkGeometry.from_angles(0.3, theta=0.2, rx_rotation=_rotation(0.3, 0.1, 0.2))
    ref = assemble_ocm(tx, rx, link, 2 * np.pi)
    cand = assemble_pscm(tx, rx, link, 2 * np.pi, "12")
    assert ref.lattice is None and cand.lattice is None
    num = np.sum(np.abs(cand.matrix - ref.matrix) ** 2, dtype=np.longdouble)
    den = np.sum(np.abs(ref.matrix) ** 2, dtype=np.longdouble)
    assert nmse(cand, ref) == float(num / den)


def test_nmse_rejects_dimension_mismatch():
    cand, ref = _pair()
    small = assemble_ocm(
        build_planar_surface(1, 1, 0.05), build_planar_surface(2, 1, 0.05),
        LinkGeometry.from_angles(0.8), 2 * np.pi,
    )
    with pytest.raises(ValueError, match="dimension mismatch"):
        nmse(small, ref)


def test_nmse_rejects_zero_reference():
    cand, ref = _pair()
    zero = replace(ref, entries=np.zeros_like(ref.matrix))
    with pytest.raises(ValueError, match="zero matrix"):
        nmse(cand, zero)


def test_nmse_never_returns_a_value_that_is_not_finite():
    # a NaN or inf in a candidate table, or in dense entries, made the sums NaN;
    # entries whose squares overflow made the reference sum inf
    tx, rx = build_planar_surface(3, 3, 0.05), build_planar_surface(2, 2, 0.05)
    ref = assemble_ocm(tx, rx, LinkGeometry.from_angles(0.8, theta=0.2), 2 * np.pi)
    for value in (np.nan, np.inf):
        table = ref.entries.copy()
        table[1, 2, 0, 0] = value
        with pytest.raises(NumericalError, match="not finite"):
            nmse(_claimed(table, "OCM", ref.lattice), ref)
        dense = ref.matrix.copy()
        dense[4, 7] = value
        with pytest.raises(NumericalError, match="not finite"):
            nmse(replace(ref, entries=dense), replace(ref, entries=ref.matrix))
    huge = _claimed(ref.entries * 1e160, "OCM", ref.lattice)
    with pytest.raises(NumericalError, match="not finite"), np.errstate(over="ignore"):
        nmse(huge, huge)
    assert nmse(ref, ref) == 0.0


def _blocks(G):
    """The (M, N, 3, 3) block view of ``G.matrix``."""
    return G.matrix.reshape(G.m_count, 3, G.n_count, 3).transpose(0, 2, 1, 3)


def _representatives(rx, tx):
    """For every (m, n) the flat indices of the pair with the same index offset and v_t, h_t minimal."""
    v_r, h_r = np.divmod(np.arange(rx.count), rx.n_h)
    v_t, h_t = np.divmod(np.arange(tx.count), tx.n_h)
    a = v_r[:, None] - v_t
    b = h_r[:, None] - h_t
    rep_vt, rep_ht = np.maximum(0, -a), np.maximum(0, -b)
    return (rep_vt + a) * rx.n_h + rep_ht + b, rep_vt * tx.n_h + rep_ht


_side = st.integers(1, 7)
_angle = st.floats(-np.pi, np.pi)


@given(
    tx_shape=st.tuples(_side, _side),
    rx_shape=st.tuples(_side, _side),
    tx_spacing=st.floats(0.02, 0.1),
    rx_spacing=st.one_of(st.none(), st.floats(0.02, 0.1)),
    d0=st.floats(1.0, 4.0),
    theta=st.one_of(st.just(0.0), st.floats(0.1, 0.4)),
    phi=st.floats(0.0, 2 * np.pi),
    rotation=st.one_of(st.none(), st.tuples(_angle, _angle, _angle)),
)
@settings(max_examples=60, deadline=None)
def test_lattice_nmse_matches_the_full_sums(tx_shape, rx_shape, tx_spacing, rx_spacing, d0, theta,
                                            phi, rotation):
    # wavelength 1: every pair offset stays below 0.85 < d0, so no geometry degenerates;
    # rx_spacing None shares the TX spacing
    k0 = 2 * np.pi
    tx = build_planar_surface(*tx_shape, tx_spacing)
    rx = build_planar_surface(*rx_shape, tx_spacing if rx_spacing is None else rx_spacing)
    link = LinkGeometry.from_angles(
        d0, theta, phi, rx_rotation=None if rotation is None else _rotation(*rotation)
    )
    mats = [
        assemble_ocm(tx, rx, link, k0),
        assemble_pscm(tx, rx, link, k0, "1234"),
        assemble_pscm(tx, rx, link, k0, "123"),
        assemble_pscm(tx, rx, link, k0, "12"),
        assemble_fscm(tx, rx, link, k0),
    ]
    holds = rotation is None and rx.spacing == tx.spacing
    lattice = Lattice((rx.n_v, tx.n_v), (rx.n_h, tx.n_h), theta == 0.0) if holds else None
    assert [G.lattice for G in mats] == [lattice] * 5
    if not holds:
        return
    rep_m, rep_n = _representatives(rx, tx)
    for G in mats:
        blocks = _blocks(G)
        scale = np.max(np.abs(G.matrix))
        assert np.max(np.abs(blocks[rep_m, rep_n] - blocks)) <= 1e-13 * scale, G.variant
    ref = mats[0]
    for G in mats[1:]:
        fast = nmse(G, ref)
        full = nmse(replace(G, entries=G.matrix), ref)  # replace() drops the lattice
        assert abs(fast - full) <= 1e-12 * full + 1e-15 * np.sqrt(full), G.variant


def test_lattice_nmse_weights_every_offset_by_its_pair_count():
    # rectangular grids of unequal shapes, with a candidate that differs from the
    # reference in one offset only, so the result is that offset's share exactly
    tx = build_planar_surface(4, 3, 0.05)
    rx = build_planar_surface(2, 5, 0.05)
    ref = assemble_ocm(tx, rx, LinkGeometry.from_angles(0.8, theta=0.2, phi=1.0), 2 * np.pi)
    assert ref.lattice == Lattice((5, 3), (2, 4), False)
    rep_m, rep_n = _representatives(rx, tx)
    blocks = _blocks(ref)
    (rx_v, tx_v), (rx_h, tx_h) = ref.lattice.v, ref.lattice.h
    for m, n in [(0, 0), (9, 0), (0, 11), (4, 6), (7, 3)]:
        same = (rep_m == rep_m[m, n]) & (rep_n == rep_n[m, n])
        want = 0.25 * np.sum(np.abs(blocks[same]) ** 2) / np.sum(np.abs(blocks) ** 2)
        # the table entry of the offset of pair (m, n)
        (v_r, h_r), (v_t, h_t) = divmod(m, rx_h), divmod(n, tx_h)
        table = ref.entries.copy()
        table[v_r - v_t + tx_v - 1, h_r - h_t + tx_h - 1] *= 1.5
        bumped = _claimed(table, "OCM", ref.lattice)
        assert nmse(bumped, ref) == pytest.approx(want, rel=1e-13)


def test_replacing_the_matrix_drops_the_lattice():
    # one non-representative block bumped breaks the offset structure, and the
    # replaced matrix no longer claims it, so nmse sums every entry
    tx = build_planar_surface(3, 3, 0.05)
    rx = build_planar_surface(2, 2, 0.05)
    ref = assemble_ocm(tx, rx, LinkGeometry.from_angles(0.8, theta=0.2), 2 * np.pi)
    rep_m, rep_n = _representatives(rx, tx)
    assert ref.lattice is not None and (rep_m[3, 8], rep_n[3, 8]) != (3, 8)
    blocks = _blocks(ref).copy()
    blocks[3, 8] *= 10.0
    bumped = replace(ref, entries=blocks.transpose(0, 2, 1, 3).reshape(ref.matrix.shape))
    assert bumped.lattice is None
    want = 81.0 * np.sum(np.abs(_blocks(ref)[3, 8]) ** 2) / np.sum(np.abs(_blocks(ref)) ** 2)
    assert nmse(bumped, ref) == pytest.approx(want, rel=1e-13)

