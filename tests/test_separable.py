"""Separable channel family: scalar weights, amplitude blocks, both assembly routes."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hmimo import (
    DegenerateGeometryError,
    LinkGeometry,
    a_blocks,
    array_response,
    assemble_fscm,
    assemble_ocm,
    assemble_pscm,
    build_planar_surface,
    global_rx_positions,
    green_dyadic,
    omega_pair,
    pair_displacement,
    pairwise_offsets,
    pscm_pair,
    wavevector,
)
from _helpers import _SIDES, _SPACINGS, _THETAS, _TURNS, _cmat, _turned


def test_omega_at_unit_argument():
    w = omega_pair(1.0, 1.0, 1.0)
    assert w.omega1 == pytest.approx(1j)
    assert w.omega2 == pytest.approx(2.0 - 3j)


def test_omega_matches_reference_values(goldens):
    w = omega_pair(1.0, 7.3, 1.0)
    w1 = complex(*goldens["omega_7p3"]["omega1"])
    w2 = complex(*goldens["omega_7p3"]["omega2"])
    assert abs(w.omega1 - w1) <= 1e-9 * abs(w1)
    assert abs(w.omega2 - w2) <= 1e-9 * abs(w2)


def test_omega_rejects_nonpositive_arguments():
    with pytest.raises(ValueError):
        omega_pair(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        omega_pair(1.0, -0.5, 1.0)


@given(x=st.floats(2.001, 1e6))
@settings(max_examples=200, deadline=None)
def test_omega_far_limits(x):
    # omega1 -> 1 and omega2 -> -1 with O(1/x) deviations
    w = omega_pair(1.0, x, 1.0)
    assert abs(w.omega1 - 1.0) < 2.0 / x
    assert abs(w.omega2 + 1.0) < 4.0 / x


def test_a_blocks_vanish_at_zero_offset():
    kappa = np.array([0.0, 0.0, 1.0])
    blocks = a_blocks(np.zeros(3), np.zeros(3), kappa, 2.0, 2 * np.pi)
    assert blocks.gamma == 1.0
    w = omega_pair(2 * np.pi, 1.0, 2.0)
    np.testing.assert_allclose(blocks.a1, w.omega1 * np.eye(3))
    np.testing.assert_allclose(blocks.a2, w.omega2 * np.diag([0.0, 0.0, 1.0]))
    assert np.all(blocks.a3 == 0)
    assert np.all(blocks.a4 == 0)


def test_a_blocks_structure_for_perpendicular_offset():
    # offset along x, link along z: the cross block mixes only x and z
    kappa = np.array([0.0, 0.0, 1.0])
    q = np.array([0.3, 0.0, 0.0])
    blocks = a_blocks(np.zeros(3), q, kappa, 2.0, 2 * np.pi)
    assert blocks.gamma == 1.0
    w = omega_pair(2 * np.pi, 1.0, 2.0)
    np.testing.assert_allclose(blocks.a2, w.omega2 * np.diag([0.0, 0.0, 1.0]))
    nonzero = np.argwhere(np.abs(blocks.a3) > 0)
    assert {tuple(ij) for ij in nonzero} == {(0, 2), (2, 0)}
    nonzero4 = np.argwhere(np.abs(blocks.a4) > 0)
    assert {tuple(ij) for ij in nonzero4} == {(0, 0)}


def test_a_blocks_sum_matches_reference_values(goldens):
    p = np.array([0.02, 0.0, 0.0])
    q = np.array([0.0, 0.01, 0.0])
    kappa = np.array([0.0, 0.0, 1.0])
    blocks = a_blocks(p, q, kappa, 2.0, 2 * np.pi)
    total = blocks.a1 + blocks.a2 + blocks.a3 + blocks.a4
    ref = _cmat(goldens["a_sum_generic"])
    assert np.max(np.abs(total - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_a_blocks_reject_degenerate_projection():
    kappa = np.array([0.0, 0.0, 1.0])
    with pytest.raises(DegenerateGeometryError):
        a_blocks(np.array([0.0, 0.0, 2.0]), np.zeros(3), kappa, 2.0, 2 * np.pi)


_offsets = st.floats(-0.4, 0.4)


@given(px=_offsets, py=_offsets, qx=_offsets, qy=_offsets, qz=st.floats(-0.3, 0.3),
       t=st.floats(-0.5, 0.5))
@settings(max_examples=200, deadline=None)
def test_a_blocks_gamma_never_exceeds_the_pair_distance_ratio(px, py, qx, qy, qz, t):
    # gamma d0 is the projection of the pair displacement on kappa, so by
    # Cauchy-Schwarz at most its length, and equal to it when q - p is parallel to kappa
    link = LinkGeometry.from_angles(1.0, theta=0.4, phi=1.3)
    p = np.array([px, py, 0.0])
    for q in (np.array([qx, qy, qz]), p + t * link.kappa):
        gamma = a_blocks(p, q, link.kappa, link.d0, 2 * np.pi).gamma
        dist = np.linalg.norm(pair_displacement(link, p, q))
        assert gamma * link.d0 <= dist * (1 + 1e-12)
    assert gamma * link.d0 == pytest.approx(dist, rel=1e-12)


def test_pscm_pair_matches_reference_values(goldens):
    p = np.array([0.02, 0.0, 0.0])
    q = np.array([0.0, 0.01, 0.0])
    kappa = np.array([0.0, 0.0, 1.0])
    G = pscm_pair(p, q, kappa, 2.0, 2 * np.pi, variant="1234")
    ref = _cmat(goldens["pscm_pair_generic"])
    assert np.max(np.abs(G - ref)) <= 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("d0", [0.25, 1.0, 10.0])
@pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (0.5, 2.2)])
def test_pscm_pair_is_exact_at_zero_offsets(d0, theta, phi):
    kappa = wavevector(theta, phi)
    sep = pscm_pair(np.zeros(3), np.zeros(3), kappa, d0, 2 * np.pi)
    exact = green_dyadic(d0 * kappa, 2 * np.pi)
    assert np.max(np.abs(sep - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_truncation_ladder_adds_the_stated_blocks():
    p = np.array([0.03, -0.01, 0.0])
    q = np.array([-0.02, 0.04, 0.0])
    kappa = wavevector(0.3, 0.8)
    d0, k0 = 1.7, 2 * np.pi
    blocks = a_blocks(p, q, kappa, d0, k0)
    g12 = pscm_pair(p, q, kappa, d0, k0, variant="12")
    g123 = pscm_pair(p, q, kappa, d0, k0, variant="123")
    g1234 = pscm_pair(p, q, kappa, d0, k0, variant="1234")
    pref = 1.0 / (4 * np.pi * blocks.gamma * d0)
    assert np.linalg.norm(g123 - g12) == pytest.approx(pref * np.linalg.norm(blocks.a3), rel=1e-12)
    assert np.linalg.norm(g1234 - g123) == pytest.approx(pref * np.linalg.norm(blocks.a4), rel=1e-12)


def test_unknown_variant_is_rejected():
    with pytest.raises(ValueError):
        pscm_pair(np.zeros(3), np.zeros(3), np.array([0.0, 0.0, 1.0]), 1.0, 2 * np.pi, variant="13")
    tx = build_planar_surface(1, 1, 0.1)
    with pytest.raises(ValueError):
        assemble_pscm(tx, tx, LinkGeometry.from_angles(1.0), 2 * np.pi, variant="0")


def test_array_response_has_unit_modulus_phases():
    s = build_planar_surface(3, 3, 0.07)
    kappa = wavevector(0.4, 1.0)
    theta = array_response(s.positions, kappa, 2 * np.pi)
    np.testing.assert_allclose(np.abs(theta), 1.0, atol=1e-14)
    expect = np.exp(1j * 2 * np.pi * (s.positions @ kappa))
    np.testing.assert_allclose(theta, expect, atol=1e-14)


@pytest.mark.parametrize("variant,tag", [("12", "PSCM12"), ("123", "PSCM123"), ("1234", "PSCM")])
@given(tx_sides=_SIDES, rx_sides=_SIDES, tx_spacing=_SPACINGS, rx_spacing=_SPACINGS,
       d0=st.floats(0.6, 3.0), theta=_THETAS, phi=st.floats(0.0, 2 * np.pi), turn=_TURNS)
@example(tx_sides=(3, 3), rx_sides=(2, 2), tx_spacing=0.05, rx_spacing=0.05, d0=0.5, theta=0.35,
         phi=1.1, turn=None)
@example(tx_sides=(3, 3), rx_sides=(2, 2), tx_spacing=0.05, rx_spacing=0.05, d0=0.5, theta=0.0,
         phi=1.1, turn=None)
@example(tx_sides=(3, 3), rx_sides=(2, 2), tx_spacing=0.05, rx_spacing=0.05, d0=1.7, theta=0.0,
         phi=1.1, turn=None)
@settings(max_examples=40, deadline=None)
def test_assembler_matches_the_pairwise_route(variant, tag, tx_sides, rx_sides, tx_spacing,
                                              rx_spacing, d0, theta, phi, turn):
    # links with every p'kappa and q'kappa zero take the thin factors,
    # all others the elementwise route
    tx = build_planar_surface(*tx_sides, tx_spacing)
    rx = build_planar_surface(*rx_sides, rx_spacing)
    link = LinkGeometry.from_angles(d0, theta=theta, phi=phi, rx_rotation=_turned(turn))
    qs = global_rx_positions(link, rx)
    G = assemble_pscm(tx, rx, link, 2 * np.pi, variant=variant)
    assert G.variant == tag
    in_plane = not (tx.positions @ link.kappa).any() and not (qs @ link.kappa).any()
    assert (G.factors is not None) == in_plane
    # factors in-plane, else the offset table on a lattice, else the dense array
    on_lattice = link.rx_rotation is None and tx.spacing == rx.spacing
    assert (in_plane or (G.entries.ndim == 4 if on_lattice
                         else G.entries.ndim == 2 and G.lattice is None))
    if theta == 0.0 and turn is None:
        assert in_plane
    scale = np.max(np.abs(G.matrix))
    blocks = G.matrix.reshape(rx.count, 3, tx.count, 3)
    for m in range(rx.count):
        for n in range(tx.count):
            ref = pscm_pair(tx.positions[n], qs[m], link.kappa, link.d0, 2 * np.pi, variant)
            assert np.max(np.abs(blocks[m, :, n] - ref)) <= 1e-12 * scale


def test_assembler_honors_rx_rotation():
    angle = 0.4
    rot = np.array(
        [[np.cos(angle), 0.0, np.sin(angle)], [0.0, 1.0, 0.0], [-np.sin(angle), 0.0, np.cos(angle)]]
    )
    tx = build_planar_surface(2, 2, 0.06)
    rx = build_planar_surface(2, 1, 0.06)
    link = LinkGeometry.from_angles(0.8, theta=0.1, phi=0.3, rx_rotation=rot)
    G = assemble_pscm(tx, rx, link, 2 * np.pi)
    qs = global_rx_positions(link, rx)
    scale = np.max(np.abs(G.matrix))
    blocks = G.matrix.reshape(rx.count, 3, tx.count, 3)
    for m in range(rx.count):
        for n in range(tx.count):
            ref = pscm_pair(tx.positions[n], qs[m], link.kappa, link.d0, 2 * np.pi)
            assert np.max(np.abs(blocks[m, :, n] - ref)) <= 1e-12 * scale


def test_assembler_rejects_degenerate_pairs():
    tx = build_planar_surface(1, 1, 0.1)
    rx_far_back = build_planar_surface(3, 1, 2.0)
    # theta = pi/2 points the link along +x; the leftmost RX offset then
    # sits 2 m behind the TX plane against a 1 m link
    link = LinkGeometry.from_angles(1.0, theta=np.pi / 2)
    with pytest.raises(DegenerateGeometryError):
        assemble_pscm(tx, rx_far_back, link, 2 * np.pi)
    # on a lattice one pair per offset is evaluated, and the message still
    # names the first degenerate pair of the all-pairs route in row-major order
    grid = build_planar_surface(3, 1, 2.0)
    dvec = link.d0 * link.kappa + pairwise_offsets(grid, grid, link)
    m, n = np.argwhere(dvec @ link.kappa <= 0.0)[0]
    assert (m, n) != (0, 0)
    for variant in ("12", "123", "1234"):
        with pytest.raises(DegenerateGeometryError, match=f"RX element {m}, TX element {n}$"):
            assemble_pscm(grid, grid, link, 2 * np.pi, variant)


@given(tx_sides=_SIDES, rx_sides=_SIDES, tx_spacing=_SPACINGS, rx_spacing=_SPACINGS,
       d0=st.floats(0.6, 3.0), theta=_THETAS, phi=st.floats(0.0, 2 * np.pi), turn=_TURNS)
@example(tx_sides=(3, 2), rx_sides=(2, 2), tx_spacing=0.04, rx_spacing=0.05, d0=1.3, theta=0.25,
         phi=0.6, turn=None)
@settings(max_examples=40, deadline=None)
def test_fscm_blocks_are_scaled_transverse_projectors(tx_sides, rx_sides, tx_spacing, rx_spacing,
                                                      d0, theta, phi, turn):
    tx = build_planar_surface(*tx_sides, tx_spacing)
    rx = build_planar_surface(*rx_sides, rx_spacing)
    link = LinkGeometry.from_angles(d0, theta=theta, phi=phi, rx_rotation=_turned(turn))
    k0 = 2 * np.pi
    G = assemble_fscm(tx, rx, link, k0)
    assert G.variant == "FSCM"
    left, right = G.factors
    assert left.shape[1] == right.shape[1] == 3
    assert np.array_equal(G.matrix, left @ right.conj().T)
    theta_t = array_response(tx.positions, link.kappa, k0)
    theta_r = array_response(global_rx_positions(link, rx), link.kappa, k0)
    projector = np.eye(3) - np.outer(link.kappa, link.kappa)
    pref = -1j * np.exp(1j * k0 * link.d0) / (4 * np.pi * link.d0)
    scale = np.max(np.abs(G.matrix))
    blocks = G.matrix.reshape(rx.count, 3, tx.count, 3)
    for m in range(rx.count):
        for n in range(tx.count):
            ref = pref * theta_r[m] * np.conj(theta_t[n]) * projector
            assert np.max(np.abs(blocks[m, :, n] - ref)) <= 1e-13 * scale


def test_fscm_matrix_has_rank_two():
    tx = build_planar_surface(4, 4, 0.08)
    rx = build_planar_surface(3, 3, 0.08)
    for theta, phi in [(0.0, 0.0), (0.45, 1.9)]:
        link = LinkGeometry.from_angles(2.1, theta=theta, phi=phi)
        G = assemble_fscm(tx, rx, link, 2 * np.pi)
        s = np.linalg.svd(G.matrix, compute_uv=False)
        assert s[2] <= 1e-12 * s[0]
        assert s[1] > 1e-3 * s[0]


def test_pscm_collapses_onto_fscm_far_out():
    tx = build_planar_surface(3, 3, 0.1)
    rx = build_planar_surface(2, 2, 0.1)
    link = LinkGeometry.from_angles(1e6)
    G_sep = assemble_pscm(tx, rx, link, 2 * np.pi)
    G_far = assemble_fscm(tx, rx, link, 2 * np.pi)
    num = np.linalg.norm(G_sep.matrix - G_far.matrix)
    assert num / np.linalg.norm(G_far.matrix) < 1e-5


def test_pscm_tracks_the_exact_reference_in_the_far_field():
    # the separable model converges to the dense reference as d0 grows
    tx = build_planar_surface(3, 3, 0.05)
    rx = build_planar_surface(2, 2, 0.05)
    errors = []
    for d0 in (1.0, 4.0, 16.0):
        link = LinkGeometry.from_angles(d0, theta=0.2, phi=0.5)
        G_ref = assemble_ocm(tx, rx, link, 2 * np.pi)
        G_sep = assemble_pscm(tx, rx, link, 2 * np.pi)
        errors.append(np.linalg.norm(G_sep.matrix - G_ref.matrix) / np.linalg.norm(G_ref.matrix))
    assert errors[2] < errors[1] < errors[0]
