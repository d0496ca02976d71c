"""Exact dyadic kernel, its far-field point form, and the dense reference assembler."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hmimo import (
    BlockChannelMatrix,
    CoincidentPointsError,
    LinkGeometry,
    assemble_fscm,
    assemble_ocm,
    assemble_pscm,
    build_planar_surface,
    global_rx_positions,
    green_dyadic,
    green_dyadic_far,
    pair_displacement,
    rayleigh_distance,
)
from hmimo.green import _offset_table

WAVELENGTH = 299792458.0 / 2.4e9
K0 = 2 * np.pi / WAVELENGTH


def _cmat(entry):
    return np.array(entry["re"]) + 1j * np.array(entry["im"])


def test_axial_dyad_structure():
    G = green_dyadic(np.array([0.0, 0.0, 1.0]), 2 * np.pi)
    # axial displacement: no polarization mixing, transverse entries equal
    assert np.max(np.abs(G - np.diag(np.diag(G)))) == 0.0
    assert G[0, 0] == G[1, 1]
    assert G[2, 2] != G[0, 0]


def test_axial_dyad_matches_reference_values(goldens):
    G = green_dyadic(np.array([0.0, 0.0, 1.0]), 2 * np.pi)
    ref = _cmat(goldens["green_unit"])
    assert np.max(np.abs(G - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_wavelength_distance_matches_reference_values(goldens):
    G = green_dyadic(np.array([0.0, 0.0, WAVELENGTH]), K0)
    ref = _cmat(goldens["green_wavelength"])
    assert np.max(np.abs(G - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_dyad_is_even_in_the_displacement():
    rng = np.random.default_rng(7)
    for _ in range(5):
        d = rng.normal(size=3)
        np.testing.assert_array_equal(green_dyadic(d, 2 * np.pi), green_dyadic(-d, 2 * np.pi))


@given(
    dx=st.floats(-3, 3), dy=st.floats(-3, 3), dz=st.floats(0.05, 3),
    k0=st.floats(0.5, 50),
)
@settings(max_examples=150, deadline=None)
def test_dyad_is_transpose_symmetric(dx, dy, dz, k0):
    G = green_dyadic(np.array([dx, dy, dz]), k0)
    assert np.max(np.abs(G - G.T)) <= 1e-12 * np.max(np.abs(G))


def test_magnitude_decays_beyond_unit_phase_distance():
    # |G_xx| at doubled distance is smaller whenever k0*d > 1
    for d in (0.2, 1.0, 5.0, 40.0):
        near = abs(green_dyadic(np.array([0.0, 0.0, d]), 2 * np.pi)[0, 0])
        far = abs(green_dyadic(np.array([0.0, 0.0, 2 * d]), 2 * np.pi)[0, 0])
        assert far < near


def test_coincident_point_rejected():
    with pytest.raises(CoincidentPointsError):
        green_dyadic(np.zeros(3), 2 * np.pi)
    with pytest.raises(ValueError):
        green_dyadic(np.array([0.0, 0.0, 1.0]), 0.0)


def test_far_forms_on_axis():
    d = np.array([0.0, 0.0, 7.0])
    scale = -1j * np.exp(1j * 2 * np.pi * 7.0) / (4 * np.pi * 7.0)
    np.testing.assert_allclose(
        green_dyadic_far(d, 2 * np.pi), scale * np.diag([1.0, 1.0, 0.0]), atol=1e-15,
    )


def test_only_the_projector_form_reproduces_the_exact_limit():
    # k0*d = 200*pi, direction chosen so u mixes all of x and z
    k0 = 2 * np.pi
    d = np.array([60.0, 0.0, 80.0])
    exact = green_dyadic(d, k0)
    transverse = green_dyadic_far(d, k0)
    assert np.linalg.norm(transverse - exact) / np.linalg.norm(exact) < 1e-2


# Pair geometries for the property test: grid sides 1-7, element spacings,
# boresight or tilted links, and RX surfaces either parallel to the TX one
# or turned by (tilt about x, spin about z).
_SIDES = st.tuples(st.integers(1, 7), st.integers(1, 7))
_SPACINGS = st.floats(0.01, 0.06)
_THETAS = st.just(0.0) | st.floats(0.1, 0.4)
_TURNS = st.none() | st.tuples(st.floats(0.1, 0.5), st.floats(0.0, 2 * np.pi))


def _turned(turn):
    """RX rotation: a tilt about x by turn[0], then a spin about z by turn[1]."""
    if turn is None:
        return None
    tilt, spin = turn
    c, s = np.cos(tilt), np.sin(tilt)
    about_x = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    c, s = np.cos(spin), np.sin(spin)
    about_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return about_z @ about_x


@given(tx_sides=_SIDES, rx_sides=_SIDES, tx_spacing=_SPACINGS, rx_spacing=_SPACINGS,
       d0=st.floats(0.6, 3.0), theta=_THETAS, phi=st.floats(0.0, 2 * np.pi), turn=_TURNS)
@example(tx_sides=(3, 2), rx_sides=(2, 2), tx_spacing=0.04, rx_spacing=0.03, d0=0.7, theta=0.3,
         phi=0.9, turn=None)
@settings(max_examples=60, deadline=None)
def test_assembled_reference_matches_the_pairwise_kernel(tx_sides, rx_sides, tx_spacing,
                                                         rx_spacing, d0, theta, phi, turn):
    tx = build_planar_surface(*tx_sides, tx_spacing)
    rx = build_planar_surface(*rx_sides, rx_spacing)
    link = LinkGeometry.from_angles(d0, theta=theta, phi=phi, rx_rotation=_turned(turn))
    qs = global_rx_positions(link, rx)
    G = assemble_ocm(tx, rx, link, 2 * np.pi)
    assert G.variant == "OCM"
    scale = np.max(np.abs(G.matrix))
    blocks = G.matrix.reshape(rx.count, 3, tx.count, 3)
    for m in range(rx.count):
        for n in range(tx.count):
            ref = green_dyadic(pair_displacement(link, tx.positions[n], qs[m]), 2 * np.pi)
            assert np.max(np.abs(blocks[m, :, n] - ref)) <= 1e-13 * scale


def test_full_size_assembly_shape():
    tx = build_planar_surface(41, 41, 0.01 * WAVELENGTH)
    rx = build_planar_surface(15, 15, 0.01 * WAVELENGTH)
    G = assemble_ocm(tx, rx, LinkGeometry.from_angles(4.25 * WAVELENGTH), K0)
    assert G.matrix.shape == (675, 5043)
    assert (G.m_count, G.n_count) == (225, 1681)


def test_coincident_elements_are_reported():
    # the RX grid turned about y runs along the link axis, so its element at
    # local x = +1 lands on the TX element at the origin
    tx = build_planar_surface(1, 1, 1.0)
    rx = build_planar_surface(3, 1, 1.0)
    turn = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    link = LinkGeometry.from_angles(1.0, rx_rotation=turn)
    with pytest.raises(CoincidentPointsError, match="RX element 2 coincides with TX element 0"):
        assemble_ocm(tx, rx, link, 2 * np.pi)


def test_matrix_wrapper_validates_shape_and_variant():
    G = BlockChannelMatrix(np.zeros((6, 9), dtype=complex), "OCM")
    assert (G.m_count, G.n_count) == (2, 3) and G.factors is None and G.matrix is G.entries
    with pytest.raises(ValueError, match="unknown variant"):
        BlockChannelMatrix(np.zeros((3, 3), dtype=complex), "XYZ")
    for shape in ((6, 8), (3, 4), (4, 3), (9,), (3, 3, 3)):
        with pytest.raises(ValueError, match="3x3 blocks"):
            BlockChannelMatrix(np.zeros(shape, dtype=complex), "OCM")


def test_structure_claims_are_checked_against_the_block_shape():
    G = BlockChannelMatrix(np.zeros((6, 9), dtype=complex), "OCM")
    left, right = np.zeros((6, 2)), np.zeros((9, 2))
    factored = BlockChannelMatrix((left, right), "OCM")
    assert (factored.m_count, factored.n_count) == (2, 3) and "matrix" not in vars(factored)
    tagged = factored.with_structure(lattice=((2, 1), (1, 3)), mirror=True)
    assert tagged.factors[0] is left and tagged.factors[1] is right
    assert (tagged.lattice, tagged.mirror) == (((2, 1), (1, 3)), True)
    bare = tagged.with_structure(lattice=((2, 1), (1, 3)))
    assert bare.factors is tagged.factors and not bare.mirror and bare.lattice == ((2, 1), (1, 3))
    assert G.with_structure(lattice=((2, 1), (1, 3))).matrix is G.matrix
    for bad in ((left, right[:, :1]), (left[:, 0], right[:, 0]), (left[None], right),
                (left[:4], right), (left, right[:7])):
        with pytest.raises(ValueError, match="factors"):
            BlockChannelMatrix(bad, "OCM")
    for bad in ((right, right), (left, left)):
        with pytest.raises(ValueError, match="lattice grids"):
            BlockChannelMatrix(bad, "OCM").with_structure(lattice=((2, 1), (1, 3)))
    for bad in (((2, 2), (3, 1)), ((1, 2), (2, 2)), ((1, 1), (1, 1)), ((1, 2), (3, 1), (1, 1))):
        with pytest.raises(ValueError, match="lattice grids"):
            G.with_structure(lattice=bad)


@pytest.mark.parametrize("tx_shape,rx_shape,d0_lambda,theta,phi", [
    ((41, 41), (15, 15), 0.25, 0.0, 0.0), ((41, 41), (15, 15), 4.25, 0.0, 0.0),
    ((13, 5), (3, 11), 1.5, 0.0, 0.0), ((9, 7), (5, 6), 1.5, 0.3, 0.4),
])
def test_factored_offset_table_matches_the_dense_read(tx_shape, rx_shape, d0_lambda, theta, phi):
    # the table read from the thin factors, without forming L R', against the
    # table read out of the dense product
    spacing = 0.01 * WAVELENGTH
    tx = build_planar_surface(*tx_shape, spacing)
    rx = build_planar_surface(*rx_shape, spacing)
    link = LinkGeometry.from_angles(d0_lambda * WAVELENGTH, theta=theta, phi=phi)
    mats = [assemble_fscm(tx, rx, link, K0)]
    mats += [assemble_pscm(tx, rx, link, K0, code) for code in ("1234", "123", "12")]
    factored = [G for G in mats if G.factors is not None]
    assert len(factored) == (4 if theta == 0.0 else 1)
    for G in factored:
        table, counts = _offset_table(G)
        assert "matrix" not in vars(G)
        dense = replace(G, entries=G.matrix).with_structure(lattice=G.lattice)
        want, want_counts = _offset_table(dense)
        assert table.shape == want.shape and np.array_equal(counts, want_counts)
        assert np.max(np.abs(table - want)) <= 1e-15 * np.max(np.abs(want)), G.variant


def test_far_point_form_ladder_converges():
    # max blockwise deviation from the projector point form halves with distance
    tx = build_planar_surface(3, 3, 0.05)
    rx = build_planar_surface(2, 2, 0.05)
    d_r = rayleigh_distance(tx, rx, 1.0)
    ratios = []
    for mult in (10, 20, 40, 80):
        link = LinkGeometry.from_angles(mult * d_r)
        G = assemble_ocm(tx, rx, link, 2 * np.pi)
        worst = 0.0
        for m in range(rx.count):
            for n in range(tx.count):
                d = pair_displacement(link, tx.positions[n], rx.positions[m])
                far = green_dyadic_far(d, 2 * np.pi)
                block = G.matrix[3 * m : 3 * m + 3, 3 * n : 3 * n + 3]
                worst = max(worst, np.linalg.norm(block - far) / np.linalg.norm(far))
        ratios.append(worst)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
