"""Exact dyadic kernel, its far-field point form, and the dense reference assembler."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hmimo import (
    BlockChannelMatrix,
    CoincidentPointsError,
    LinkGeometry,
    PSCM_CODES,
    assemble_fscm,
    assemble_ocm,
    assemble_pscm,
    build_planar_surface,
    global_rx_positions,
    green_dyadic,
    green_dyadic_far,
    nmse,
    omega_pair,
    pair_displacement,
    pairwise_offsets,
    rayleigh_distance,
)
from hmimo.green import Lattice, _axis, _dyad_dense, _offset_table
from _helpers import _SIDES, _SPACINGS, _THETAS, _TURNS, _cmat, _turned

WAVELENGTH = 299792458.0 / 2.4e9
K0 = 2 * np.pi / WAVELENGTH


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


_GRID = build_planar_surface(2, 2, 0.01 * WAVELENGTH)
_LINK = LinkGeometry.from_angles(2 * WAVELENGTH)
_AXIS = np.array([0.0, 0.0, 1.0])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name,call", [
    pytest.param("wavenumber", lambda k0: green_dyadic(_AXIS, k0), id="green_dyadic"),
    pytest.param("wavenumber", lambda k0: green_dyadic_far(_AXIS, k0), id="green_dyadic_far"),
    pytest.param("wavenumber", lambda k0: assemble_ocm(_GRID, _GRID, _LINK, k0), id="ocm"),
    pytest.param("wavenumber", lambda k0: assemble_pscm(_GRID, _GRID, _LINK, k0), id="pscm"),
    pytest.param("wavenumber", lambda k0: assemble_fscm(_GRID, _GRID, _LINK, k0), id="fscm"),
    pytest.param("k0", lambda k0: omega_pair(k0, 1.0, 1.0), id="omega-k0"),
    pytest.param("gamma", lambda gamma: omega_pair(1.0, gamma, 1.0), id="omega-gamma"),
    pytest.param("d0", lambda d0: omega_pair(1.0, 1.0, d0), id="omega-d0"),
    pytest.param("wavelength", lambda lam: rayleigh_distance(_GRID, _GRID, lam), id="rayleigh"),
])
def test_scalar_inputs_must_be_positive_and_finite(name, call, value):
    # NaN and both infinities fail the one rule too, not only values <= 0
    with pytest.raises(ValueError, match=re.escape(f"{name} must be positive and finite, got")):
        call(value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kernel", [green_dyadic, green_dyadic_far])
def test_kernels_reject_a_displacement_that_is_not_finite(kernel, bad):
    # rejected before any arithmetic: no NaN block and no RuntimeWarning
    for where in range(3):
        d_vec = np.array([0.0, 0.0, 1.0])
        d_vec[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="d_vec entries must be finite"):
                kernel(d_vec, 2 * np.pi)


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
    left, right = np.zeros((6, 2)), np.zeros((9, 2))
    factored = BlockChannelMatrix((left, right), "OCM")
    assert (factored.m_count, factored.n_count) == (2, 3) and "matrix" not in vars(factored)
    assert factored.factors[0] is left and factored.factors[1] is right
    assert factored.lattice is None
    for bad in ((left, right[:, :1]), (left[:, 0], right[:, 0]), (left[None], right),
                (left[:4], right), (left, right[:7])):
        with pytest.raises(ValueError, match="factors"):
            BlockChannelMatrix(bad, "OCM")


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
        want, want_counts = _representative_blocks(G.matrix, G.lattice)
        assert table.shape == want.shape and np.array_equal(counts, want_counts)
        assert np.max(np.abs(table - want)) <= 1e-15 * np.max(np.abs(want)), G.variant


def _representative_blocks(matrix, lattice):
    """The block of the first pair of each grid-index offset of a dense matrix, and pair counts.

    Along one axis offset a = i_r - i_t, from 1 - tx_n to rx_n - 1, is
    first met at RX index max(a, 0) and TX index max(-a, 0).
    """
    (rx_v, tx_v), (rx_h, tx_h) = lattice.v, lattice.h
    view = matrix.reshape(rx_v, rx_h, 3, tx_v, tx_h, 3)
    axes = []
    for rx_n, tx_n in ((rx_v, tx_v), (rx_h, tx_h)):
        a = np.arange(1 - tx_n, rx_n)
        axes.append((np.maximum(a, 0), np.maximum(-a, 0),
                     np.minimum(tx_n, rx_n - a) - np.maximum(0, -a)))
    (vr, vt, w_v), (hr, ht, w_h) = axes
    return view[vr[:, None], hr, :, vt[:, None], ht, :], (w_v[:, None] * w_h)[:, :, None, None]


def _all_pairs(tx, rx, link):
    """Pair displacements and distances of the dense all-pairs route."""
    dvec = link.d0 * link.kappa + pairwise_offsets(tx, rx, link)
    return dvec, np.sqrt(np.einsum("mni,mni->mn", dvec, dvec))


@pytest.mark.parametrize("tx_shape,rx_shape,d0_lambda,theta,phi", [
    ((41, 41), (15, 15), 0.25, 0.0, 0.0), ((41, 41), (15, 15), 4.25, 0.0, 0.0),
    ((33, 33), (11, 11), 1.5, 0.0, 0.0), ((25, 25), (5, 5), 0.75, 0.0, 0.0),
    ((13, 5), (3, 11), 1.5, 0.0, 0.0), ((9, 7), (5, 6), 1.5, 0.3, 0.4),
])
def test_lattice_reference_holds_the_table_of_the_all_pairs_route(tx_shape, rx_shape, d0_lambda,
                                                                  theta, phi):
    spacing = 0.01 * WAVELENGTH
    tx = build_planar_surface(*tx_shape, spacing)
    rx = build_planar_surface(*rx_shape, spacing)
    link = LinkGeometry.from_angles(d0_lambda * WAVELENGTH, theta=theta, phi=phi)
    G = assemble_ocm(tx, rx, link, K0)
    assert G.lattice == Lattice((rx.n_v, tx.n_v), (rx.n_h, tx.n_h), theta == 0.0)
    table, counts = _offset_table(G)
    assert table is G.entries and "matrix" not in vars(G)
    dense = _dyad_dense(*_all_pairs(tx, rx, link), link, K0)
    want, want_counts = _representative_blocks(dense, G.lattice)
    assert np.array_equal(table, want) and np.array_equal(counts, want_counts)
    assert np.max(np.abs(G.matrix - dense)) <= 1e-14 * np.max(np.abs(dense))
    if theta != 0.0:
        # the elementwise separable variants hold the table of the all-pairs
        # kernel at the projected distance dvec'kappa
        for code in PSCM_CODES.values():
            S = assemble_pscm(tx, rx, link, K0, code)
            assert S.lattice == G.lattice and S.entries.ndim == 4
            dvec = _all_pairs(tx, rx, link)[0]
            dense = _dyad_dense(dvec, dvec @ link.kappa, link, K0, len(code))
            assert np.array_equal(_offset_table(S)[0], _representative_blocks(dense, S.lattice)[0])
            assert "matrix" not in vars(S), S.variant
            assert np.max(np.abs(S.matrix - dense)) <= 1e-14 * np.max(np.abs(dense)), S.variant

    # a coincident pair: on exactly representable grids, with the x and z
    # parts of d0 kappa (cos(pi/2) ~ 6e-17) underflowing in d'd, the pairs
    # from the top RX row to the bottom TX row that share an x are at
    # distance 0
    tiny = build_planar_surface(*tx_shape, 2.0**-500), build_planar_surface(*rx_shape, 2.0**-500)
    d0 = 0.5 * (tx.n_v + rx.n_v - 2) * 2.0**-500
    link = LinkGeometry.from_angles(d0, theta=np.pi / 2, phi=-np.pi / 2)
    m, n = np.argwhere(_all_pairs(*tiny, link)[1] == 0.0)[0]
    with pytest.raises(CoincidentPointsError, match=f"RX element {m} coincides with TX element {n}$"):
        assemble_ocm(*tiny, link, K0)


@pytest.mark.parametrize("tx_n", range(1, 8))
@pytest.mark.parametrize("rx_n", range(1, 8))
def test_one_offset_map_along_an_axis(rx_n, tx_n):
    # the pair-to-offset index and the representative pairs and counts of
    # _axis state one map: each representative pair sits at its own table
    # index, and each index holds as many pairs as the axis counts
    axis = _axis(rx_n, tx_n)
    index, i_r, i_t, counts = axis.index, axis.rx_reps, axis.tx_reps, axis.counts
    np.testing.assert_array_equal(index, np.subtract.outer(np.arange(rx_n), np.arange(tx_n))
                                  + tx_n - 1)
    np.testing.assert_array_equal(index[i_r, i_t], np.arange(rx_n + tx_n - 1))
    np.testing.assert_array_equal(np.bincount(index.ravel(), minlength=counts.size), counts)
    assert _axis(rx_n, tx_n) is axis
    for array in (index, i_r, i_t, counts):
        assert not array.flags.writeable
    # a lattice spreads a per-offset array to every pair: RX (v_r, h_r) and
    # TX (v_t, h_t) read entry (v_r - v_t + tx_n_v - 1, h_r - h_t + tx_n_h - 1)
    lattice = Lattice((rx_n, tx_n), (tx_n, rx_n), False)
    per_offset = np.arange((rx_n + tx_n - 1) ** 2).reshape(rx_n + tx_n - 1, -1)
    spread = lattice.spread(per_offset).reshape(rx_n, tx_n, tx_n, rx_n)
    v_r, h_r, v_t, h_t = np.indices(spread.shape)
    np.testing.assert_array_equal(spread, per_offset[v_r - v_t + tx_n - 1, h_r - h_t + rx_n - 1])


def _butterfly(n):
    """The orthonormal butterfly, row by row, and how many of its rows are even."""
    half, eye = n // 2, np.eye(n)
    plus = [(eye[k] + eye[n - 1 - k]) / np.sqrt(2) for k in range(half)]
    minus = [(eye[k] - eye[n - 1 - k]) / np.sqrt(2) for k in range(half)]
    return np.array(plus + [eye[half]] * (n % 2) + minus), n - half


@pytest.mark.parametrize("tx_n", range(1, 8))
@pytest.mark.parametrize("rx_n", range(1, 8))
def test_parity_kernels_are_the_butterflies_around_each_offset_matrix(rx_n, tx_n):
    # K[:, :, a] = B_r E_a B_t' with E_a the 0/1 matrix of the pairs at grid
    # offset i_r - i_t = a + 1 - tx_n; odd sizes cover the centre rows
    (b_r, even_r), (b_t, even_t) = _butterfly(rx_n), _butterfly(tx_n)
    i_r, i_t = np.indices((rx_n, tx_n))
    want = np.stack([b_r @ (i_r - i_t == a).astype(float) @ b_t.T
                     for a in range(1 - tx_n, rx_n)], axis=-1)
    rows = {1: slice(0, even_r), -1: slice(even_r, rx_n)}
    cols = {1: slice(0, even_t), -1: slice(even_t, tx_n)}
    kernels = _axis(rx_n, tx_n).kernels
    assert sorted(kernels) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    for (p_r, p_t), kernel in kernels.items():
        expected = want[rows[p_r], cols[p_t]]
        assert kernel.shape == expected.shape and not kernel.flags.writeable
        np.testing.assert_allclose(kernel, expected, rtol=0, atol=1e-15)
    with pytest.raises(TypeError):
        kernels[1, 1] = want


def test_a_table_is_held_only_with_its_own_lattice():
    tx, rx = build_planar_surface(3, 2, 0.01), build_planar_surface(2, 3, 0.01)
    G = assemble_ocm(tx, rx, LinkGeometry.from_angles(0.05), K0)
    assert G.entries.shape == (4, 4, 3, 3) and G.lattice == Lattice((3, 2), (2, 3), True)
    with pytest.raises(ValueError, match="without its lattice"):
        replace(G)
    with pytest.raises(ValueError, match="without its lattice"):
        BlockChannelMatrix(G.entries, "OCM")
    rebuilt = replace(G, entries=G.matrix)
    assert rebuilt.lattice is None and rebuilt.matrix is G.matrix


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


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_every_variant_carries_the_lattice_of_its_link(theta):
    # at boresight and on a tilted unrotated link the five variants hold equal
    # lattices, mirrored or not alike, so nmse reads only their tables
    spacing = 0.01 * WAVELENGTH
    tx, rx = build_planar_surface(9, 7, spacing), build_planar_surface(5, 6, spacing)
    link = LinkGeometry.from_angles(1.5 * WAVELENGTH, theta=theta, phi=0.4)
    ref = assemble_ocm(tx, rx, link, K0)
    mats = [assemble_fscm(tx, rx, link, K0)]
    mats += [assemble_pscm(tx, rx, link, K0, code) for code in PSCM_CODES.values()]
    assert ref.lattice == Lattice((6, 7), (5, 9), theta == 0.0) and ref.entries.ndim == 4
    assert [G.lattice for G in mats] == [ref.lattice] * 4
    assert sum(G.factors is not None for G in mats) == (4 if theta == 0.0 else 1)
    for G in mats:
        assert 0.0 < nmse(G, ref) < 1.0
    assert all("matrix" not in vars(G) for G in (ref, *mats))
