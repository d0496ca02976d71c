"""Surface builders and link geometry."""

from dataclasses import replace

import numpy as np
import pytest

from hmimo import (
    DegenerateGeometryError,
    LinkGeometry,
    SurfaceLayout,
    build_planar_surface,
    global_rx_positions,
    pairwise_offsets,
    rayleigh_distance,
    wavevector,
)


def test_single_element_sits_at_origin():
    s = build_planar_surface(1, 1, 0.01)
    np.testing.assert_array_equal(s.positions, [[0.0, 0.0, 0.0]])
    assert s.element_area == pytest.approx(1e-4)
    assert s.count == 1


def test_two_element_row_is_centered():
    s = build_planar_surface(2, 1, 0.5)
    np.testing.assert_allclose(s.positions, [[-0.25, 0.0, 0.0], [0.25, 0.0, 0.0]])


def test_grid_order_is_row_major_and_centered():
    s = build_planar_surface(3, 2, 1.0)
    assert s.count == 6
    np.testing.assert_allclose(s.positions.mean(axis=0), [0, 0, 0], atol=1e-15)
    # x sweeps fastest: the first three elements share one y value
    assert len(set(s.positions[:3, 1])) == 1
    assert s.positions[0, 0] < s.positions[1, 0] < s.positions[2, 0]
    assert s.positions[3, 1] - s.positions[0, 1] == pytest.approx(1.0)


def test_odd_grids_nest():
    # the 3x3 element set is a subset of the 5x5 set at the same spacing
    small = build_planar_surface(3, 3, 0.2)
    big = build_planar_surface(5, 5, 0.2)
    big_set = {tuple(np.round(p, 12)) for p in big.positions}
    assert all(tuple(np.round(p, 12)) in big_set for p in small.positions)


def test_positions_are_read_only():
    s = build_planar_surface(2, 2, 0.1)
    with pytest.raises(ValueError):
        s.positions[0, 0] = 1.0


def test_surface_rejects_bad_inputs():
    good = build_planar_surface(2, 2, 0.1)
    for n_h, n_v, spacing in ((0, 1, 0.1), (1, 1, 0.0), (1, 1, np.nan), (1, 1, np.inf),
                              (1, 1, -np.inf), (True, 1, 0.1), (1, True, 0.1), (2.0, 1, 0.1)):
        with pytest.raises(ValueError):
            build_planar_surface(n_h, n_v, spacing)
        with pytest.raises(ValueError):
            SurfaceLayout(n_h, n_v, spacing)
        with pytest.raises(ValueError):
            replace(good, n_h=n_h, n_v=n_v, spacing=spacing)


def test_surface_area_and_diagonal_follow_the_spacing():
    layout = build_planar_surface(3, 2, 0.1)
    assert layout.element_area == 0.1**2
    wider = replace(layout, spacing=0.2)
    assert wider.element_area == pytest.approx(0.04, rel=1e-15)
    assert wider.aperture_diag == pytest.approx(np.hypot(0.6, 0.4), rel=1e-15)
    # the positions are derived too, so replace() never leaves them stale
    np.testing.assert_array_equal(wider.positions, build_planar_surface(3, 2, 0.2).positions)
    longer = replace(layout, n_h=5)
    assert longer.count == 10
    np.testing.assert_array_equal(longer.positions, build_planar_surface(5, 2, 0.1).positions)


def test_wavevector_directions():
    np.testing.assert_allclose(wavevector(0.0, 0.0), [0, 0, 1], atol=1e-16)
    np.testing.assert_allclose(wavevector(np.pi / 2, 0.0), [1, 0, 0], atol=1e-15)
    assert np.linalg.norm(wavevector(0.7, 2.1)) == pytest.approx(1.0, rel=1e-15)


def test_link_rejects_nonpositive_distance():
    for d0 in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DegenerateGeometryError):
            LinkGeometry.from_angles(d0)
    with pytest.raises(DegenerateGeometryError):
        LinkGeometry(-1.0, 0.0, 0.0)
    with pytest.raises(DegenerateGeometryError):
        replace(LinkGeometry.from_angles(1.0), d0=0.0)
    for theta, phi in ((np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0)):
        with pytest.raises(ValueError, match="angles"):
            LinkGeometry.from_angles(1.0, theta, phi)


def test_link_direction_follows_its_angles():
    link = LinkGeometry.from_angles(1.0)
    np.testing.assert_array_equal(link.kappa, wavevector(0.0, 0.0))
    tilted = replace(link, theta=0.3)
    np.testing.assert_array_equal(tilted.kappa, wavevector(0.3, 0.0))
    np.testing.assert_array_equal(LinkGeometry(2.0, 0.4, 1.1).kappa, wavevector(0.4, 1.1))
    with pytest.raises(ValueError):
        tilted.kappa[0] = 1.0


def test_rayleigh_two_single_elements():
    # each 1x1 aperture diagonal is s*sqrt(2), so 2*(2*s*sqrt(2))^2 = 16 s^2
    s = 0.3
    tx = build_planar_surface(1, 1, s)
    rx = build_planar_surface(1, 1, s)
    assert rayleigh_distance(tx, rx, 1.0) == pytest.approx(16 * s * s, rel=1e-12)


def test_rayleigh_doubling_apertures_quadruples():
    lam = 0.5
    base = rayleigh_distance(build_planar_surface(4, 4, 0.1), build_planar_surface(2, 2, 0.1), lam)
    double = rayleigh_distance(build_planar_surface(8, 8, 0.1), build_planar_surface(4, 4, 0.1), lam)
    assert double == pytest.approx(4 * base, rel=1e-12)


def test_rayleigh_is_symmetric_in_the_surfaces():
    tx = build_planar_surface(5, 3, 0.2)
    rx = build_planar_surface(2, 7, 0.11)
    assert rayleigh_distance(tx, rx, 0.7) == rayleigh_distance(rx, tx, 0.7)


def test_rayleigh_rejects_bad_wavelength():
    s = build_planar_surface(2, 2, 0.1)
    with pytest.raises(ValueError):
        rayleigh_distance(s, s, 0.0)


def test_rx_rotation_maps_local_offsets():
    # 90 degree rotation about z sends +x offsets to +y
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    link = LinkGeometry.from_angles(3.0, rx_rotation=rot)
    rx = build_planar_surface(2, 1, 1.0)
    np.testing.assert_allclose(
        global_rx_positions(link, rx), [[0.0, -0.5, 0.0], [0.0, 0.5, 0.0]], atol=1e-15
    )


def test_rotation_must_be_3x3():
    with pytest.raises(ValueError):
        LinkGeometry.from_angles(1.0, rx_rotation=np.eye(2))
    with pytest.raises(ValueError):
        replace(LinkGeometry.from_angles(1.0), rx_rotation=np.eye(2))


def test_rotation_must_be_finite():
    for bad in (np.nan, np.inf, -np.inf):
        rotation = np.eye(3)
        rotation[1, 2] = bad
        with pytest.raises(ValueError, match="rx_rotation"):
            LinkGeometry.from_angles(1.0, rx_rotation=rotation)
        with pytest.raises(ValueError, match="rx_rotation"):
            replace(LinkGeometry.from_angles(1.0), rx_rotation=rotation)


def test_rotation_must_be_proper():
    c, s = np.cos(0.3), np.sin(0.3)
    turn = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    LinkGeometry.from_angles(1.0, rx_rotation=turn)
    nudged = turn.copy()
    nudged[2, 1] += 1e-6
    for bad in (2.0 * np.eye(3), np.zeros((3, 3)), np.diag([1.0, 1.0, -1.0]), nudged):
        with pytest.raises(ValueError, match="rx_rotation must be a proper rotation"):
            LinkGeometry.from_angles(1.0, rx_rotation=bad)
        with pytest.raises(ValueError, match="rx_rotation must be a proper rotation"):
            replace(LinkGeometry.from_angles(1.0, rx_rotation=turn), rx_rotation=bad)


def test_pairwise_offsets_shape_and_content():
    tx = build_planar_surface(3, 1, 0.5)
    rx = build_planar_surface(2, 1, 0.5)
    link = LinkGeometry.from_angles(1.0)
    off = pairwise_offsets(tx, rx, link)
    assert off.shape == (2, 3, 3)
    np.testing.assert_allclose(off[1, 0], rx.positions[1] - tx.positions[0])
