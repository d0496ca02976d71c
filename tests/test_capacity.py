"""Physical configuration, eigenchannel decomposition and capacity."""

import importlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hmimo import (
    FREE_SPACE_IMPEDANCE,
    PSCM_CODES,
    SPEED_OF_LIGHT,
    BlockChannelMatrix,
    EigenchannelSet,
    LinkGeometry,
    NumericalError,
    PhysicalConfig,
    PPolicy,
    SurfaceLayout,
    assemble_fscm,
    assemble_ocm,
    assemble_pscm,
    build_planar_surface,
    capacity,
    eigenchannel_decompose,
    global_rx_positions,
    pairwise_offsets,
    select_p,
)
from hmimo.capacity import _QR_FIRST_RATIO, _SKETCH_COLUMNS
from hmimo.green import Lattice, _claimed, _dyad_dense, _lattice_sectors
from _helpers import _rotation


def _cfg(**kw):
    base = dict(frequency=2.4e9, a_t=1e-6, a_r=1e-6)
    base.update(kw)
    return PhysicalConfig(**base)


def test_config_derives_wavelength_and_mu():
    cfg = PhysicalConfig(frequency=SPEED_OF_LIGHT, a_t=1.0, a_r=1.0)
    assert cfg.wavelength == pytest.approx(1.0)
    assert cfg.k0 == pytest.approx(2 * np.pi)
    assert cfg.mu == pytest.approx(FREE_SPACE_IMPEDANCE**2 / 4.0)


@pytest.mark.parametrize("field", ["frequency", "a_t", "a_r", "noise_var", "total_power", "eta"])
def test_config_rejects_nonpositive_values(field):
    for value in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=field):
            _cfg(**{field: value})


@pytest.mark.parametrize("area", [1e-200, 1e200])
def test_config_rejects_an_area_product_that_is_not_finite(area):
    # each area is positive and finite, but a_r * a_t underflows to 0 or overflows to inf
    with pytest.raises(ValueError, match=re.escape("a_r * a_t must be positive and finite")):
        _cfg(a_t=area, a_r=area)


@pytest.mark.parametrize("frequency", [1e-300, 1e300])
def test_config_rejects_a_frequency_whose_mu_is_not_finite(frequency):
    # 1e-300 Hz gives an infinite wavelength; at 1e300 Hz its square underflows
    with pytest.raises(ValueError, match="mu"):
        _cfg(frequency=frequency)


def test_channel_scale_matches_reference_value(goldens):
    lam = 0.124913
    cfg = PhysicalConfig(
        frequency=SPEED_OF_LIGHT / lam, a_t=(0.01 * lam) ** 2, a_r=(0.01 * lam) ** 2, eta=376.73
    )
    # the physical scale eta / (2 lambda) * a_r * a_t lives in the config alone
    scale = np.sqrt(cfg.mu) * cfg.a_r * cfg.a_t
    assert scale == pytest.approx(goldens["channel_scale"], rel=1e-9)


def test_select_p_threshold_and_fixed():
    spectrum = np.array([1.0, 0.5, 1e-9])
    assert select_p(spectrum, PPolicy.threshold(1e-6)) == 2
    flat = np.array([1.0, 1.0, 1.0])
    assert select_p(flat, PPolicy.fixed(2)) == 2
    assert select_p(flat, PPolicy.fixed(9)) == 3  # capped at the spectrum length


def test_select_p_rejects_zero_spectrum():
    with pytest.raises(ValueError, match="zero channel"):
        select_p(np.array([0.0, 0.0]), PPolicy.threshold(1e-6))
    with pytest.raises(ValueError):
        select_p(np.array([]), PPolicy.fixed(1))


def test_policy_parsing():
    p = PPolicy.parse("threshold(1e-6)")
    assert (p.kind, p.value) == ("threshold", 1e-6)
    q = PPolicy.parse(" fixed(4) ")
    assert (q.kind, q.value) == ("fixed", 4)
    for bad in ("fixed", "fixed()", "median(3)", "threshold(0)", "threshold(1e-12)",
                "fixed(0)"):
        with pytest.raises(ValueError):
            PPolicy.parse(bad)


@pytest.mark.parametrize("kind,bad,match", [
    *(("threshold", v, "threshold must lie in") for v in
      (0.0, 1e-12, 1.5, -0.5, float("nan"), True, "0.5", None)),
    *(("fixed", v, "fixed channel count must be >= 1") for v in (0, -2, 2.5, 2.0, True, "3", None)),
])
def test_policy_values_are_checked_on_every_construction(kind, bad, match):
    make = PPolicy.threshold if kind == "threshold" else PPolicy.fixed
    good = make(0.5 if kind == "threshold" else 2)
    for build in (lambda: PPolicy(kind, bad), lambda: make(bad), lambda: replace(good, value=bad)):
        with pytest.raises(ValueError, match=re.escape(match)):
            build()


def test_policy_kinds_are_checked_and_values_normalized():
    for build in (lambda: PPolicy("bogus", 1), lambda: replace(PPolicy.fixed(2), kind="bogus")):
        with pytest.raises(ValueError, match="unknown policy kind"):
            build()
    # switching the kind alone re-checks the value against the new kind
    with pytest.raises(ValueError, match="threshold must lie in"):
        replace(PPolicy.fixed(2), kind="threshold")
    with pytest.raises(ValueError, match="fixed channel count"):
        replace(PPolicy.threshold(0.5), kind="fixed")
    for policy, value in ((PPolicy("threshold", 1), 1.0), (PPolicy.threshold(np.float32(0.5)), 0.5),
                          (PPolicy("fixed", np.int64(3)), 3), (replace(PPolicy.fixed(2), value=5), 5)):
        assert policy.value == value and type(policy.value) is type(value)


def test_smallest_link_has_two_equal_gains():
    # single TX and RX element, fully separable model: the transverse
    # projector leaves exactly two eigenchannels of strength 1/(4 pi d0)
    d0 = 0.8
    cfg = _cfg(a_t=2.5e-7, a_r=2.5e-7)
    s = build_planar_surface(1, 1, 0.0005)
    G = assemble_fscm(s, s, LinkGeometry.from_angles(d0), cfg.k0)
    eigs = eigenchannel_decompose(G, cfg)
    sigma = eigs.gains / np.sqrt(cfg.a_t * cfg.a_r)
    assert sigma[0] == pytest.approx(1.0 / (4 * np.pi * d0), rel=1e-12)
    assert sigma[1] == pytest.approx(1.0 / (4 * np.pi * d0), rel=1e-12)
    assert sigma[2] <= 1e-12 * sigma[0]
    assert eigs.p_used == 2


def test_patterns_reconstruct_the_channel():
    cfg = _cfg()
    tx = build_planar_surface(2, 2, 0.04)
    rx = build_planar_surface(2, 1, 0.05)
    link = LinkGeometry.from_angles(0.6, theta=0.3, phi=0.7)
    G = assemble_ocm(tx, rx, link, 2 * np.pi)
    rank = min(G.matrix.shape)
    eigs = eigenchannel_decompose(G, cfg, PPolicy.fixed(rank))
    sigma = eigs.gains[:rank] / np.sqrt(cfg.a_t * cfg.a_r)
    left = np.sqrt(cfg.a_r) * eigs.rx_patterns
    right = np.sqrt(cfg.a_t) * eigs.tx_patterns
    recon = (left * sigma) @ right.conj().T
    assert np.linalg.norm(recon - G.matrix) <= 1e-10 * np.linalg.norm(G.matrix)


def test_patterns_are_orthonormal():
    cfg = _cfg()
    tx = build_planar_surface(3, 1, 0.05)
    rx = build_planar_surface(2, 2, 0.05)
    G = assemble_ocm(tx, rx, LinkGeometry.from_angles(0.9), 2 * np.pi)
    eigs = eigenchannel_decompose(G, cfg, PPolicy.fixed(4))
    left = np.sqrt(cfg.a_r) * eigs.rx_patterns
    right = np.sqrt(cfg.a_t) * eigs.tx_patterns
    np.testing.assert_allclose(left.conj().T @ left, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(right.conj().T @ right, np.eye(4), atol=1e-10)


def test_gains_ignore_a_global_phase():
    cfg = _cfg()
    tx = build_planar_surface(2, 2, 0.05)
    G = assemble_ocm(tx, tx, LinkGeometry.from_angles(1.2), 2 * np.pi)
    rotated = replace(G, entries=np.exp(0.7j) * G.matrix)
    a = eigenchannel_decompose(G, cfg).gains
    b = eigenchannel_decompose(rotated, cfg).gains
    # spectrum-scale agreement; trailing values are numerically null
    assert np.max(np.abs(a - b)) <= 1e-12 * a[0]


def test_capacity_closed_form_for_the_smallest_link():
    d0_lambda = 1.7
    cfg = _cfg(total_power=10.0 * 1e-6)
    lam = cfg.wavelength
    d0 = d0_lambda * lam
    s = build_planar_surface(1, 1, 0.001)
    G = assemble_fscm(s, s, LinkGeometry.from_angles(d0), cfg.k0)
    eigs = eigenchannel_decompose(G, cfg)
    got = capacity(eigs, cfg)
    snr = cfg.total_power / (2.0 * cfg.a_r * cfg.noise_var)
    expect = 2.0 * np.log2(1.0 + cfg.mu * snr * cfg.a_r * cfg.a_t / (16 * np.pi**2 * d0**2))
    assert got == pytest.approx(expect, rel=1e-10)


def test_an_empty_matrix_is_rejected():
    G = BlockChannelMatrix(np.zeros((0, 3), dtype=complex), "OCM")
    with pytest.raises(ValueError, match="empty channel matrix"):
        eigenchannel_decompose(G, _cfg())


def test_capacity_needs_a_channel_in_use():
    with pytest.raises(ValueError, match="at least one eigenchannel"):
        capacity(EigenchannelSet(np.array([1.0]), 0, None, None), _cfg())


def test_capacity_monotone_in_the_power_budget():
    cfg = _cfg()
    tx = build_planar_surface(2, 2, 0.05)
    G = assemble_ocm(tx, tx, LinkGeometry.from_angles(1.0), cfg.k0)
    eigs = eigenchannel_decompose(G, cfg)
    caps = [capacity(eigs, _cfg(total_power=p)) for p in (0.5, 1.0, 2.0, 8.0)]
    assert all(b > a for a, b in zip(caps, caps[1:]))
    noisy = capacity(eigs, _cfg(noise_var=4.0))
    assert noisy < capacity(eigs, cfg)


def test_select_p_rejects_a_non_finite_spectrum():
    for bad in (np.array([np.nan, 1.0]), np.array([1.0, np.nan]), np.array([np.inf, 1.0])):
        with pytest.raises(NumericalError, match="not finite"):
            select_p(bad, PPolicy.fixed(1))


def test_full_decomposition_rejects_non_finite_entries():
    cfg = _cfg()
    tx = build_planar_surface(2, 1, 0.05)
    G = assemble_ocm(tx, tx, LinkGeometry.from_angles(1.0), cfg.k0)
    for value in (np.nan, np.inf):
        matrix = G.matrix.copy()
        matrix[0, 0] = value
        with pytest.raises(NumericalError):
            eigenchannel_decompose(replace(G, entries=matrix), cfg)


def test_select_p_counts_a_degenerate_pair_whatever_its_rounding():
    for second in (1.0, 1.0 - 1e-15, 1.0 + 1e-15):
        assert select_p(np.array([1.0, second, 0.5]), PPolicy.threshold(1.0)) == 2
    assert select_p(np.array([1.0, 1.0 - 1e-9, 0.5]), PPolicy.threshold(1.0)) == 1


@pytest.mark.parametrize("tx_side,d0_lambda", [(9, 1.5), (9, 2.5), (9, 4.25), (25, 4.25)])
def test_threshold_one_counts_the_same_on_every_route(tx_side, d0_lambda):
    # the built-in sweep geometry with a 5 x 5 RX surface, where the spectra
    # have a degenerate sigma_1 = sigma_2 pair
    cfg = _cfg()
    spacing = 0.01 * cfg.wavelength
    tx = build_planar_surface(tx_side, tx_side, spacing)
    rx = build_planar_surface(5, 5, spacing)
    link = LinkGeometry.from_angles(d0_lambda * cfg.wavelength)
    mats = [assemble_ocm(tx, rx, link, cfg.k0), assemble_fscm(tx, rx, link, cfg.k0)]
    mats += [assemble_pscm(tx, rx, link, cfg.k0, v) for v in ("1234", "123", "12")]
    assert all(G.lattice.mirror for G in mats)
    assert all(G.factors is not None for G in mats[1:])
    policy = PPolicy.threshold(1.0)
    for G in mats:
        dense = eigenchannel_decompose(G, cfg, policy)
        fast = eigenchannel_decompose(G, cfg, policy, patterns=False)
        assert fast.p_used == dense.p_used, G.variant


def test_spectrum_only_decomposition_rejects_a_non_finite_mirrored_matrix():
    cfg = _cfg()
    tx = build_planar_surface(3, 2, 0.05)
    G = assemble_ocm(tx, build_planar_surface(2, 2, 0.05), LinkGeometry.from_angles(1.0), cfg.k0)
    assert G.lattice.mirror
    for value in (np.nan, np.inf):
        table = G.entries.copy()
        table[1, 2, 1, 1] = value
        bad = _claimed(table, "OCM", G.lattice)
        with pytest.raises(NumericalError, match="NaN or inf"):
            eigenchannel_decompose(bad, cfg, patterns=False)


@pytest.mark.parametrize("rx_shape,tx_shape", [((2, 1), (1, 2)), ((4, 1), (2, 2)),
                                               ((6, 1), (2, 3)), ((5, 1), (2, 2))])
def test_sector_spectrum_is_padded_to_the_full_length(rx_shape, tx_shape):
    # these grids leave the four parity sectors fewer than min(3M, 3N) values
    cfg = _cfg()
    G = assemble_ocm(build_planar_surface(*tx_shape, 0.05), build_planar_surface(*rx_shape, 0.05),
                     LinkGeometry.from_angles(0.7), 2 * np.pi)
    assert G.lattice.mirror
    length = 3 * min(G.m_count, G.n_count)
    dense = eigenchannel_decompose(G, cfg, PPolicy.fixed(length))
    fast = eigenchannel_decompose(G, cfg, PPolicy.fixed(length), patterns=False)
    assert fast.gains.shape == dense.gains.shape == (length,)
    assert np.max(np.abs(fast.gains - dense.gains)) <= 1e-12 * dense.gains[0]
    assert fast.gains[-1] == 0.0


def test_mirror_needs_a_lattice():
    # the mirror flag is a field of the lattice, so it cannot stand without one
    tx = build_planar_surface(3, 2, 0.05)
    rx = build_planar_surface(2, 1, 0.05)
    G = assemble_ocm(tx, rx, LinkGeometry.from_angles(1.0), 2 * np.pi)
    assert G.lattice == Lattice((1, 2), (2, 3), True) and "mirror" not in vars(G)
    assert G.lattice == ((1, 2), (2, 3), True) and hash(G.lattice) == hash(((1, 2), (2, 3), True))
    # two spacings: no lattice, so no mirror either, though the link is at boresight
    D = assemble_ocm(tx, build_planar_surface(2, 1, 0.04), LinkGeometry.from_angles(1.0), 2 * np.pi)
    assert D.lattice is None and D.entries.ndim == 2


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_a_rebuilt_matrix_carries_no_structure_claim(theta):
    tx = build_planar_surface(3, 3, 0.05)
    rx = build_planar_surface(2, 2, 0.05)
    link = LinkGeometry.from_angles(0.8, theta=theta)
    mats = [assemble_ocm(tx, rx, link, 2 * np.pi), assemble_fscm(tx, rx, link, 2 * np.pi),
            *(assemble_pscm(tx, rx, link, 2 * np.pi, code) for code in PSCM_CODES.values())]
    assert [G.lattice for G in mats] == [Lattice((2, 3), (2, 3), theta == 0.0)] * 5
    assert mats[1].factors is not None
    for G in mats:
        for rebuilt in (replace(G, entries=2.0 * G.matrix),
                        BlockChannelMatrix(G.matrix, G.variant)):
            assert rebuilt.factors is None and rebuilt.lattice is None


@pytest.mark.parametrize("variant", ["OCM", "PSCM"])
def test_spectrum_of_a_rebuilt_matrix_reads_its_new_entries(variant):
    # block (0, 0) of a mirrored OCM or a factored PSCM scaled by 10: the
    # spectrum-only route must see the new entries, not the old structure
    cfg = _cfg()
    tx = build_planar_surface(3, 3, 0.05 * cfg.wavelength)
    rx = build_planar_surface(2, 2, 0.05 * cfg.wavelength)
    link = LinkGeometry.from_angles(0.1)
    assemble = assemble_ocm if variant == "OCM" else assemble_pscm
    G = assemble(tx, rx, link, cfg.k0)
    assert G.lattice.mirror and (G.entries.ndim == 4 if variant == "OCM" else G.factors is not None)
    matrix = G.matrix.copy()
    matrix[:3, :3] *= 10.0
    fast = eigenchannel_decompose(replace(G, entries=matrix), cfg, PPolicy.fixed(1), patterns=False)
    want = np.sqrt(cfg.a_r * cfg.a_t) * np.linalg.svd(matrix, compute_uv=False)
    assert fast.gains.shape == want.shape
    assert np.max(np.abs(fast.gains - want)) <= 1e-12 * want[0]


def test_tilted_and_rotated_links_carry_no_mirror():
    tx = build_planar_surface(3, 3, 0.05)
    tilted = LinkGeometry.from_angles(1.0, theta=0.2)
    assert assemble_ocm(tx, tx, tilted, 2 * np.pi).lattice == Lattice((3, 3), (3, 3), False)
    rotated = LinkGeometry.from_angles(1.0, rx_rotation=_rotation(0.3, 0.0, 0.0))
    assert assemble_ocm(tx, tx, rotated, 2 * np.pi).lattice is None


def test_factors_must_match_the_block_shape():
    tx = build_planar_surface(2, 1, 0.05)
    rx = build_planar_surface(1, 1, 0.05)
    G = assemble_fscm(tx, rx, LinkGeometry.from_angles(1.0), 2 * np.pi)
    left, right = G.factors
    assert left.shape == (3, 3) and right.shape == (6, 3)
    np.testing.assert_array_equal(BlockChannelMatrix((left, right), "FSCM").matrix,
                                  left @ right.conj().T)
    for bad in ((left, right[:, :2]), (left[:, 0], right[:, 0])):
        with pytest.raises(ValueError, match="factors"):
            BlockChannelMatrix(bad, "FSCM")


def test_both_modes_trust_the_factors():
    # the factors define the entries: both modes decompose them as they
    # decompose the same entries stored dense
    cfg = _cfg()
    tx = build_planar_surface(2, 2, 0.05)
    G = assemble_fscm(tx, tx, LinkGeometry.from_angles(1.0), cfg.k0)
    scale = np.sqrt(cfg.a_r * cfg.a_t)
    sigma = np.linalg.svd(G.matrix, compute_uv=False)
    assert sigma[2] <= 1e-12 * sigma[0]  # rank 2, so two channels rebuild the matrix
    want = scale * sigma
    for stored in (G, replace(G, entries=G.matrix)):
        full = eigenchannel_decompose(stored, cfg, PPolicy.fixed(2))
        fast = eigenchannel_decompose(stored, cfg, PPolicy.fixed(2), patterns=False)
        for eigs in (full, fast):
            assert np.max(np.abs(eigs.gains - want)) <= 1e-12 * want[0]
        assert fast.tx_patterns is None and fast.rx_patterns is None
        left = np.sqrt(cfg.a_r) * full.rx_patterns
        right = np.sqrt(cfg.a_t) * full.tx_patterns
        recon = (left * full.gains[:2] / scale) @ right.conj().T
        assert np.linalg.norm(recon - G.matrix) <= 1e-12 * np.linalg.norm(G.matrix)
    # more channels than the factors' rank 3: the entries are decomposed instead
    past = eigenchannel_decompose(G, cfg, PPolicy.fixed(4))
    assert past.tx_patterns.shape == (3 * tx.count, 4)
    assert np.max(np.abs(past.gains - want)) <= 1e-12 * want[0]


def test_spectrum_only_decomposition_rejects_non_finite_factors():
    cfg = _cfg()
    tx = build_planar_surface(2, 1, 0.05)
    G = assemble_pscm(tx, tx, LinkGeometry.from_angles(1.0), cfg.k0)
    for value in (np.nan, np.inf):
        for side in (0, 1):
            factors = [f.copy() for f in G.factors]
            factors[side][0, 0] = value
            with pytest.raises(NumericalError, match="factors"):
                eigenchannel_decompose(BlockChannelMatrix(tuple(factors), G.variant), cfg,
                                       patterns=False)


def test_decomposition_rejects_a_core_that_finite_factors_overflow():
    # at d0 = 1e-307 the FSCM factors are finite (max |L| about 8e305), but
    # their R-SVD core R_L R_R' is not, and it must never reach LAPACK
    cfg = _cfg()
    surface = build_planar_surface(17, 17, 0.01 * cfg.wavelength)
    G = assemble_fscm(surface, surface, LinkGeometry.from_angles(1e-307), cfg.k0)
    assert all(np.isfinite(f).all() for f in G.factors)
    for patterns in (False, True):
        with pytest.raises(NumericalError, match="NaN or inf"), np.errstate(all="ignore"):
            eigenchannel_decompose(G, cfg, patterns=patterns)


def _assert_patterns_hold(G, eigs, cfg):
    """The p_used kept pattern pairs are orthonormal and solve G v = sigma u, within 1e-12."""
    left = np.sqrt(cfg.a_r) * eigs.rx_patterns
    right = np.sqrt(cfg.a_t) * eigs.tx_patterns
    for basis in (left, right):
        assert basis.shape[1] == eigs.p_used
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(eigs.p_used))) <= 1e-12
    sigma = eigs.gains[: eigs.p_used] / np.sqrt(cfg.a_r * cfg.a_t)
    assert np.max(np.abs(G.matrix @ right - left * sigma)) <= 1e-12 * sigma[0]


def test_a_sketch_whose_range_basis_overflows_is_refused():
    # Y = G Omega of this finite G is finite, but the QR of Y overflows into
    # its Q; the sketch is refused and the dense route decomposes G
    cfg = _cfg()
    rng = np.random.default_rng(0)
    a = 1e306 * (rng.standard_normal((243, 867)) + 1j * rng.standard_normal((243, 867)))
    G = BlockChannelMatrix(a, "OCM")
    with np.errstate(all="ignore"):
        eigs = eigenchannel_decompose(G, cfg)
    values = eigenchannel_decompose(G, cfg, patterns=False)
    assert np.isfinite(eigs.gains).all()
    assert eigs.p_used == values.p_used
    assert np.max(np.abs(eigs.gains - values.gains)) <= 1e-12 * values.gains[0]
    _assert_patterns_hold(G, eigs, cfg)


def _mirror_maps(layout):
    """Flat element indices of a layout with its i index and its j index reversed."""
    j, i = np.divmod(np.arange(layout.count), layout.n_h)
    return j * layout.n_h + (layout.n_h - 1 - i), (layout.n_v - 1 - j) * layout.n_h + i


_side = st.integers(1, 7)
_angle = st.floats(-np.pi, np.pi)
# a rotation about z keeps a boresight RX surface perpendicular to kappa
_rotations = st.one_of(
    st.none(), st.tuples(_angle, _angle, _angle), st.tuples(_angle, st.just(0.0), st.just(0.0))
)


@given(
    tx_shape=st.tuples(_side, _side),
    rx_shape=st.tuples(_side, _side),
    tx_spacing=st.floats(0.02, 0.1),
    rx_spacing=st.one_of(st.none(), st.floats(0.02, 0.1)),
    d0=st.floats(1.0, 4.0),
    theta=st.one_of(st.just(0.0), st.floats(0.1, 0.4)),
    phi=st.floats(0.0, 2 * np.pi),
    rotation=_rotations,
    fixed=st.integers(1, 160),
)
@settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_spectrum_only_decomposition_matches_the_dense_svd(
    tx_shape, rx_shape, tx_spacing, rx_spacing, d0, theta, phi, rotation, fixed
):
    # wavelength 1: every pair offset stays below 0.85 < d0, so no geometry degenerates;
    # rx_spacing None shares the TX spacing
    rx_spacing = tx_spacing if rx_spacing is None else rx_spacing
    cfg = PhysicalConfig(frequency=SPEED_OF_LIGHT, a_t=tx_spacing**2, a_r=rx_spacing**2)
    tx = build_planar_surface(*tx_shape, tx_spacing)
    rx = build_planar_surface(*rx_shape, rx_spacing)
    link = LinkGeometry.from_angles(
        d0, theta, phi, rx_rotation=None if rotation is None else _rotation(*rotation)
    )
    k0 = cfg.k0
    boresight = not (tx.positions @ link.kappa).any() and not (
        global_rx_positions(link, rx) @ link.kappa
    ).any()
    mats = [
        assemble_ocm(tx, rx, link, k0),
        assemble_pscm(tx, rx, link, k0, "1234"),
        assemble_pscm(tx, rx, link, k0, "123"),
        assemble_pscm(tx, rx, link, k0, "12"),
        assemble_fscm(tx, rx, link, k0),
    ]
    factored = {G.variant: G.factors is not None for G in mats}
    assert factored == {"OCM": False, "PSCM": boresight, "PSCM123": boresight,
                        "PSCM12": boresight, "FSCM": True}
    lattice = None
    if rotation is None and rx_spacing == tx_spacing:
        lattice = Lattice((rx.n_v, tx.n_v), (rx.n_h, tx.n_h), theta == 0.0)
    assert [G.lattice for G in mats] == [lattice] * 5
    if lattice is not None and lattice.mirror:
        # the claim rests on the all-pairs dyads, which are exactly mirror
        # symmetric; the held table repeats one representative pair per
        # offset, and the pairs of mirrored offsets agree to rounding only
        dvec = link.d0 * link.kappa + pairwise_offsets(tx, rx, link)
        dense = _dyad_dense(dvec, np.sqrt(np.einsum("mni,mni->mn", dvec, dvec)), link, k0)
        assert np.max(np.abs(mats[0].matrix - dense)) <= 1e-14 * np.max(np.abs(dense))
        blocks = dense.reshape(rx.count, 3, tx.count, 3).transpose(0, 2, 1, 3)
        signs = (np.array([-1.0, 1.0, 1.0]), np.array([1.0, -1.0, 1.0]))
        for rx_map, tx_map, sign in zip(_mirror_maps(rx), _mirror_maps(tx), signs):
            np.testing.assert_array_equal(blocks[rx_map][:, tx_map],
                                          blocks * sign[:, None] * sign)
    for G in mats:
        if G.factors is not None:
            left, right = G.factors
            np.testing.assert_array_equal(G.matrix, left @ right.conj().T)
        dense = np.sqrt(cfg.a_r * cfg.a_t) * np.linalg.svd(G.matrix, compute_uv=False)
        for policy in (PPolicy.threshold(1e-6), PPolicy.threshold(1e-3), PPolicy.threshold(1.0),
                       PPolicy.fixed(fixed)):
            full = eigenchannel_decompose(G, cfg, policy)
            fast = eigenchannel_decompose(G, cfg, policy, patterns=False)
            assert fast.tx_patterns is None and fast.rx_patterns is None
            p_used = select_p(dense, policy)
            for eigs in (fast, full):
                assert eigs.gains.shape == dense.shape == (3 * min(rx.count, tx.count),)
                assert np.max(np.abs(eigs.gains - dense)) <= 1e-12 * dense[0], G.variant
                assert eigs.p_used == p_used, (G.variant, policy)
            # sigma_1 = sigma_2 on FSCM: hold the vectors by residual and
            # orthonormality, never entry by entry
            assert full.tx_patterns.shape == (3 * tx.count, p_used)
            assert full.rx_patterns.shape == (3 * rx.count, p_used)
            right = np.sqrt(cfg.a_t) * full.tx_patterns
            left = np.sqrt(cfg.a_r) * full.rx_patterns
            for basis in (left, right):
                assert np.max(np.abs(basis.conj().T @ basis - np.eye(p_used))) <= 1e-12
            sigma = full.gains[:p_used] / np.sqrt(cfg.a_r * cfg.a_t)
            residual = np.abs(G.matrix @ right - left * sigma)
            assert np.max(residual) <= 1e-12 * sigma[0], (G.variant, policy)


@pytest.mark.parametrize("tx_side,rx_side,d0_lambda", [(41, 5, 0.25), (41, 5, 4.25),
                                                       (21, 15, 0.75), (25, 15, 2.5),
                                                       (41, 15, 0.25), (41, 15, 4.25)])
def test_qr_first_spectra_keep_p_used_at_every_threshold(tx_side, rx_side, d0_lambda):
    # built-in sweep geometries whose parity sectors are wide enough to go QR-first
    cfg = _cfg()
    spacing = 0.01 * cfg.wavelength
    tx = build_planar_surface(tx_side, tx_side, spacing)
    rx = build_planar_surface(rx_side, rx_side, spacing)
    G = assemble_ocm(tx, rx, LinkGeometry.from_angles(d0_lambda * cfg.wavelength), cfg.k0)
    assert G.lattice.mirror
    sectors = list(_lattice_sectors(G))
    assert all(max(b.shape) >= _QR_FIRST_RATIO * min(b.shape) for b, _ in sectors)
    scale = np.sqrt(cfg.a_r * cfg.a_t)
    direct = np.concatenate([np.tile(np.linalg.svd(b, compute_uv=False), copies)
                             for b, copies in sectors])
    direct = np.sort(direct)[::-1]
    dense = scale * np.linalg.svd(G.matrix, compute_uv=False)
    fast = eigenchannel_decompose(G, cfg, patterns=False)
    assert fast.p_used == select_p(fast.gains, PPolicy.threshold(1e-6))
    assert fast.gains.shape == dense.shape
    assert np.max(np.abs(fast.gains[: direct.size] - scale * direct)) <= 1e-12 * dense[0]
    assert np.max(np.abs(fast.gains - dense)) <= 1e-12 * dense[0]
    for k in range(120):
        policy = PPolicy.threshold(10 ** (-k / 10))
        assert select_p(fast.gains, policy) == select_p(dense, policy), k


@pytest.mark.parametrize("tx_shape,rx_shape,blocks", [
    ((9, 9), (5, 5), 5),  # square grids: two halves of (+,+) and of (-,-), and the (+,-) twin
    ((9, 7), (5, 5), 4),  # a rectangular TX grid: the four parity sectors
    ((9, 9), (5, 6), 4),  # a rectangular RX grid
])
def test_square_grids_take_the_swap_route(monkeypatch, tx_shape, rx_shape, blocks):
    # the package's capacity() shadows its module of the same name
    capacity_module = importlib.import_module("hmimo.capacity")
    cfg = _cfg()
    spacing = 0.01 * cfg.wavelength
    tx = build_planar_surface(*tx_shape, spacing)
    rx = build_planar_surface(*rx_shape, spacing)
    G = assemble_ocm(tx, rx, LinkGeometry.from_angles(1.5 * cfg.wavelength), cfg.k0)
    assert G.lattice.mirror and (G.lattice.v == G.lattice.h) == (blocks == 5)
    seen, block_svd = [], capacity_module._block_svd

    def spy(block, vectors):
        seen.append(block.shape)
        return block_svd(block, vectors)

    monkeypatch.setattr(capacity_module, "_block_svd", spy)
    fast = eigenchannel_decompose(G, cfg, patterns=False)
    monkeypatch.undo()
    assert len(seen) == blocks
    dense = np.sqrt(cfg.a_r * cfg.a_t) * np.linalg.svd(G.matrix, compute_uv=False)
    assert np.max(np.abs(fast.gains - dense)) <= 1e-12 * dense[0]


@pytest.mark.parametrize("assemble", [assemble_fscm, assemble_pscm])
def test_a_mirrored_factor_pair_is_decomposed_as_one_block(monkeypatch, assemble):
    # factored boresight variants carry the mirrored lattice as OCM does, but
    # hold no table: their spectrum comes from the one factor pair, no sector
    capacity_module = importlib.import_module("hmimo.capacity")
    cfg = _cfg()
    spacing = 0.01 * cfg.wavelength
    tx, rx = build_planar_surface(9, 9, spacing), build_planar_surface(5, 5, spacing)
    G = assemble(tx, rx, LinkGeometry.from_angles(1.5 * cfg.wavelength), cfg.k0)
    assert G.lattice.mirror and G.factors is not None
    seen, block_svd = [], capacity_module._block_svd

    def spy(block, vectors):
        seen.append(block)
        return block_svd(block, vectors)

    def no_sectors(green):
        raise AssertionError("a factor pair has no parity sectors")

    monkeypatch.setattr(capacity_module, "_block_svd", spy)
    monkeypatch.setattr(capacity_module, "_lattice_sectors", no_sectors)
    fast = eigenchannel_decompose(G, cfg, patterns=False)
    monkeypatch.undo()
    # the pair, then the core R_L R_R' it reduces to
    assert len(seen) == 2 and seen[0] is G.factors and not isinstance(seen[1], tuple)
    dense = np.sqrt(cfg.a_r * cfg.a_t) * np.linalg.svd(G.matrix, compute_uv=False)
    assert np.max(np.abs(fast.gains - dense)) <= 1e-12 * dense[0]


def test_swap_route_matches_the_dense_svd_at_every_built_in_distance():
    # 17 x 17 TX against 9 x 9 RX at the 17 distances of sweep-distance
    cfg = _cfg()
    spacing = 0.01 * cfg.wavelength
    tx = build_planar_surface(17, 17, spacing)
    rx = build_planar_surface(9, 9, spacing)
    for d0_lambda in 0.25 * np.arange(1, 18):
        G = assemble_ocm(tx, rx, LinkGeometry.from_angles(d0_lambda * cfg.wavelength), cfg.k0)
        assert G.lattice.mirror
        fast = eigenchannel_decompose(G, cfg, patterns=False)
        dense = np.sqrt(cfg.a_r * cfg.a_t) * np.linalg.svd(G.matrix, compute_uv=False)
        assert np.max(np.abs(fast.gains - dense)) <= 1e-12 * dense[0], d0_lambda
        for k in range(120):
            policy = PPolicy.threshold(10 ** (-k / 10))
            assert select_p(fast.gains, policy) == select_p(dense, policy), (d0_lambda, k)


@pytest.mark.parametrize("tx_side,rx_side,d0_lambda", [(9, 5, 1.5), (17, 9, 0.25),
                                                       (41, 15, 4.25)])
def test_all_pairs_dyads_are_swap_symmetric(tx_side, rx_side, d0_lambda):
    # swapping x and y on both square grids maps block (m, n) to P G(m, n) P,
    # P the x <-> y permutation; on the all-pairs dyads the swapped offsets
    # are computed apart, so the symmetry holds to rounding only
    cfg = _cfg()
    spacing = 0.01 * cfg.wavelength
    tx = build_planar_surface(tx_side, tx_side, spacing)
    rx = build_planar_surface(rx_side, rx_side, spacing)
    link = LinkGeometry.from_angles(d0_lambda * cfg.wavelength)
    dvec = link.d0 * link.kappa + pairwise_offsets(tx, rx, link)
    dense = _dyad_dense(dvec, np.sqrt(np.einsum("mni,mni->mn", dvec, dvec)), link, cfg.k0)
    blocks = dense.reshape(rx.count, 3, tx.count, 3).transpose(0, 2, 1, 3)
    swap = [1, 0, 2]
    rx_map, tx_map = (np.arange(n * n).reshape(n, n).T.ravel() for n in (rx_side, tx_side))
    swapped = blocks[rx_map][:, tx_map][:, :, swap][:, :, :, swap]
    assert np.max(np.abs(swapped - blocks)) <= 1e-13 * np.max(np.abs(blocks))


@pytest.mark.parametrize("tx_shape,rx_shape", [
    pytest.param((5, 5), (3, 3), id="wide"),                  # 27 x 75
    pytest.param((3, 3), (5, 5), id="tall"),                  # 75 x 27
    pytest.param((6, 4), (4, 4), id="wide-at-the-ratio"),     # 48 x 72
    pytest.param((2, 11), (3, 5), id="wide-under-the-ratio"),  # 45 x 66
    pytest.param((3, 5), (2, 11), id="tall-under-the-ratio"),  # 66 x 45
])
def test_qr_first_rule_holds_in_both_orientations(monkeypatch, tx_shape, rx_shape):
    # a tilted link with a rotated RX carries no structure claim, so the
    # matrix itself is the one block, with or without patterns
    cfg = _cfg()
    tx = build_planar_surface(*tx_shape, 0.05)
    rx = build_planar_surface(*rx_shape, 0.05)
    link = LinkGeometry.from_angles(0.9, 0.3, 1.1, rx_rotation=_rotation(0.0, 0.0, 0.3))
    G = assemble_ocm(tx, rx, link, 2 * np.pi)
    assert G.factors is None and G.lattice is None
    rows, cols = G.matrix.shape
    rank = min(rows, cols)
    qr_first = max(rows, cols) >= _QR_FIRST_RATIO * min(rows, cols)
    assert qr_first == (max(rows, cols) / min(rows, cols) >= 1.5)
    want = np.sqrt(cfg.a_r * cfg.a_t) * np.linalg.svd(G.matrix, compute_uv=False)
    # the SVD runs on the square QR triangle, or on the block itself below the ratio;
    # fixed(rank) with patterns passes k whenever the sketch could run, so it takes the
    # dense route too; under a threshold, past k on both sides, the sketch's k-row B
    # comes first, by the same rule, and its refusal hands over to the dense route
    dense = (rank, rank) if qr_first else (rows, cols)
    sketch = []
    if rank > _SKETCH_COLUMNS:
        b_qr_first = cols >= _QR_FIRST_RATIO * _SKETCH_COLUMNS
        sketch = [(_SKETCH_COLUMNS, _SKETCH_COLUMNS if b_qr_first else cols)]
    seen, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    fast = eigenchannel_decompose(G, cfg, PPolicy.fixed(rank), patterns=False)
    full = eigenchannel_decompose(G, cfg, PPolicy.fixed(rank))
    cut = eigenchannel_decompose(G, cfg, PPolicy.threshold(1e-6))
    monkeypatch.undo()
    assert seen == [dense, dense, *sketch, dense]
    for eigs in (fast, full, cut):
        assert np.max(np.abs(eigs.gains - want)) <= 1e-12 * want[0]
    left = np.sqrt(cfg.a_r) * full.rx_patterns
    right = np.sqrt(cfg.a_t) * full.tx_patterns
    recon = (left * full.gains / np.sqrt(cfg.a_r * cfg.a_t)) @ right.conj().T
    assert np.linalg.norm(recon - G.matrix) <= 1e-12 * np.linalg.norm(G.matrix)


# (theta, phi, RX turn about x) of the tilted-link workload at seeds 0 and 2
_SEED_0_TILT = (0.3188843703050096, 4.7623679680665845, 0.284114316166169)
_SEED_2_TILT = (0.34120685437784987, 5.955375740432253, 0.21131027354536175)


def _tilted_link_matrix(variant, d0_lambda, tilt=_SEED_0_TILT):
    """A variant on a tilted-link geometry: 17 x 17 TX, 9 x 9 RX.

    The RX is turned about x by the third angle of ``tilt``, or not at all when it is None.
    """
    cfg = _cfg()
    spacing = 0.01 * cfg.wavelength
    tx = build_planar_surface(17, 17, spacing)
    rx = build_planar_surface(9, 9, spacing)
    theta, phi, turn = tilt
    link = LinkGeometry.from_angles(d0_lambda * cfg.wavelength, theta, phi,
                                    rx_rotation=None if turn is None else _rotation(0.0, 0.0, turn))
    if variant == "OCM":
        return assemble_ocm(tx, rx, link, cfg.k0)
    return assemble_pscm(tx, rx, link, cfg.k0, PSCM_CODES[variant])


# each route as the blocks _block_svd sees: "B" for the sketch's 32 x 867 B, "G" for G.matrix
@pytest.mark.parametrize("variant,d0_lambda,tilt,policy,route", [
    # OCM's rank passes k: refused on its residual
    pytest.param("OCM", 0.25, _SEED_0_TILT, PPolicy.threshold(1e-6), "BG", id="ocm-rank-past-k"),
    pytest.param("PSCM", 0.75, _SEED_0_TILT, PPolicy.threshold(1e-6), "B", id="pscm-certified"),
    # the policy keeps more than k channels: the dense route alone, no sketch
    pytest.param("PSCM12", 2.0, _SEED_0_TILT, PPolicy.fixed(_SKETCH_COLUMNS + 8), "G",
                 id="fixed-past-k"),
    # a cut of 1e-12 sigma_1 stays above tau, which certifies the sketch
    pytest.param("PSCM12", 2.0, _SEED_0_TILT, PPolicy.threshold(2e-12), "B", id="cut-above-tau"),
    # a cut of 1e-15 sigma_1 is below tau and below the residual, about 1.4e-15
    pytest.param("PSCM12", 2.0, _SEED_0_TILT, PPolicy.threshold(1.001e-12), "BG",
                 id="cut-below-tau"),
    # |R_kk| / |R_11| reads 1.5e-13, above tau, but the residual is 6.9e-15 sigma_1
    pytest.param("PSCM123", 0.25, _SEED_2_TILT, PPolicy.threshold(1e-6), "B",
                 id="residual-passes-past-the-rank-estimate"),
    # an unrotated RX keeps the offset table, which tries the sketch like a dense array
    pytest.param("PSCM", 1.0, (0.25, 0.0, None), PPolicy.threshold(1e-6), "B",
                 id="offset-table-certified"),
])
def test_sketch_route_matches_the_dense_svd(monkeypatch, variant, d0_lambda, tilt, policy,
                                            route):
    capacity_module = importlib.import_module("hmimo.capacity")
    cfg = _cfg()
    G = _tilted_link_matrix(variant, d0_lambda, tilt)
    assert G.factors is None and G.matrix.shape == (243, 867)
    seen, block_svd = [], capacity_module._block_svd

    def spy(block, vectors):
        seen.append(block)
        return block_svd(block, vectors)

    monkeypatch.setattr(capacity_module, "_block_svd", spy)
    eigs = eigenchannel_decompose(G, cfg, policy)
    monkeypatch.undo()
    # every attempt decomposes its B through _block_svd too
    assert "".join("G" if block is G.matrix else "B" for block in seen) == route
    assert all(block.shape == (_SKETCH_COLUMNS, 867) for block in seen if block is not G.matrix)
    dense = np.sqrt(cfg.a_r * cfg.a_t) * np.linalg.svd(G.matrix, compute_uv=False)
    p_used = select_p(dense, policy)
    assert eigs.p_used == p_used
    assert np.max(np.abs(eigs.gains - dense)) <= 1e-12 * dense[0]
    _assert_patterns_hold(G, eigs, cfg)


def test_a_fixed_count_past_k_never_forms_a_sketch(monkeypatch):
    capacity_module = importlib.import_module("hmimo.capacity")
    cfg = _cfg()
    G = _tilted_link_matrix("PSCM12", 2.0)
    policy = PPolicy.fixed(_SKETCH_COLUMNS + 1)

    def no_sketch(block, level):
        raise AssertionError("the sketch ran for a count it cannot hold")

    monkeypatch.setattr(capacity_module, "_sketch_svd", no_sketch)
    eigs = eigenchannel_decompose(G, cfg, policy)
    monkeypatch.undo()
    dense = np.sqrt(cfg.a_r * cfg.a_t) * np.linalg.svd(G.matrix, compute_uv=False)
    assert eigs.p_used == _SKETCH_COLUMNS + 1
    assert np.max(np.abs(eigs.gains - dense)) <= 1e-12 * dense[0]
    _assert_patterns_hold(G, eigs, cfg)


@pytest.mark.parametrize("assemble", [assemble_fscm, assemble_pscm])
def test_a_fixed_count_past_the_factor_width_decomposes_only_the_matrix(monkeypatch, assemble):
    capacity_module = importlib.import_module("hmimo.capacity")
    cfg = _cfg()
    spacing = 0.01 * cfg.wavelength
    tx, rx = build_planar_surface(9, 9, spacing), build_planar_surface(5, 5, spacing)
    G = assemble(tx, rx, LinkGeometry.from_angles(1.5 * cfg.wavelength), cfg.k0)
    width = G.factors[0].shape[1]
    assert width < 3 * rx.count
    seen, block_svd = [], capacity_module._block_svd

    def spy(block, vectors):
        seen.append(block)
        return block_svd(block, vectors)

    monkeypatch.setattr(capacity_module, "_block_svd", spy)
    eigs = eigenchannel_decompose(G, cfg, PPolicy.fixed(width + 1))
    monkeypatch.undo()
    assert len(seen) == 1 and seen[0] is G.matrix
    dense = np.sqrt(cfg.a_r * cfg.a_t) * np.linalg.svd(G.matrix, compute_uv=False)
    assert eigs.p_used == width + 1
    assert np.max(np.abs(eigs.gains - dense)) <= 1e-12 * dense[0]
    _assert_patterns_hold(G, eigs, cfg)


def test_sketch_route_repeats_bit_for_bit():
    # the test matrix is drawn again after the cache is cleared
    capacity_module = importlib.import_module("hmimo.capacity")
    cfg = _cfg()
    G = _tilted_link_matrix("PSCM123", 3.0)
    first = eigenchannel_decompose(G, cfg)
    capacity_module._test_matrix.cache_clear()
    second = eigenchannel_decompose(G, cfg)
    assert first.p_used == second.p_used
    for name in ("gains", "tx_patterns", "rx_patterns"):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))
    # values past the k the sketch finds are reported as zeros
    assert not first.gains[_SKETCH_COLUMNS:].any()


def test_matrices_compare_by_identity_and_hash():
    # every value type holding numpy arrays: == would otherwise raise, hash too
    tx = build_planar_surface(2, 2, 0.05)
    link = LinkGeometry.from_angles(1.0)
    cfg = _cfg()
    makers = (
        lambda: assemble_ocm(tx, tx, link, 2 * np.pi),
        lambda: build_planar_surface(2, 2, 0.05),
        lambda: LinkGeometry.from_angles(1.0, rx_rotation=np.eye(3)),
        lambda: eigenchannel_decompose(assemble_ocm(tx, tx, link, cfg.k0), cfg),
    )
    kinds = [BlockChannelMatrix, SurfaceLayout, LinkGeometry, EigenchannelSet]
    for make, kind in zip(makers, kinds):
        first, second = make(), make()
        assert type(first) is kind
        assert first == first and first != second
        assert len({first, second, first}) == 2


def _log_domain_capacity(gains, p_used, cfg):
    """sum_p log2(1 + 2^L_p), with L_p = log2(mu * snr * gain_p^2) summed from the factors' logs."""
    total = 0.0
    for g in gains[:p_used]:
        if g == 0.0:
            continue
        log_x = (math.log2(cfg.mu) + math.log2(cfg.total_power) - math.log2(p_used)
                 - math.log2(cfg.a_r) - math.log2(cfg.noise_var) + 2.0 * math.log2(g))
        if log_x > 0:
            total += log_x + math.log1p(2.0**-log_x) / math.log(2.0)
        else:
            total += math.log1p(2.0**log_x) / math.log(2.0)
    return total


@pytest.mark.parametrize("total_power,gains,p_used", [
    pytest.param(1e303, [3e-3, 1e-3, 2e-7, 0.0], 3, id="every-product-huge"),
    pytest.param(1e303, [1e-148, 4e-150, 0.0], 2, id="mu-snr-overflows-products-near-one"),
    pytest.param(1e290, [1e5, 1e-3, 0.0], 2, id="one-product-overflows"),
    pytest.param(1e303, [3e-3, 0.0], 2, id="zero-gain-in-use"),
    pytest.param(1e-6, [3e-3, 1e-3, 2e-7, 0.0], 3, id="no-overflow"),
])
def test_capacity_matches_a_log_domain_reference(total_power, gains, p_used):
    cfg = _cfg(total_power=total_power)
    got = capacity(EigenchannelSet(np.array(gains), p_used, None, None), cfg)
    assert math.isfinite(got)
    assert got == pytest.approx(_log_domain_capacity(gains, p_used, cfg), rel=1e-13)
