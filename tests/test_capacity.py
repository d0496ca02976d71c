"""Physical configuration, eigenchannel decomposition and capacity."""

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
    select_p,
)
from hmimo.capacity import _QR_FIRST_RATIO, _lattice_sectors


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
    assert mats[0].mirror
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
    assert G.mirror
    for value in (np.nan, np.inf):
        matrix = G.matrix.copy()
        matrix[4, 7] = value
        bad = replace(G, entries=matrix).with_structure(lattice=G.lattice, mirror=True)
        assert bad.mirror
        with pytest.raises(NumericalError, match="NaN or inf"):
            eigenchannel_decompose(bad, cfg, patterns=False)


@pytest.mark.parametrize("rx_shape,tx_shape", [((2, 1), (1, 2)), ((4, 1), (2, 2)),
                                               ((6, 1), (2, 3)), ((5, 1), (2, 2))])
def test_sector_spectrum_is_padded_to_the_full_length(rx_shape, tx_shape):
    # these grids leave the four parity sectors fewer than min(3M, 3N) values
    cfg = _cfg()
    G = assemble_ocm(build_planar_surface(*tx_shape, 0.05), build_planar_surface(*rx_shape, 0.05),
                     LinkGeometry.from_angles(0.7), 2 * np.pi)
    assert G.mirror
    length = 3 * min(G.m_count, G.n_count)
    dense = eigenchannel_decompose(G, cfg, PPolicy.fixed(length))
    fast = eigenchannel_decompose(G, cfg, PPolicy.fixed(length), patterns=False)
    assert fast.gains.shape == dense.gains.shape == (length,)
    assert np.max(np.abs(fast.gains - dense.gains)) <= 1e-12 * dense.gains[0]
    assert fast.gains[-1] == 0.0


def test_mirror_needs_a_lattice():
    tx = build_planar_surface(3, 2, 0.05)
    rx = build_planar_surface(2, 1, 0.05)
    G = assemble_ocm(tx, rx, LinkGeometry.from_angles(1.0), 2 * np.pi)
    assert (G.lattice, G.mirror) == (((1, 2), (2, 3)), True)
    assert G.with_structure(lattice=G.lattice, mirror=True).mirror
    with pytest.raises(ValueError, match="mirror claim needs a lattice"):
        G.with_structure(mirror=True)
    for bad in (((2, 2), (2, 3)), ((1, 2), (3, 3)), ((1, 1), (2, 3))):
        with pytest.raises(ValueError, match="lattice grids"):
            G.with_structure(lattice=bad, mirror=True)


@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_a_rebuilt_matrix_carries_no_structure_claim(theta):
    tx = build_planar_surface(3, 3, 0.05)
    rx = build_planar_surface(2, 2, 0.05)
    link = LinkGeometry.from_angles(0.8, theta=theta)
    mats = [assemble_ocm(tx, rx, link, 2 * np.pi), assemble_fscm(tx, rx, link, 2 * np.pi),
            *(assemble_pscm(tx, rx, link, 2 * np.pi, code) for code in PSCM_CODES.values())]
    assert all(G.lattice is not None for G in mats) and mats[1].factors is not None
    assert [G.mirror for G in mats] == [theta == 0.0, False, False, False, False]
    for G in mats:
        for rebuilt in (replace(G, entries=2.0 * G.matrix),
                        BlockChannelMatrix(G.matrix, G.variant)):
            assert rebuilt.factors is None and rebuilt.lattice is None and not rebuilt.mirror


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
    assert G.mirror if variant == "OCM" else G.factors is not None
    matrix = G.matrix.copy()
    matrix[:3, :3] *= 10.0
    fast = eigenchannel_decompose(replace(G, entries=matrix), cfg, PPolicy.fixed(1), patterns=False)
    want = np.sqrt(cfg.a_r * cfg.a_t) * np.linalg.svd(matrix, compute_uv=False)
    assert fast.gains.shape == want.shape
    assert np.max(np.abs(fast.gains - want)) <= 1e-12 * want[0]


def test_tilted_and_rotated_links_carry_no_mirror():
    tx = build_planar_surface(3, 3, 0.05)
    for link in (LinkGeometry.from_angles(1.0, theta=0.2),
                 LinkGeometry.from_angles(1.0, rx_rotation=_rotation(0.3, 0.0, 0.0))):
        assert not assemble_ocm(tx, tx, link, 2 * np.pi).mirror


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
    # well-formed factors of another block shape fail this matrix's lattice
    for bad in ((right, right), (left, left)):
        with pytest.raises(ValueError, match="lattice grids"):
            BlockChannelMatrix(bad, "FSCM").with_structure(lattice=G.lattice)


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


def _rotation(a, b, c):
    ca, sa, cb, sb, cc, sc = np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(c), np.sin(c)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cc, -sc], [0.0, sc, cc]])
    return rz @ ry @ rx


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
    mirrored = theta == 0.0 and rotation is None and rx_spacing == tx_spacing
    assert [G.mirror for G in mats] == [mirrored, False, False, False, False]
    if mirrored:
        assert mats[0].lattice == ((rx.n_v, rx.n_h), (tx.n_v, tx.n_h))
        blocks = mats[0].matrix.reshape(rx.count, 3, tx.count, 3).transpose(0, 2, 1, 3)
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
    assert G.mirror
    sectors = list(_lattice_sectors(G))
    assert all(max(b.shape) >= _QR_FIRST_RATIO * min(b.shape) for b in sectors)
    scale = np.sqrt(cfg.a_r * cfg.a_t)
    direct = np.sort(np.concatenate([np.linalg.svd(b, compute_uv=False) for b in sectors]))[::-1]
    dense = scale * np.linalg.svd(G.matrix, compute_uv=False)
    fast = eigenchannel_decompose(G, cfg, patterns=False)
    assert fast.p_used == select_p(fast.gains, PPolicy.threshold(1e-6))
    assert fast.gains.shape == dense.shape
    assert np.max(np.abs(fast.gains[: direct.size] - scale * direct)) <= 1e-12 * dense[0]
    assert np.max(np.abs(fast.gains - dense)) <= 1e-12 * dense[0]
    for k in range(120):
        policy = PPolicy.threshold(10 ** (-k / 10))
        assert select_p(fast.gains, policy) == select_p(dense, policy), k


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
    assert G.factors is None and not G.mirror
    rows, cols = G.matrix.shape
    rank = min(rows, cols)
    qr_first = max(rows, cols) >= _QR_FIRST_RATIO * min(rows, cols)
    assert qr_first == (max(rows, cols) / min(rows, cols) >= 1.5)
    want = np.sqrt(cfg.a_r * cfg.a_t) * np.linalg.svd(G.matrix, compute_uv=False)
    # the SVD runs on the square QR triangle, or on the block itself below the ratio
    seen, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    fast = eigenchannel_decompose(G, cfg, PPolicy.fixed(rank), patterns=False)
    full = eigenchannel_decompose(G, cfg, PPolicy.fixed(rank))
    monkeypatch.undo()
    assert seen == 2 * [(rank, rank) if qr_first else (rows, cols)]
    for eigs in (fast, full):
        assert np.max(np.abs(eigs.gains - want)) <= 1e-12 * want[0]
    left = np.sqrt(cfg.a_r) * full.rx_patterns
    right = np.sqrt(cfg.a_t) * full.tx_patterns
    recon = (left * full.gains / np.sqrt(cfg.a_r * cfg.a_t)) @ right.conj().T
    assert np.linalg.norm(recon - G.matrix) <= 1e-12 * np.linalg.norm(G.matrix)


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
