"""From-formula reference values for checking the program's outputs.

Everything here is written straight from the channel-model formulas and
uses numpy alone: nothing is imported from ``hmimo``.  The dense matrices
are built from the free-space dyadic kernel, the four-block separable
expansion and the far-field transverse projector; spectra come from
numpy's SVD; capacity follows the uniform-power eigenchannel formula.
Grids follow the element order the program documents (all of grid row
j before row j+1), so its eigenchannel patterns line up with the
reference matrices here.
"""

from __future__ import annotations

import math

import numpy as np

C_LIGHT = 299_792_458.0
ETA0 = 376.730313668
SEPARABLE_BLOCKS = {"PSCM12": 2, "PSCM123": 3, "PSCM": 4}


def grid(n_h: int, n_v: int, spacing: float) -> np.ndarray:
    """Centered planar grid in the local x-y plane, one row per element, x fastest."""
    xs = (np.arange(n_h) - (n_h - 1) / 2.0) * spacing
    ys = (np.arange(n_v) - (n_v - 1) / 2.0) * spacing
    gy, gx = np.meshgrid(ys, xs, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)


def direction(theta: float, phi: float) -> np.ndarray:
    return np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)])


class Point:
    """One link: TX/RX element positions in the global frame plus wave data."""

    def __init__(self, tx_side, rx_side, spacing_lambda, frequency, d0_lambda,
                 theta=0.0, phi=0.0, rotation=None):
        self.lam = C_LIGHT / frequency
        self.k0 = 2.0 * math.pi / self.lam
        spacing = spacing_lambda * self.lam
        self.area = spacing * spacing
        self.d0 = d0_lambda * self.lam
        self.kappa = direction(theta, phi)
        self.p = grid(tx_side[0], tx_side[1], spacing)
        q = grid(rx_side[0], rx_side[1], spacing)
        self.q = q if rotation is None else q @ np.asarray(rotation, dtype=float).T
        diag_t = math.hypot(tx_side[0] * spacing, tx_side[1] * spacing)
        diag_r = math.hypot(rx_side[0] * spacing, rx_side[1] * spacing)
        self.d_r_lambda = 2.0 * (diag_t + diag_r) ** 2 / self.lam / self.lam

    @property
    def m(self):
        return len(self.q)

    @property
    def n(self):
        return len(self.p)


def _dense(blocks: np.ndarray) -> np.ndarray:
    m, n = blocks.shape[:2]
    return blocks.transpose(0, 2, 1, 3).reshape(3 * m, 3 * n)


def dyadic_matrix(pt: Point) -> np.ndarray:
    """Exact coupling: the free-space dyad at every pair displacement.

    G(d) = -i e^{i k r} / (4 pi r) [ (1 + i/(kr) - 1/(kr)^2) I
                                     + (3/(kr)^2 - 3i/(kr) - 1) u u^T ]
    """
    d = pt.d0 * pt.kappa + pt.q[:, None, :] - pt.p[None, :, :]
    r = np.linalg.norm(d, axis=2)
    u = d / r[..., None]
    kr = pt.k0 * r
    a = 1.0 + 1j / kr - 1.0 / kr**2
    b = 3.0 / kr**2 - 3j / kr - 1.0
    g = -1j * np.exp(1j * kr) / (4.0 * math.pi * r)
    blocks = (g * b)[..., None, None] * (u[..., :, None] * u[..., None, :])
    for i in range(3):
        blocks[..., i, i] += g * a
    return _dense(blocks)


def separable_matrix(pt: Point, keep: int) -> np.ndarray:
    """Separable model keeping the first ``keep`` of the four amplitude blocks.

    With delta = q - p, gamma = 1 + delta.kappa/d0, x = k gamma d0,
    w1 = 1 + i/x - 1/x^2 and w2 = 3/x^2 - 3i/x - 1:
      A1 = w1 I, A2 = w2/gamma^2 kappa kappa^T,
      A3 = w2/(gamma^2 d0) (kappa delta^T + delta kappa^T),
      A4 = w2/(gamma^2 d0^2) delta delta^T,
    and the block is -i e^{i k d0} e^{i k q.kappa} e^{-i k p.kappa} / (4 pi gamma d0) * sum(A).
    """
    kap = pt.kappa
    delta = pt.q[:, None, :] - pt.p[None, :, :]
    gamma = 1.0 + (delta @ kap) / pt.d0
    if np.any(gamma <= 0.0):
        raise ValueError("projection factor is not positive")
    x = pt.k0 * gamma * pt.d0
    w1 = 1.0 + 1j / x - 1.0 / x**2
    w2 = (3.0 / x**2 - 3j / x - 1.0) / gamma**2
    amp = w2[..., None, None] * np.outer(kap, kap)
    if keep >= 3:
        cross = kap[:, None] * delta[..., None, :]
        amp += (w2 / pt.d0)[..., None, None] * (cross + np.swapaxes(cross, -1, -2))
    if keep >= 4:
        amp += (w2 / pt.d0**2)[..., None, None] * (delta[..., :, None] * delta[..., None, :])
    for i in range(3):
        amp[..., i, i] += w1
    phase = np.exp(1j * pt.k0 * (pt.d0 + (pt.q @ kap)[:, None] - (pt.p @ kap)[None, :]))
    scale = -1j * phase / (4.0 * math.pi * gamma * pt.d0)
    return _dense(scale[..., None, None] * amp)


def far_field_matrix(pt: Point) -> np.ndarray:
    """Far-field limit: plane-wave phases times the transverse projector I - kappa kappa^T."""
    kap = pt.kappa
    phase = np.exp(1j * pt.k0 * (pt.d0 + (pt.q @ kap)[:, None] - (pt.p @ kap)[None, :]))
    proj = np.eye(3) - np.outer(kap, kap)
    scale = -1j * phase / (4.0 * math.pi * pt.d0)
    return _dense(scale[..., None, None] * proj)


def variant_matrix(pt: Point, variant: str) -> np.ndarray:
    if variant == "OCM":
        return dyadic_matrix(pt)
    if variant == "FSCM":
        return far_field_matrix(pt)
    return separable_matrix(pt, SEPARABLE_BLOCKS[variant])


def nmse(candidate: np.ndarray, reference: np.ndarray) -> float:
    diff = candidate - reference
    num = np.sum(diff.real**2) + np.sum(diff.imag**2)
    den = np.sum(reference.real**2) + np.sum(reference.imag**2)
    return float(num / den)


def singular_values(matrix: np.ndarray) -> np.ndarray:
    return np.linalg.svd(matrix, compute_uv=False)


def channels_kept(sigma: np.ndarray, threshold: float) -> int:
    """Eigenchannels with sigma >= threshold * sigma_1."""
    return int(np.count_nonzero(sigma >= threshold * sigma[0]))


def capacity(sigma, p_used: int, pt: Point, snr_db: float, noise_var: float = 1.0) -> float:
    """sum_p log2(1 + mu * snr * a_r a_t sigma_p^2), snr = P / (p_used a_r noise)."""
    mu = ETA0**2 / (4.0 * pt.lam**2)
    total_power = 10.0 ** (snr_db / 10.0) * pt.area
    snr = total_power / (p_used * pt.area * noise_var)
    s = np.asarray(sigma[:p_used], dtype=float)
    return float(np.sum(np.log2(1.0 + mu * snr * pt.area * pt.area * s * s)))


def far_field_sigma(pt: Point) -> float:
    """Closed form of the two equal far-field singular values: sqrt(MN) / (4 pi d0)."""
    return math.sqrt(pt.m * pt.n) / (4.0 * math.pi * pt.d0)


def far_field_capacity(pt: Point, snr_db: float) -> float:
    s1 = far_field_sigma(pt)
    return capacity(np.array([s1, s1]), 2, pt, snr_db)
