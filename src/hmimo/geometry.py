"""Planar antenna-surface layouts and pairwise link geometry.

The channel assemblers consume three geometric ingredients: a transmit
surface, a receive surface, and the center-to-center link between them.
Surfaces are uniform rectangular element grids centered on their local
origin and lying in their local x-y plane.  The transmit surface's local
frame doubles as the global frame; the receive surface center sits at
``d0 * kappa`` and the receive grid may optionally be rotated.

All functions here are pure and purely geometric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import DegenerateGeometryError, _require_positive

__all__ = [
    "SurfaceLayout",
    "LinkGeometry",
    "build_planar_surface",
    "wavevector",
    "global_rx_positions",
    "pairwise_offsets",
    "pair_displacement",
    "rayleigh_distance",
]


@dataclass(frozen=True, eq=False)
class SurfaceLayout:
    """Uniform rectangular element grid centered at the local origin.

    ``SurfaceLayout(n_h, n_v, spacing)``: element (i, j), both indices
    0-based, sits at ``((i - (n_h-1)/2)*spacing, (j - (n_v-1)/2)*spacing, 0)``
    in the local frame (meters).  ``positions`` holds one row per element
    in j-major order (all of row j before row j+1); it, the element area
    and the aperture diagonal are derived from the inputs, which are
    checked on every construction, ``replace`` included, so they never go
    stale.  Equality is identity.
    """

    n_h: int
    n_v: int
    spacing: float
    positions: np.ndarray = field(init=False)

    def __post_init__(self):
        n_h, n_v, spacing = self.n_h, self.n_v, self.spacing
        if not all(isinstance(n, Integral) and not isinstance(n, bool) for n in (n_h, n_v)):
            raise ValueError(f"element counts must be integers, got {n_h!r} x {n_v!r}")
        if n_h < 1 or n_v < 1:
            raise ValueError(f"element counts must be >= 1, got {n_h} x {n_v}")
        _require_positive("element spacing", spacing)
        xs = (np.arange(n_h) - (n_h - 1) / 2.0) * spacing
        ys = (np.arange(n_v) - (n_v - 1) / 2.0) * spacing
        gx, gy = np.meshgrid(xs, ys)
        positions = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(n_h * n_v)])
        positions.setflags(write=False)
        for name, value in (("n_h", int(n_h)), ("n_v", int(n_v)), ("spacing", float(spacing)),
                            ("positions", positions)):
            object.__setattr__(self, name, value)

    @property
    def count(self) -> int:
        return self.n_h * self.n_v

    @property
    def element_area(self) -> float:
        return float(self.spacing) ** 2

    @property
    def aperture_diag(self) -> float:
        """Diagonal of the n_h*spacing by n_v*spacing rectangle the grid covers."""
        return float(np.hypot(self.n_h * self.spacing, self.n_v * self.spacing))


@dataclass(frozen=True, eq=False)
class LinkGeometry:
    """Center-to-center link: distance ``d0`` along the unit vector ``kappa``.

    ``LinkGeometry(d0, theta, phi, rx_rotation=None)``.  ``kappa`` points
    from the TX surface center toward the RX surface center; it is always
    derived from the elevation/azimuth pair via :func:`wavevector`, so it
    never goes stale.  ``rx_rotation``, when given, is a proper rotation
    (R'R = I within 1e-12 in every entry, det R > 0) that maps RX-local
    element offsets into the global frame; when absent the two surfaces
    are parallel.  Every field is checked on every construction,
    ``replace`` included.  Equality is identity.
    """

    d0: float
    theta: float
    phi: float
    rx_rotation: np.ndarray | None = None
    kappa: np.ndarray = field(init=False)

    def __post_init__(self):
        d0, theta, phi = float(self.d0), float(self.theta), float(self.phi)
        _require_positive("link distance", d0, DegenerateGeometryError)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError(f"link angles must be finite, got theta={theta}, phi={phi}")
        rotation = self.rx_rotation
        if rotation is not None:
            rotation = np.array(rotation, dtype=float)
            if rotation.shape != (3, 3):
                raise ValueError("rx_rotation must be a 3x3 matrix")
            if not np.isfinite(rotation).all():
                raise ValueError("rx_rotation entries must be finite")
            if (np.max(np.abs(rotation.T @ rotation - np.eye(3))) > 1e-12
                    or np.linalg.det(rotation) <= 0.0):
                raise ValueError("rx_rotation must be a proper rotation: R'R = I within 1e-12 "
                                 "and det R > 0")
            rotation.setflags(write=False)
        for name, value in (("d0", d0), ("theta", theta), ("phi", phi),
                            ("rx_rotation", rotation), ("kappa", wavevector(theta, phi))):
            object.__setattr__(self, name, value)

    @classmethod
    def from_angles(cls, d0: float, theta: float = 0.0, phi: float = 0.0,
                    rx_rotation: np.ndarray | None = None) -> LinkGeometry:
        """Construct a link at distance ``d0`` toward direction (theta, phi)."""
        return cls(d0, theta, phi, rx_rotation)


def build_planar_surface(n_h: int, n_v: int, spacing: float) -> SurfaceLayout:
    """The centered ``n_h`` x ``n_v`` :class:`SurfaceLayout` grid at the given spacing."""
    return SurfaceLayout(n_h, n_v, spacing)


def wavevector(theta: float, phi: float) -> np.ndarray:
    """Unit propagation vector [sin(theta)cos(phi), sin(theta)sin(phi), cos(theta)]."""
    st = np.sin(theta)
    kappa = np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])
    kappa.setflags(write=False)
    return kappa


def global_rx_positions(link: LinkGeometry, rx: SurfaceLayout) -> np.ndarray:
    """RX element offsets from the RX center, expressed in the global frame."""
    if link.rx_rotation is None:
        return rx.positions
    return rx.positions @ link.rx_rotation.T


def pairwise_offsets(tx: SurfaceLayout, rx: SurfaceLayout, link: LinkGeometry) -> np.ndarray:
    """All pair offsets q_m - p_n in the global frame, shape (M, N, 3)."""
    qs = global_rx_positions(link, rx)
    return qs[:, None, :] - tx.positions[None, :, :]


def pair_displacement(link: LinkGeometry, p_n: np.ndarray, q_m: np.ndarray) -> np.ndarray:
    """Displacement from TX element at p_n to RX element at q_m.

    Both offsets must already be expressed in the global frame; the result
    is ``d0*kappa - p_n + q_m``.
    """
    return link.d0 * link.kappa - np.asarray(p_n, dtype=float) + np.asarray(q_m, dtype=float)


def rayleigh_distance(tx: SurfaceLayout, rx: SurfaceLayout, wavelength: float) -> float:
    """Far-field onset distance 2*(D_tx + D_rx)^2 / wavelength.

    D is each surface's aperture diagonal; the result is symmetric in the
    two surfaces.  The wavelength must be positive and finite.
    """
    _require_positive("wavelength", wavelength)
    total = tx.aperture_diag + rx.aperture_diag
    return 2.0 * total * total / wavelength
