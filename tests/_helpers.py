"""Helpers shared by the test modules: golden-entry decoding, rotations and geometry strategies."""

import numpy as np
from hypothesis import strategies as st


def _cmat(entry):
    return np.array(entry["re"]) + 1j * np.array(entry["im"])


def _rotation(a, b, c):
    ca, sa, cb, sb, cc, sc = np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(c), np.sin(c)
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cc, -sc], [0.0, sc, cc]])
    return rz @ ry @ rx


# Pair geometries for the property tests: grid sides 1-7, element spacings,
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
