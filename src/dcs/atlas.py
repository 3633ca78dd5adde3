"""Catalog of the explicit coordinate maps of the engine: based loops,
disks, cylinder homotopies, local trivializations, and their registered
machine-checkable claims.

Every parametric item evaluates the printed closed-form coordinates as
written, with no algebraic simplification; piecewise items carry their
interval structure so junction agreement can be audited.  Angles are taken
in [0, 2*pi) and r abbreviates 1 - |z| on disks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .projective import HPoint, PLine, line_through, meet_lines, Tolerances, DEFAULT_TOL
from .strata import Config6, SpaceTag

TWO_PI = 2.0 * np.pi


class AtlasError(KeyError):
    pass


# ---------------------------------------------------------------------------
# fixed points, lines and charts

def _c(*vals):
    return np.asarray(vals, dtype=np.complex128)

# planar base configuration in CP^2, center [0:0:1]
A10, B10 = _c(-1, 1, 1), _c(-1, 1, 2)
A20, B20 = _c(-1, 2, 1), _c(-1, 2, 2)
A30, B30 = _c(0, 1, 1), _c(0, 1, 2)
I0_PLANAR = _c(0, 0, 1)
PLANAR_BASE = np.stack([A10, B10, A20, B20, A30, B30])
# line equations k X0 + X1 = 0 (k = 1, 2) and X0 = 0, as dual covectors
D10_DUAL, D20_DUAL, D30_DUAL = _c(1, 1, 0), _c(2, 1, 0), _c(1, 0, 0)

# solid base configuration in CP^3, center [0:0:1:0]; the three lines are
# X0=X1=0, X0=X3=0 and X1=X3=0 (the source display mislabels the third line
# as the first; the engine normalizes the label and flags it in reports).
SOLID_BASE = np.stack(
    [
        _c(0, 0, 0, 1), _c(0, 0, 1, 1),
        _c(0, 1, 0, 0), _c(0, 1, 1, 0),
        _c(1, 0, 0, 0), _c(1, 0, 1, 0),
    ]
)
I0_SOLID = _c(0, 0, 1, 0)
I0_CP4 = _c(0, 0, 1, 0, 0)


def embed(rows: np.ndarray, extra: int = 1) -> np.ndarray:
    """Append trailing zero coordinates: CP^n -> CP^(n+extra)."""
    pad = [(0, 0)] * (rows.ndim - 1) + [(0, extra)]
    return np.pad(rows, pad)


PLANAR_BASE_CP3 = embed(PLANAR_BASE)
SOLID_BASE_CP4 = embed(SOLID_BASE)

# affine charts of the base lines (the common center is the point at
# infinity of every chart); chart(point) for p = [x0:...:xn] on the line.
PLANAR_CHARTS = (
    lambda p: -p[..., 2] / p[..., 0],   # z -> [-1:1:z]
    lambda p: -p[..., 2] / p[..., 0],   # z -> [-1:2:z]
    lambda p: p[..., 2] / p[..., 1],    # z -> [0:1:z]
)
SOLID_CHARTS = (
    lambda p: p[..., 2] / p[..., 3],    # z -> [0:0:z:1]
    lambda p: p[..., 2] / p[..., 1],    # z -> [0:1:z:0]
    lambda p: p[..., 2] / p[..., 0],    # z -> [1:0:z:0]
)


def point(*comps) -> np.ndarray:
    comps = [np.asarray(c, dtype=np.complex128) for c in comps]
    return np.stack(np.broadcast_arrays(*comps), axis=-1)


def config(*pts) -> np.ndarray:
    return np.stack(np.broadcast_arrays(*pts), axis=-2)


# ---------------------------------------------------------------------------
# piecewise arcs

class Arc:
    """Piecewise scalar function on the angle interval [0, 2*pi].

    pieces: list of (lo(t), hi(t), f(theta, t)); bounds are callables of the
    cylinder parameter so the decomposition may move with t.  ``side``
    selects which formula owns a shared boundary, enabling two-sided
    junction evaluation.  ``t`` is one cylinder parameter for all angles or
    one per angle.
    """

    def __init__(self, pieces):
        self.pieces = pieces

    def bounds(self, t) -> np.ndarray:
        """Piece bounds, first to last, at a scalar t or at each of an array
        of t: shape (pieces + 1,) + np.shape(t)."""
        tt = np.asarray(t, dtype=float)
        bs = [lo(tt) for lo, _, _ in self.pieces] + [self.pieces[-1][1](tt)]
        return np.array(np.broadcast_arrays(tt, *bs)[1:], dtype=float)

    def __call__(self, theta, t=0.0, side: str = "right"):
        th, tt = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(t, dtype=float))
        # a node's piece is the number of interior bounds it has passed; the
        # right side owns a shared boundary, the left side the piece before it
        passed = np.greater_equal if side == "right" else np.greater
        idx = sum(passed(th, lo(tt)) for lo, _, _ in self.pieces[1:])
        out = np.zeros(th.shape, dtype=np.complex128)
        for k, (_, _, f) in enumerate(self.pieces):
            mask = idx == k
            if np.any(mask):
                out[mask] = f(th[mask], tt[mask])
        return out


def _const(x):
    return lambda t: x


# ---------------------------------------------------------------------------
# the generator loops and the fibration sections (single-formula items)

def eval_alpha(theta, t=None, rho=None, side="right"):
    z = np.exp(1j * np.asarray(theta, dtype=float))
    return config(point(*A10), point(-1, 1, 1 + z), point(*A20), point(*B20), point(*A30), point(*B30))


def eval_beta(theta, t=None, rho=None, side="right"):
    z = np.exp(1j * np.asarray(theta, dtype=float))
    return config(point(*A10), point(*B10), point(*A20), point(-1, 2, 1 + z), point(*A30), point(*B30))


def eval_gamma(theta, t=None, rho=None, side="right"):
    z = np.exp(1j * np.asarray(theta, dtype=float))
    return config(point(*A10), point(*B10), point(*A20), point(*B20), point(*A30), point(0, 1, 1 + z))


def eval_sigma(theta, t=None, rho=None, side="right"):
    z = np.exp(1j * np.asarray(theta, dtype=float))
    return config(
        point(-1, z, 1), point(-1, z, 2),
        point(-1, 2 * z, 1), point(-1, 2 * z, 2),
        point(*A30), point(*B30),
    )


def eval_s(theta, t=None, rho=None, side="right"):
    """Line triple (z X0 + X1, 2z X0 + X1, X0) as dual covectors."""
    z = np.exp(1j * np.asarray(theta, dtype=float))
    return config(point(z, 1, 0), point(2 * z, 1, 0), point(1, 0, 0))


def _fiber_pair(theta):
    z = np.exp(1j * np.asarray(theta, dtype=float))
    return np.stack(np.broadcast_arrays(np.ones_like(z), 1 + z), axis=-1)


def eval_fiber_a(theta, t=None, rho=None, side="right"):
    return _fiber_pair(theta)


eval_fiber_b = eval_fiber_a
eval_fiber_c = eval_fiber_a


def _disk_params(theta, rho):
    theta = np.asarray(theta, dtype=float)
    rho = np.asarray(1.0 if rho is None else rho, dtype=float)
    z = rho * np.exp(1j * theta)
    return z, np.conj(z), 1.0 - rho


def eval_Lambda(theta, t=None, rho=None, side="right"):
    """Null-homotopy of the doubled line loop: duals ((kz-r) X0 + (zbar+kr) X1, z X0 + r X1)."""
    z, zb, r = _disk_params(theta, rho)
    return config(
        point(z - r, zb + r, 0),
        point(2 * z - r, zb + 2 * r, 0),
        point(z, r, 0),
    )


def eval_Lambda_tilde(theta, t=None, rho=None, side="right"):
    z, zb, r = _disk_params(theta, rho)
    return config(
        point(-zb - r, z - r, zb), point(-zb - r, z - r, zb + 1),
        point(-zb - 2 * r, 2 * z - r, zb), point(-zb - 2 * r, 2 * z - r, zb + 1),
        point(-r, z, z), point(-r, z, z + 1),
    )


def eval_Lambda_tilde_S1(theta, t=None, rho=None, side="right"):
    z = np.exp(1j * np.asarray(theta, dtype=float))
    z2 = z * z
    return config(
        point(-1, z2, 1), point(-1, z2, 1 + z),
        point(-1, 2 * z2, 1), point(-1, 2 * z2, 1 + z),
        point(*A30), point(0, 1, 1 + np.conj(z)),
    )


# --- L: the cylinder between (alpha^-1 * beta^-1) * gamma and (sigma*sigma) * restriction^-1

L1_ARC = Arc([
    (_const(0.0), lambda t: t * np.pi, lambda th, t: np.exp(4j * th)),
    (lambda t: t * np.pi, lambda t: (2 - t) * np.pi, lambda th, t: np.exp(4j * t * np.pi) * np.ones_like(th)),
    (lambda t: (2 - t) * np.pi, _const(TWO_PI), lambda th, t: np.exp(-4j * th)),
])


def _L2_arc(k):
    lo_mid = lambda t: (t + k - 1) * np.pi / k
    hi_mid = lambda t: (1 + (5 - 2 * k) * t) * np.pi / (3 - k)
    mid = lambda th, t: 1 + np.exp(4j * ((2 - k) * t * np.pi - th) / (1 + t))
    return Arc([
        (_const(0.0), lo_mid, lambda th, t: np.full_like(th, 2, dtype=complex)),
        (lo_mid, hi_mid, mid),
        (hi_mid, _const(TWO_PI), lambda th, t: np.full_like(th, 2, dtype=complex)),
    ])


L2_ARCS = (_L2_arc(1), _L2_arc(2))

LB3_ARC = Arc([
    (_const(0.0), _const(np.pi), lambda th, t: np.full_like(th, 2, dtype=complex)),
    (_const(np.pi), _const(TWO_PI), lambda th, t: 1 + np.exp(2j * th)),
])


def eval_L(theta, t=0.0, rho=None, side="right"):
    theta = np.asarray(theta, dtype=float)
    l1 = L1_ARC(theta, t, side)
    l21 = L2_ARCS[0](theta, t, side)
    l22 = L2_ARCS[1](theta, t, side)
    b3 = LB3_ARC(theta, t, side)
    return config(
        point(-1, l1, 1), point(-1, l1, l21),
        point(-1, 2 * l1, 1), point(-1, 2 * l1, l22),
        point(*A30), point(0, 1, b3),
    )


# --- epsilon, eta and the conjugation cylinders K

EPSILON_ARC = Arc([
    (_const(0.0), lambda t: 2 * t * np.pi / 3, lambda th, t: np.exp(3j * th)),
    (lambda t: 2 * t * np.pi / 3, lambda t: 2 * (3 - t) * np.pi / 3,
     lambda th, t: np.exp(2j * t * np.pi) * np.ones_like(th)),
    (lambda t: 2 * (3 - t) * np.pi / 3, _const(TWO_PI), lambda th, t: np.exp(-3j * th)),
])

ETA_ARC = Arc([
    (_const(0.0), _const(2 * np.pi / 3), lambda th, t: np.full_like(th, 2, dtype=complex)),
    (_const(2 * np.pi / 3), _const(4 * np.pi / 3), lambda th, t: 1 + np.exp(3j * th)),
    (_const(4 * np.pi / 3), _const(TWO_PI), lambda th, t: np.full_like(th, 2, dtype=complex)),
])


def eval_epsilon(theta, t=0.0, rho=None, side="right"):
    return EPSILON_ARC(np.asarray(theta, dtype=float), t, side)


def eval_eta(theta, t=None, rho=None, side="right"):
    return ETA_ARC(np.asarray(theta, dtype=float), 0.0, side)


def _K_config(theta, t, side, moved: int):
    theta = np.asarray(theta, dtype=float)
    eps = EPSILON_ARC(theta, t, side)
    eta = ETA_ARC(theta, 0.0, side)
    a1, b1 = point(-1, eps, 1), point(-1, eps, 2)
    a2, b2 = point(-1, 2 * eps, 1), point(-1, 2 * eps, 2)
    a3, b3 = point(*A30), point(*B30)
    if moved == 0:
        b1 = point(-1, eps, eta)
    elif moved == 1:
        b2 = point(-1, 2 * eps, eta)
    else:
        b3 = point(0, 1, eta)
    return config(a1, b1, a2, b2, a3, b3)


def eval_K_alpha(theta, t=0.0, rho=None, side="right"):
    return _K_config(theta, t, side, 0)


def eval_K_beta(theta, t=0.0, rho=None, side="right"):
    return _K_config(theta, t, side, 1)


def eval_K_gamma(theta, t=0.0, rho=None, side="right"):
    return _K_config(theta, t, side, 2)


# --- Phi and its lift

def eval_Phi(theta, t=None, rho=None, side="right"):
    z, _, r = _disk_params(theta, rho)
    return point(0, r, z)


def eval_Phi_tilde(theta, t=None, rho=None, side="right"):
    z, zb, r = _disk_params(theta, rho)
    pts = []
    for k in (1, 2):
        pts.append(point(-1, (2 * k + 1) * r + k * zb, (2 * k + 1) * z + k * (r - 2)))
        pts.append(point(-1, (2 * k + 2) * r + k * zb, (2 * k + 2) * z + k * (r - 2)))
    pts.append(point(-r, zb + 4 * r, 4 * z - 3 * (r + 1)))
    pts.append(point(-r, zb + 5 * r, 5 * z - 3 * (r + 1)))
    return config(*pts)


def eval_Phi_tilde_S1(theta, t=None, rho=None, side="right"):
    z = np.exp(1j * np.asarray(theta, dtype=float))
    zb = np.conj(z)
    return config(
        point(-1, zb, 3 * z - 2), point(-1, zb, 4 * z - 2),
        point(-1, 2 * zb, 5 * z - 4), point(-1, 2 * zb, 6 * z - 4),
        point(0, zb, 4 * z - 3), point(0, zb, 5 * z - 3),
    )


# --- H: the cylinder between the triple concatenation and Phi_tilde|S1 * sigma

def _H1_arc(k):
    return Arc([
        (_const(0.0), lambda t: t * np.pi, lambda th, t: k * np.exp(-2j * th)),
        (lambda t: t * np.pi, lambda t: (2 - t) * np.pi,
         lambda th, t: k * np.exp(-2j * t * np.pi) * np.ones_like(th)),
        (lambda t: (2 - t) * np.pi, _const(TWO_PI), lambda th, t: k * np.exp(2j * th)),
    ])


def _H2_arc(k):
    return Arc([
        (_const(0.0), _const(np.pi), lambda th, t: 1 + (2 * k + 1) * t * (np.exp(2j * th) - 1)),
        (_const(np.pi), _const(TWO_PI), lambda th, t: np.ones_like(th, dtype=complex)),
    ])


H1_ARCS = (_H1_arc(1), _H1_arc(2))
H2_ARCS = (_H2_arc(1), _H2_arc(2))

H3_ARC = Arc([
    (_const(0.0), _const(np.pi),
     lambda th, t: 1 + t * (4 * np.exp(4j * th) - 3 * np.exp(2j * th) - 1)),
    (_const(np.pi), _const(TWO_PI), lambda th, t: np.ones_like(th, dtype=complex)),
])

H14_ARC = Arc([
    (_const(0.0), lambda t: (1 + t) * np.pi / 2, lambda th, t: np.exp(4j * th / (1 + t))),
    (lambda t: (1 + t) * np.pi / 2, _const(TWO_PI), lambda th, t: np.ones_like(th, dtype=complex)),
])

H24_ARC = Arc([
    (_const(0.0), lambda t: (1 - t) * np.pi / 2, lambda th, t: np.ones_like(th, dtype=complex)),
    (lambda t: (1 - t) * np.pi / 2, _const(np.pi),
     lambda th, t: np.exp(2j * (2 * th - (1 - t) * np.pi) / (1 + t))),
    (_const(np.pi), _const(TWO_PI), lambda th, t: np.ones_like(th, dtype=complex)),
])

H5_ARC = Arc([
    (_const(0.0), lambda t: (1 - t) * np.pi, lambda th, t: np.ones_like(th, dtype=complex)),
    (lambda t: (1 - t) * np.pi, lambda t: (2 - t) * np.pi,
     lambda th, t: np.exp(4j * (th - (1 - t) * np.pi))),
    (lambda t: (2 - t) * np.pi, _const(TWO_PI), lambda th, t: np.ones_like(th, dtype=complex)),
])


def eval_H(theta, t=0.0, rho=None, side="right"):
    theta = np.asarray(theta, dtype=float)
    h11, h21 = H1_ARCS[0](theta, t, side), H1_ARCS[1](theta, t, side)
    h12, h22 = H2_ARCS[0](theta, t, side), H2_ARCS[1](theta, t, side)
    h3 = H3_ARC(theta, t, side)
    h14, h24 = H14_ARC(theta, t, side), H24_ARC(theta, t, side)
    h5 = H5_ARC(theta, t, side)
    return config(
        point(-1, h11, h12), point(-1, h11, h12 + h14),
        point(-1, h21, h22), point(-1, h21, h22 + h24),
        point(0, 1, h3), point(0, 1, h3 + h5),
    )


# --- the Grassmannian generator Pi and its lift (ambient CP^3)

def eval_Pi(theta, t=None, rho=None, side="right"):
    """Moving plane (1-|z|) X1 + z X3 = 0 through [0:0:1:0], as a covector."""
    z, _, r = _disk_params(theta, rho)
    return point(0, r, 0, z)


def eval_Pi_tilde(theta, t=None, rho=None, side="right"):
    z, zb, r = _disk_params(theta, rho)
    rho_arr = np.abs(z)
    lead = 2 * r * rho_arr - 1
    return config(
        point(lead, z, 1, -r), point(lead, z, 2, -r),
        point(lead, 2 * z, 1, -2 * r), point(lead, 2 * z, 2, -2 * r),
        point(0, z, z, -r), point(0, z, z + 1, -r),
    )


def eval_Pi_tilde_S1(theta, t=None, rho=None, side="right"):
    return eval_Pi_tilde(theta, rho=1.0, side=side)


# --- M: the cylinder connecting the simultaneous product to sigma * gamma^-1

M1_ARC = Arc([
    (_const(0.0), lambda t: (2 - t) * np.pi, lambda th, t: np.exp(2j * th / (2 - t))),
    (lambda t: (2 - t) * np.pi, _const(TWO_PI), lambda th, t: np.ones_like(th, dtype=complex)),
])

M2_ARC = Arc([
    (_const(0.0), lambda t: t * np.pi, lambda th, t: np.ones_like(th, dtype=complex)),
    (lambda t: t * np.pi, _const(TWO_PI), lambda th, t: np.exp(2j * (t * np.pi - th) / (2 - t))),
])


def eval_M(theta, t=0.0, rho=None, side="right"):
    theta = np.asarray(theta, dtype=float)
    m1 = M1_ARC(theta, t, side)
    m2 = M2_ARC(theta, t, side)
    return config(
        point(-1, m1, 1), point(-1, m1, 2),
        point(-1, 2 * m1, 1), point(-1, 2 * m1, 2),
        point(*A30), point(0, 1, 1 + m2),
    )


# --- solid items (ambient CP^3): F, B, their lifts, Psi and its lift

def eval_F(theta, t=None, rho=None, side="right"):
    """Line triple (d1 fixed; z X0 - r X1 = 0 = X3; r X0 + zbar X1 = 0 = X3) as spans."""
    z, zb, r = _disk_params(theta, rho)
    d1 = config(point(0, 0, 1, 0), point(0, 0, 0, 1))
    d2 = config(point(r, z, 0, 0), point(0, 0, 1, 0))
    d3 = config(point(zb, -r, 0, 0), point(0, 0, 1, 0))
    return np.stack(np.broadcast_arrays(d1, d2, d3), axis=-3)


def eval_B(theta, t=None, rho=None, side="right"):
    z, zb, r = _disk_params(theta, rho)
    d1 = config(point(r, 0, 0, z), point(0, 0, 1, 0))
    d2 = config(point(0, 1, 0, 0), point(0, 0, 1, 0))
    d3 = config(point(zb, 0, 0, -r), point(0, 0, 1, 0))
    return np.stack(np.broadcast_arrays(d1, d2, d3), axis=-3)


def eval_F_tilde(theta, t=None, rho=None, side="right"):
    z, zb, r = _disk_params(theta, rho)
    return config(
        point(0, 0, 0, 1), point(0, 0, 1, 1),
        point(r, z, 0, 0), point(r, z, 1, 0),
        point(zb, -r, 0, 0), point(zb, -r, 1, 0),
    )


def eval_B_tilde(theta, t=None, rho=None, side="right"):
    z, zb, r = _disk_params(theta, rho)
    return config(
        point(r, 0, 0, z), point(r, 0, 1, z),
        point(0, 1, 0, 0), point(0, 1, 1, 0),
        point(zb, 0, 0, -r), point(zb, 0, 1, -r),
    )


def eval_F_tilde_S1(theta, t=None, rho=None, side="right"):
    return eval_F_tilde(theta, rho=1.0)


def eval_B_tilde_S1(theta, t=None, rho=None, side="right"):
    return eval_B_tilde(theta, rho=1.0)


def eval_Psi(theta, t=None, rho=None, side="right"):
    z, _, r = _disk_params(theta, rho)
    return point(r, 0, z, 0)


def eval_Psi_tilde(theta, t=None, rho=None, side="right"):
    z, zb, r = _disk_params(theta, rho)
    return config(
        point(0, 0, 0, 1), point(r, 0, z, 1),
        point(0, 1, 0, 0), point(r, 1, z, 0),
        point(zb, 0, -r, 0), point(r + zb, 0, z - r, 0),
    )


def eval_Psi_tilde_S1(theta, t=None, rho=None, side="right"):
    return eval_Psi_tilde(theta, rho=1.0)


# --- the CP^4 hyperplane generator Sigma and its lift

def eval_Sigma(theta, t=None, rho=None, side="right"):
    """Hyperplane r X1 - z X4 = 0 through [0:0:1:0:0], as a covector."""
    z, _, r = _disk_params(theta, rho)
    return point(0, r, 0, 0, -z)


def eval_Sigma_tilde(theta, t=None, rho=None, side="right"):
    z, zb, r = _disk_params(theta, rho)
    return config(
        point(0, 0, 0, 1, 0), point(0, 0, 1, 1, 0),
        point(0, z, 0, 0, r), point(0, z, 1, 0, r),
        point(1, 0, 0, 0, 0), point(1, 0, 1, 0, 0),
    )


def eval_Sigma_tilde_S1(theta, t=None, rho=None, side="right"):
    return eval_Sigma_tilde(theta, rho=1.0)


# ---------------------------------------------------------------------------
# trivializations (parametric maps rather than loops)

def phi_triv(center: HPoint, cfg: Config6, tol: Tolerances = DEFAULT_TOL) -> Config6:
    """Coordinate trivialization of the center fibration over CP^2 \\ {X2 = 0}.

    Input: a target center I = [s:t:1] and a configuration with center
    [0:0:1].  Representatives are rescaled so A_i and B_i share the leading
    two coordinates (n_i, -m_i) of their line; the output point for value a
    is [n + s a : -m + t a : a].  Polynomial in (s, t), hence continuous
    across the singular locus of the geometric construction.
    """
    if center.ambient_dim != 2 or cfg.ambient_dim != 2:
        raise ValueError("phi_triv works in CP^2")
    c = center.coords
    if abs(c[2]) < 1e-12 * np.max(np.abs(c)):
        raise ValueError("center lies on the reference line X2 = 0")
    s, t = c[0] / c[2], c[1] / c[2]
    out = []
    for i in range(3):
        a_raw, b_raw = cfg.points[2 * i].coords, cfg.points[2 * i + 1].coords
        # scale so both representatives carry the same (n, -m) head
        lead = np.argmax(np.abs(a_raw[:2]))
        b_scaled = b_raw * (a_raw[lead] / b_raw[lead])
        n, mneg = a_raw[0], a_raw[1]
        a_val, b_val = a_raw[2], b_scaled[2]
        out.append(HPoint([n + s * a_val, mneg + t * a_val, a_val]))
        out.append(HPoint([n + s * b_val, mneg + t * b_val, b_val]))
    return Config6(out)


def phi_triv_geometric(center: HPoint, cfg: Config6, tol: Tolerances = DEFAULT_TOL) -> Config6:
    """Ruler construction behind phi_triv, valid away from its singular locus:
    D_i = l cap d_i, Q = l cap (I0 I), d_i' = I D_i, A_i' = (Q A_i) cap d_i'."""
    i0 = HPoint(I0_PLANAR)
    ell = line_through(HPoint(_c(1, 0, 0)), HPoint(_c(0, 1, 0)), tol)  # X2 = 0
    q = meet_lines(ell, line_through(i0, center, tol), tol)
    out = []
    for i in range(3):
        d_i = cfg.line(i, tol)
        big_d = meet_lines(ell, d_i, tol)
        d_new = line_through(center, big_d, tol)
        for p in (cfg.points[2 * i], cfg.points[2 * i + 1]):
            out.append(meet_lines(line_through(q, p, tol), d_new, tol))
    return Config6(out)


PSI_TRIV_Q = HPoint(_c(1, 1, 1))


def psi_triv(duals, pairs, tol: Tolerances = DEFAULT_TOL) -> Config6:
    """Trivialization of the line fibration: project the reference fiber
    points from Q = [1:1:1] onto the target lines, A_i = d_i cap (Q A_i^0).

    duals: three covectors of target lines through [0:0:1]; pairs: three
    (A_i^0, B_i^0) HPoint pairs on the base lines.
    """
    from .projective import line_from_dual

    out = []
    for i in range(3):
        d_i = line_from_dual(np.asarray(duals[i], dtype=complex), tol)
        for p in pairs[i]:
            out.append(meet_lines(line_through(PSI_TRIV_Q, p, tol), d_i, tol))
    return Config6(out)


GR_TRIV_Q = HPoint(_c(0, 0, 0, 1))   # projection center, inside H: X2 = 0
GR_TRIV_P0 = _c(0, 0, 0, 1)          # reference plane X3 = 0 (covector)


def gr_triv(plane_cov, cfg: Config6, tol: Tolerances = DEFAULT_TOL) -> Config6:
    """Projection-from-Q trivialization of the plane fibration in CP^3.

    plane_cov: covector of a plane P through [0:0:1:0] with Q not on P;
    cfg: a configuration inside the reference plane X3 = 0 with center
    [0:0:1:0].  Geometric construction: C_i = (Q v (d_i cap l0)) cap l with
    l = P cap H, d_i' = I C_i, A_i' = (Q v A_i) cap d_i'.
    """
    u = np.asarray(plane_cov, dtype=complex)
    i0 = HPoint(I0_SOLID)
    if abs(u @ i0.coords) > 1e-9 * np.linalg.norm(u):
        raise ValueError("plane does not contain the center")
    if abs(u @ GR_TRIV_Q.coords) < 1e-12 * np.linalg.norm(u):
        raise ValueError("plane meets the projection center Q")
    # l0 = P0 cap H = {X2 = X3 = 0}; l = P cap H computed from two solutions.
    l0 = line_through(HPoint(_c(1, 0, 0, 0)), HPoint(_c(0, 1, 0, 0)), tol)
    ell = _plane_cap_h(u, tol)
    out = []
    for i in range(3):
        d_i = cfg.line(i, tol)
        c0 = meet_lines(d_i, l0, tol)
        c_new = meet_lines(line_through(GR_TRIV_Q, c0, tol), ell, tol)
        d_new = line_through(i0, c_new, tol)
        for p in (cfg.points[2 * i], cfg.points[2 * i + 1]):
            out.append(meet_lines(line_through(GR_TRIV_Q, p, tol), d_new, tol))
    return Config6(out)


def _plane_cap_h(u, tol) -> PLine:
    """Intersection line of the plane u.X = 0 with H: X2 = 0, as a span."""
    rows = np.stack([u, _c(0, 0, 1, 0)])
    _, _, vh = np.linalg.svd(rows)
    basis = np.conj(vh[2:])
    return line_through(HPoint(basis[0]), HPoint(basis[1]), tol)


# ---------------------------------------------------------------------------
# registry

@dataclass
class AtlasItem:
    id: str
    kind: str                     # loop | disk | cylinder | scalar | pair | map | basepoint
    value_kind: str               # config | point | lines_dual | lines_span | plane | scalar | pair
    target: Optional[SpaceTag]
    fn: Optional[Callable] = None
    arcs: dict = field(default_factory=dict)     # component name -> Arc, for junction audits
    based: bool = False           # closed loop through the registered base point
    aliases: tuple = ()
    notes: str = ""

    def eval(self, theta, t=None, rho=None, side="right"):
        if self.fn is None:
            raise AtlasError(f"{self.id} is not a parametric item")
        return self.fn(theta, t=t, rho=rho, side=side)


def _constant(rows):
    """A base point as a parametric item: the same value at every angle."""
    def fn(theta, t=None, rho=None, side="right"):
        return np.broadcast_to(rows, np.shape(theta) + rows.shape).copy()
    return fn


TAG_PLANAR_FIXED_2 = SpaceTag.planar_fixed(2, HPoint(I0_PLANAR))
TAG_PLANAR_2 = SpaceTag.planar(2)
TAG_PLANAR_FIXED_3 = SpaceTag.planar_fixed(3, HPoint(I0_SOLID))
TAG_SOLID_FIXED_3 = SpaceTag.solid_fixed(3, HPoint(I0_SOLID))
TAG_SOLID_3 = SpaceTag.solid(3)
TAG_SOLID_FIXED_4 = SpaceTag.solid_fixed(4, HPoint(I0_CP4))
TAG_LINES_I0 = SpaceTag.lines_through(HPoint(I0_PLANAR))
TAG_LINES_I0_SOLID = SpaceTag.lines_through(HPoint(I0_SOLID))


def _build_registry():
    items = [
        AtlasItem("alpha", "loop", "config", TAG_PLANAR_FIXED_2, eval_alpha, based=True),
        AtlasItem("beta", "loop", "config", TAG_PLANAR_FIXED_2, eval_beta, based=True),
        AtlasItem("gamma", "loop", "config", TAG_PLANAR_FIXED_2, eval_gamma, based=True),
        AtlasItem("sigma", "loop", "config", TAG_PLANAR_FIXED_2, eval_sigma, based=True),
        AtlasItem("s", "loop", "lines_dual", TAG_LINES_I0, eval_s, based=True),
        AtlasItem("fiber_a", "loop", "pair", None, eval_fiber_a, based=True,
                  notes="braid generator in the fiber of the first line, chart coordinates"),
        AtlasItem("fiber_b", "loop", "pair", None, eval_fiber_b, based=True),
        AtlasItem("fiber_c", "loop", "pair", None, eval_fiber_c, based=True),
        AtlasItem("Lambda", "disk", "lines_dual", TAG_LINES_I0, eval_Lambda),
        AtlasItem("Lambda_tilde", "disk", "config", TAG_PLANAR_FIXED_2, eval_Lambda_tilde),
        AtlasItem("sigma_tilde_Lambda", "loop", "config", TAG_PLANAR_FIXED_2,
                  eval_Lambda_tilde_S1, based=True, aliases=("Lambda_tilde_S1",),
                  notes="circle restriction of Lambda_tilde, as printed"),
        AtlasItem("L", "cylinder", "config", TAG_PLANAR_FIXED_2, eval_L,
                  arcs={"L1": L1_ARC, "L2_1": L2_ARCS[0], "L2_2": L2_ARCS[1], "B3": LB3_ARC},
                  based=True),
        AtlasItem("epsilon", "cylinder", "scalar", None, eval_epsilon,
                  arcs={"epsilon": EPSILON_ARC}),
        AtlasItem("eta", "loop", "scalar", None, eval_eta, arcs={"eta": ETA_ARC}),
        AtlasItem("K_alpha", "cylinder", "config", TAG_PLANAR_FIXED_2, eval_K_alpha,
                  arcs={"epsilon": EPSILON_ARC, "eta": ETA_ARC}, based=True),
        AtlasItem("K_beta", "cylinder", "config", TAG_PLANAR_FIXED_2, eval_K_beta,
                  arcs={"epsilon": EPSILON_ARC, "eta": ETA_ARC}, based=True),
        AtlasItem("K_gamma", "cylinder", "config", TAG_PLANAR_FIXED_2, eval_K_gamma,
                  arcs={"epsilon": EPSILON_ARC, "eta": ETA_ARC}, based=True),
        AtlasItem("Phi", "disk", "point", None, eval_Phi,
                  notes="generator disk in CP^2; boundary circle collapses to the center"),
        AtlasItem("Phi_tilde", "disk", "config", TAG_PLANAR_2, eval_Phi_tilde),
        AtlasItem("Phi_tilde_S1", "loop", "config", TAG_PLANAR_FIXED_2,
                  eval_Phi_tilde_S1, based=True),
        AtlasItem("H", "cylinder", "config", TAG_PLANAR_FIXED_2, eval_H,
                  arcs={"H1_1": H1_ARCS[0], "H1_2": H1_ARCS[1], "H2_1": H2_ARCS[0],
                        "H2_2": H2_ARCS[1], "H3": H3_ARC, "H4_1": H14_ARC,
                        "H4_2": H24_ARC, "H5": H5_ARC},
                  based=True),
        AtlasItem("Pi", "disk", "plane", None, eval_Pi),
        AtlasItem("Pi_tilde", "disk", "config", TAG_PLANAR_FIXED_3, eval_Pi_tilde),
        AtlasItem("Pi_tilde_S1", "loop", "config", TAG_PLANAR_FIXED_3,
                  eval_Pi_tilde_S1, based=True),
        AtlasItem("M", "cylinder", "config", TAG_PLANAR_FIXED_2, eval_M,
                  arcs={"m1": M1_ARC, "m2": M2_ARC}, based=True),
        AtlasItem("F", "disk", "lines_span", TAG_LINES_I0_SOLID, eval_F),
        AtlasItem("B", "disk", "lines_span", TAG_LINES_I0_SOLID, eval_B),
        AtlasItem("F_tilde", "disk", "config", TAG_SOLID_FIXED_3, eval_F_tilde),
        AtlasItem("B_tilde", "disk", "config", TAG_SOLID_FIXED_3, eval_B_tilde),
        AtlasItem("F_tilde_S1", "loop", "config", TAG_SOLID_FIXED_3, eval_F_tilde_S1, based=True),
        AtlasItem("B_tilde_S1", "loop", "config", TAG_SOLID_FIXED_3, eval_B_tilde_S1, based=True),
        AtlasItem("Psi", "disk", "point", None, eval_Psi,
                  notes="generator disk in CP^3; boundary circle collapses to the center"),
        AtlasItem("Psi_tilde", "disk", "config", TAG_SOLID_3, eval_Psi_tilde),
        AtlasItem("Psi_tilde_S1", "loop", "config", TAG_SOLID_FIXED_3, eval_Psi_tilde_S1, based=True),
        AtlasItem("Sigma", "disk", "plane", None, eval_Sigma),
        AtlasItem("Sigma_tilde", "disk", "config", TAG_SOLID_FIXED_4, eval_Sigma_tilde),
        AtlasItem("Sigma_tilde_S1", "loop", "config", TAG_SOLID_FIXED_4,
                  eval_Sigma_tilde_S1, based=True),
        AtlasItem("phi_triv", "map", "config", TAG_PLANAR_2,
                  notes="center-fibration trivialization; see phi_triv()"),
        AtlasItem("psi_triv", "map", "config", TAG_PLANAR_FIXED_2,
                  notes="line-fibration trivialization; see psi_triv()"),
        AtlasItem("gr_triv", "map", "config", TAG_PLANAR_FIXED_3,
                  notes="plane-fibration projection construction; see gr_triv()"),
        AtlasItem("D0", "basepoint", "config", TAG_PLANAR_FIXED_2, _constant(PLANAR_BASE)),
        AtlasItem("D0_cp3", "basepoint", "config", TAG_PLANAR_FIXED_3,
                  _constant(PLANAR_BASE_CP3)),
        AtlasItem("D0_solid", "basepoint", "config", TAG_SOLID_FIXED_3, _constant(SOLID_BASE),
                  notes="third line label normalized: the display repeats the first label"),
        AtlasItem("D0_solid_cp4", "basepoint", "config", TAG_SOLID_FIXED_4,
                  _constant(SOLID_BASE_CP4)),
    ]
    reg = {}
    for it in items:
        reg[it.id] = it
        for a in it.aliases:
            reg[a] = it
    return reg


_REGISTRY = _build_registry()


def get(item_id: str) -> AtlasItem:
    try:
        return _REGISTRY[item_id]
    except KeyError:
        raise AtlasError(f"unknown atlas item {item_id!r}") from None


def eval_item(item_id: str, z: complex = None, theta: float = None,
              t: float = None):
    """Evaluate one item at a single parameter and return a typed value.

    ``z`` is the complex parameter (unit modulus for circle items, |z| <= 1
    for disks); alternatively give the angle directly.  Returns a Config6,
    an HPoint (points and plane covectors), a tuple of three PLine (line
    triples), a complex scalar, or a chart-coordinate pair.
    """
    item = get(item_id)
    if item.fn is None:
        raise AtlasError(f"{item_id} is a trivialization; call its function directly")
    rho = None
    if z is not None:
        zc = complex(z)
        theta = float(np.angle(zc)) % TWO_PI
        if item.kind == "disk":
            rho = abs(zc)
            if rho > 1 + 1e-12:
                raise AtlasError(f"parameter {zc} outside the unit disk")
        elif abs(abs(zc) - 1.0) > 1e-9 and item.kind in ("loop", "cylinder"):
            raise AtlasError(f"parameter {zc} is not on the unit circle")
    elif theta is None:
        theta = 0.0
    if item.kind == "cylinder":
        if t is None:
            raise AtlasError(f"{item_id} needs the cylinder parameter t")
        if not 0.0 <= t <= 1.0:
            raise AtlasError("cylinder parameter t outside [0, 1]")
    val = item.eval(np.array([theta]), t=t, rho=rho)[0]
    if item.value_kind == "config":
        return Config6([HPoint(row) for row in val])
    if item.value_kind in ("point", "plane"):
        return HPoint(val)
    if item.value_kind == "lines_dual":
        return tuple(HPoint(row) for row in val)
    if item.value_kind == "lines_span":
        return tuple(PLine(HPoint(a), HPoint(b)) for a, b in val)
    if item.value_kind == "scalar":
        return complex(val)
    return tuple(complex(v) for v in val)


def list_items() -> list:
    return sorted(_REGISTRY.keys())


def basepoint(tag: SpaceTag) -> Config6:
    """The registered base configuration of each Desargues space."""
    if tag.kind.startswith("D_planar"):
        if tag.n == 2:
            return Config6.from_array(PLANAR_BASE)
        if tag.n == 3:
            return Config6.from_array(PLANAR_BASE_CP3)
    if tag.kind.startswith("D_solid"):
        if tag.n == 3:
            return Config6.from_array(SOLID_BASE)
        if tag.n == 4:
            return Config6.from_array(SOLID_BASE_CP4)
    raise AtlasError(f"no registered base point for {tag}")


# ---------------------------------------------------------------------------
# claim registry

@dataclass(frozen=True)
class Claim:
    id: str
    kind: str
    references: tuple
    expected: dict
    anchors: tuple
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "references": list(self.references),
            "expected": self.expected,
            "anchors": list(self.anchors),
            "notes": self.notes,
        }


_CLAIMS = [
    Claim("C1", "lift-identity", ("phi_triv", "D0"),
          {"identity_at": "center [0:0:1]", "center_of_output": "input center"},
          ("phi(I, C) is a valid planar configuration with center I",
           "phi([0:0:1], C) = C",
           "phi agrees with the ruler construction away from its singular locus",
           "phi extends continuously across the singular locus")),
    Claim("C2", "lift-identity", ("psi_triv", "D0"),
          {"identity_at": "base line triple", "lines_of_output": "input lines"},
          ("psi((d), pairs) is a valid configuration with center [0:0:1]",
           "line triple of psi output = input triple",
           "psi(base lines, base pairs) = base configuration")),
    Claim("C3", "membership", ("alpha", "beta", "gamma", "sigma"),
          {"space": "planar, center [0:0:1]", "based_at": "D0"},
          ("each loop stays in the fixed-center planar space",
           "each loop closes at the base configuration")),
    Claim("C4", "pointwise-loop-equality", ("sigma", "s", "Lambda_tilde", "Lambda"),
          {"lines(sigma)": "s", "lines(Lambda_tilde)": "Lambda",
           "Lambda(theta)": "s(2 theta)"},
          ("the line triple of sigma(z) is s(z)",
           "the line triple of Lambda_tilde(z) is Lambda(z) on the whole disk",
           "Lambda restricted to the circle is the doubled line loop")),
    Claim("C5", "disk-nullhomotopy", ("Lambda_tilde", "sigma_tilde_Lambda"),
          {"restriction": "sigma_tilde_Lambda"},
          ("Lambda_tilde is valid on the whole disk",
           "its circle restriction equals the printed formula")),
    Claim("C6", "boundary-identity", ("L", "alpha", "beta", "gamma", "sigma", "sigma_tilde_Lambda"),
          {"at_t0": "(alpha^-1 * beta^-1) * gamma",
           "at_t1": "(sigma * sigma) * sigma_tilde_Lambda^-1"},
          ("L stays valid on the cylinder",
           "its two boundary circles match the stated concatenations pointwise")),
    Claim("C7", "boundary-identity", ("K_alpha", "K_beta", "K_gamma", "sigma",
                                      "alpha", "beta", "gamma", "epsilon", "eta"),
          {"at_t1": "equal-speed sigma * loop * sigma^-1",
           "at_t0": "loop reparametrized (constant outer thirds, cubed middle third)",
           "winding": "vectors of the t=0 end agree with the undecorated loop"},
          ("each conjugation cylinder is valid",
           "its ends match the stated products and reparametrizations")),
    Claim("C8", "lift-identity", ("Phi_tilde", "Phi", "Phi_tilde_S1"),
          {"center_path": "Phi", "restriction": "Phi_tilde_S1"},
          ("Phi_tilde is valid on the disk with moving center",
           "its center path is the generator disk Phi",
           "its circle restriction equals the printed formula")),
    Claim("C9", "boundary-identity", ("H", "alpha", "beta", "gamma", "sigma", "Phi_tilde_S1"),
          {"at_t1": "Phi_tilde_S1 * sigma",
           "at_t0_stated": "(alpha * beta) * gamma",
           "at_t0_frozen": "(alpha * beta) * (gamma * gamma)",
           "winding": "w(Phi_tilde_S1 * sigma) = w(alpha * beta * gamma) over the bracket-ratio functionals"},
          ("H stays valid on the cylinder",
           "the t=1 end equals Phi_tilde_S1 * sigma pointwise",
           "the t=0 end was derived by dense-grid matching before freezing"),
          notes=("derivation run: the printed t=0 end traverses the third fiber "
                 "motion twice; it matches (alpha*beta)*(gamma*gamma) to machine "
                 "precision and differs from the stated (alpha*beta)*gamma by an "
                 "order-one distance.  The stated form is kept as a documented "
                 "failing comparison; the frozen form is asserted.")),
    Claim("C10", "lift-identity", ("Pi_tilde", "Pi", "M"),
          {"plane_incidence": "Pi(z)", "restriction": "embedding of M(.,0)"},
          ("Pi_tilde is valid with fixed center in CP^3",
           "all six points lie on the moving plane Pi(z)",
           "its circle restriction is the embedded simultaneous loop")),
    Claim("C11", "boundary-identity", ("M", "sigma", "gamma"),
          {"at_t1": "sigma * gamma^-1", "at_t0": "simultaneous product",
           "winding": "ends agree over shared functionals"},
          ("M stays valid on the cylinder",
           "its ends match the simultaneous and concatenated products")),
    Claim("C12", "winding-relation", ("F_tilde", "B_tilde", "F", "B"),
          {"lines(F_tilde)": "F", "lines(B_tilde)": "B",
           "fiber_winding(F_tilde_S1)": [0, -1, 1],
           "fiber_winding(B_tilde_S1)": [-1, 0, 1]},
          ("the lifted disks are valid and lie over the stated line triples",
           "their boundary fiber windings are (0,-1,1) and (-1,0,1)")),
    Claim("C13", "winding-relation", ("Psi_tilde", "Psi"),
          {"center_path": "Psi", "fiber_winding(Psi_tilde_S1)": [1, 1, 2]},
          ("Psi_tilde is a valid solid disk",
           "its center path is Psi",
           "its boundary fiber winding is (1,1,2)")),
    Claim("C14", "winding-relation", ("Sigma_tilde", "Sigma"),
          {"hyperplane_incidence": "Sigma(z)", "fiber_winding(Sigma_tilde_S1)": [0, -1, 0]},
          ("Sigma_tilde is a valid fixed-center disk in CP^4",
           "the configuration lies inside the moving hyperplane",
           "its boundary fiber winding is (0,-1,0)")),
    Claim("C15", "membership", ("gr_triv", "D0_cp3"),
          {"identity_at": "reference plane X3 = 0"},
          ("the projection construction maps valid configurations to valid "
           "configurations inside the target plane",
           "it is the identity at the reference plane",
           "the printed coordinate display is compared and reported, not asserted"),
          notes=("the printed display's indices are internally inconsistent; "
                 "the geometric construction is authoritative and the report "
                 "carries distances to two readings of the display.")),
]

_CLAIMS_BY_ID = {c.id: c for c in _CLAIMS}

_CLAIMS_BY_ITEM: dict = {}
for _cl in _CLAIMS:
    for _ref in _cl.references:
        _CLAIMS_BY_ITEM.setdefault(_ref, []).append(_cl.id)


def claims() -> list:
    return list(_CLAIMS)


def claim(claim_id: str) -> Claim:
    try:
        return _CLAIMS_BY_ID[claim_id]
    except KeyError:
        raise AtlasError(f"unknown claim {claim_id!r}") from None


def claims_for(item_id: str) -> list:
    it = get(item_id)  # raises on unknown id
    return [_CLAIMS_BY_ID[cid] for cid in _CLAIMS_BY_ITEM.get(it.id, [])]


def export_registry() -> dict:
    """Claim registry plus item inventory, for the CLI export command."""
    return {
        "items": {
            it.id: {
                "kind": it.kind,
                "value_kind": it.value_kind,
                "target": it.target.to_json() if it.target else None,
                "aliases": list(it.aliases),
                "based": it.based,
                "notes": it.notes,
            }
            for it in {v.id: v for v in _REGISTRY.values()}.values()
        },
        "claims": [c.to_json() for c in _CLAIMS],
    }
