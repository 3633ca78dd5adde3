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

from .projective import HPoint, meet, unit_rows
from .strata import Config6, SpaceTag

TWO_PI = 2.0 * np.pi


class AtlasError(LookupError):
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


def point(*comps) -> tuple:
    """A point's coordinates, unstacked; ``config`` writes them in place."""
    return comps


def config(*pts) -> np.ndarray:
    """The points' broadcast coordinates in one C-contiguous array (..., k, m)."""
    shape = np.broadcast_shapes(*{getattr(c, "shape", ()) for p in pts for c in p})
    out = np.empty(shape + (len(pts), len(pts[0])), dtype=np.complex128)
    for i, p in enumerate(pts):
        for j, c in enumerate(p):
            out[..., i, j] = c
    return out


# ---------------------------------------------------------------------------
# piecewise arcs

def _value(x, *args):
    """A piece or breakpoint: a formula of its arguments, or a constant."""
    return x(*args) if callable(x) else x


class Arc:
    """Piecewise scalar function on the angle interval [0, 2*pi].

    ``Arc(f0, b1, f1, ..., bk, fk)`` lists the piece formulas f(theta, t)
    and, between them, the interior breakpoints b(t), each a callable or a
    constant; breakpoints may move with the cylinder parameter.  ``side``
    selects which piece owns a breakpoint, enabling two-sided junction
    evaluation.  ``t`` is one cylinder parameter for all angles or one per
    angle.
    """

    def __init__(self, *parts):
        self.pieces, self.breaks = parts[::2], parts[1::2]

    def bounds(self, t) -> np.ndarray:
        """Piece bounds 0, b1, ..., bk, 2*pi at a scalar t or at each of an
        array of t: shape (pieces + 1,) + np.shape(t)."""
        tt = np.asarray(t, dtype=float)
        bs = [_value(b, tt) for b in self.breaks]
        return np.array(np.broadcast_arrays(tt, 0.0, *bs, TWO_PI)[1:], dtype=float)

    def __call__(self, theta, t=0.0, side: str = "right"):
        th, tt = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(t, dtype=float))
        # a node's piece is the number of breakpoints it has passed; the
        # right side owns a breakpoint, the left side the piece before it
        passed = np.greater_equal if side == "right" else np.greater
        idx = sum(passed(th, _value(b, tt)) for b in self.breaks)
        out = np.zeros(th.shape, dtype=np.complex128)
        for k, f in enumerate(self.pieces):
            mask = idx == k
            if np.any(mask):
                out[mask] = _value(f, th[mask], tt[mask])
        return out


# ---------------------------------------------------------------------------
# the printed formulas.  AtlasItem.eval calls formula(z, zb, r, **arcs) with
# z = rho e^(i theta) (rho = 1 on circles and cylinders), zb = conj(z),
# r = 1 - rho, and each arc of the item's registry row at (theta, t, side).

def _planar(w, moved=None, to=None):
    """sigma's configuration at w, on the lines kw X0 + X1 = 0 (k = 1, 2) and
    X0 = 0, with the point of index ``moved`` replaced by ``to``; at w = 1 it
    is the base configuration.  Only the points kept are written."""
    w2 = 2 * w
    pts = [point(-1, w, 1), point(-1, w, 2), point(-1, w2, 1), point(-1, w2, 2), A30, B30]
    if moved is not None:
        pts[moved] = to
    return config(*pts)


def _alpha(z, zb, r):
    return _planar(1, 1, point(-1, 1, 1 + z))


def _beta(z, zb, r):
    return _planar(1, 3, point(-1, 2, 1 + z))


def _gamma(z, zb, r):
    return _planar(1, 5, point(0, 1, 1 + z))


def _sigma(z, zb, r):
    return _planar(z)


def _s(z, zb, r):
    """Line triple (z X0 + X1, 2z X0 + X1, X0) as dual covectors."""
    return config(point(z, 1, 0), point(2 * z, 1, 0), point(1, 0, 0))


def _Lambda(z, zb, r):
    """Null-homotopy of the doubled line loop: duals ((kz-r) X0 + (zbar+kr) X1, z X0 + r X1)."""
    return config(
        point(z - r, zb + r, 0),
        point(2 * z - r, zb + 2 * r, 0),
        point(z, r, 0),
    )


def _Lambda_tilde(z, zb, r):
    return config(
        point(-zb - r, z - r, zb), point(-zb - r, z - r, zb + 1),
        point(-zb - 2 * r, 2 * z - r, zb), point(-zb - 2 * r, 2 * z - r, zb + 1),
        point(-r, z, z), point(-r, z, z + 1),
    )


def _Lambda_tilde_S1(z, zb, r):
    z2 = z * z
    return config(
        point(-1, z2, 1), point(-1, z2, 1 + z),
        point(-1, 2 * z2, 1), point(-1, 2 * z2, 1 + z),
        A30, point(0, 1, 1 + zb),
    )


# --- L: the cylinder between (alpha^-1 * beta^-1) * gamma and (sigma*sigma) * restriction^-1

def _L2_arc(k):
    return Arc(2, lambda t: (t + k - 1) * np.pi / k,
               lambda th, t: 1 + np.exp(4j * ((2 - k) * t * np.pi - th) / (1 + t)),
               lambda t: (1 + (5 - 2 * k) * t) * np.pi / (3 - k), 2)


L_ARCS = {
    "L1": Arc(lambda th, t: np.exp(4j * th), lambda t: t * np.pi,
              lambda th, t: np.exp(4j * t * np.pi), lambda t: (2 - t) * np.pi,
              lambda th, t: np.exp(-4j * th)),
    "L2_1": _L2_arc(1),
    "L2_2": _L2_arc(2),
    "B3": Arc(2, np.pi, lambda th, t: 1 + np.exp(2j * th)),
}


def _L(z, zb, r, L1, L2_1, L2_2, B3):
    return config(
        point(-1, L1, 1), point(-1, L1, L2_1),
        point(-1, 2 * L1, 1), point(-1, 2 * L1, L2_2),
        A30, point(0, 1, B3),
    )


# --- epsilon, eta and the conjugation cylinders K: sigma(epsilon) with B_k moved

EPSILON_ARC = Arc(lambda th, t: np.exp(3j * th), lambda t: 2 * t * np.pi / 3,
                  lambda th, t: np.exp(2j * t * np.pi), lambda t: 2 * (3 - t) * np.pi / 3,
                  lambda th, t: np.exp(-3j * th))
ETA_ARC = Arc(2, 2 * np.pi / 3, lambda th, t: 1 + np.exp(3j * th), 4 * np.pi / 3, 2)
K_ARCS = {"epsilon": EPSILON_ARC, "eta": ETA_ARC}


def _K_alpha(z, zb, r, epsilon, eta):
    return _planar(epsilon, 1, point(-1, epsilon, eta))


def _K_beta(z, zb, r, epsilon, eta):
    return _planar(epsilon, 3, point(-1, 2 * epsilon, eta))


def _K_gamma(z, zb, r, epsilon, eta):
    return _planar(epsilon, 5, point(0, 1, eta))


# --- Phi and its lift

def _Phi(z, zb, r):
    return point(0, r, z)


def _Phi_tilde(z, zb, r):
    pts = []
    for k in (1, 2):
        pts.append(point(-1, (2 * k + 1) * r + k * zb, (2 * k + 1) * z + k * (r - 2)))
        pts.append(point(-1, (2 * k + 2) * r + k * zb, (2 * k + 2) * z + k * (r - 2)))
    pts.append(point(-r, zb + 4 * r, 4 * z - 3 * (r + 1)))
    pts.append(point(-r, zb + 5 * r, 5 * z - 3 * (r + 1)))
    return config(*pts)


def _Phi_tilde_S1(z, zb, r):
    return config(
        point(-1, zb, 3 * z - 2), point(-1, zb, 4 * z - 2),
        point(-1, 2 * zb, 5 * z - 4), point(-1, 2 * zb, 6 * z - 4),
        point(0, zb, 4 * z - 3), point(0, zb, 5 * z - 3),
    )


# --- H: the cylinder between the triple concatenation and Phi_tilde|S1 * sigma

def _H1_arc(k):
    return Arc(lambda th, t: k * np.exp(-2j * th), lambda t: t * np.pi,
               lambda th, t: k * np.exp(-2j * t * np.pi), lambda t: (2 - t) * np.pi,
               lambda th, t: k * np.exp(2j * th))


def _H2_arc(k):
    return Arc(lambda th, t: 1 + (2 * k + 1) * t * (np.exp(2j * th) - 1), np.pi, 1)


H_ARCS = {
    "H1_1": _H1_arc(1),
    "H1_2": _H1_arc(2),
    "H2_1": _H2_arc(1),
    "H2_2": _H2_arc(2),
    "H3": Arc(lambda th, t: 1 + t * (4 * np.exp(4j * th) - 3 * np.exp(2j * th) - 1), np.pi, 1),
    "H4_1": Arc(lambda th, t: np.exp(4j * th / (1 + t)), lambda t: (1 + t) * np.pi / 2, 1),
    "H4_2": Arc(1, lambda t: (1 - t) * np.pi / 2,
                lambda th, t: np.exp(2j * (2 * th - (1 - t) * np.pi) / (1 + t)), np.pi, 1),
    "H5": Arc(1, lambda t: (1 - t) * np.pi, lambda th, t: np.exp(4j * (th - (1 - t) * np.pi)),
              lambda t: (2 - t) * np.pi, 1),
}


def _H(z, zb, r, H1_1, H1_2, H2_1, H2_2, H3, H4_1, H4_2, H5):
    return config(
        point(-1, H1_1, H2_1), point(-1, H1_1, H2_1 + H4_1),
        point(-1, H1_2, H2_2), point(-1, H1_2, H2_2 + H4_2),
        point(0, 1, H3), point(0, 1, H3 + H5),
    )


# --- the Grassmannian generator Pi and its lift (ambient CP^3)

def _Pi(z, zb, r):
    """Moving plane (1-|z|) X1 + z X3 = 0 through [0:0:1:0], as a covector."""
    return point(0, r, 0, z)


def _Pi_tilde(z, zb, r):
    lead = 2 * r * np.abs(z) - 1
    return config(
        point(lead, z, 1, -r), point(lead, z, 2, -r),
        point(lead, 2 * z, 1, -2 * r), point(lead, 2 * z, 2, -2 * r),
        point(0, z, z, -r), point(0, z, z + 1, -r),
    )


# --- M: the cylinder connecting the simultaneous product to sigma * gamma^-1

M_ARCS = {
    "m1": Arc(lambda th, t: np.exp(2j * th / (2 - t)), lambda t: (2 - t) * np.pi, 1),
    "m2": Arc(1, lambda t: t * np.pi, lambda th, t: np.exp(2j * (t * np.pi - th) / (2 - t))),
}


def _M(z, zb, r, m1, m2):
    return _planar(m1, 5, point(0, 1, 1 + m2))


# --- solid items (ambient CP^3): F, B, their lifts, Psi and its lift

def _F(z, zb, r):
    """Line triple (d1 fixed; z X0 - r X1 = 0 = X3; r X0 + zbar X1 = 0 = X3), six span points."""
    return config(point(0, 0, 1, 0), point(0, 0, 0, 1), point(r, z, 0, 0), point(0, 0, 1, 0),
                  point(zb, -r, 0, 0), point(0, 0, 1, 0))


def _B(z, zb, r):
    return config(point(r, 0, 0, z), point(0, 0, 1, 0), point(0, 1, 0, 0), point(0, 0, 1, 0),
                  point(zb, 0, 0, -r), point(0, 0, 1, 0))


def _F_tilde(z, zb, r):
    return config(
        point(0, 0, 0, 1), point(0, 0, 1, 1),
        point(r, z, 0, 0), point(r, z, 1, 0),
        point(zb, -r, 0, 0), point(zb, -r, 1, 0),
    )


def _B_tilde(z, zb, r):
    return config(
        point(r, 0, 0, z), point(r, 0, 1, z),
        point(0, 1, 0, 0), point(0, 1, 1, 0),
        point(zb, 0, 0, -r), point(zb, 0, 1, -r),
    )


def _Psi(z, zb, r):
    return point(r, 0, z, 0)


def _Psi_tilde(z, zb, r):
    return config(
        point(0, 0, 0, 1), point(r, 0, z, 1),
        point(0, 1, 0, 0), point(r, 1, z, 0),
        point(zb, 0, -r, 0), point(r + zb, 0, z - r, 0),
    )


# --- the CP^4 hyperplane generator Sigma and its lift

def _Sigma(z, zb, r):
    """Hyperplane r X1 - z X4 = 0 through [0:0:1:0:0], as a covector."""
    return point(0, r, 0, 0, -z)


def _Sigma_tilde(z, zb, r):
    return config(
        point(0, 0, 0, 1, 0), point(0, 0, 1, 1, 0),
        point(0, z, 0, 0, r), point(0, z, 1, 0, r),
        point(1, 0, 0, 0, 0), point(1, 0, 1, 0, 0),
    )


def _constant(rows):
    """A base point as a formula: the same value at every parameter."""
    return lambda z, zb, r: np.broadcast_to(rows, z.shape + rows.shape).copy()


# ---------------------------------------------------------------------------
# trivializations (parametric maps rather than loops)

def phi_triv(centers, configs) -> np.ndarray:
    """Coordinate trivialization of the center fibration over CP^2 \\ {X2 = 0},
    batched over samples.

    Input: target centers I = [s:t:1] (N, 3) and configurations (N, 6, 3)
    with center [0:0:1].  Representatives are rescaled so A_i and B_i share
    the leading two coordinates (n_i, -m_i) of their line; the output point
    for value a is [n + s a : -m + t a : a].  Polynomial in (s, t), hence
    continuous across the singular locus of the geometric construction.
    Returns the (N, 6, 3) output configurations.
    """
    c = np.asarray(centers, dtype=np.complex128)
    pts = np.asarray(configs, dtype=np.complex128)
    if c.shape[-1] != 3 or pts.shape[-1] != 3:
        raise ValueError("phi_triv works in CP^2")
    if np.any(np.abs(c[:, 2]) < 1e-12 * np.max(np.abs(c), axis=-1)):
        raise ValueError("center lies on the reference line X2 = 0")
    s, t = c[:, 0, None] / c[:, 2, None], c[:, 1, None] / c[:, 2, None]
    a_raw, b_raw = pts[:, 0::2], pts[:, 1::2]                      # (N, 3, 3)
    # scale each B_i so both representatives carry the same (n, -m) head
    lead = np.argmax(np.abs(a_raw[..., :2]), axis=-1)[..., None]
    ratio = np.take_along_axis(a_raw, lead, -1) / np.take_along_axis(b_raw, lead, -1)
    vals = np.stack([a_raw[..., 2], b_raw[..., 2] * ratio[..., 0]], axis=-1).reshape(-1, 6)
    n, mneg = (np.repeat(a_raw[..., k], 2, axis=-1) for k in (0, 1))
    return np.stack([n + s * vals, mneg + t * vals, vals], axis=-1)


def phi_triv_geometric(centers, configs) -> np.ndarray:
    """Ruler construction behind phi_triv, valid away from its singular locus
    and batched like it: with l = {X2 = 0}, D_i = l cap d_i, Q = l cap (I0 I),
    d_i' = I D_i and A_i' = (Q A_i) cap d_i'."""
    c, u = (unit_rows(np.asarray(a, dtype=np.complex128)).T for a in (centers, configs))
    e0, e1 = _c(1, 0, 0)[:, None], _c(0, 1, 0)[:, None]        # span l
    q = meet(e0, e1, I0_PLANAR[:, None], c)[0]
    out = []
    for i in range(3):
        a, b = u[:, 2 * i], u[:, 2 * i + 1]
        big_d = meet(e0, e1, a, b)[0]
        out += [meet(q, p, c, big_d)[0] for p in (a, b)]
    return np.stack(out, axis=1).T


def _project_from(q, points, h):
    """Central projection from the point q onto the hyperplane h . X = 0,
    batched: the point where the line q x meets it, (h . q) x - (h . x) q.
    In CP^2, where hyperplanes are lines, this is cross(cross(q, x), h)."""
    x, h = (unit_rows(np.asarray(a, dtype=np.complex128)) for a in (points, h))
    return np.sum(h * q, axis=-1)[..., None] * x - np.sum(h * x, axis=-1)[..., None] * q


PSI_TRIV_Q = _c(1, 1, 1)


def psi_triv(duals, configs) -> np.ndarray:
    """Trivialization of the line fibration, batched over samples: project
    the reference fiber points from Q = [1:1:1] onto the target lines,
    A_i = d_i cap (Q A_i^0).

    duals: (N, 3, 3) covectors of target lines through [0:0:1]; configs:
    (N, 6, 3) reference points (A_i^0, B_i^0) on the base lines.  Returns
    the (N, 6, 3) output configurations.
    """
    return _project_from(PSI_TRIV_Q, configs, np.repeat(duals, 2, axis=-2))


GR_TRIV_Q = _c(0, 0, 0, 1)    # projection center, inside H: X2 = 0
GR_TRIV_P0 = _c(0, 0, 0, 1)   # reference plane X3 = 0 (covector)


def gr_triv(planes, configs) -> np.ndarray:
    """Projection-from-Q trivialization of the plane fibration in CP^3,
    batched over samples.

    planes: (N, 4) covectors of planes P through [0:0:1:0] with Q not on P;
    configs: (N, 6, 4) configurations inside the reference plane X3 = 0 with
    center [0:0:1:0].  The geometric construction C_i = (Q v (d_i cap l0))
    cap l with l = P cap H, d_i' = I C_i, A_i' = (Q v A_i) cap d_i' sends
    A_i to the point where Q A_i meets P: Q A_i lies in the plane Q v d_i,
    which meets P in d_i'.  Returns the (N, 6, 4) output configurations.
    """
    u = np.asarray(planes, dtype=np.complex128)
    norm = np.linalg.norm(u, axis=-1)
    if np.any(np.abs(u @ I0_SOLID) > 1e-9 * norm):
        raise ValueError("plane does not contain the center")
    if np.any(np.abs(u @ GR_TRIV_Q) < 1e-12 * norm):
        raise ValueError("plane meets the projection center Q")
    return _project_from(GR_TRIV_Q, configs, u[:, None, :])


# ---------------------------------------------------------------------------
# registry

@dataclass
class AtlasItem:
    id: str
    kind: str                     # loop | disk | cylinder | map | basepoint
    # config | lines_dual | lines_span | scalar: compared by paths.value_dist;
    # point | plane: only evaluated (Phi, Psi; Pi, Sigma)
    value_kind: str
    target: Optional[SpaceTag]
    formula: Optional[Callable] = None   # formula(z, zb, r, **arcs): the printed coordinates
    arcs: dict = field(default_factory=dict)     # arc name -> Arc, read by the formula
    based: bool = False           # closed loop through the registered base point
    aliases: tuple = ()
    notes: str = ""

    def eval(self, theta, t=None, rho=None, side="right"):
        """Values at angles ``theta`` and disk radii ``rho`` (1 when not
        given) or cylinder parameters ``t``; ``side`` picks the piece that
        owns an arc breakpoint.  A bare point or plane (Phi, Pi, Psi,
        Sigma) is written here, into a C-contiguous (..., m) array."""
        if self.formula is None:
            raise AtlasError(f"{self.id} is not a parametric item")
        theta = np.asarray(theta, dtype=float)
        rho = np.asarray(1.0 if rho is None else rho, dtype=float)
        z = rho * np.exp(1j * theta)
        arcs = {name: arc(theta, t, side) for name, arc in self.arcs.items()}
        v = self.formula(z, np.conj(z), 1.0 - rho, **arcs)
        return config(v)[..., 0, :] if self.value_kind in ("point", "plane") else v


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
        AtlasItem("alpha", "loop", "config", TAG_PLANAR_FIXED_2, _alpha, based=True),
        AtlasItem("beta", "loop", "config", TAG_PLANAR_FIXED_2, _beta, based=True),
        AtlasItem("gamma", "loop", "config", TAG_PLANAR_FIXED_2, _gamma, based=True),
        AtlasItem("sigma", "loop", "config", TAG_PLANAR_FIXED_2, _sigma, based=True),
        AtlasItem("s", "loop", "lines_dual", TAG_LINES_I0, _s, based=True),
        AtlasItem("Lambda", "disk", "lines_dual", TAG_LINES_I0, _Lambda),
        AtlasItem("Lambda_tilde", "disk", "config", TAG_PLANAR_FIXED_2, _Lambda_tilde),
        AtlasItem("sigma_tilde_Lambda", "loop", "config", TAG_PLANAR_FIXED_2,
                  _Lambda_tilde_S1, based=True, aliases=("Lambda_tilde_S1",),
                  notes="circle restriction of Lambda_tilde, as printed"),
        AtlasItem("L", "cylinder", "config", TAG_PLANAR_FIXED_2, _L, L_ARCS, based=True),
        AtlasItem("epsilon", "cylinder", "scalar", None, lambda z, zb, r, epsilon: epsilon,
                  {"epsilon": EPSILON_ARC}),
        AtlasItem("eta", "loop", "scalar", None, lambda z, zb, r, eta: eta, {"eta": ETA_ARC}),
        AtlasItem("K_alpha", "cylinder", "config", TAG_PLANAR_FIXED_2, _K_alpha, K_ARCS,
                  based=True),
        AtlasItem("K_beta", "cylinder", "config", TAG_PLANAR_FIXED_2, _K_beta, K_ARCS,
                  based=True),
        AtlasItem("K_gamma", "cylinder", "config", TAG_PLANAR_FIXED_2, _K_gamma, K_ARCS,
                  based=True),
        AtlasItem("Phi", "disk", "point", None, _Phi,
                  notes="generator disk in CP^2; boundary circle collapses to the center"),
        AtlasItem("Phi_tilde", "disk", "config", TAG_PLANAR_2, _Phi_tilde),
        AtlasItem("Phi_tilde_S1", "loop", "config", TAG_PLANAR_FIXED_2, _Phi_tilde_S1,
                  based=True),
        AtlasItem("H", "cylinder", "config", TAG_PLANAR_FIXED_2, _H, H_ARCS, based=True),
        AtlasItem("Pi", "disk", "plane", None, _Pi),
        AtlasItem("Pi_tilde", "disk", "config", TAG_PLANAR_FIXED_3, _Pi_tilde),
        AtlasItem("Pi_tilde_S1", "loop", "config", TAG_PLANAR_FIXED_3, _Pi_tilde, based=True),
        AtlasItem("M", "cylinder", "config", TAG_PLANAR_FIXED_2, _M, M_ARCS, based=True),
        AtlasItem("F", "disk", "lines_span", TAG_LINES_I0_SOLID, _F),
        AtlasItem("B", "disk", "lines_span", TAG_LINES_I0_SOLID, _B),
        AtlasItem("F_tilde", "disk", "config", TAG_SOLID_FIXED_3, _F_tilde),
        AtlasItem("B_tilde", "disk", "config", TAG_SOLID_FIXED_3, _B_tilde),
        AtlasItem("F_tilde_S1", "loop", "config", TAG_SOLID_FIXED_3, _F_tilde, based=True),
        AtlasItem("B_tilde_S1", "loop", "config", TAG_SOLID_FIXED_3, _B_tilde, based=True),
        AtlasItem("Psi", "disk", "point", None, _Psi,
                  notes="generator disk in CP^3; boundary circle collapses to the center"),
        AtlasItem("Psi_tilde", "disk", "config", TAG_SOLID_3, _Psi_tilde),
        AtlasItem("Psi_tilde_S1", "loop", "config", TAG_SOLID_FIXED_3, _Psi_tilde, based=True),
        AtlasItem("Sigma", "disk", "plane", None, _Sigma),
        AtlasItem("Sigma_tilde", "disk", "config", TAG_SOLID_FIXED_4, _Sigma_tilde),
        AtlasItem("Sigma_tilde_S1", "loop", "config", TAG_SOLID_FIXED_4, _Sigma_tilde,
                  based=True),
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
           "winding": "vectors of the t=0 end agree with the undecorated loop",
           "fiber_winding(K_alpha@t=0)": [1, 0, 0],
           "fiber_winding(K_beta@t=0)": [0, 1, 0],
           "fiber_winding(K_gamma@t=0)": [0, 0, 1]},
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

def claim(claim_id: str) -> Claim:
    try:
        return _CLAIMS_BY_ID[claim_id]
    except KeyError:
        raise AtlasError(f"unknown claim {claim_id!r}") from None


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
