"""Complex projective arithmetic: homogeneous points, the meet of two
lines, incidence, spans, brackets, and tolerance-aware equality.

Points live in CP^n as nonzero vectors of n+1 complex binary64 entries,
compared up to scale with the chordal (Fubini-Study sine) metric.  All
predicates report margins so callers can quantify how far a configuration
sits from a degenerate position.  Everything here is pure and operates on
immutable values; batched variants (suffix ``_batch``) take arrays shaped
``(..., k, n+1)`` and vectorize over the leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Representatives with max modulus below this are treated as the zero vector.
ZERO_FLOOR = 1e-300
# Euclidean norms outside this range lose digits or overflow when squared.
SAFE_NORM = (1e-150, 1e150)


class ProjectiveError(ValueError):
    """Base class for geometric errors in this package."""


class DimensionMismatchError(ProjectiveError):
    pass


class ZeroVectorError(ProjectiveError):
    pass


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds shared by every predicate.

    proj_eq_tol   chordal distance below which two points are the same
    rank_rel_tol  relative singular-value cutoff for numerical rank
    margin_warn   margins below this are flagged in reports
    """

    proj_eq_tol: float = 1e-9
    rank_rel_tol: float = 1e-8
    margin_warn: float = 1e-6

    def __post_init__(self):
        for name in ("proj_eq_tol", "rank_rel_tol", "margin_warn"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
        if not self.proj_eq_tol < 1.0:
            raise ValueError("proj_eq_tol must be < 1")


DEFAULT_TOL = Tolerances()


class HPoint:
    """A point of CP^n stored as a raw homogeneous representative.

    The representative is kept exactly as supplied (callers often want the
    coordinates of a printed formula unchanged); scale only matters for
    serialization, where :meth:`normalized` fixes a canonical form.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.array(coords, dtype=np.complex128)
        if c.ndim != 1 or c.size < 2:
            raise DimensionMismatchError(
                f"homogeneous vector must be 1-d with >= 2 entries, got shape {c.shape}"
            )
        peak = np.max(np.abs(c))
        if not np.isfinite(peak):
            raise ProjectiveError("homogeneous vector has a non-finite entry")
        if not peak >= ZERO_FLOOR:
            raise ZeroVectorError("homogeneous vector is (numerically) zero")
        c.setflags(write=False)
        self.coords = c

    @property
    def ambient_dim(self) -> int:
        return self.coords.size - 1

    def unit(self) -> np.ndarray:
        """Representative scaled to unit Euclidean norm."""
        n = _norm(self.coords)     # rounds unlike unit_rows' row sums; kept for in-range points
        return self.coords / n if SAFE_NORM[0] < n < SAFE_NORM[1] else unit_rows(self.coords)

    def normalized(self) -> np.ndarray:
        """Canonical representative: unit norm, first significant coordinate
        rotated onto the positive real axis.  Used for deterministic output."""
        u = self.unit()
        mags = np.abs(u)
        idx = int(np.argmax(mags >= 1e-9 * mags.max()))
        phase = u[idx] / abs(u[idx])
        return u / phase

    def to_json(self) -> list:
        return [[float(v.real), float(v.imag)] for v in self.normalized()]

    @classmethod
    def from_json(cls, pairs) -> "HPoint":
        return cls([complex(re, im) for re, im in pairs])

    def __repr__(self) -> str:
        entries = ":".join(f"{v:.6g}" for v in self.coords)
        return f"[{entries}]"


# ---------------------------------------------------------------------------
# batched helpers (arrays of representatives, leading axes broadcast)

def _norm(a, **axes):
    """Euclidean norm; an overflow to inf is expected and handled by callers."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(a, **axes)


def unit_rows(a: np.ndarray) -> np.ndarray:
    """Normalize the last axis to unit Euclidean norm.  Rows whose norm
    under- or overflows in binary64 are first divided by their largest
    modulus, so the result does not depend on the representative's scale."""
    n = _norm(a, axis=-1, keepdims=True)
    far = (n < SAFE_NORM[0]) | (n > SAFE_NORM[1])
    if np.any(far):
        peak = np.max(np.abs(a), axis=-1, keepdims=True)
        if np.any(far & (peak < ZERO_FLOOR)):
            raise ZeroVectorError("zero representative in batch")
        a = np.where(far, a / np.where(far, peak, 1.0), a)
        n = np.where(far, np.linalg.norm(a, axis=-1, keepdims=True), n)
    return a / n


def chordal_batch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Chordal distance of unit-normalized representatives, elementwise.

    Computed as the norm of the component of u orthogonal to v, which equals
    sqrt(1 - |<u,v>|^2) but stays accurate near zero (the naive form cannot
    resolve distances below sqrt(machine epsilon)).
    """
    ip = np.sum(u * np.conj(v), axis=-1)
    w = u - ip[..., None] * v
    return np.clip(np.linalg.norm(w, axis=-1), 0.0, 1.0)


def relative_singular_values(rows: np.ndarray) -> np.ndarray:
    """Singular values of stacked representatives divided by the largest,
    batched over leading axes: ``[..., r]`` is the numerical-rank margin of
    rank r + 1."""
    s = np.linalg.svd(rows, compute_uv=False)
    return s / s[..., :1]


def meet(p1, q1, p2, q2):
    """Meet of the lines p1 q1 and p2 q2, batched over leading axes.

    The arguments are unit representatives (..., n+1).  The meet is the
    null vector (a, b, c, d) of the columns [p1, q1, -p2, -q2], read as
    a p1 + b q1.  Returns the unit meet point, the skew residual (the
    fourth relative singular value of the columns: zero when the lines are
    coplanar, and always zero in CP^2) and the mask of nodes where the meet
    is defined (a p1 + b q1 does not vanish, so p1 q1 spans a line that
    meets p2 q2 in one point).
    """
    p1, q1, p2, q2 = np.broadcast_arrays(p1, q1, p2, q2)
    cols = np.stack([p1, q1, -p2, -q2], axis=-1)  # (..., n+1, 4)
    _, s, vh = np.linalg.svd(cols)
    skew = s[..., 3] / s[..., 0] if cols.shape[-2] > 3 else np.zeros(s.shape[:-1])
    ab = np.conj(vh[..., -1, :2])
    point = ab[..., 0, None] * p1 + ab[..., 1, None] * q1
    norm = np.linalg.norm(point, axis=-1, keepdims=True)
    degenerate = norm[..., 0] < 1e-12
    norm[degenerate] = 1.0
    return point / norm, skew, ~degenerate


# ---------------------------------------------------------------------------
# point operations

def _check_same_dim(p: HPoint, q: HPoint):
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {p.ambient_dim} vs {q.ambient_dim}"
        )


def proj_dist(p: HPoint, q: HPoint) -> float:
    """Chordal (Fubini-Study sine) distance in [0, 1]:
    sqrt(1 - |<p,q>|^2 / (|p|^2 |q|^2)).  Zero iff the representatives are
    proportional, one for orthogonal ones; symmetric by construction.
    """
    _check_same_dim(p, q)
    return float(chordal_batch(p.unit(), q.unit()))


def span_dim(points, tol: Tolerances = DEFAULT_TOL) -> int:
    """Projective dimension of the span: numerical rank minus one."""
    pts = list(points)
    if not pts:
        raise ProjectiveError("span_dim of empty point list")
    dim = pts[0].ambient_dim
    for p in pts[1:]:
        if p.ambient_dim != dim:
            raise DimensionMismatchError("mixed ambient dimensions in span_dim")
    rows = np.stack([p.unit() for p in pts])
    rank = int(np.sum(relative_singular_values(rows) > tol.rank_rel_tol))
    return rank - 1


def bracket_rows(a, b, c):
    """Cofactor-expansion 3x3 determinant of CP^2 representatives, batched
    over leading axes.  Vanishes exactly on collinear triples; depends on
    the representatives only up to a nonzero scalar per argument."""
    return (
        a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
        - a[..., 1] * (b[..., 0] * c[..., 2] - b[..., 2] * c[..., 0])
        + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0])
    )
