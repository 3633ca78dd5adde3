"""Complex projective arithmetic: homogeneous points, two-point lines,
incidence, spans, brackets, and tolerance-aware equality.

Points live in CP^n as nonzero vectors of n+1 complex binary64 entries,
compared up to scale with the chordal (Fubini-Study sine) metric.  All
predicates report margins so callers can quantify how far a configuration
sits from a degenerate position.  Everything here is pure and operates on
immutable values; batched variants (suffix ``_batch``) take arrays shaped
``(..., k, n+1)`` and vectorize over the leading axes.
"""

from __future__ import annotations

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


class DegenerateSpanError(ProjectiveError):
    """Raised when points expected to span a line (etc.) coincide."""


class NoIntersectionError(ProjectiveError):
    """Raised when two lines do not meet (skew lines in CP^3 or higher)."""


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
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive")
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


class PLine:
    """A projective line stored as an ordered span of two distinct points.

    Works uniformly in every CP^n; the dual covector form is available in
    CP^2 via :meth:`dual`.
    """

    __slots__ = ("p", "q")

    def __init__(self, p: HPoint, q: HPoint, tol: Tolerances = DEFAULT_TOL):
        if p.ambient_dim != q.ambient_dim:
            raise DimensionMismatchError("line endpoints in different ambient spaces")
        if proj_dist(p, q) <= tol.proj_eq_tol:
            raise DegenerateSpanError("coincident points do not span a line")
        self.p = p
        self.q = q

    @property
    def ambient_dim(self) -> int:
        return self.p.ambient_dim

    def dual(self) -> HPoint:
        """Dual covector of a line in CP^2 (coefficients of its equation)."""
        if self.ambient_dim != 2:
            raise DimensionMismatchError("dual covector form only in CP^2")
        return HPoint(np.cross(self.p.coords, self.q.coords))

    def span(self) -> np.ndarray:
        return np.stack([self.p.unit(), self.q.unit()])

    def __repr__(self) -> str:
        return f"PLine({self.p!r}, {self.q!r})"


def line_from_dual(cov, tol: Tolerances = DEFAULT_TOL) -> PLine:
    """Line in CP^2 with equation cov . X = 0, as a two-point span.

    The three cross products cov x e_i span the two-dimensional solution
    space, so some pair of them is independent; pick the largest as the
    first point and the farthest (chordally) as the second.
    """
    c = np.asarray(cov, dtype=np.complex128)
    if c.shape != (3,):
        raise DimensionMismatchError("dual covector must have 3 entries")
    crosses = [np.cross(c, e) for e in np.eye(3)]
    crosses.sort(key=lambda v: -np.linalg.norm(v))
    p = HPoint(crosses[0])
    q = max((HPoint(v) for v in crosses[1:] if np.linalg.norm(v) > 1e-14 * np.linalg.norm(c)),
            key=lambda h: proj_dist(p, h))
    if proj_dist(p, q) <= tol.proj_eq_tol:
        raise DegenerateSpanError("could not build two distinct points on line")
    return PLine(p, q, tol)


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


# ---------------------------------------------------------------------------
# point/line operations

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


def line_through(p: HPoint, q: HPoint, tol: Tolerances = DEFAULT_TOL) -> PLine:
    """The unique line through two projectively distinct points."""
    _check_same_dim(p, q)
    return PLine(p, q, tol)


def on_line(x: HPoint, line: PLine, tol: Tolerances = DEFAULT_TOL):
    """Incidence test; returns (bool, margin) where margin is the smallest
    relative singular value of the stacked representatives."""
    if x.ambient_dim != line.ambient_dim:
        raise DimensionMismatchError("point and line in different ambient spaces")
    rows = np.stack([x.unit(), line.p.unit(), line.q.unit()])
    residual = float(relative_singular_values(rows)[2])
    return residual <= tol.rank_rel_tol, residual


def meet_lines(l1: PLine, l2: PLine, tol: Tolerances = DEFAULT_TOL) -> HPoint:
    """Unique intersection point of two distinct coplanar lines."""
    if l1.ambient_dim != l2.ambient_dim:
        raise DimensionMismatchError("lines in different ambient spaces")
    four = np.stack([l1.p.unit(), l1.q.unit(), l2.p.unit(), l2.q.unit()])
    rel = relative_singular_values(four)
    if rel[1] <= tol.rank_rel_tol:
        raise DegenerateSpanError("degenerate line spans")
    if rel[2] <= tol.rank_rel_tol:
        raise DegenerateSpanError("identical lines have no unique meet")
    if four.shape[1] > 3 and rel[3] > tol.rank_rel_tol:
        raise NoIntersectionError("skew lines (four points span a 3-space)")
    # x = a p1 + b q1 = c p2 + d q2: null vector of the (n+1) x 4 column stack.
    cols = np.stack(
        [l1.p.unit(), l1.q.unit(), -l2.p.unit(), -l2.q.unit()], axis=1
    )
    _, _, vh = np.linalg.svd(cols)
    a, b = vh[-1, 0].conj(), vh[-1, 1].conj()
    x = a * l1.p.unit() + b * l1.q.unit()
    if np.linalg.norm(x) < 1e-8:
        raise NoIntersectionError("meet computation degenerated")
    pt = HPoint(x)
    ok1, r1 = on_line(pt, l1, tol)
    ok2, r2 = on_line(pt, l2, tol)
    if not (ok1 and ok2):
        raise NoIntersectionError(
            f"no common point within tolerance (residuals {r1:.3g}, {r2:.3g})"
        )
    return pt


def bracket(p: HPoint, q: HPoint, r: HPoint) -> complex:
    """3x3 determinant of homogeneous representatives in CP^2.

    Vanishes exactly on collinear triples; depends on the chosen
    representatives only up to a nonzero scalar per argument.
    """
    for x in (p, q, r):
        if x.ambient_dim != 2:
            raise DimensionMismatchError("bracket requires ambient CP^2")
    return bracket_rows(p.coords, q.coords, r.coords)


def bracket_rows(a, b, c):
    """Cofactor-expansion 3x3 determinant, batched over leading axes."""
    det = (
        a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
        - a[..., 1] * (b[..., 0] * c[..., 2] - b[..., 2] * c[..., 0])
        + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0])
    )
    return complex(det) if np.ndim(det) == 0 else det
