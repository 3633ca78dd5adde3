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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Representatives with max modulus below this are treated as the zero vector.
ZERO_FLOOR = 1e-300
# Euclidean norms outside this range lose digits or overflow when squared.
SAFE_NORM = (1e-150, 1e150)
EPS = np.finfo(np.float64).eps
# Nodes per pass of rank3_screen.  Its temporaries stay a few MB, and every
# complex vector stays below numpy's 256 KiB threshold for reusing
# temporaries in place, past which a complex product rounds differently;
# so a node's screened values do not depend on the size of its batch.
_SCREEN_CHUNK = 2048


def is_int(value) -> bool:
    """An integer that is not a bool (JSON true and false read as 1 and 0)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
            if not is_real(value):
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
    def from_json(cls, pairs, field: str = "point") -> "HPoint":
        """Read a point written as [re, im] pairs of real numbers; ``field``
        names it in the error."""
        if not (isinstance(pairs, list) and all(
                isinstance(z, list) and len(z) == 2 and all(map(is_real, z)) for z in pairs)):
            raise ValueError(f"{field} must be a list of [re, im] pairs of numbers, got {pairs!r}")
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


def _cross(a, b):
    """Bilinear cross product over the last axis of CP^2 representatives.
    np.cross gives the same values, but its three calls in ``meet`` cost
    twice the SVD they replace on a one-node batch.  Every product takes
    views of the arguments, never a temporary, so no product is computed in
    place and a node's value does not depend on the size of its batch."""
    return np.stack([a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)


def meet(p1, q1, p2, q2):
    """Meet of the lines p1 q1 and p2 q2, batched over leading axes.

    The arguments are unit representatives (..., n+1).  In CP^2 the meet is
    the cross product (p1 x q1) x (p2 x q2).  Above CP^2 it is the null
    vector (a, b, c, d) of the columns [p1, q1, -p2, -q2], read as
    a p1 + b q1.  Returns the unit meet point, the skew residual (the fourth
    relative singular value of the columns: zero when the lines are
    coplanar, and zero in CP^2) and the mask of nodes where the meet is
    defined, i.e. p1 q1 spans a line that meets p2 q2 in one point.  Above
    CP^2 that is an unnormalized point of norm at least 1e-12.  In CP^2 it
    is a test of scale-free quantities, each at least 1e-12: the chordal
    distance of each pair, which is |p x q| for unit p and q, and the sine
    of the angle between the lines, |l1 x l2| / (|l1| |l2|).  The norm of
    the unnormalized CP^2 point is the product of all three, which would
    fail an absolute cutoff for two close pairs on two distinct lines.
    Undefined points of norm below 1e-12 are returned unnormalized.
    """
    p1, q1, p2, q2 = np.broadcast_arrays(p1, q1, p2, q2)
    if p1.shape[-1] == 3:
        l1, l2 = _cross(p1, q1), _cross(p2, q2)
        point = _cross(l1, l2)
        skew = np.zeros(point.shape[:-1])
    else:
        cols = np.stack([p1, q1, -p2, -q2], axis=-1)  # (..., n+1, 4)
        _, s, vh = np.linalg.svd(cols)
        skew = s[..., 3] / s[..., 0] if cols.shape[-2] > 3 else np.zeros(s.shape[:-1])
        ab = np.conj(vh[..., -1, :2])
        point = ab[..., 0, None] * p1 + ab[..., 1, None] * q1
    norm = np.linalg.norm(point, axis=-1, keepdims=True)
    tiny = norm[..., 0] < 1e-12
    if p1.shape[-1] == 3:
        n1, n2 = np.linalg.norm(l1, axis=-1), np.linalg.norm(l2, axis=-1)
        defined = (n1 >= 1e-12) & (n2 >= 1e-12) & (norm[..., 0] >= 1e-12 * n1 * n2)
    else:
        defined = ~tiny
    norm[tiny & ~defined] = 1.0
    return point / norm, skew, defined


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


def rank3_screen(rows: np.ndarray, stacks) -> tuple:
    """Closed-form third relative singular value of stacks of CP^2 rows,
    with an error bound and no LAPACK call.

    ``rows`` (N, r, 3) are unit representatives; each of ``stacks`` is a
    tuple of at least three row indices.  Returns ``est`` and ``err``, both
    (N, len(stacks)): ``relative_singular_values(rows[:, s])[..., 2]``, as
    LAPACK computes it, lies within ``err`` of ``est``.  A node whose bound
    cannot be formed gets est 0 and err inf.

    For a stack M of k rows let G = M^H M, with eigenvalues l0 >= l1 >= l2
    (the squared singular values):
    - sqrt(l0 l1 l2) = sqrt(det G) is the norm of the vector of brackets of
      the stack's row triples (Cauchy-Binet).  It keeps its absolute
      accuracy down to zero; det G from the entries of G, or l2 from Smith's
      formula, would not (a sqrt(eps) floor).
    - l0 and l1 come from Smith's formula for 3x3 Hermitian matrices
      (CACM 4(4), 1961), with the deviatoric norm p taken from the entries
      of G - qI rather than from tr^2 - 3 e2.
    - est = sqrt(det G) / (l0 sqrt(l1)).

    ``err`` is interval arithmetic over deliberately loose error bounds:
    - each entry of the computed G is off by at most (k + 3) k eps, so by
      Weyl's inequality (Stewart & Sun, Matrix Perturbation Theory, 1990)
      each of its eigenvalues is off by at most three times that;
    - Smith's angle arccos(r) / 3 is bounded by the image under arccos of an
      interval around r.  Near a repeated eigenvalue arccos has no finite
      slope, so l0 and l1 may be off by about p sqrt(eps), not eps: on the
      stack e1, e2, e3, (e1 + e2 + e3) / sqrt(3) the formula is off by 3e-9;
    - each bracket is off by at most 64 eps;
    - LAPACK's singular values are those of M + F with ||F|| <= 64 k eps
      sigma_1, so the ratio it returns is off by at most 64 k eps (1 + est).
    The code widens the first terms by further factors of 4 to 8.  On
    random, near-planar and repeated-eigenvalue stacks the largest error
    seen is about 1/150 of ``err``.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    parts = [_rank3_screen_chunk(rows[i:i + _SCREEN_CHUNK], stacks)
             for i in range(0, max(len(rows), 1), _SCREEN_CHUNK)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _rank3_screen_chunk(rows: np.ndarray, stacks) -> tuple:
    """``rank3_screen`` on one chunk of nodes."""
    # one contiguous vector per row and coordinate: (r, 3, N)
    x = np.moveaxis(rows, 0, -1).copy()
    sq = x.real ** 2 + x.imag ** 2                                      # |x_a|^2
    xc = np.conj(x)
    off = np.stack([xc[:, 0] * x[:, 1], xc[:, 0] * x[:, 2], xc[:, 1] * x[:, 2]], axis=1)
    gd = np.stack([functools.reduce(np.add, (sq[i] for i in s)) for s in stacks])   # (S, 3, N)
    go = np.stack([functools.reduce(np.add, (off[i] for i in s)) for s in stacks])  # g01, g02, g12
    triples = [list(itertools.combinations(sorted(s), 3)) for s in stacks]
    br2 = {}
    for t in set().union(*triples):
        b = bracket_rows(*(x[i].T for i in t))
        br2[t] = b.real ** 2 + b.imag ** 2
    vol = np.sqrt(np.stack([functools.reduce(np.add, (br2[t] for t in ts)) for ts in triples]))  # sqrt(det G)
    n_rows = np.array([len(s) for s in stacks], dtype=float)[:, None]
    n_brackets = np.array([len(ts) for ts in triples], dtype=float)[:, None]

    # Smith: G = qI + pB', eigenvalues q + 2p cos(phi + 2 pi j / 3), r = det(B') / 2
    q = (gd[:, 0] + gd[:, 1] + gd[:, 2]) / 3
    b0, b1, b2 = gd[:, 0] - q, gd[:, 1] - q, gd[:, 2] - q
    o01, o02, o12 = np.moveaxis(go.real ** 2 + go.imag ** 2, 1, 0)
    p = np.sqrt((b0 ** 2 + b1 ** 2 + b2 ** 2 + 2 * (o01 + o02 + o12)) / 6)
    det_b = (b0 * b1 * b2 + 2 * np.real(go[:, 0] * go[:, 2] * np.conj(go[:, 1]))
             - b0 * o12 - b1 * o02 - b2 * o01)
    d_entry = 4 * (n_rows + 3) * n_rows * EPS + 4 * EPS * q             # entries of G - qI
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = det_b / (2 * p ** 3)
        rel = d_entry / p
        dr = 64 * rel * (1 + 16 * rel) ** 2 + 256 * EPS
        r = np.where(np.isfinite(r), r, 0.0)
        dr = np.where(np.isfinite(dr), dr, np.inf)
        phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3
        width = (np.arccos(np.clip(r - dr, -1.0, 1.0)) - np.arccos(np.clip(r + dr, -1.0, 1.0))) / 3
        l0 = q + 2 * p * np.cos(phi)
        l1 = q + 2 * p * np.cos(phi + 4 * np.pi / 3)
        dl = 8 * d_entry + 2 * p * width + 8 * EPS * (q + p)
        dvol = 64 * EPS * np.sqrt(n_brackets) + 4 * (n_brackets + 1) * EPS * vol

        est = vol / (l0 * np.sqrt(l1))
        hi = np.where(l1 > dl, (vol + dvol) / ((l0 - dl) * np.sqrt(l1 - dl)), np.inf)
        lo = np.maximum(vol - dvol, 0.0) / ((l0 + dl) * np.sqrt(l1 + dl))
        err = (np.maximum(hi - est, est - lo) * (1 + 16 * EPS)
               + 64 * n_rows * EPS * (1 + est))
    bad = ~(np.isfinite(est) & np.isfinite(err))
    return np.where(bad, 0.0, est).T, np.where(bad, np.inf, err).T
