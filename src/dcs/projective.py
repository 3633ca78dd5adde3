"""Complex projective arithmetic: homogeneous points, the meet of two
lines, incidence, spans, brackets, and tolerance-aware equality.

Points live in CP^n as nonzero vectors of n+1 complex binary64 entries,
compared up to scale with the chordal (Fubini-Study sine) metric.  All
predicates report margins so callers can quantify how far a configuration
sits from a degenerate position.  Everything here is pure and operates on
immutable values.  Every batched kernel works on coordinate-major arrays
``(n+1, ..., N)``, the coordinate axis first and the node axis last, in
passes of ``columns``; ``to_columns`` turns rows ``(..., n+1)`` into that
layout, and the two kernels whose callers hold rows, ``chordal_batch``
and ``line_residual``, take rows and run on their transposed views.  The
Gram-Schmidt helpers act on the whole stacked array (n+1 complex numbers
per node and stacked point in each temporary) and sum coordinates as an
ordered fold over the first axis: ``sum(axis=0)`` would sum one node's
eight or more floats pairwise, so its bits would depend on its batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Representatives with max modulus below this are treated as the zero vector.
ZERO_FLOOR = 1e-300
# Euclidean norms outside this range lose digits or overflow when squared.
SAFE_NORM = (1e-150, 1e150)
# Complex numbers per coordinate in each temporary of a batched kernel:
# ``columns`` runs a kernel in passes of this many nodes divided by what
# its temporaries stack per node, e.g. 546 nodes for a configuration's 15
# point pairs and 2,730 for its 3 spans.  A temporary of one coordinate,
# as in ``_bracket``, then holds at most 128 KiB, half of numpy's 256 KiB
# threshold for reusing a temporary in place; one of the stacked
# Gram-Schmidt helpers holds m times that for m coordinates.  That reuse
# changes bits only in a complex product ``named * temporary``: numpy's
# complex multiply is not bitwise commutative, and reusing the temporary
# swaps the operands.  So in ``_bracket`` the bound keeps a node's value
# independent of the size of its batch; the stacked helpers have no such
# product, and there the bound caps memory and keeps passes in cache.
VECTOR_ROWS = 8192


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
    rank_rel_tol  cutoff for incidence and span residuals, the residuals
                  of ``span_ladder`` among them
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
        return unit_rows(self.coords)

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


def unit_rows(a: np.ndarray, axis: int = -1, out=None) -> np.ndarray:
    """Normalize the vectors along ``axis``, the last by default (rows), or
    the first of coordinate-major arrays (see ``columns``), to unit
    Euclidean norm, into ``out`` when given (``a`` itself normalizes in
    place).  Vectors whose norm under- or overflows in binary64 are first
    divided by their largest modulus, so the result does not depend on the
    representative's scale.  numpy sums up to seven squared moduli in
    coordinate order along either axis, so a vector of up to seven
    coordinates gets the same bits in either layout."""
    n = _norm(a, axis=axis, keepdims=True)
    far = (n < SAFE_NORM[0]) | (n > SAFE_NORM[1])
    if np.any(far):
        peak = np.max(np.abs(a), axis=axis, keepdims=True)
        if np.any(far & (peak < ZERO_FLOOR)):
            raise ZeroVectorError("zero representative in batch")
        a = np.where(far, a / np.where(far, peak, 1.0), a)
        n = np.where(far, np.linalg.norm(a, axis=axis, keepdims=True), n)
    return np.divide(a, n, out=out)


def to_columns(rows: np.ndarray) -> np.ndarray:
    """Rows (..., m) as one contiguous coordinate-major array (m, ...), the
    layout of the batched kernels (see ``columns``): every axis reversed,
    so configurations (N, k, m) become (m, k, N)."""
    return np.ascontiguousarray(rows.T)


def columns(kernel, *arrays, stack: int = 1):
    """``kernel`` applied to coordinate-major ``arrays`` (m, ..., N), the
    coordinate axis first and the node axis last, in passes of at most
    VECTOR_ROWS // ``stack`` nodes, where ``stack`` is the number of complex
    numbers per node and coordinate in each of the kernel's temporaries
    (one per stacked pair, span or point); an array whose node axis has
    length 1 holds one value for every node.  ``kernel`` returns an array,
    or a tuple of arrays, with the node axis last.  Each coordinate's
    values are contiguous along the nodes, so numpy runs its contiguous
    inner loops; a temporary of one coordinate holds at most VECTOR_ROWS
    complex numbers, one of all m coordinates m times that (see
    ``VECTOR_ROWS``), and a node's value does not depend on the size of
    its batch.
    """
    n = max(a.shape[-1] for a in arrays)
    rows = max(1, VECTOR_ROWS // stack)
    if n <= rows:
        return kernel(*arrays)
    parts = [kernel(*(a[..., i:i + rows] if a.shape[-1] == n else a for a in arrays))
             for i in range(0, n, rows)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p, axis=-1) for p in zip(*parts))
    return np.concatenate(parts, axis=-1)


def _chordal(u, v):
    """Chordal distances of coordinate-major unit representatives (m, ...):
    the same operations, in the same order, as numpy's row-major form
    ``norm(u - sum(u conj(v)) v)``.  The conjugate is named: numpy could
    reuse a temporary in ``u * np.conj(v)`` and swap the operands (see
    ``VECTOR_ROWS``)."""
    cv = np.conj(v)
    return np.sqrt(_norm2(u - functools.reduce(np.add, u * cv) * v)).clip(0.0, 1.0)


def chordal_batch(u: np.ndarray, v: np.ndarray, raw: bool = False) -> np.ndarray:
    """Chordal distance of unit-normalized representatives, elementwise, or
    of ``raw`` ones, normalized in each pass (see ``_on_rows``).

    Computed as the norm of the component of u orthogonal to v, which equals
    sqrt(1 - |<u,v>|^2) but stays accurate near zero (the naive form cannot
    resolve distances below sqrt(machine epsilon)).
    """
    return _on_rows(_chordal, u, v, raw=raw)


def _on_rows(kernel, *rows, raw: bool = False):
    """``kernel`` on row-major arrays (..., m), batched over their
    broadcast leading axes, as one ``columns`` call over their transposed
    views (m, ...); the leading axes are padded to a common number first,
    so the views broadcast as the rows do.  Returns the kernel's value per
    row (...).  A single row (m,) runs as a batch of one, so it gets the
    bits it gets in any batch: numpy's scalar complex arithmetic can differ
    from its array loops in the last bit.  ``raw`` rows are normalized in
    each pass, bit for bit as ``unit_rows`` normalizes the rows, so no
    normalized copy of the whole batch is made."""
    nd = max(r.ndim for r in rows)
    if nd == 1:
        return _on_rows(kernel, *(r[None] for r in rows), raw=raw)[0]
    views = [r.reshape((1,) * (nd - r.ndim) + r.shape).T for r in rows]
    stack = math.prod(map(max, zip(*(v.shape[1:-1] for v in views))))
    run = (lambda *a: kernel(*(unit_rows(x, axis=0) for x in a))) if raw else kernel
    return columns(run, *views, stack=stack).T


def chordal_pairs(points: np.ndarray, pairs) -> np.ndarray:
    """Chordal distances (len(pairs), N) of the pairs (i, j) of the
    coordinate-major unit points (m, k, N) of each node, the pairs stacked
    on the leading axis, so the number of numpy calls does not depend on
    the number of pairs; equal to ``chordal_batch`` of the points i and j
    row-major."""
    first, second = (list(p) for p in zip(*pairs))
    return columns(lambda x: _chordal(x[:, first], x[:, second]), points, stack=len(first))


def line_residual(spans: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """How far the span of each pair of rows of ``spans`` (..., 2, m) is
    from the line through the matching pair of ``lines`` (..., 2, m),
    batched over the broadcast leading axes: the larger chordal distance of
    the span's two points from that line, 0 to rounding iff the span is
    the line.  The rows are normalized in each pass (see ``_on_rows``).

    The line's rows are orthonormalized by Gram-Schmidt, twice (Golub &
    Van Loan, Matrix Computations, 4th ed., 5.2), and a point's distance is
    the norm of its component orthogonal to them, which keeps its accuracy
    near zero.  A pair of either side closer than 1e-12, the cutoff of
    ``meet``, or not finite spans no line: the value is then 1, the largest
    distance.  For a line whose rows are s apart (chordal), the value is
    between 1/sqrt(2) and 3/s times the third relative singular value of
    the four rows stacked.
    """
    with np.errstate(invalid="ignore"):   # normalizing a non-finite row, which reads 1
        return _on_rows(lambda a, b: frame_residual(a, *line_frame(b[:, 0], b[:, 1])), spans, lines, raw=True)


def line_frame(p, q):
    """The Gram-Schmidt frame of the line through coordinate-major unit
    points p and q (m, ...): p, the unit vector e of the line
    orthogonal to p (q orthogonalized twice; zero where nothing of q is
    left), and the norm of e before it was scaled."""
    return (p, *_away_unit(_away(q, p), p))


def frame_residual(spans, p, e, size):
    """``line_residual`` of coordinate-major spans (m, 2, ...), each given
    by two unit points, against the lines of the frames (p, e, size) from
    ``line_frame``, broadcast against the spans' points, so that a frame
    built once serves every node."""
    with np.errstate(divide="ignore", invalid="ignore"):
        far = _norm2(_away(_away(spans, p[:, None]), e[:, None]))
    line = (size >= 1e-12) & (_chordal(spans[:, 0], spans[:, 1]) >= 1e-12)
    return np.where(line, np.sqrt(np.maximum(far[0], far[1])), 1.0)


def pencil_points(a: np.ndarray, b: np.ndarray, center: np.ndarray) -> tuple:
    """Each span (a, b) of coordinate-major unit points (m, L, N) as a point
    of the pencil of lines through the unit ``center`` (m, 1, N), one per
    node, or (m, 1, 1), one for all, a CP^(m-2), the spans stacked on the
    axis L: the unit direction from the center of the span's farther point
    (m, L, N), zero where both points are exactly the center; the
    incidence residual (L, N), the chordal distance of the nearer point
    from the line through the center and the farther one (the Gram-Schmidt
    steps of ``line_residual``), accurate to a few eps wherever the points
    lie; and the nearer point's chordal distance from the center (L, N),
    the norm of the component orthogonal to the center that the direction
    is formed from.  Whether a span is a line is the caller's check."""
    return columns(_pencil_points, a, b, center, stack=a.shape[1])


def _pencil_points(a, b, o):
    """``pencil_points`` on one pass of nodes."""
    dx, dy = _away(a, o), _away(b, o)
    nx, ny = _norm2(dx), _norm2(dy)
    first, size = nx >= ny, np.sqrt(np.maximum(nx, ny))
    size[size == 0] = 1.0
    d = np.where(first, dx, dy) / size
    return d, np.sqrt(_norm2(_away(np.where(first, dy, dx), d))), np.sqrt(np.minimum(nx, ny))


def collinear_residual(points: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """How far three coordinate-major unit points (m, 3, N) are from lying
    on one line, per node (N,): the chordal distance of one point from the
    line through the other two, with ``dist`` (3, N) their chordal
    distances in the order (0, 1), (0, 2), (1, 2).  The line is taken
    through the farthest-apart pair, whose Gram-Schmidt frame keeps the
    value accurate to a few eps (Golub & Van Loan, Matrix Computations, 4th
    ed., 5.2); through a close pair it would be off by about eps over that
    pair's distance.
    """
    return columns(_collinear_residual, points, dist)


def _collinear_residual(a, d):
    """``collinear_residual`` on one pass of nodes."""
    far = np.argmax(d, axis=0)
    at = np.arange(a.shape[-1])
    p, q, x = (a[:, np.array(k)[far], at] for k in ((0, 0, 1), (1, 2, 2), (2, 1, 0)))
    return np.sqrt(_norm2(_away(_away(x, p), _away_unit(q, p)[0])))


def _away_unit(u, e):
    """u less its component along unit e, scaled to unit norm (zero where
    it is zero), and its norm before scaling: one Gram-Schmidt step."""
    r = _away(u, e)
    size = np.sqrt(_norm2(r))
    return r / np.where(size > 0, size, 1.0), size


def _away(u, e):
    """u less its component along unit e, written into the product's
    temporary, so the step holds one fewer temporary of the whole stack."""
    r = _dot(e, u) * e
    return np.subtract(u, r, out=r)


def _dot(u, v):
    """<u, v> of coordinate-major vectors."""
    return functools.reduce(np.add, u.conj() * v)


def _norm2(u):
    """|u|^2 of a coordinate-major vector; the product is written into the
    conjugate's temporary, as in ``_away``."""
    c = u.conj()
    return functools.reduce(np.add, np.multiply(c, u, out=c).real)


def span_ladder(points: np.ndarray, steps: int) -> np.ndarray:
    """Rank-revealing Gram-Schmidt with column pivoting (Golub & Van Loan,
    Matrix Computations, 4th ed., 5.4) of the coordinate-major unit points
    (m, k, N) of each node: residual j (steps, N) is the largest norm of a
    point's component orthogonal to the j - 1 points picked before, that
    point picked next, and 0 once all k are picked.  The points span at
    least a projective (j - 1)-space iff residual j is above a rank
    cutoff.  Each picked unit residual is taken out of every point twice,
    as in ``line_residual``, so the residuals keep their accuracy near
    zero."""
    return columns(lambda x: _span_ladder(x, steps), points, stack=points.shape[1])


def _span_ladder(x, steps):
    """``span_ladder`` on one pass of nodes."""
    out, at = np.zeros((steps, x.shape[-1])), np.arange(x.shape[-1])
    for j in range(min(steps, x.shape[1])):
        size2 = _norm2(x)
        pick = np.argmax(size2, axis=0)
        out[j] = np.sqrt(size2[pick, at])
        e = (x[:, pick, at] / np.where(out[j] > 0, out[j], 1.0))[:, None]
        x = _away(_away(x, e), e)
    return out


def cross(a, b):
    """Bilinear cross product of coordinate-major CP^2 representatives
    (3, ...).  Every product takes views of the arguments, never a
    temporary, so no product is computed in place and a node's value does
    not depend on the size of its batch."""
    return np.stack([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def meet(p1, q1, p2, q2):
    """Meet of the lines p1 q1 and p2 q2, batched over nodes.

    The arguments are coordinate-major unit representatives (n+1, ..., N)
    (see ``columns``), or single points (n+1,), run as a batch of one for
    its bits (see ``_on_rows``).  Returns the meet point (n+1, ..., N) and
    the mask (..., N) of nodes where the meet is defined: each pair spans a
    line, and the lines differ.  That is a test of scale-free quantities,
    each at least 1e-12: the chordal distance of each pair and the sine of
    the angle between the lines.  An absolute cutoff on an unnormalized
    point would fail two close pairs on two distinct lines.

    In CP^2 the point is the cross product (p1 x q1) x (p2 x q2), whose
    norm is the product of the three quantities (|p x q| is the chordal
    distance of unit p and q, |l1 x l2| / (|l1| |l2|) the sine).  Above
    CP^2 it is the point of p1 q1 nearest to p2 q2, the meet when the lines
    meet: with orthonormal frames (p1, e1) and (p2, e2) of the lines and
    r(x) the component of x orthogonal to p2 q2, the eigenvector (a, b) of
    the least eigenvalue of the 2x2 Gram of r(p1), r(e1) gives a p1 + b e1.
    The sine is the norm of [r(p1), r(e1)].  Whether the lines meet is not
    a test here: ``strata.validate_batch``'s check ``concurrent`` measures
    how far d2 passes from the point.  The point is returned normalized
    where the meet is defined and its norm is above 0, and is p1 elsewhere:
    where the meet is undefined it is only a placeholder, but still a unit
    point, so the distances measured from it are distances.
    """
    if max(map(np.ndim, (p1, q1, p2, q2))) == 1:
        point, defined = meet(p1[:, None], q1[:, None], p2[:, None], q2[:, None])
        return point[:, 0], defined[0]
    return columns(_meet, p1, q1, p2, q2)


def _meet(p1, q1, p2, q2):
    """``meet`` on one pass of nodes."""
    if len(p1) == 3:
        l1, l2 = cross(p1, q1), cross(p2, q2)
        point = cross(l1, l2)
        n1, n2, norm = (np.sqrt(_norm2(x)) for x in (l1, l2, point))
        defined = (n1 >= 1e-12) & (n2 >= 1e-12) & (norm >= 1e-12 * n1 * n2)
    else:
        (e1, s1), (e2, s2) = _away_unit(q1, p1), _away_unit(q2, p2)
        rp, re = (_away(_away(x, p2), e2) for x in (p1, e1))
        a, b, h = _norm2(rp), _norm2(re), _dot(rp, re)
        least = (a + b) / 2 - np.hypot((a - b) / 2, np.abs(h))
        v1 = np.where(a >= b, h, least - b)
        v2 = np.where(a >= b, least - a, np.conj(h))
        point = v1 * p1 + v2 * e1
        norm = np.sqrt(_norm2(point))
        defined = (s1 >= 1e-12) & (s2 >= 1e-12) & (np.sqrt(a + b) >= 1e-12)
    keep = defined & (norm > 0)
    return np.where(keep, point / np.where(keep, norm, 1.0), p1), defined


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


def brackets(points: np.ndarray, triples) -> np.ndarray:
    """Cofactor-expansion 3x3 determinants (len(triples), N) of the triples
    (i, j, k) of the coordinate-major CP^2 points (3, P, N) of each node,
    the triples stacked on the leading axis, so the number of numpy calls
    does not depend on the number of triples.  Each pass takes its points
    into one contiguous copy (3, 3, len(triples), nodes) first, three
    complex numbers per triple, node and coordinate.  A bracket vanishes
    exactly on collinear triples and depends on the representatives only
    up to a nonzero scalar per point."""
    order = [i for role in zip(*triples) for i in role]

    def kernel(x):
        u = np.take(x, order, axis=1).reshape(3, 3, len(triples), -1)
        return _bracket(u[:, 0], u[:, 1], u[:, 2])

    return columns(kernel, points, stack=3 * len(triples))


def _bracket(a, b, c):
    """``brackets`` on one pass of nodes."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
