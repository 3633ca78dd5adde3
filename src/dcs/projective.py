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
# Rows per pass of the batched kernels (see ``chunked``).  The screens'
# temporaries grow with it: at 2,048 rows, serial and 2-thread runs of
# ``verify --all`` in one process peaked about 10% above the SVD kernels the
# screens replace; at 1,024 rows, level with them.
CHUNK = 1024
# Rows per pass of a kernel whose temporaries hold one complex number per
# row (``bracket_rows``, ``chordal_batch``, ``line_residual``): 8,192 keeps
# each at 128 KiB, half of numpy's threshold, in one pass for most loop
# samples.
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


def chunked(kernel, *arrays, core: int = 1, rows: int = CHUNK):
    """``kernel`` applied to ``arrays`` in passes of at most ``rows`` rows.

    The rows are the entries of the arrays' broadcast leading axes, each
    array keeping its last ``core`` axes whole; ``kernel`` takes arrays of
    shape (rows, *core shape) and returns an array, or a tuple of arrays,
    with one leading entry per row.  Passes small enough that every complex
    temporary of the kernel stays below numpy's 256 KiB threshold for
    reusing temporaries in place, past which a complex product rounds
    differently, make a row's value independent of the size of its batch;
    they also bound the temporaries' memory.
    """
    arrays = [np.asarray(a) for a in arrays]
    leads = [a.shape[:a.ndim - core] for a in arrays]
    lead = leads[0] if leads.count(leads[0]) == len(leads) else np.broadcast_shapes(*leads)
    flat = [(a if shape == lead else np.broadcast_to(a, lead + a.shape[a.ndim - core:]))
            .reshape((-1,) + a.shape[a.ndim - core:]) for a, shape in zip(arrays, leads)]
    n = flat[0].shape[0]
    if n <= rows:
        parts = [kernel(*flat)]
    else:
        parts = [kernel(*(f[i:i + rows] for f in flat)) for i in range(0, n, rows)]
    one = not isinstance(parts[0], tuple)
    out = tuple(np.concatenate(p) if len(p) > 1 else p[0]
                for p in zip(*([(p,) for p in parts] if one else parts)))
    out = tuple(o.reshape(lead + o.shape[1:]) for o in out)
    return out[0] if one else out


def _chordal(u, v):
    """Chordal distances of coordinate-major unit representatives (m, rows).
    The same operations, in the same order, as numpy's row-major form
    ``norm(u - sum(u conj(v)) v)``, one vector per coordinate."""
    ip = functools.reduce(np.add, (a * np.conj(b) for a, b in zip(u, v)))
    w = [a - ip * b for a, b in zip(u, v)]
    return np.clip(np.sqrt(functools.reduce(np.add, ((x.conj() * x).real for x in w))), 0.0, 1.0)


def chordal_batch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Chordal distance of unit-normalized representatives, elementwise.

    Computed as the norm of the component of u orthogonal to v, which equals
    sqrt(1 - |<u,v>|^2) but stays accurate near zero (the naive form cannot
    resolve distances below sqrt(machine epsilon)).
    """
    return chunked(lambda a, b: _chordal(a.T, b.T), u, v, rows=VECTOR_ROWS)


def chordal_pairs(rows: np.ndarray, pairs) -> np.ndarray:
    """Chordal distances (N, len(pairs)) of the pairs (i, j) of the unit rows
    (N, k, m) of each node, in one pass; equal to ``chordal_batch`` of the
    rows i and j."""
    first, second = (list(p) for p in zip(*pairs))

    def kernel(x):                                    # (rows, k, m) -> (m, pairs, rows) per side
        x = np.moveaxis(x, 0, -1)
        return _chordal(np.swapaxes(x[first], 0, 1), np.swapaxes(x[second], 0, 1)).T
    return chunked(kernel, rows, core=2)


def line_residual(spans: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """How far the span of each pair of unit rows of ``spans`` (..., 2, m)
    is from the line through the matching pair of ``lines`` (..., 2, m),
    batched over the broadcast leading axes: the larger chordal distance of
    the span's two points from that line, 0 to rounding iff the span is
    the line.

    The line's rows are orthonormalized by Gram-Schmidt, twice (Golub &
    Van Loan, Matrix Computations, 4th ed., 5.2), and a point's distance is
    the norm of its component orthogonal to them, which keeps its accuracy
    near zero.  A pair of either side closer than 1e-12, the cutoff of
    ``meet``, or not finite spans no line: the value is then 1, the largest
    distance.  For a line whose rows are s apart (chordal), the value is
    between 1/sqrt(2) and 3/s times the third relative singular value of
    the four rows stacked.
    """
    return chunked(_line_residual, spans, lines, core=2, rows=VECTOR_ROWS)


def _line_residual(a, b):
    """``line_residual`` on one pass of rows, one vector per coordinate."""
    x, y, p, q = a[:, 0].T, a[:, 1].T, b[:, 0].T, b[:, 1].T

    def away(u, e):                # u less its component along unit e
        ip = _dot(e, u)
        return [uc - ip * ec for uc, ec in zip(u, e)]

    e = away(away(q, p), p)
    size = np.sqrt(_norm2(e))
    with np.errstate(divide="ignore", invalid="ignore"):
        e = [ec / size for ec in e]
        far = np.sqrt(np.maximum(_norm2(away(away(x, p), e)), _norm2(away(away(y, p), e))))
    line = (size >= 1e-12) & (_chordal(x, y) >= 1e-12)
    return np.where(line, far, 1.0)


def _dot(u, v):
    """<u, v> of vectors given one array per coordinate."""
    return functools.reduce(np.add, (uc.conj() * vc for uc, vc in zip(u, v)))


def _norm2(u):
    """|u|^2 of a vector given one array per coordinate."""
    return functools.reduce(np.add, ((uc.conj() * uc).real for uc in u))


def relative_singular_values(rows: np.ndarray) -> np.ndarray:
    """Singular values of stacked representatives divided by the largest,
    batched over leading axes: ``[..., r]`` is the numerical-rank margin of
    rank r + 1.  Used by the rank checks."""
    s = np.linalg.svd(rows, compute_uv=False)
    return s / s[..., :1]


def cross(a, b):
    """Bilinear cross product over the last axis of CP^2 representatives,
    batched over leading axes.  np.cross gives the same values, but its
    three calls in ``meet`` cost twice the SVD they replace on a one-node
    batch.  Every product takes views of the arguments, never a temporary,
    so no product is computed in place and a node's value does not depend on
    the size of its batch."""
    return np.stack([a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)


def _vdot(a, b):
    """<a, b> = sum(conj(a) b) over the last axis."""
    return np.sum(np.conj(a) * b, axis=-1)


def meet(p1, q1, p2, q2):
    """Meet of the lines p1 q1 and p2 q2, batched over leading axes.

    The arguments are unit representatives (..., n+1).  Returns the meet
    point and the mask of nodes where the meet is defined: each pair spans
    a line, and the lines differ.  That is a test of scale-free quantities,
    each at least 1e-12: the chordal distance of each pair and the sine of
    the angle between the lines.  An absolute cutoff on an unnormalized
    point would fail two close pairs on two distinct lines.

    In CP^2 the point is the cross product (p1 x q1) x (p2 x q2), whose
    norm is the product of the three quantities (|p x q| is the chordal
    distance of unit p and q, |l1 x l2| / (|l1| |l2|) the sine); undefined
    points of norm below 1e-12 are returned unnormalized.  Above CP^2 it is
    the point of p1 q1 nearest to p2 q2, the meet when the lines meet: with
    orthonormal frames (p1, e1) and (p2, e2) of the lines and r(x) the
    component of x orthogonal to p2 q2, the eigenvector (a, b) of the least
    eigenvalue of the 2x2 Gram of r(p1), r(e1) gives a p1 + b e1.  The sine
    is the norm of [r(p1), r(e1)].  Whether the lines meet is the rank
    check ``concurrent d1-d2`` of ``strata.validate_batch``, not a test
    here.  Where the meet is undefined the point is only a placeholder.
    """
    return chunked(_meet, p1, q1, p2, q2)


def _meet(p1, q1, p2, q2):
    """``meet`` on one pass of rows."""
    if p1.shape[-1] == 3:
        l1, l2 = cross(p1, q1), cross(p2, q2)
        point = cross(l1, l2)
        norm = np.linalg.norm(point, axis=-1, keepdims=True)
        n1, n2 = np.linalg.norm(l1, axis=-1), np.linalg.norm(l2, axis=-1)
        defined = (n1 >= 1e-12) & (n2 >= 1e-12) & (norm[..., 0] >= 1e-12 * n1 * n2)
        norm[(norm[..., 0] < 1e-12) & ~defined] = 1.0
        return point / norm, defined

    def frame(p, q):                  # the unit vector of p q orthogonal to p, and |p x q|
        e = q - _vdot(p, q)[:, None] * p
        s = np.linalg.norm(e, axis=-1)
        return e / np.where(s > 0, s, 1.0)[:, None], s

    (e1, s1), (e2, s2) = frame(p1, q1), frame(p2, q2)
    rp, re = ((x - _vdot(p2, x)[:, None] * p2) - _vdot(e2, x)[:, None] * e2 for x in (p1, e1))
    a, b, h = _vdot(rp, rp).real, _vdot(re, re).real, _vdot(rp, re)
    least = (a + b) / 2 - np.hypot((a - b) / 2, np.abs(h))
    v1 = np.where(a >= b, h, least - b)
    v2 = np.where(a >= b, least - a, np.conj(h))
    point = v1[:, None] * p1 + v2[:, None] * e1
    norm = np.linalg.norm(point, axis=-1, keepdims=True)
    point = np.where(norm > 0, point / np.where(norm > 0, norm, 1.0), p1)
    return point, (s1 >= 1e-12) & (s2 >= 1e-12) & (np.sqrt(a + b) >= 1e-12)


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
    return chunked(_bracket, a, b, c, rows=VECTOR_ROWS)


def _bracket(a, b, c):
    """``bracket_rows`` on one pass of rows."""
    return (
        a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
        - a[..., 1] * (b[..., 0] * c[..., 2] - b[..., 2] * c[..., 0])
        + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0])
    )


def rank3_screen(rows: np.ndarray, stacks, fourth=()) -> tuple:
    """Closed-form third relative singular value of stacks of rows that span
    about three dimensions, with an error bound and no LAPACK call.

    ``rows`` (N, r, m) are unit representatives; each of ``stacks`` and
    ``fourth`` is a tuple of at least three row indices.  Returns ``est``
    and ``err``, both (N, len(stacks) + len(fourth)): for each stack s of
    ``stacks``, then of ``fourth``, ``relative_singular_values(rows[:, s])``
    at index 2, then 3, as LAPACK computes it, lies within ``err`` of
    ``est``.  A node whose bound cannot be formed gets est 0 and err inf.
    The fourth value is for stacks of four rows, or of four columns (CP^3),
    above CP^2: the skew of two lines, the excess of a planar span.  Its
    interval is one-sided, from 0 to tau over a lower bound on sigma_1 (see
    below), with ``est`` at its middle: it certifies a value near zero and
    sends any other to LAPACK.

    In CP^2 a stack M of k rows has three columns, and a stack of three rows
    is screened as its transpose, whose rows are its m columns.  Any other
    stack is first written as M = N B + R: B has as rows an orthonormal
    basis of a span of three rows of M (the first two rows and the other one
    farthest from them, each orthogonalized twice), N (k x 3) the
    coefficients and R the residuals; a stack whose rows span fewer than
    three dimensions exactly has no such basis, so it gets err inf and goes
    to LAPACK.  Each singular value of M is within
    tau = ||R|| + ||N|| ||B B^H - I|| of N's (Weyl's inequality,
    Stewart & Sun, Matrix Perturbation Theory, 1990).  tau is near eps
    where the rows span three dimensions, and large otherwise, where the
    bound sends the node to LAPACK.  Let G = N^H N, with eigenvalues
    l0 >= l1 >= l2 (the squared singular values of N):
    - sqrt(l0 l1 l2) = sqrt(det G) is the norm of the vector of brackets of
      the row triples of N (Cauchy-Binet).  It keeps its absolute
      accuracy down to zero; det G from the entries of G, or l2 from Smith's
      formula, would not (a sqrt(eps) floor).
    - l0 and l1 come from Smith's formula for 3x3 Hermitian matrices
      (CACM 4(4), 1961), with the deviatoric norm p taken from the entries
      of G - qI rather than from tr^2 - 3 e2.
    - est = sqrt(det G) / (l0 sqrt(l1)).
    - N B has rank three, so M's fourth singular value is at most
      ||R|| <= tau (Weyl), and its first at least sqrt(l0 - dl) - tau, dl
      the bound on l0's error.

    ``err`` is interval arithmetic over deliberately loose error bounds:
    - each entry of the computed G is off by at most (k + 3) k eps, so by
      Weyl's inequality each of its eigenvalues is off by at most three
      times that;
    - Smith's angle arccos(r) / 3 is bounded by the image under arccos of an
      interval around r.  Near a repeated eigenvalue arccos has no finite
      slope, so l0 and l1 may be off by about p sqrt(eps), not eps: on the
      stack e1, e2, e3, (e1 + e2 + e3) / sqrt(3) the formula is off by 3e-9;
    - each bracket is off by at most 64 eps, and R as computed by at most
      32 k m eps;
    - LAPACK's singular values are those of M + F with ||F|| <= 64 k' eps
      sigma_1, k' = max(k, m), so the ratio it returns is off by at most
      64 k' eps (1 + est).
    The code widens the first terms by further factors of 4 to 8.  On the
    test corpora (random, near-degenerate and repeated-eigenvalue stacks) a
    third value above 1e-6 is off by at most about 1/24 of ``err``, and one
    below by at most about a third of it.  A fourth value near zero lies at
    the bottom of its interval, whose top is there about 1e-13.
    """
    return chunked(lambda x: _rank3_screen_chunk(x, list(stacks), list(fourth)),
                   np.asarray(rows, dtype=np.complex128), core=2)


def _project3(xs, stacks) -> tuple:
    """The coefficients N (S, k, 3, N) of the rows of each of ``stacks``
    (S stacks of k rows) in an orthonormal basis of a span of three of
    them, and tau (S, N), the bound on the distance of each singular value
    of a stack from N's (see ``rank3_screen``).  ``xs`` holds one (r, N)
    array per coordinate.  The basis starts from a stack's first two rows
    and the one of the others farthest from their span."""
    k, m = len(stacks[0]), len(xs)
    rows = [xc[np.array(stacks)] for xc in xs]                           # m x (S, k, N)
    basis, v = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(3):
            if j < 2:
                b = [rc[:, j] for rc in rows]
            else:                  # the row farthest from the span of the first two
                far = np.argmax(_norm2(rows)[:, 2:] - np.abs(v[0][:, 2:]) ** 2 - np.abs(v[1][:, 2:]) ** 2,
                                axis=1)[:, None] + 2
                b = [np.take_along_axis(rc, far, 1)[:, 0] for rc in rows]
            # orthogonal to the basis, twice, since a residual near rounding
            # size is noise in any direction; where none remains (the rows
            # span fewer dimensions exactly) b is 0/0, and the bound with it
            for _ in range(2):
                for a in basis:
                    ip = _dot(a, b)
                    b = [bc - ip * ac for bc, ac in zip(b, a)]
                size = np.sqrt(_norm2(b))
                b = [bc / size for bc in b]
            basis.append(b)
            v.append(_dot([ac[:, None] for ac in b], rows))                  # (S, k, N)
    res = [rc - functools.reduce(np.add, (vj * a[c][:, None] for vj, a in zip(v, basis)))
           for c, rc in enumerate(rows)]
    rho = np.sqrt(np.sum(_norm2(res), axis=1))
    dev = sum(np.abs(_dot(a, b) - (j == l)) ** 2 * (1 + (j != l))
              for j, a in enumerate(basis) for l, b in enumerate(basis) if j <= l)
    v = np.stack(v, axis=2)                                              # (S, k, 3, N)
    size = np.sqrt(np.sum(v.real ** 2 + v.imag ** 2, axis=(1, 2)))      # ||N||_F >= sigma_1(N)
    return v, rho + 32 * k * m * EPS + size * (np.sqrt(dev) + 8 * m * EPS)


def _rank3_screen_chunk(rows: np.ndarray, stacks, fourth) -> tuple:
    """``rank3_screen`` on one pass of nodes."""
    # one contiguous vector per row and coordinate: (r, m, N)
    x = np.moveaxis(rows, 0, -1).copy()
    m = x.shape[1]
    order = list(dict.fromkeys(stacks + fourth))
    if m == 3:
        groups = [(x, order, 0.0)]
    else:
        # a stack of three rows as its transpose, whose m rows are its
        # columns; a larger one in the basis of a span of three of its rows
        xs = [x[:, c] for c in range(m)]
        proj = {}
        for k in dict.fromkeys(len(s) for s in order if len(s) > 3):
            same = [s for s in order if len(s) == k]
            proj.update(zip(same, zip(*_project3(xs, same))))
        groups = [(np.swapaxes(x[list(s)], 0, 1), [tuple(range(m))], 0.0) if len(s) == 3
                  else (proj[s][0], [tuple(range(len(s)))], proj[s][1]) for s in order]
    gd, go, vol, tau, n_rows, n_brackets = [], [], [], [], [], []
    for v, group, t in groups:
        sq = v.real ** 2 + v.imag ** 2                                  # |v_a|^2
        vc = np.conj(v)
        off = np.stack([vc[:, 0] * v[:, 1], vc[:, 0] * v[:, 2], vc[:, 1] * v[:, 2]], axis=1)
        triples = [list(itertools.combinations(sorted(s), 3)) for s in group]
        br2 = {}
        for tr in set().union(*triples):
            b = _bracket(*(v[i].T for i in tr))
            br2[tr] = b.real ** 2 + b.imag ** 2
        for s, ts in zip(group, triples):
            gd.append(functools.reduce(np.add, (sq[i] for i in s)))                # (3, N)
            go.append(functools.reduce(np.add, (off[i] for i in s)))               # g01, g02, g12
            vol.append(np.sqrt(functools.reduce(np.add, (br2[tr] for tr in ts))))  # sqrt(det G)
            tau.append(np.broadcast_to(t, vol[-1].shape))
            n_rows.append(len(s))
            n_brackets.append(len(ts))
    gd, go, vol, tau = np.stack(gd), np.stack(go), np.stack(vol), np.stack(tau)
    n_rows = np.array(n_rows, dtype=float)[:, None]
    n_brackets = np.array(n_brackets, dtype=float)[:, None]
    n_dims = np.maximum(n_rows, m)

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

        at = [order.index(s) for s in stacks]
        est = vol[at] / (l0[at] * np.sqrt(l1[at]))
        hi = np.where(l1[at] > dl[at], (vol[at] + dvol[at]) / ((l0[at] - dl[at]) * np.sqrt(l1[at] - dl[at])),
                      np.inf)
        lo = np.maximum(vol[at] - dvol[at], 0.0) / ((l0[at] + dl[at]) * np.sqrt(l1[at] + dl[at]))
        # sigma_1 of M is at least sqrt(l0 - dl) - tau; tau / sigma_1(N) widens a ratio of N's
        t = np.where(tau[at] > 0, tau[at] / np.sqrt(l0[at] - dl[at]), 0.0)
        hi = np.where(t < 1, (hi + t) / (1 - t), np.inf)
        lo = np.maximum(lo - t, 0.0) / (1 + t)
        ests, his, los = [est], [hi], [lo]
        if fourth:
            # sigma_4 of M is at most tau: one-sided, as it may be zero
            at = [order.index(s) for s in fourth]
            s1 = np.sqrt(l0[at] - dl[at]) - tau[at]
            lo4, hi4 = np.zeros(s1.shape), np.where(s1 > 0, tau[at] / s1, np.inf)
            ests.append((lo4 + hi4) / 2)
            los.append(lo4)
            his.append(hi4)
        est, hi, lo = np.concatenate(ests), np.concatenate(his), np.concatenate(los)
        dims = n_dims[[order.index(s) for s in stacks + fourth]]
        err = (np.maximum(hi - est, est - lo) * (1 + 16 * EPS)
               + 64 * dims * EPS * (1 + est))
    bad = ~(np.isfinite(est) & np.isfinite(err))
    return np.where(bad, 0.0, est).T, np.where(bad, np.inf, err).T

