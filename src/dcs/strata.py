"""Membership predicates for configuration spaces and Desargues spaces.

A Desargues configuration is an ordered tuple (A1,B1,A2,B2,A3,B3) of six
points placed on three distinct concurrent lines d_i = A_i B_i, all six
distinct from the common center I; planar if the points span a 2-plane,
solid if they span a 3-space.  ``validate`` checks exactly the written
conditions, nothing more.

Both value kinds are measured the same way: each line through the center
is a point of the pencil of lines through it, a CP^(n-1).  Margins are
"distance to degeneracy" quantities (bigger is safer): chordal distances,
and for a solid configuration the distance of its third line from the
plane of the other two.  Exact incidence requirements (concurrency, fixed
center, a planar span) are residuals (smaller is better) and are reported
separately instead of being folded into the margin minimum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .projective import (
    DEFAULT_TOL,
    DimensionMismatchError,
    HPoint,
    ProjectiveError,
    VECTOR_ROWS,
    Tolerances,
    chordal_batch,
    chordal_pairs,
    collinear_residual,
    is_int,
    meet,
    pencil_points,
    span_ladder,
    to_columns,
    unit_rows,
)

# Pairs of the points A1, B1, A2, B2, A3, B3 (0-5): all of them, whose
# chordal distances validate_batch checks, and the spans (A_i, B_i).
_POINT_PAIRS = [(i, j) for i in range(6) for j in range(i + 1, 6)]
_SPAN_PAIRS = [(0, 1), (2, 3), (4, 5)]
# Pairs of the three lines, in the order ``collinear_residual`` reads.
_LINE_PAIRS = [(0, 1), (0, 2), (1, 2)]
# Nodes per validation pass (see ``_each_distinct_once``): a pass copies its
# nodes' points once as rows and once as columns, so validation holds a
# bounded working set whatever the size of its batch.  The tracemalloc peak
# of a 2-thread ``verify --all`` is 22-27 MB at 2,048 nodes, 28-29 at 4,096.
PASS_NODES = VECTOR_ROWS // 4


@dataclass(frozen=True)
class SpaceTag:
    """Identifies one of the configuration spaces handled by the engine.

    kind is one of Fk, Fk_stratum, D_planar, D_planar_fixed, D_solid,
    D_solid_fixed, F3_lines_through.  n is the ambient CP^n; k >= 1 the
    point count of Fk and Fk_stratum; span_i the required span dimension
    for Fk_stratum; center pins the intersection point for the _fixed and
    lines_through kinds.
    """

    kind: str
    n: int
    k: int = 0
    span_i: int = 0
    center: Optional[HPoint] = None

    _KINDS = (
        "Fk",
        "Fk_stratum",
        "D_planar",
        "D_planar_fixed",
        "D_solid",
        "D_solid_fixed",
        "F3_lines_through",
    )

    def __post_init__(self):
        for key, value in (("n", self.n), ("k", self.k), ("i", self.span_i)):
            if not is_int(value):
                raise ValueError(f"tag {key} must be an integer, got {value!r}")
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if (self.kind.startswith("D_planar") or self.kind == "F3_lines_through") and self.n < 2:
            raise ValueError(f"{self.kind} needs ambient n >= 2")
        if self.kind.startswith("D_solid") and self.n < 3:
            raise ValueError("solid Desargues spaces need ambient n >= 3")
        if self.kind.endswith("_fixed") or self.kind == "F3_lines_through":
            if self.center is None:
                raise ValueError(f"{self.kind} requires a center point")
            if self.center.ambient_dim != self.n:
                raise ValueError("center ambient dimension does not match tag")
        if self.kind in ("Fk", "Fk_stratum") and not self.k >= 1:
            raise ValueError(f"{self.kind} needs a point count k >= 1, got {self.k!r}")
        if self.kind == "Fk_stratum" and not 1 <= self.span_i <= self.n:
            raise ValueError("stratum span dimension out of range")

    @property
    def span_required(self) -> Optional[int]:
        if self.kind.startswith("D_planar"):
            return 2
        if self.kind.startswith("D_solid"):
            return 3
        if self.kind == "Fk_stratum":
            return self.span_i
        return None

    @classmethod
    def planar(cls, n):
        return cls("D_planar", n)

    @classmethod
    def planar_fixed(cls, n, center):
        return cls("D_planar_fixed", n, center=center)

    @classmethod
    def solid(cls, n):
        return cls("D_solid", n)

    @classmethod
    def solid_fixed(cls, n, center):
        return cls("D_solid_fixed", n, center=center)

    @classmethod
    def lines_through(cls, center):
        return cls("F3_lines_through", center.ambient_dim, center=center)

    def to_json(self) -> dict:
        d = {"kind": self.kind, "n": self.n}
        if self.kind == "Fk":
            d["k"] = self.k
        if self.kind == "Fk_stratum":
            d.update(k=self.k, i=self.span_i)
        if self.center is not None:
            d["center"] = self.center.to_json()
        return d

    @classmethod
    def from_json(cls, d) -> "SpaceTag":
        center = HPoint.from_json(d["center"], "tag center") if "center" in d else None
        return cls(d["kind"], d["n"], k=d.get("k", 0), span_i=d.get("i", 0), center=center)


@dataclass
class MembershipReport:
    verdict: bool
    margin: float
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "margin": float(self.margin),
            "failures": list(self.failures),
            "details": {k: float(v) for k, v in self.details.items()},
            "warnings": list(self.warnings),
        }


class Config6:
    """Six ordered points (A1, B1, A2, B2, A3, B3), the boundary type of the
    command line and the JSON files.

    Construction is lenient; :func:`validate` reports which invariants hold
    instead of refusing to build a broken tuple.
    """

    __slots__ = ("points",)

    def __init__(self, points: Sequence[HPoint]):
        pts = tuple(points)
        if len(pts) != 6:
            raise ProjectiveError("a Desargues configuration has six points")
        dim = pts[0].ambient_dim
        for p in pts:
            if p.ambient_dim != dim:
                raise DimensionMismatchError("mixed ambient dimensions")
        self.points = pts

    @property
    def ambient_dim(self) -> int:
        return self.points[0].ambient_dim

    def array(self) -> np.ndarray:
        return np.stack([p.coords for p in self.points])

    def to_json(self, tag: Optional[SpaceTag] = None) -> dict:
        d = {"points": [p.to_json() for p in self.points]}
        if tag is not None:
            d["tag"] = tag.to_json()
        return d

    @classmethod
    def from_json(cls, d) -> "Config6":
        return cls([HPoint.from_json(p, f"points[{i}]") for i, p in enumerate(d["points"])])

    @classmethod
    def from_array(cls, rows) -> "Config6":
        return cls([HPoint(r) for r in np.asarray(rows, dtype=np.complex128)])

    def __repr__(self) -> str:
        return "Config6(" + ", ".join(repr(p) for p in self.points) + ")"


@dataclass
class BatchResult:
    """Vectorized validation outcome over a batch of configurations, line
    triples or point sets, every entry in closed form (see
    ``validate_values``).

    A batch is validated as the batch of its bitwise-distinct nodes, in
    order of first occurrence, and every per-node array is expanded back to
    the batch (see ``_each_distinct_once``): a repeated node gets the
    entries of its first occurrence, and ``fail_counts`` tallies the failing
    nodes of the batch, a repeated node with its multiplicity.  So the
    result equals that of the nodes validated one copy at a time, and the
    first node attaining a least margin is the same node.
    """

    verdicts: np.ndarray          # bool (N,)
    margins: np.ndarray           # float (N,): min distance-type quantity
    residuals: np.ndarray         # float (N,): max exact-incidence residual
    fail_counts: dict             # check name -> number of failing nodes
    centers: Optional[np.ndarray] = None   # complex (N, n+1): meets of d1, d2;
                                           # None for line triples and point sets

    @property
    def all_ok(self) -> bool:
        return bool(np.all(self.verdicts))


def _each_distinct_once(kernel, values: np.ndarray, *args) -> BatchResult:
    """``kernel(cols, *args)`` on the bitwise-distinct nodes of ``values``
    (N, k, m) in order of first occurrence, in passes of at most PASS_NODES
    nodes: each pass gathers its nodes' rows into unit coordinate-major
    points ``cols`` (m, k, n), normalized in place, so no array of the
    whole batch is copied.  A kernel returns its pass's named checks (a
    dict of boolean masks, in check order), margins, residuals and centers
    (or None).  The passes are joined and every array, each mask too, is
    expanded back to the N nodes by one index; the verdicts are the AND of
    the expanded masks and ``fail_counts`` their failing nodes, so a
    repeated node is tallied with its multiplicity.  A batch of one node, or
    of N distinct nodes, needs no index.

    Nodes are grouped by a weighted sum of their coordinates, and a node
    joins the first node of its group where the two are bitwise equal; the
    nodes that differ from theirs (a signed zero, a sum that rounds alike)
    are grouped by their bytes.  The kernels compute each node independently
    of its batch, so the result equals the kernel's on the whole batch."""
    n = len(values)
    distinct, at = np.arange(n), None
    if n > 1:
        flat = np.ascontiguousarray(values).reshape(n, -1).view(np.float64)
        with np.errstate(all="ignore"):
            key = np.einsum("ij,j->i", flat, 1.0 / (np.arange(flat.shape[1]) + np.pi))
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        rep = first[inverse]
        words = flat.view(np.uint64)
        dup = np.flatnonzero(rep != np.arange(n))
        alone = dup[np.any(words[dup] != words[rep[dup]], axis=1)]
        if alone.size:
            _, head, group = np.unique(words[alone].view(np.dtype((np.void, flat.shape[1] * 8))).ravel(),
                                       return_index=True, return_inverse=True)
            rep[alone] = alone[head][group]
        distinct = np.flatnonzero(rep == np.arange(n))
        if len(distinct) < n:
            at = np.empty(n, dtype=np.intp)
            at[distinct] = np.arange(len(distinct))
            at = at[rep]
    parts = []
    for start in range(0, max(len(distinct), 1), PASS_NODES):
        pick = slice(start, start + PASS_NODES)
        cols = to_columns(values[pick] if at is None else values[distinct[pick]])
        unit_rows(cols, axis=0, out=cols)
        parts.append(kernel(cols, *args))

    def expanded(arrays):
        whole = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        return whole if at is None else whole[at]

    checks, margins, residuals, centers = zip(*parts)
    checks = {name: expanded([c[name] for c in checks]) for name in checks[0]}
    fail_counts = {name: bad for name, mask in checks.items()
                   if (bad := mask.size - int(np.count_nonzero(mask)))}
    return BatchResult(functools.reduce(np.logical_and, checks.values()), expanded(margins),
                       expanded(residuals), fail_counts, None if centers[0] is None else expanded(centers))


def validate_values(values: np.ndarray, tag: SpaceTag, tol: Tolerances = DEFAULT_TOL) -> BatchResult:
    """Validate a batch under ``tag``: line triples (see
    ``validate_lines_batch``) for an F3_lines_through tag, k points (N, k,
    n+1) for an Fk or Fk_stratum tag (see ``_validate_points``), six-point
    configurations (see ``validate_batch``) otherwise.  This is the one place
    that picks the validator; it looks them up as module globals at call
    time, so a wrapper installed on this module sees every call.  Points
    with other than tag.n + 1 coordinates raise DimensionMismatchError."""
    values = np.asarray(values, dtype=np.complex128)
    if values.shape[-1] != tag.n + 1:
        raise DimensionMismatchError(f"tag expects CP^{tag.n} but points have {values.shape[-1]} coordinates")
    if tag.kind == "F3_lines_through":
        return validate_lines_batch(values, tag, tol)
    if tag.kind in ("Fk", "Fk_stratum"):
        return _each_distinct_once(_validate_points, values, tag, tol)
    return validate_batch(values, tag, tol)


def _validate_points(cols: np.ndarray, tag: SpaceTag, tol: Tolerances) -> tuple:
    """The checks of an Fk or Fk_stratum tag on one pass of unit
    coordinate-major points (n+1, k, N), named as the configurations':
    pairwise-distinct (a margin, inf for one point) and, for span i, the
    ``span_ladder`` residual i+1 above rank_rel_tol (span-at-least, a
    margin) and residual i+2 at most rank_rel_tol (span-exact, a residual)."""
    k, nodes = cols.shape[1:]
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    margins = chordal_pairs(cols, pairs).min(axis=0) if pairs else np.full(nodes, np.inf)
    checks = {"pairwise-distinct": margins > tol.proj_eq_tol}
    residuals = np.zeros(nodes)
    if tag.kind == "Fk_stratum":
        least, residuals = span_ladder(cols, tag.span_i + 2)[tag.span_i:]
        checks["span-at-least"] = least > tol.rank_rel_tol
        checks["span-exact"] = residuals <= tol.rank_rel_tol
        margins = np.minimum(margins, least)
    return checks, margins, residuals, None


def validate_batch(points: np.ndarray, tag: SpaceTag, tol: Tolerances = DEFAULT_TOL) -> BatchResult:
    """Validate many six-point tuples at once.

    ``points`` has shape (N, 6, n+1).  A configuration is measured as the
    line triple through its own center, the meet of d1 and d2: each span
    (A_i, B_i) becomes its point of the pencil of lines through the meet,
    with an incidence residual (``projective.pencil_points``), as in
    ``validate_lines_batch``.  Checks (named as reported):
    - pairwise-distinct: the six points pairwise more than proj_eq_tol apart
      (so each line is defined);
    - meet-defined (see ``projective.meet``); where it fails, the later
      checks read the placeholder p1 = A1, so such a node also fails
      center-apart and can fail lines-distinct or concurrent;
    - center-apart: each point more than proj_eq_tol from the meet;
    - center-matches (fixed tags only): the meet within proj_eq_tol of the
      tag's center, a residual;
    - lines-distinct: the three pencil points pairwise more than
      proj_eq_tol apart;
    - concurrent: every incidence residual at most rank_rel_tol (d1 passes
      through the meet by construction; above CP^2, d2's residual is the
      skew of d1 and d2);
    - span-at-least (solid): the chordal distance of one pencil point from
      the pencil line through the other two (``collinear_residual``) above
      rank_rel_tol, a margin;
    - span-exact (planar above CP^2): the same distance at most
      rank_rel_tol, a residual.
    A planar span of at least a plane is implied by lines-distinct, and a
    solid span of at most a 3-space in CP^4 by concurrent: the farther
    point of each span lies exactly in span(I, d_i), the nearer within its
    residual of it.  The margin is the least chordal distance of the
    checks, with a solid span's distance; the residual the largest of
    center-matches, concurrent and span-exact.  The kernel returns each
    check as a mask over its pass's distinct nodes; the verdicts and
    ``fail_counts`` come from ``_each_distinct_once``.
    """
    if not tag.kind.startswith("D_"):
        raise ProjectiveError(f"validate_batch requires a Desargues tag, got {tag.kind}")
    pts = np.asarray(points, dtype=np.complex128)
    return _each_distinct_once(_validate_configs, pts[None] if pts.ndim == 2 else pts, tag, tol)


def _validate_configs(cols: np.ndarray, tag: SpaceTag, tol: Tolerances) -> tuple:
    """``validate_batch`` on one pass of unit coordinate-major points
    (n+1, 6, N).  Center-apart is the nearer point's distance from the meet
    that ``pencil_points`` forms for each span."""
    centers, defined = meet(*(cols[:, i] for i in range(4)))
    # pairwise distinctness covers "each line defined": pairs (0,1),(2,3),(4,5)
    pair = chordal_pairs(cols, _POINT_PAIRS).min(axis=0)
    points, incidence, apart = pencil_points(cols[:, 0::2], cols[:, 1::2], centers[:, None])
    apart = apart.min(axis=0)
    checks = {"pairwise-distinct": pair > tol.proj_eq_tol, "meet-defined": defined,
              "center-apart": apart > tol.proj_eq_tol}
    residuals = np.zeros(cols.shape[-1])
    if tag.kind.endswith("_fixed"):
        residuals = chordal_batch(centers.T, tag.center.unit())
        checks["center-matches"] = residuals <= tol.proj_eq_tol
    distinct, concurrent, lines = _pencil_checks(points, incidence, "concurrent", tol, checks)
    margins = np.minimum(np.minimum(pair, apart), distinct)
    residuals = np.maximum(residuals, concurrent)
    solid = tag.span_required == 3
    if solid or tag.n > 2:
        span = collinear_residual(points, lines)
        if solid:
            checks["span-at-least"] = span > tol.rank_rel_tol
            margins = np.minimum(margins, span)
        else:
            checks["span-exact"] = span <= tol.rank_rel_tol
            residuals = np.maximum(residuals, span)
    return checks, margins, residuals, centers.T


def _pencil_checks(points, incidence, name: str, tol: Tolerances, checks: dict) -> tuple:
    """The checks of each node's three points of the pencil of lines
    through its center, coordinate-major (m, 3, N), with their incidence
    residuals (3, N), added to ``checks``: lines-distinct (the points
    pairwise more than proj_eq_tol apart) and ``name`` (every residual at
    most rank_rel_tol).  Returns the least distance, the largest residual
    and the pair distances (3, N) in the order of ``_LINE_PAIRS``."""
    lines = chordal_pairs(points, _LINE_PAIRS)
    distinct, residuals = lines.min(axis=0), incidence.max(axis=0)
    checks["lines-distinct"] = distinct > tol.proj_eq_tol
    checks[name] = residuals <= tol.rank_rel_tol
    return distinct, residuals, lines


def validate(points: Sequence[HPoint], tag: SpaceTag, tol: Tolerances = DEFAULT_TOL) -> MembershipReport:
    """Single-point-set membership check with named sub-check failures, the
    batch of one of ``validate_values``.  Fk and Fk_stratum tags need
    exactly k points, the others six; under an F3_lines_through tag the six
    points are the three (A_i, B_i) line spans.  Points of mixed ambient
    dimensions raise DimensionMismatchError."""
    count = tag.k if tag.kind in ("Fk", "Fk_stratum") else 6
    if len(points) != count:
        raise ProjectiveError(f"{tag.kind} tag needs {count} points, got {len(points)}")
    if len({p.ambient_dim for p in points}) > 1:
        raise DimensionMismatchError("mixed ambient dimensions")
    res = validate_values(np.stack([p.coords for p in points])[None], tag, tol)
    margin = float(res.margins[0])
    rep = MembershipReport(
        bool(res.verdicts[0]),
        margin,
        sorted(res.fail_counts),
        {"margin": margin, "max_residual": float(res.residuals[0])},
    )
    if rep.verdict and margin < tol.margin_warn:
        rep.warnings.append(f"margin {margin:.3e} below margin_warn")
    return rep


def validate_lines_batch(arr: np.ndarray, tag: SpaceTag, tol: Tolerances = DEFAULT_TOL) -> BatchResult:
    """Triples of distinct lines through the tag's fixed center, batched.

    arr: (N, 3, n+1) dual covectors (CP^2), or the spans (A_i, B_i) as six
    points (N, 6, n+1).  Each line is a point of the pencil of lines
    through the center, with an incidence residual: a unit covector u and
    |u . c|, or ``projective.pencil_points`` of a span.  Checks:
    span-defined (spans only: each span's two points more than proj_eq_tol
    apart), lines-distinct (the three points of the pencil pairwise more
    than proj_eq_tol apart), center-incidence (each residual at most
    rank_rel_tol).  The margin is the least of those chordal distances.
    Every value is closed form; the result has no centers.  As in
    ``validate_batch``, the kernel returns each check as a mask over its
    pass's distinct triples, and ``_each_distinct_once`` expands them.
    """
    if tag.kind != "F3_lines_through":
        raise ProjectiveError("validate_lines_batch requires an F3_lines_through tag")
    return _each_distinct_once(_validate_lines, np.asarray(arr, dtype=np.complex128), tag, tol)


def _validate_lines(cols: np.ndarray, tag: SpaceTag, tol: Tolerances) -> tuple:
    """``validate_lines_batch`` on one pass of unit coordinate-major dual
    covectors (3, 3, N) or span points (n+1, 6, N)."""
    c = tag.center.unit()
    checks: dict = {}
    if cols.shape[1] == 3:  # dual covectors, each its line's point of the pencil
        points = cols
        incidence = np.abs(np.ascontiguousarray(cols.T) @ c).T   # the product on rows, for its bits
        margins = np.inf
    else:
        margins = chordal_pairs(cols, _SPAN_PAIRS).min(axis=0)
        checks["span-defined"] = margins > tol.proj_eq_tol
        points, incidence, _ = pencil_points(cols[:, 0::2], cols[:, 1::2], c[:, None, None])
    distinct, residuals, _ = _pencil_checks(points, incidence, "center-incidence", tol, checks)
    return checks, np.minimum(margins, distinct), residuals, None


class SamplingError(ProjectiveError):
    """``random_config`` drew no configuration that the tolerances admit."""


def random_config(tag: SpaceTag, seed, tol: Tolerances = DEFAULT_TOL, max_tries: int = 200) -> Config6:
    """Constructive sampler: a center, three distinct lines through it, two
    distinct non-center points per line.  Rejection-samples until the
    degeneracy margin clears margin_warn; reproducible via the seed.  Raises
    ``SamplingError`` when none of ``max_tries`` samples does."""
    rng = np.random.default_rng(seed)
    n = tag.n
    want_span = tag.span_required or 2
    for _ in range(max_tries):
        if tag.center is not None:
            center = tag.center.coords
        else:
            center = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        pts = []
        if want_span == 2:
            # directions inside a random plane through the center
            basis = rng.normal(size=(2, n + 1)) + 1j * rng.normal(size=(2, n + 1))
            dirs = [basis[0], basis[1], basis[0] + basis[1]]
        else:
            basis = rng.normal(size=(3, n + 1)) + 1j * rng.normal(size=(3, n + 1))
            dirs = [basis[0], basis[1], basis[2]]
        for d in dirs:
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            pts.append(center + a * d)
            pts.append(center + b * d)
        try:
            cfg = Config6([HPoint(p) for p in pts])
            rep = validate(cfg.points, tag, tol)
        except ProjectiveError:
            continue
        if rep.verdict and rep.margin > tol.margin_warn:
            return cfg
    raise SamplingError(f"random configuration sampling failed to converge: no sample clears proj_eq_tol="
                        f"{tol.proj_eq_tol:g}, rank_rel_tol={tol.rank_rel_tol:g}, margin_warn={tol.margin_warn:g}")
