"""Membership predicates for configuration spaces and Desargues spaces.

A Desargues configuration is an ordered tuple (A1,B1,A2,B2,A3,B3) of six
points placed on three distinct concurrent lines d_i = A_i B_i, all six
distinct from the common center I; planar if the points span a 2-plane,
solid if they span a 3-space.  ``validate`` checks exactly the written
conditions, nothing more.

Margins are "distance to degeneracy" quantities (bigger is safer): chordal
distances and relative singular values.  Exact incidence requirements
(concurrency, fixed center) are residuals (smaller is better) and are
reported separately instead of being folded into the margin minimum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .projective import (
    DEFAULT_TOL,
    DimensionMismatchError,
    HPoint,
    ProjectiveError,
    Tolerances,
    chordal_batch,
    chordal_pairs,
    is_int,
    meet,
    rank3_screen,
    relative_singular_values,
    span_dim,
    unit_rows,
)

# Pairs of the rows A1, B1, A2, B2, A3, B3 (0-5) and the meet or center (6)
# whose chordal distances validate_batch checks: the points, then the meet.
_POINT_PAIRS = [(i, j) for i in range(6) for j in range(i + 1, 6)]
_CENTER_PAIRS = [(i, 6) for i in range(6)]
_SPAN_PAIRS = [(0, 1), (2, 3), (4, 5)]


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


def in_configuration_space(points: Sequence[HPoint], tol: Tolerances = DEFAULT_TOL) -> MembershipReport:
    """Pairwise-distinctness predicate for F_k; margin is the least distance."""
    pts = list(points)
    if not pts:
        raise ProjectiveError("empty point list")
    pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
    d = chordal_pairs(unit_rows(np.stack([p.coords for p in pts]))[None], pairs)[0] if pairs else np.empty(0)
    worst = float(d.min()) if pairs else np.inf
    failures = [f"points {i} and {j} coincide"
                for (i, j), close in zip(pairs, d <= tol.proj_eq_tol) if close]
    return MembershipReport(not failures, worst, failures, {"min_pair_dist": worst})


@dataclass
class BatchResult:
    """Vectorized validation outcome over a batch of configurations or
    line triples.

    ``verdicts`` and ``fail_counts`` are always LAPACK's: one LAPACK pass
    takes every rank value whose interval holds its threshold.  ``margins``
    is exact (LAPACK singular values, chordal distances) at every node that
    can attain the batch's least margin, over all nodes or over the passing
    nodes.  In a screened batch (every batch of more than one node, see
    ``strata._rank_values``) a rank value of a kind that
    ``projective.rank3_screen`` screens is elsewhere within its stated
    bound, and every other rank value is LAPACK's.  So ``residuals`` is
    within that bound at every node whose rank values are screened: a
    maximum residual, or a least margin over another subset of nodes, is
    then an estimate within that bound (about 1e-13 for a residual near
    zero), not LAPACK's value.  A batch of one is exact throughout.

    A batch is validated as the batch of its bitwise-distinct nodes, in
    order of first occurrence (see ``_each_distinct_once``): a repeated
    node gets the entries of its first occurrence, and ``fail_counts``
    counts each failing node with its multiplicity.  So the result equals
    that of the nodes validated one copy at a time, and the first node
    attaining a least margin is the same node.
    """

    verdicts: np.ndarray          # bool (N,)
    margins: np.ndarray           # float (N,): min distance-type quantity
    residuals: np.ndarray         # float (N,): max exact-incidence residual
    fail_counts: dict             # check name -> number of failing nodes
    centers: Optional[np.ndarray] = None   # complex (N, n+1): meets of d1, d2;
                                           # None for line triples

    @property
    def all_ok(self) -> bool:
        return bool(np.all(self.verdicts))


def _record(fail_counts: dict, name: str, good: np.ndarray, counts=None) -> np.ndarray:
    """Record how many nodes fail check ``name`` (if any), each node
    ``counts`` times when given, and return ``good``."""
    bad = int(np.sum(~good) if counts is None else np.sum(counts[~good]))
    if bad:
        fail_counts[name] = bad
    return good


def _each_distinct_once(kernel, values: np.ndarray, *args) -> BatchResult:
    """``kernel(distinct, *args, counts)`` on the bitwise-distinct nodes of
    ``values`` (N, ...) in order of first occurrence, with their
    multiplicities ``counts``, expanded back to the N nodes.  A batch of
    one node, or of N distinct nodes, is passed whole with counts None.

    Nodes are grouped by a weighted sum of their coordinates, and a node
    joins the first node of its group where the two are bitwise equal; the
    nodes that differ from theirs (a signed zero, a sum that rounds alike)
    are grouped by their bytes.  The kernels compute each node independently
    of its batch, so the result equals the kernel's on the whole batch."""
    n = len(values)
    if n <= 1:
        return kernel(values, *args, None)
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
    if len(distinct) == n:
        return kernel(values, *args, None)
    at = np.empty(n, dtype=np.intp)
    at[distinct] = np.arange(len(distinct))
    at = at[rep]
    res = kernel(values[distinct], *args, np.bincount(at, minlength=len(distinct)))
    return BatchResult(res.verdicts[at], res.margins[at], res.residuals[at], res.fail_counts,
                       None if res.centers is None else res.centers[at])


def validate_values(values: np.ndarray, tag: SpaceTag, tol: Tolerances = DEFAULT_TOL) -> BatchResult:
    """Validate a batch under ``tag``: line triples (see
    ``validate_lines_batch``) for an F3_lines_through tag, six-point
    configurations (see ``validate_batch``) otherwise.  This is the one place
    that picks the validator; it looks both up as module globals at call
    time, so a wrapper installed on this module sees every call."""
    if tag.kind == "F3_lines_through":
        return validate_lines_batch(values, tag, tol)
    return validate_batch(values, tag, tol)


def validate_batch(points: np.ndarray, tag: SpaceTag, tol: Tolerances = DEFAULT_TOL) -> BatchResult:
    """Validate many six-point tuples at once.

    ``points`` has shape (N, 6, n+1).  Checks (named as reported):
    pairwise-distinct, lines-defined (within pairwise), lines-distinct,
    concurrent (d1-d2 above CP^2, and d3), meet-defined, center-apart, span,
    center-matches (fixed tags only).  The rank checks are relative singular
    values of stacks of rows (see ``_rank_checks``); ``_rank_values`` says
    where each comes from.  Verdicts and fail_counts are LAPACK's at every
    node, and so are the least margin and the first node attaining it, over
    all nodes or over the passing ones (see ``BatchResult``).  Each
    bitwise-distinct node is validated once, and ``fail_counts`` counts
    failing nodes with their multiplicity.
    """
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim == 2:
        pts = pts[None]
    m = pts.shape[2]
    if m != tag.n + 1:
        raise DimensionMismatchError(
            f"tag expects CP^{tag.n} but points have {m} coordinates"
        )
    return _each_distinct_once(_validate_configs, pts, tag, tol)


def _validate_configs(pts: np.ndarray, tag: SpaceTag, tol: Tolerances, counts) -> BatchResult:
    """``validate_batch`` on (N, 6, n+1) points, failing nodes counted
    ``counts`` times each when given."""
    m = pts.shape[2]
    u = unit_rows(pts)
    centers, defined = meet(u[:, 0], u[:, 1], u[:, 2], u[:, 3])
    rows = np.concatenate([u, centers[:, None]], axis=1)
    del u
    dist = chordal_pairs(rows, _POINT_PAIRS + _CENTER_PAIRS)
    # pairwise distinctness covers "each line defined": pairs (0,1),(2,3),(4,5)
    pair = dist[:, :len(_POINT_PAIRS)].min(axis=-1)
    apart = dist[:, len(_POINT_PAIRS):].min(axis=-1)
    residuals = np.zeros(len(rows))
    passes = {
        "pairwise-distinct": pair > tol.proj_eq_tol,
        "meet-defined": defined,
        "center-apart": apart > tol.proj_eq_tol,
    }
    if tag.kind.endswith("_fixed"):
        dcen = chordal_batch(centers, tag.center.unit()[None, :])
        residuals = dcen
        passes["center-matches"] = dcen <= tol.proj_eq_tol
    return _rank_checked(rows, _rank_checks(tag.span_required, m), np.minimum(pair, apart),
                         defined, passes, residuals, tol, counts, centers)


def _rank_checks(want: Optional[int], m: int) -> list:
    """The rank checks of ``validate_batch``: name, the rows of the stack
    (A1, B1, A2, B2, A3, B3 are rows 0-5 and the meet of d1 and d2 row 6),
    the index of its relative singular value, and whether that value is a
    margin (passes above rank_rel_tol) or a residual (passes at or below).
    Two lines of CP^2 always meet, so "concurrent d1-d2" is a check above
    CP^2 only: the skew of the four points, the last of their values."""
    checks = [("lines-distinct d1-d2", (0, 1, 2, 3), 2, True),
              ("lines-distinct d1-d3", (0, 1, 4, 5), 2, True),
              ("lines-distinct d2-d3", (2, 3, 4, 5), 2, True),
              ("concurrent d3", (6, 4, 5), 2, False)]
    if m > 3:
        checks.append(("concurrent d1-d2", (0, 1, 2, 3), 3, False))
    if want is not None:
        checks.append(("span-at-least", (0, 1, 2, 3, 4, 5), want, True))
        if m > want + 1:
            checks.append(("span-exact", (0, 1, 2, 3, 4, 5), want + 1, False))
    return checks


# The rank checks of a line triple (rows A1, B1, A2, B2, A3, B3, then the
# center as row 6), in the form of ``_rank_checks``; a name shared by three
# checks passes where all three do.
_LINE_CHECKS = ([("lines-distinct", a + b, 2, True) for a, b in itertools.combinations(_SPAN_PAIRS, 2)]
                + [("center-incidence", a + (6,), 2, False) for a in _SPAN_PAIRS])


def _rank_checked(rows, checks, chordal, defined, passes: dict, residuals, tol: Tolerances,
                  counts, centers=None) -> BatchResult:
    """The batch's result once the rank ``checks`` have run on the stacks of
    ``rows``: their verdicts join ``passes`` (and-ed by name), the margins
    are the least of ``chordal`` and the rank margins, and the residuals the
    largest of ``residuals`` and the rank residuals.  Failing nodes count
    ``counts`` times each when given."""
    others = np.logical_and.reduce(list(passes.values()))
    rank = _rank_values(rows, checks, chordal, defined, others, tol)
    is_margin = np.array([c[3] for c in checks])
    for c, good in zip(checks, _rank_passes(rank, is_margin, tol).T):
        passes[c[0]] = passes[c[0]] & good if c[0] in passes else good
    ok = np.ones(len(rows), dtype=bool)
    fail_counts: dict = {}
    for name, good in passes.items():
        ok &= _record(fail_counts, name, good, counts)
    return BatchResult(ok, np.minimum(chordal, rank[:, is_margin].min(axis=-1)),
                       np.maximum(residuals, rank[:, ~is_margin].max(axis=-1)), fail_counts, centers)


def _rank_passes(values: np.ndarray, is_margin: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Which rank values (N, len(checks)) pass their check."""
    thr = tol.rank_rel_tol
    return np.where(is_margin, values > thr, values <= thr)


def _rank_values(rows, checks, chordal, defined, others_pass, tol: Tolerances) -> np.ndarray:
    """Values (N, len(checks)) of the rank checks on the stacks of ``rows``.

    A batch of one node takes LAPACK.  A larger batch takes
    ``projective.rank3_screen``'s closed-form estimates, with stated bounds,
    for every third value (lines-distinct, concurrent d3, center-incidence,
    a planar span) and for the fourth value of a residual stack of four rows
    or columns (concurrent d1-d2 above CP^2, the skew; a planar span's
    excess in CP^3), whose interval is one-sided.  Then two LAPACK passes:
    - the threshold pass: the unscreened values (a solid span) at every
      node, and the screened ones at every node whose meet is undefined
      (row 6 is then no meet) or where some interval holds its threshold,
      so every verdict is LAPACK's;
    - the minimum pass: each other (node, stack) pair whose margin interval
      reaches the least upper bound of the nodes' margin intervals (the
      least of ``chordal`` and the rank margin intervals) over all nodes,
      or over the nodes passing every check (``others_pass`` and the rank
      verdicts), and reaches the upper bound of its own node: so is each
      such minimum, and the first node attaining it.  A node's other checks
      stay screened.
    Elsewhere a screened value is within its bound of LAPACK's.
    """
    n_checks = len(checks)
    if len(rows) <= 1:
        values = np.zeros((len(rows), n_checks))
        _run_lapack(rows, checks, np.ones(values.shape, dtype=bool), values)
        return values
    thr = tol.rank_rel_tol
    m = rows.shape[-1]
    third = [i for i, c in enumerate(checks) if c[2] == 2]
    fourth = [i for i, c in enumerate(checks)
              if c[2] == 3 and not c[3] and min(len(c[1]), m) == 4]
    screened = np.zeros(n_checks, dtype=bool)
    screened[third + fourth] = True
    est, err = np.zeros((len(rows), n_checks)), np.zeros((len(rows), n_checks))
    est[:, third + fourth], err[:, third + fourth] = rank3_screen(
        rows, [checks[i][1] for i in third], [checks[i][1] for i in fourth])
    lo, hi = est - err, est + err
    holds = ~defined | np.any((lo <= thr) & (hi > thr), axis=-1)
    _run_lapack(rows, checks, ~screened | holds[:, None], est, lo, hi)
    is_margin = np.array([c[3] for c in checks])
    ok = others_pass & np.all(_rank_passes(est, is_margin, tol), axis=-1)
    node_hi = np.minimum(chordal, hi[:, is_margin].min(axis=-1))
    bound = node_hi.min()
    reach = np.where(ok, node_hi[ok].min() if ok.any() else bound, bound)
    cand = is_margin & (lo < hi) & (lo <= np.minimum(reach, node_hi)[:, None])
    _run_lapack(rows, checks, cand, est, lo, hi)
    return est


def _run_lapack(rows, checks, mask, *values) -> None:
    """Set the (node, check) entries of ``mask`` in each of ``values`` to
    LAPACK's value: one SVD per stack over the nodes that need it."""
    for stack in dict.fromkeys(c[1] for c in checks):
        cols = [i for i, c in enumerate(checks) if c[1] == stack]
        nodes = np.flatnonzero(mask[:, cols].any(axis=-1))
        if nodes.size:
            rel = relative_singular_values(rows[np.ix_(nodes, stack)])
            for i in cols:
                for v in values:
                    v[nodes, i] = rel[:, checks[i][2]]


def validate(points: Sequence[HPoint], tag: SpaceTag, tol: Tolerances = DEFAULT_TOL) -> MembershipReport:
    """Single-configuration membership check with named sub-check failures.
    Under an F3_lines_through tag the six points are the three (A_i, B_i)
    line spans.  Fk and Fk_stratum tags need exactly k points."""
    if tag.kind in ("Fk", "Fk_stratum"):
        if len(points) != tag.k:
            raise ProjectiveError(f"{tag.kind} tag with k = {tag.k} needs {tag.k} points, "
                                  f"got {len(points)}")
        rep = in_configuration_space(points, tol)
        if tag.kind == "Fk_stratum" and rep.verdict:
            got = span_dim(points, tol)
            rep.details["span"] = got
            if got != tag.span_i:
                rep.verdict = False
                rep.failures.append(f"span {got} != required {tag.span_i}")
        return rep
    if len(points) != 6:
        raise ProjectiveError(f"{tag.kind} tags require six points")
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

    arr: (N, 3, n+1) dual covectors (CP^2), or the spans as (N, 3, 2, n+1)
    or as six points (N, 6, n+1).  The result has no centers.  As in
    ``validate_batch``, each bitwise-distinct triple is validated once.
    """
    if tag.kind != "F3_lines_through":
        raise ProjectiveError("validate_lines_batch requires an F3_lines_through tag")
    return _each_distinct_once(_validate_lines, np.asarray(arr, dtype=np.complex128), tag, tol)


def _validate_lines(arr: np.ndarray, tag: SpaceTag, tol: Tolerances, counts) -> BatchResult:
    """``validate_lines_batch``, failing nodes counted ``counts`` times each
    when given."""
    c = tag.center.unit()
    if arr.ndim == 3 and arr.shape[1] == 3:  # dual covectors
        fail_counts: dict = {}
        u = unit_rows(arr)
        margins = chordal_pairs(u, [(0, 1), (0, 2), (1, 2)]).min(axis=-1)
        ok = _record(fail_counts, "lines-distinct", margins > tol.proj_eq_tol, counts)
        residuals = np.abs(u @ c).max(axis=-1)
        ok = ok & _record(fail_counts, "center-incidence", residuals <= tol.rank_rel_tol, counts)
        return BatchResult(ok, margins, residuals, fail_counts)

    n = arr.shape[0]
    rows = np.concatenate([unit_rows(arr.reshape(n, 6, -1)), np.broadcast_to(c, (n, 1, c.size))], axis=1)
    # the two points of each span must differ, or the span is no line
    span_d = chordal_pairs(rows, _SPAN_PAIRS).min(axis=-1)
    passes = {"span-defined": span_d > tol.proj_eq_tol}
    return _rank_checked(rows, _LINE_CHECKS, span_d, np.ones(n, dtype=bool), passes, np.zeros(n), tol,
                         counts)


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
