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
    meet,
    relative_singular_values,
    span_dim,
    unit_rows,
)

_LINE_IDX = ((0, 1), (2, 3), (4, 5))


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
        if self.kind in ("Fk", "Fk_stratum") and not (isinstance(self.k, int) and self.k >= 1):
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
        center = HPoint.from_json(d["center"]) if "center" in d else None
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
        return cls([HPoint.from_json(p) for p in d["points"]])

    @classmethod
    def from_array(cls, rows) -> "Config6":
        return cls([HPoint(r) for r in np.asarray(rows, dtype=np.complex128)])

    def __repr__(self) -> str:
        return "Config6(" + ", ".join(repr(p) for p in self.points) + ")"


def _pair_distances(u: np.ndarray):
    """Chordal distances of all point pairs i < j of unit rows (..., k, m):
    the pairs in row-major order, and the distances stacked on a last axis.
    One batched call per pair keeps the temporaries at the size of ``u``."""
    pairs = [(i, j) for i in range(u.shape[-2]) for j in range(i + 1, u.shape[-2])]
    dists = [chordal_batch(u[..., i, :], u[..., j, :]) for i, j in pairs]
    return pairs, np.stack(dists, axis=-1) if pairs else np.empty(u.shape[:-2] + (0,))


def in_configuration_space(points: Sequence[HPoint], tol: Tolerances = DEFAULT_TOL) -> MembershipReport:
    """Pairwise-distinctness predicate for F_k; margin is the least distance."""
    pts = list(points)
    if not pts:
        raise ProjectiveError("empty point list")
    pairs, d = _pair_distances(unit_rows(np.stack([p.coords for p in pts])))
    worst = float(d.min()) if pairs else np.inf
    failures = [f"points {i} and {j} coincide"
                for (i, j), close in zip(pairs, d <= tol.proj_eq_tol) if close]
    return MembershipReport(not failures, worst, failures, {"min_pair_dist": worst})


@dataclass
class BatchResult:
    """Vectorized validation outcome over a batch of configurations or
    line triples."""

    verdicts: np.ndarray          # bool (N,)
    margins: np.ndarray           # float (N,): min distance-type quantity
    residuals: np.ndarray         # float (N,): max exact-incidence residual
    fail_counts: dict             # check name -> number of failing nodes
    centers: Optional[np.ndarray] = None   # complex (N, n+1): meets of d1, d2;
                                           # None for line triples

    @property
    def all_ok(self) -> bool:
        return bool(np.all(self.verdicts))


def _record(fail_counts: dict, name: str, good: np.ndarray) -> np.ndarray:
    """Record how many nodes fail check ``name`` (if any) and return ``good``."""
    bad = int(np.sum(~good))
    if bad:
        fail_counts[name] = bad
    return good


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
    concurrent, center-apart, span, center-matches (fixed tags only).
    """
    pts = np.asarray(points, dtype=np.complex128)
    if pts.ndim == 2:
        pts = pts[None]
    n_nodes = pts.shape[0]
    m = pts.shape[2]
    if m != tag.n + 1:
        raise DimensionMismatchError(
            f"tag expects CP^{tag.n} but points have {m} coordinates"
        )
    u = unit_rows(pts)

    margins = np.full(n_nodes, np.inf)
    residuals = np.zeros(n_nodes)
    ok = np.ones(n_nodes, dtype=bool)
    fail_counts: dict = {}

    # pairwise distinctness (covers "each line defined": pairs (0,1),(2,3),(4,5))
    pair_d = _pair_distances(u)[1]
    margins = np.minimum(margins, pair_d.min(axis=-1))
    ok &= _record(fail_counts, "pairwise-distinct", np.all(pair_d > tol.proj_eq_tol, axis=-1))

    # lines pairwise distinct: rank 3 of the stacked four span points
    for (la, lb), name in zip(((0, 1), (0, 2), (1, 2)), ("d1-d2", "d1-d3", "d2-d3")):
        ia, ib = _LINE_IDX[la], _LINE_IDX[lb]
        rows = u[:, [ia[0], ia[1], ib[0], ib[1]], :]
        rel = relative_singular_values(rows)[..., 2]
        margins = np.minimum(margins, rel)
        ok &= _record(fail_counts, f"lines-distinct {name}", rel > tol.rank_rel_tol)

    # concurrency: meet of d1 and d2, then incidence of the meet on d3
    centers, skew, defined = meet(u[:, 0], u[:, 1], u[:, 2], u[:, 3])
    residuals = np.maximum(residuals, skew)
    ok &= _record(fail_counts, "concurrent d1-d2", skew <= tol.rank_rel_tol)
    ok &= _record(fail_counts, "meet-defined", defined)

    rows3 = np.concatenate([centers[:, None, :], u[:, 4:6, :]], axis=1)
    inc = relative_singular_values(rows3)[..., 2]
    residuals = np.maximum(residuals, inc)
    ok &= _record(fail_counts, "concurrent d3", inc <= tol.rank_rel_tol)

    # all six points away from the center
    cd = np.stack([chordal_batch(u[:, i], centers) for i in range(6)], axis=-1)
    margins = np.minimum(margins, cd.min(axis=-1))
    ok &= _record(fail_counts, "center-apart", np.all(cd > tol.proj_eq_tol, axis=-1))

    # span of the six points
    want = tag.span_required
    if want is not None:
        s6 = relative_singular_values(u)
        rel = s6[..., want]
        margins = np.minimum(margins, rel)
        ok &= _record(fail_counts, "span-at-least", rel > tol.rank_rel_tol)
        if m > want + 1:
            exc = s6[..., want + 1]
            residuals = np.maximum(residuals, exc)
            ok &= _record(fail_counts, "span-exact", exc <= tol.rank_rel_tol)

    # fixed center
    if tag.kind.endswith("_fixed"):
        c = tag.center.unit()
        dcen = chordal_batch(centers, c[None, :])
        residuals = np.maximum(residuals, dcen)
        ok &= _record(fail_counts, "center-matches", dcen <= tol.proj_eq_tol)

    return BatchResult(ok, margins, residuals, fail_counts, centers)


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
    or as six points (N, 6, n+1).  The result has no centers.
    """
    if tag.kind != "F3_lines_through":
        raise ProjectiveError("validate_lines_batch requires an F3_lines_through tag")
    arr = np.asarray(arr, dtype=np.complex128)
    c = tag.center.unit()
    fail_counts: dict = {}

    if arr.ndim == 3 and arr.shape[1] == 3:  # dual covectors
        u = unit_rows(arr)
        d01 = chordal_batch(u[:, 0], u[:, 1])
        d02 = chordal_batch(u[:, 0], u[:, 2])
        d12 = chordal_batch(u[:, 1], u[:, 2])
        margins = np.minimum(np.minimum(d01, d02), d12)
        ok = _record(fail_counts, "lines-distinct", margins > tol.proj_eq_tol)
        residuals = np.abs(u @ c).max(axis=-1)
        ok = ok & _record(fail_counts, "center-incidence", residuals <= tol.rank_rel_tol)
        return BatchResult(ok, margins, residuals, fail_counts)

    u = unit_rows(arr.reshape(arr.shape[0], 3, 2, -1))  # (N, 3, 2, m)
    margins = np.full(arr.shape[0], np.inf)
    for i in range(3):
        for j in range(i + 1, 3):
            rows = np.concatenate([u[:, i], u[:, j]], axis=1)
            margins = np.minimum(margins, relative_singular_values(rows)[..., 2])
    ok = _record(fail_counts, "lines-distinct", margins > tol.rank_rel_tol)
    # the two points of each span must differ, or the span is no line
    span_d = chordal_batch(u[:, :, 0], u[:, :, 1])
    margins = np.minimum(margins, span_d.min(axis=-1))
    ok = ok & _record(fail_counts, "span-defined", np.all(span_d > tol.proj_eq_tol, axis=-1))
    residuals = np.zeros(arr.shape[0])
    for i in range(3):
        rows = np.concatenate([u[:, i], np.broadcast_to(c, (arr.shape[0], 1, c.size))], axis=1)
        residuals = np.maximum(residuals, relative_singular_values(rows)[..., 2])
    ok = ok & _record(fail_counts, "center-incidence", residuals <= tol.rank_rel_tol)
    return BatchResult(ok, margins, residuals, fail_counts)


def random_config(tag: SpaceTag, seed, tol: Tolerances = DEFAULT_TOL, max_tries: int = 200) -> Config6:
    """Constructive sampler: a center, three distinct lines through it, two
    distinct non-center points per line.  Rejection-samples until the
    degeneracy margin clears margin_warn; reproducible via the seed."""
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
    raise ProjectiveError("random configuration sampling failed to converge")
