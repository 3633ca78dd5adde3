"""Loops, disks and cylinders as sampled objects: concatenation, inversion,
reparametrization, pointwise comparison, and membership sweeps.

Concatenation convention (calibrated against the printed piecewise interval
tables): p * q traverses p at double speed on angles [0, pi] and q on
[pi, 2*pi]; left-associated nesting therefore produces quarter-speed outer
pieces.  Conjugation products use the equal-speed n-part convention of the
printed tables, available as EqualConcat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import atlas
from .projective import (
    DEFAULT_TOL,
    ProjectiveError,
    Tolerances,
    chordal_batch,
    cross,
    line_residual,
    unit_rows,
)
from .strata import validate_values

TWO_PI = 2.0 * np.pi
MAX_WINDING_SAMPLES = 2 ** 20   # cap on closed-grid and refined winding samples
MAX_WORD_DEPTH = 100            # cap on a loop word's nesting: each '(', '*' and '^-1' is a level


class PathError(ProjectiveError):
    pass


# ---------------------------------------------------------------------------
# value comparison, by value kind

def value_dist(a: np.ndarray, b: np.ndarray, kind: str) -> np.ndarray:
    """Projective distance between two sampled values (batched), for the
    value kinds that are compared:

    config       max chordal distance over the six points
    lines_dual   max chordal distance over the three dual covectors
    lines_span   max line mismatch over the spans, each pair of rows
                 (A_i, B_i): the larger chordal distance of a's two
                 points from b's line (``projective.line_residual``), on
                 the chordal scale [0, 1]; 0 to rounding iff the spans
                 agree as lines, 1 where either pair spans no line
    scalar       absolute difference (the arc items epsilon and eta)

    A non-finite row of a point kind reads 1, the largest distance.
    """
    if kind in ("config", "lines_dual"):
        with np.errstate(invalid="ignore"):   # normalizing a non-finite row, which reads 1
            dist = chordal_batch(a, b, raw=True)
        return np.where(np.isnan(dist), 1.0, dist).max(axis=-1)
    if kind == "lines_span":
        a, b = (x.reshape(x.shape[:-2] + (-1, 2, x.shape[-1])) for x in (a, b))
        return line_residual(a, b).max(axis=-1)
    if kind == "scalar":
        return np.abs(a - b)
    raise PathError(f"values of kind {kind!r} are never compared")


def config_lines_dual(arr: np.ndarray) -> np.ndarray:
    """Dual covectors of the three lines of CP^2 configuration batches."""
    return cross(arr.T[:, 0::2], arr.T[:, 1::2]).T


def plane_incidence(points: np.ndarray, covectors: np.ndarray) -> np.ndarray:
    """Max |<unit point, unit covector>| over the six points (batched)."""
    u = unit_rows(points)
    c = unit_rows(covectors)
    return np.abs(np.einsum("...kj,...j->...k", u, c)).max(axis=-1)


# ---------------------------------------------------------------------------
# loop expressions

class LoopExpr:
    """A closed path on the angle interval [0, 2*pi], built over atlas ids."""

    value_kind = "config"

    def at(self, theta: np.ndarray) -> np.ndarray:
        """Values at the angles ``theta``.  ``_route`` gives each leaf (an
        ``Atom`` or an ``Embed``) its local angles and output positions; each
        distinct leaf is evaluated once, on all of them, and written once."""
        th = np.asarray(theta, dtype=float).reshape(-1)
        leaves = {}
        self._route(th, np.arange(th.size), leaves)
        out = None
        for leaf, (angles, pos) in leaves.items():
            v = leaf.at(np.concatenate(angles))
            if out is None:
                out = np.empty(th.shape + v.shape[1:], dtype=v.dtype)
            elif v.shape[1:] != out.shape[1:]:
                raise PathError(f"{self.label()} concatenates values of shapes "
                                f"{out.shape[1:]} and {v.shape[1:]}")
            out[np.concatenate(pos)] = v
        return out.reshape(np.shape(theta) + out.shape[1:])

    def _route(self, theta, pos, leaves):
        """File a leaf's angles ``theta`` and output positions ``pos`` under
        it in ``leaves``; a composite path passes its parts their own."""
        angles, positions = leaves.setdefault(self, ([], []))
        angles.append(theta)
        positions.append(pos)

    def sample(self, n: int):
        """Angles and values on ``domain_nodes("closed_circle", n)``.  They
        are evaluated once per n and kept on the expression, which is
        immutable; both arrays are read-only."""
        cache = self.__dict__.setdefault("_samples", {})
        if n not in cache:
            theta = domain_nodes("closed_circle", n)[0]["theta"]
            values = self.at(theta)
            theta.flags.writeable = values.flags.writeable = False
            cache[n] = theta, values
        return cache[n]

    def label(self) -> str:
        raise NotImplementedError


@dataclass(unsafe_hash=True)
class Atom(LoopExpr):
    """A circle-domain atlas item, or a fixed-t boundary of a cylinder item,
    or the unit-circle restriction of a disk item.  Atoms of the same
    ``item_id`` and ``t`` are equal, so a word evaluates them once."""

    item_id: str
    t: Optional[float] = None

    def __post_init__(self):
        self.item = atlas.get(self.item_id)
        if self.item.kind == "cylinder" and self.t is None:
            raise PathError(f"cylinder item {self.item_id} needs a boundary parameter t")
        self.value_kind = self.item.value_kind

    def at(self, theta):
        return self.item.eval(theta, t=self.t)

    def label(self):
        if self.t is not None:
            return f"{self.item_id}@t={self.t:g}"
        return self.item_id


class EqualConcat(LoopExpr):
    """n paths traversed at n-fold speed on equal angular windows.  Each
    part is routed only the angles of its own window."""

    def __init__(self, parts: Sequence[LoopExpr]):
        parts = list(parts)
        kinds = {p.value_kind for p in parts}
        if len(kinds) != 1:
            raise PathError("concatenation of paths with different value kinds")
        self.parts = parts
        self.value_kind = parts[0].value_kind

    def window(self, th: np.ndarray) -> np.ndarray:
        """Index of the part that owns each angle."""
        n = len(self.parts)
        return np.minimum((th * n / TWO_PI).astype(int), n - 1)

    def _route(self, theta, pos, leaves):
        n = len(self.parts)
        idx = self.window(theta)
        for k, part in enumerate(self.parts):
            mask = idx == k
            if np.any(mask):
                part._route(n * theta[mask] - k * TWO_PI, pos[mask], leaves)

    def label(self):
        return "(" + " . ".join(p.label() for p in self.parts) + ")"


class Concat(EqualConcat):
    """p * q: p on [0, pi] and q on (pi, 2*pi], each at double speed."""

    def __init__(self, p: LoopExpr, q: LoopExpr):
        super().__init__([p, q])

    def window(self, th):
        return (th > np.pi).astype(int)

    def label(self):
        p, q = self.parts
        return f"({p.label()} * {q.label()})"


class Inverse(LoopExpr):
    def __init__(self, p: LoopExpr):
        self.p = p
        self.value_kind = p.value_kind

    def _route(self, theta, pos, leaves):
        self.p._route(TWO_PI - theta, pos, leaves)

    def label(self):
        return f"{self.p.label()}^-1"


class Reparam(LoopExpr):
    def __init__(self, p: LoopExpr, schedule: Callable, name: str = "reparam"):
        self.p, self.schedule, self.name = p, schedule, name
        self.value_kind = p.value_kind

    def _route(self, theta, pos, leaves):
        self.p._route(self.schedule(theta), pos, leaves)

    def label(self):
        return f"{self.name}({self.p.label()})"


class Embed(LoopExpr):
    """Push a CP^n-valued path into CP^(n+extra) by appending zeros."""

    def __init__(self, p: LoopExpr, extra: int = 1):
        self.p, self.extra = p, extra
        self.value_kind = p.value_kind

    def at(self, theta):
        return atlas.embed(self.p.at(theta), self.extra)

    def label(self):
        return f"embed({self.p.label()})"


def outer_thirds_schedule(theta):
    """Constant on the outer thirds, cubed argument on the middle third."""
    th = np.asarray(theta, dtype=float)
    return np.clip(3.0 * th - TWO_PI, 0.0, TWO_PI)


# ---------------------------------------------------------------------------
# expression parser:  atom | expr '*' expr | expr '^-1' | '(' expr ')'

def parse_loop_expr(text: str) -> LoopExpr:
    """The loop of a word; a word nested deeper than ``MAX_WORD_DEPTH``
    levels is refused before any evaluation, since parsing, sampling and
    labelling it all recurse once per level."""
    tokens = _tokenize(text)
    expr, pos, _ = _parse_expr(tokens, 0, 0)
    if pos != len(tokens):
        raise PathError(f"unexpected token {tokens[pos]!r} in loop expression")
    return expr


def _tokenize(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()*":
            out.append(ch)
            i += 1
        elif text.startswith("^-1", i):
            out.append("^-1")
            i += 3
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise PathError(f"bad character {ch!r} in loop expression")
    return out


def _level(depth):
    """``depth``, the nesting of a subword, once checked against the cap."""
    if depth > MAX_WORD_DEPTH:
        raise PathError(f"loop expression nested deeper than {MAX_WORD_DEPTH} levels")
    return depth


# Each returns (node, next position, depth of the node); ``opened`` counts
# the parentheses around it, so the descent stops at the cap too.
def _parse_expr(tokens, pos, opened):
    left, pos, depth = _parse_term(tokens, pos, opened)
    while pos < len(tokens) and tokens[pos] == "*":
        right, pos, d = _parse_term(tokens, pos + 1, opened)
        left, depth = Concat(left, right), _level(max(depth, d) + 1)
    return left, pos, depth


def _parse_term(tokens, pos, opened):
    node, pos, depth = _parse_factor(tokens, pos, opened)
    while pos < len(tokens) and tokens[pos] == "^-1":
        node, depth = Inverse(node), _level(depth + 1)
        pos += 1
    return node, pos, depth


def _parse_factor(tokens, pos, opened):
    if pos >= len(tokens):
        raise PathError("loop expression ended unexpectedly")
    tok = tokens[pos]
    if tok == "(":
        node, pos, depth = _parse_expr(tokens, pos + 1, _level(opened + 1))
        if pos >= len(tokens) or tokens[pos] != ")":
            raise PathError("unbalanced parenthesis in loop expression")
        return node, pos + 1, _level(depth + 1)
    if tok in ("*", ")", "^-1"):
        raise PathError(f"unexpected token {tok!r} in loop expression")
    item = atlas.get(tok)
    if item.kind not in ("loop",):
        raise PathError(f"{tok} is not a circle-domain item")
    return Atom(tok), pos + 1, 0


# ---------------------------------------------------------------------------
# pointwise comparison

def pointwise_eq(p: LoopExpr, q: LoopExpr, grid_n: int = 512) -> float:
    """Max projective distance over a shared closed grid."""
    if p.value_kind != q.value_kind:
        raise PathError("cannot compare paths with different value kinds")
    return compare_values(p.sample(grid_n)[1], q.sample(grid_n)[1], p.value_kind)


def compare_values(a: np.ndarray, b: np.ndarray, kind: str) -> float:
    return float(np.max(value_dist(a, b, kind)))


# ---------------------------------------------------------------------------
# domain sampling and membership sweeps

SWEEP_BLOCK = 8192   # nodes validated per batch: one default disk grid


def domain_nodes(kind: str, grid):
    """Raveled nodes of an item's parameter domain, and the grid label.

    grid: n for circles, (n_theta, n_rho) for disks, (n_theta, n_t) for
    cylinders; a base point is constant, so one angle samples it.  Angles
    lie on [0, 2*pi) with the endpoint left out, radii and cylinder
    parameters on [0, 1] inclusive.  Cylinder nodes are t-major.  The
    ``closed_circle`` kind is the n + 1 angles of [0, 2*pi] with both ends,
    on which loops are compared and wound (``LoopExpr.sample``); it needs
    16 <= n <= MAX_WINDING_SAMPLES.  The node arrays are keyword arguments
    of ``AtlasItem.eval`` and ``LoopExpr.at``.
    """
    if kind == "closed_circle":
        n = int(grid)
        if not 16 <= n <= MAX_WINDING_SAMPLES:
            raise PathError(f"a closed circle grid needs 16 to {MAX_WINDING_SAMPLES} "
                            f"samples, got {n}")
        return {"theta": np.linspace(0.0, TWO_PI, n + 1)}, f"closed_circle:{n}"
    if kind in ("loop", "basepoint"):
        n = 1 if kind == "basepoint" else int(grid)
        return {"theta": np.linspace(0.0, TWO_PI, n, endpoint=False)}, f"circle:{n}"
    if kind not in ("disk", "cylinder"):
        raise PathError(f"{kind} items have no sweep domain")
    n_theta, n_other = grid
    thetas = np.linspace(0.0, TWO_PI, n_theta, endpoint=False)
    others = np.linspace(0.0, 1.0, n_other)
    if kind == "disk":
        tt, rr = np.meshgrid(thetas, others, indexing="ij")
        return {"theta": tt.ravel(), "rho": rr.ravel()}, f"disk:{n_theta}x{n_other}"
    ts, tt = np.meshgrid(others, thetas, indexing="ij")
    return {"theta": tt.ravel(), "t": ts.ravel()}, f"cylinder:{n_theta}x{n_other}"


@dataclass
class SweepReport:
    item_id: str
    grid: str
    ok: bool
    min_margin: float
    max_residual: float
    n_nodes: int
    fail_counts: dict
    worst_param: tuple
    # in node order: the swept nodes, the item's values (None unless asked
    # for), a configuration's d1-d2 meets
    nodes: dict = field(repr=False)
    values: Optional[np.ndarray] = field(repr=False)
    centers: Optional[np.ndarray] = field(repr=False)


def sweep_item(item_id: str, grid, tol: Tolerances = DEFAULT_TOL, values: bool = False) -> SweepReport:
    """Evaluate an atlas item over its domain (see ``domain_nodes``) and
    validate it against its target tag, in blocks of at most SWEEP_BLOCK
    nodes; with ``values``, the blocks are written into one values array
    if there are several, and the report returns it.  worst_param holds
    the domain parameters of the first node with the smallest margin."""
    item = atlas.get(item_id)
    if item.target is None:
        raise PathError(f"{item_id} has no membership target")
    if item.value_kind not in ("config", "lines_dual", "lines_span"):
        raise PathError(f"{item_id} values have no membership notion")
    nodes, label = domain_nodes(item.kind, grid)
    n_nodes = nodes["theta"].size
    ok, margin, resid, counts, worst, centers, kept = True, np.inf, 0.0, {}, (), [], None
    for start in range(0, n_nodes, SWEEP_BLOCK):
        block = {k: v[start:start + SWEEP_BLOCK] for k, v in nodes.items()}
        vals = item.eval(**block)
        if values and start == 0:
            kept = vals if len(vals) == n_nodes else np.empty((n_nodes,) + vals.shape[1:], vals.dtype)
        if kept is not None and kept is not vals:
            kept[start:start + len(vals)] = vals
            vals = kept[start:start + len(vals)]   # validated in place; the block is freed
        res = validate_values(vals, item.target, tol)
        ok = ok and res.all_ok
        i = int(np.argmin(res.margins))
        if res.margins[i] < margin:
            margin, worst = float(res.margins[i]), tuple(p[i] for p in block.values())
        resid = max(resid, float(res.residuals.max()))
        for name, c in res.fail_counts.items():
            counts[name] = counts.get(name, 0) + c
        if res.centers is not None:
            centers.append(res.centers)
    return SweepReport(item_id, label, ok, margin, resid, n_nodes, counts, worst, nodes,
                       kept, np.concatenate(centers) if centers else None)


def junction_report(item_id: str, n_t: int = 64) -> dict:
    """Two-sided evaluation at every piecewise boundary, for all t on a grid.

    The junction nodes are the (t, theta) pairs of every interior piece
    bound with 0 < theta < 2*pi, deduplicated, t-major with theta
    ascending; each side is evaluated once over all of them.  Returns the
    maximum projective distance between the left-piece and right-piece
    values, with the first (theta, t) attaining it.
    """
    item = atlas.get(item_id)
    if not item.arcs:
        return {"item": item_id, "max_mismatch": 0.0, "junctions": 0}
    ts = np.linspace(0.0, 1.0, n_t) if item.kind == "cylinder" else np.zeros(1)
    bounds = np.concatenate([arc.bounds(ts)[1:-1] for arc in item.arcs.values()])
    t_rows, th_rows = np.broadcast_arrays(ts, bounds)
    inside = (th_rows > 0.0) & (th_rows < TWO_PI)
    nodes = np.unique(np.stack([t_rows[inside], th_rows[inside]], axis=-1), axis=0)
    t, th = nodes[:, 0], nodes[:, 1]
    d = value_dist(item.eval(th, t=t, side="left"), item.eval(th, t=t, side="right"),
                   item.value_kind)
    i = int(np.argmax(d))
    return {
        "item": item_id,
        "max_mismatch": float(d[i]),
        "junctions": len(th),
        "worst_at": [float(th[i]), float(t[i])],
    }


def closure_report(item_id: str) -> dict:
    """Closed-loop and basepoint distances of circle-domain items; a
    cylinder is checked on both boundary circles, t = 0 and t = 1."""
    item = atlas.get(item_id)
    t = np.array([0.0, 1.0]) if item.kind == "cylinder" else None
    th = np.zeros(1 if t is None else 2)
    v0 = item.eval(th, t=t)
    v1 = item.eval(th + TWO_PI, t=t)
    base = 0.0
    if item.based and item.value_kind == "config":
        base = compare_values(v0, atlas.basepoint(item.target), "config")
    return {"item": item_id, "closure": compare_values(v0, v1, item.value_kind),
            "base_distance": base}
