"""Abelianized invariants: winding numbers of nonvanishing scalar
functionals along loops, fiber-chart winding vectors, linear-relation
checks, and exact Smith-normal-form certificates for the relation lattices.

Two kinds of functionals appear.  The bracket-ratio functionals w1, w2, w3
are defined on every planar configuration with concurrent lines; because the
two cutting lines meet the carrier line in the same point (the common
center), each ratio is identically one there, so their windings vanish on
every catalog loop -- the engine computes and reports this rather than
assuming it.  Fiber-chart functionals are defined only for loops whose three
lines stay pinned to the registered base lines; they are chart coordinates
of B_i minus A_i and are *not* invariants of the ambient space, so relation
checks include them only when every loop involved keeps all three lines
constant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import atlas
from .paths import MAX_WINDING_SAMPLES, TWO_PI, Atom, LoopExpr
from .projective import (
    DEFAULT_TOL,
    ProjectiveError,
    Tolerances,
    brackets,
    columns,
    frame_residual,
    line_frame,
    to_columns,
    unit_rows,
)
from .report import FAIL, INCONCLUSIVE, PASS, worst

WINDING_RESIDUAL_MAX = 0.05     # turns; beyond this the result is indeterminate


class WindingError(ProjectiveError):
    pass


class DegenerateFunctionalError(WindingError):
    pass


class MovingLinesError(WindingError):
    pass


# ---------------------------------------------------------------------------
# scalar functionals

@dataclass
class ScalarFunctional:
    """A nonvanishing complex functional of a configuration batch.

    fn maps an array (N, 6, m) to complex values (N,).  All built-ins are
    homogeneous of degree zero in each of the six points.
    """

    id: str
    fn: Callable
    ambient: int                       # expected number of coordinates minus one
    description: str = ""

    def __call__(self, configs: np.ndarray) -> np.ndarray:
        arr = np.asarray(configs, dtype=np.complex128)
        if arr.shape[-1] != self.ambient + 1:
            raise ProjectiveError(
                f"functional {self.id} expects CP^{self.ambient} configurations"
            )
        return self.fn(arr)


def _bracket_ratio(i, j, k):
    """w = ([AjBjAi] [AkBkBi]) / ([AkBkAi] [AjBjBi]) with 1-based line indices."""
    ai, bi = 2 * (i - 1), 2 * (i - 1) + 1
    aj, bj = 2 * (j - 1), 2 * (j - 1) + 1
    ak, bk = 2 * (k - 1), 2 * (k - 1) + 1
    triples = [(aj, bj, ai), (ak, bk, bi), (ak, bk, ai), (aj, bj, bi)]

    def ratio(x):
        b = brackets(x, triples)
        return b[0] * b[1] / (b[2] * b[3])

    def fn(arr):
        # the ratio in the brackets' passes, so its temporaries are no larger
        out = columns(ratio, to_columns(arr.reshape(-1, 6, 3)), stack=3 * len(triples))
        return out.reshape(arr.shape[:-2])

    return fn


W_FUNCTIONALS = {
    "w1": ScalarFunctional("w1", _bracket_ratio(1, 2, 3), 2,
                           "bracket ratio of (A1,B1) against lines 2 and 3"),
    "w2": ScalarFunctional("w2", _bracket_ratio(2, 3, 1), 2,
                           "cyclic image: (A2,B2) against lines 3 and 1"),
    "w3": ScalarFunctional("w3", _bracket_ratio(3, 1, 2), 2,
                           "cyclic image: (A3,B3) against lines 1 and 2"),
}


# fiber charts: for each supported ambient space, the base configuration,
# whose pairs (A_i, B_i) span the three base lines, and the chart map of
# each line (center at infinity).
_FIBER_SETS = {
    2: (atlas.PLANAR_BASE, atlas.PLANAR_CHARTS),
    3: (atlas.SOLID_BASE, atlas.SOLID_CHARTS),
    4: (atlas.SOLID_BASE_CP4, atlas.SOLID_CHARTS),
}


def _fiber_set(ambient: int) -> tuple:
    if ambient not in _FIBER_SETS:
        raise WindingError(f"no fiber charts registered for ambient CP^{ambient}")
    return _FIBER_SETS[ambient]


@functools.cache
def _base_frames(ambient: int) -> tuple:
    """``projective.line_frame`` of the three base lines of the ambient
    space, coordinate-major with one entry per line, built on first use."""
    base = to_columns(unit_rows(_fiber_set(ambient)[0]).reshape(3, 2, -1))[..., None]
    return line_frame(base[:, 0], base[:, 1])


def line_constancy(configs: np.ndarray) -> np.ndarray:
    """Largest distance of A_i, B_i from the registered base line i of the
    configurations' ambient space (``projective.line_residual``), for the
    three lines i in one pass; 1 where A_i = B_i spans no line."""
    arr = np.asarray(configs, dtype=np.complex128)
    m = arr.shape[-1]
    frames = _base_frames(m - 1)
    spans = unit_rows(to_columns(arr.reshape(-1, 3, 2, m)), axis=0)    # (m, 2, 3, N)
    return columns(lambda s: frame_residual(s, *frames), spans, stack=6).max(axis=-1)


def fiber_functional(line_index: int, ambient: int) -> ScalarFunctional:
    chart = _fiber_set(ambient)[1][line_index]

    def fn(arr):
        a = chart(arr[..., 2 * line_index, :])
        b = chart(arr[..., 2 * line_index + 1, :])
        return b - a

    return ScalarFunctional(
        f"fiber{line_index + 1}", fn, ambient,
        f"chart(B{line_index + 1}) - chart(A{line_index + 1}) on the base line",
    )


# ---------------------------------------------------------------------------
# winding computation

@dataclass
class WindingResult:
    functional_id: str
    winding: int
    residual: float
    min_modulus: float
    samples: int
    refinements: int
    indeterminate: bool = False

    def to_json(self) -> dict:
        return {
            "functional": self.functional_id,
            "winding": int(self.winding),
            "residual": float(self.residual),
            "min_modulus": float(self.min_modulus),
            "samples": int(self.samples),
            "refinements": int(self.refinements),
            "indeterminate": bool(self.indeterminate),
        }


def winding(loop: LoopExpr, functional: ScalarFunctional, n: int = 512,
            tol: Tolerances = DEFAULT_TOL) -> WindingResult:
    """Integer winding of the functional along a closed loop, by continuous
    argument tracking on ``loop.sample(n)`` with adaptive midpoint
    refinement; each round evaluates the loop only at the new midpoints.
    """
    if not isinstance(loop, LoopExpr):
        raise WindingError("winding expects a LoopExpr")
    if loop.value_kind != "config":
        raise WindingError("winding functionals act on configuration loops")

    thetas, configs = loop.sample(n)
    vals = functional(configs)
    mods = np.abs(vals)
    if abs(vals[0] - vals[-1]) > 1e-6 * max(1.0, float(mods.max())):
        raise WindingError("functional values do not close up: the path is not a loop")
    refinements = 0
    while True:
        if mods.min() < tol.margin_warn:
            i = int(np.argmin(mods))
            raise DegenerateFunctionalError(
                f"{functional.id} vanishes along the loop "
                f"(modulus {mods.min():.3e} at angle {thetas[i]:.6f})"
            )
        dargs = np.diff(np.angle(vals))
        dargs = (dargs + np.pi) % TWO_PI - np.pi
        bad = np.abs(dargs) >= np.pi / 2
        if not np.any(bad):
            break
        if thetas.size * 2 > MAX_WINDING_SAMPLES:
            return WindingResult(functional.id, 0, 1.0, float(mods.min()),
                                 thetas.size, refinements, indeterminate=True)
        k = np.flatnonzero(bad) + 1
        mids = 0.5 * (thetas[k - 1] + thetas[k])
        thetas = np.insert(thetas, k, mids)
        vals = np.insert(vals, k, functional(loop.at(mids)))
        mods = np.abs(vals)
        refinements += 1
    total = float(np.sum(dargs)) / TWO_PI
    k = int(np.round(total))
    residual = abs(total - k)
    return WindingResult(functional.id, k, residual, float(mods.min()),
                         thetas.size, refinements, residual > WINDING_RESIDUAL_MAX)


def agreement(pairs) -> str:
    """The verdict rule of every winding comparison.  A pair (WindingResult,
    WindingResult or expected int) is inconclusive if either winding is
    indeterminate, else pass when the integers agree and fail when not; the
    verdict is the worst pair, so a determinate mismatch wins."""

    def status(got, want):
        if got.indeterminate or getattr(want, "indeterminate", False):
            return INCONCLUSIVE
        return PASS if got.winding == getattr(want, "winding", want) else FAIL

    return worst(status(got, want) for got, want in pairs)


def fiber_winding_vector(loop: LoopExpr, n: int = 512, tol: Tolerances = DEFAULT_TOL):
    """Per-line winding of chart(B_i) - chart(A_i) in the loop's ambient
    space; requires the three lines to stay on the registered base lines
    along the whole loop."""
    configs = loop.sample(n)[1]
    for i, resid in enumerate(line_constancy(configs)):
        if resid > tol.rank_rel_tol:
            raise MovingLinesError(
                f"line {i + 1} moves along the loop (incidence residual {resid:.3e})"
            )
    return tuple(winding(loop, fiber_functional(i, configs.shape[-1] - 1), n, tol)
                 for i in range(3))


# ---------------------------------------------------------------------------
# relation checking

@dataclass
class RelationReport:
    rows: list            # (functional, w_lhs, w_rhs)
    status: str           # agreement() of the two loops' windings


def check_linear_relation(lhs: LoopExpr, rhs: LoopExpr, n: int = 512,
                          tol: Tolerances = DEFAULT_TOL) -> RelationReport:
    """Equality of winding vectors of two loops: w1..w3 on planar loops,
    plus the fiber charts when both loops keep all three lines on the base
    lines along ``sample(n)``."""
    ambient = lhs.sample(n)[1].shape[-1] - 1
    functionals = list(W_FUNCTIONALS.values()) if ambient == 2 else []
    if all(np.all(line_constancy(loop.sample(n)[1]) <= tol.rank_rel_tol)
           for loop in (lhs, rhs)):
        functionals += [fiber_functional(i, ambient) for i in range(3)]
    pairs = [(winding(lhs, f, n, tol), winding(rhs, f, n, tol)) for f in functionals]
    return RelationReport([(wl.functional_id, wl.winding, wr.winding) for wl, wr in pairs],
                          agreement(pairs))


def independence_matrix(rows: Sequence[Sequence[WindingResult]]):
    """Integer matrix (loops x functionals) of windings already computed,
    and its exact rank."""
    bad = [res.functional_id for row in rows for res in row if res.indeterminate]
    if bad:
        raise WindingError(f"indeterminate winding for {bad[0]}")
    mat = [[res.winding for res in row] for row in rows]
    return mat, len(_smith_diagonal(mat))


@dataclass
class DiskNullityReport:
    item_id: str
    functional_id: str
    status: str            # PASS | FAIL | INCONCLUSIVE
    boundary_winding: Optional[int]
    min_modulus: float


def disk_winding_nullity(item_id: str, configs: np.ndarray,
                         functionals: Sequence[ScalarFunctional], n: int = 512,
                         tol: Tolerances = DEFAULT_TOL) -> list:
    """One report per functional, from the disk's values ``configs``: a loop
    bounding a disk on which the functional never vanishes has winding
    zero; vanishing inside makes the test inconclusive, not failed."""
    if atlas.get(item_id).kind != "disk":
        raise WindingError(f"{item_id} is not a disk item")
    boundary = Atom(item_id)
    reports = []
    for f in functionals:
        min_mod = float(np.abs(f(configs)).min())
        if min_mod < tol.margin_warn:
            reports.append(DiskNullityReport(item_id, f.id, INCONCLUSIVE, None, min_mod))
            continue
        res = winding(boundary, f, n, tol)
        reports.append(DiskNullityReport(item_id, f.id, agreement([(res, 0)]),
                                         res.winding, min_mod))
    return reports


# ---------------------------------------------------------------------------
# Smith normal form certificates

def _smith_diagonal(mat) -> list:
    """Nonzero invariant factors of an integer matrix, in divisibility order
    (hence ascending), by integer row and column reduction: move an entry of
    least absolute value to the corner and reduce its row and column modulo
    it; once both are clear, add in a row that the corner does not divide,
    or split the corner off when it divides the whole rest."""
    a = [[int(v) for v in row] for row in mat]
    out = []
    while nonzero := [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]:
        _, i, j = min(nonzero)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        top, p = a[0], a[0][0]
        for row in a[1:]:
            q = row[0] // p
            for k, v in enumerate(top):
                row[k] -= q * v
        for k in range(1, len(top)):
            q = top[k] // p
            for row in a:
                row[k] -= q * row[0]
        if any(row[0] for row in a[1:]) or any(top[1:]):
            continue        # a remainder smaller than |p| is the next corner
        rest = next((row for row in a[1:] if any(v % p for v in row)), None)
        if rest is not None:
            a[0] = [x + y for x, y in zip(top, rest)]
            continue
        out.append(abs(p))
        a = [row[1:] for row in a[1:]]
    return out


def snf_invariants(rows: Sequence[Sequence[int]], ncols: int):
    """Nonzero invariant factors of the integer row lattice, exactly, in
    ascending (divisibility) order."""
    if not rows:
        return []
    if any(len(row) != ncols for row in rows):
        raise ValueError("row length does not match the ambient rank")
    if not all(isinstance(v, (int, np.integer)) for row in rows for v in row):
        raise ValueError("lattice entries must be integers")
    return _smith_diagonal(rows)


def abelian_quotient(rows: Sequence[Sequence[int]], ncols: int):
    """(free_rank, torsion_orders) of Z^ncols modulo the row lattice."""
    inv = snf_invariants(rows, ncols)
    free_rank = ncols - len(inv)
    torsion = [v for v in inv if v > 1]
    return free_rank, torsion


def quotient_str(free_rank: int, torsion) -> str:
    parts = ["Z"] * free_rank + [f"Z/{t}" for t in torsion]
    return " + ".join(parts) if parts else "0"
