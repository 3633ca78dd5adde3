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

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import sympy

from . import atlas
from .paths import MAX_WINDING_SAMPLES, TWO_PI, Atom, LoopExpr, compare_values, domain_nodes
from .projective import (
    DEFAULT_TOL,
    ProjectiveError,
    Tolerances,
    bracket_rows,
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

    def check_scale_invariance(self, configs: np.ndarray, rng) -> float:
        """Max relative change under random rescaling of every representative."""
        arr = np.asarray(configs, dtype=np.complex128)
        base = self.fn(arr)
        scales = np.exp(rng.normal(size=arr.shape[:-1]) + 1j * rng.uniform(0, TWO_PI, size=arr.shape[:-1]))
        rescaled = self.fn(arr * scales[..., None])
        return float(np.max(np.abs(rescaled - base) / np.abs(base)))


def _bracket_ratio(i, j, k):
    """w = ([AjBjAi] [AkBkBi]) / ([AkBkAi] [AjBjBi]) with 1-based line indices."""
    ai, bi = 2 * (i - 1), 2 * (i - 1) + 1
    aj, bj = 2 * (j - 1), 2 * (j - 1) + 1
    ak, bk = 2 * (k - 1), 2 * (k - 1) + 1

    def fn(arr):
        u = arr
        num = bracket_rows(u[..., aj, :], u[..., bj, :], u[..., ai, :]) * bracket_rows(
            u[..., ak, :], u[..., bk, :], u[..., bi, :]
        )
        den = bracket_rows(u[..., ak, :], u[..., bk, :], u[..., ai, :]) * bracket_rows(
            u[..., aj, :], u[..., bj, :], u[..., bi, :]
        )
        return num / den

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


def line_constancy(configs: np.ndarray, line_index: int) -> float:
    """Largest distance of A_i, B_i from the registered base line of the
    configurations' ambient space (``value_dist`` kind lines_span); 1 where
    A_i = B_i spans no line."""
    arr = np.asarray(configs, dtype=np.complex128)
    rows = slice(2 * line_index, 2 * line_index + 2)
    span = arr[..., rows, :]
    base = _fiber_set(arr.shape[-1] - 1)[0][rows]
    return compare_values(span, base, "lines_span")


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
    if abs(vals[0] - vals[-1]) > 1e-6 * max(1.0, float(np.abs(vals).max())):
        raise WindingError("functional values do not close up: the path is not a loop")
    refinements = 0
    while True:
        mods = np.abs(vals)
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
        refinements += 1
    total = float(np.sum(dargs)) / TWO_PI
    k = int(np.round(total))
    residual = abs(total - k)
    return WindingResult(functional.id, k, residual, float(np.abs(vals).min()),
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
    for i in range(3):
        resid = line_constancy(configs, i)
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
    lhs: str
    rhs: str
    rows: list            # (functional, w_lhs, w_rhs)
    status: str           # agreement() of the two loops' windings


def check_linear_relation(lhs: LoopExpr, rhs: LoopExpr, n: int = 512,
                          tol: Tolerances = DEFAULT_TOL) -> RelationReport:
    """Equality of winding vectors of two loops: w1..w3 on planar loops,
    plus the fiber charts when both loops keep all three lines on the base
    lines along ``sample(n)``."""
    ambient = lhs.sample(n)[1].shape[-1] - 1
    functionals = list(W_FUNCTIONALS.values()) if ambient == 2 else []
    if all(line_constancy(loop.sample(n)[1], i) <= tol.rank_rel_tol
           for loop in (lhs, rhs) for i in range(3)):
        functionals += [fiber_functional(i, ambient) for i in range(3)]
    pairs = [(winding(lhs, f, n, tol), winding(rhs, f, n, tol)) for f in functionals]
    return RelationReport(lhs.label(), rhs.label(),
                          [(wl.functional_id, wl.winding, wr.winding) for wl, wr in pairs],
                          agreement(pairs))


def independence_matrix(rows: Sequence[Sequence[WindingResult]]):
    """Integer matrix (loops x functionals) of windings already computed,
    and its exact rank."""
    bad = [res.functional_id for row in rows for res in row if res.indeterminate]
    if bad:
        raise WindingError(f"indeterminate winding for {bad[0]}")
    mat = [[res.winding for res in row] for row in rows]
    return mat, int(sympy.Matrix(mat).rank())


@dataclass
class DiskNullityReport:
    item_id: str
    functional_id: str
    status: str            # PASS | FAIL | INCONCLUSIVE
    boundary_winding: Optional[int]
    min_modulus: float


def disk_winding_nullity(item_id: str, functionals: Sequence[ScalarFunctional],
                         grid=(128, 64), n: int = 512,
                         tol: Tolerances = DEFAULT_TOL) -> list:
    """One report per functional, from one evaluation of the disk: a loop
    bounding a disk on which the functional never vanishes has winding
    zero; vanishing inside makes the test inconclusive, not failed."""
    item = atlas.get(item_id)
    if item.kind != "disk":
        raise WindingError(f"{item_id} is not a disk item")
    configs = item.eval(**domain_nodes("disk", grid)[0])
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

def snf_invariants(rows: Sequence[Sequence[int]], ncols: int):
    """Nonzero invariant factors of the integer row lattice, exactly."""
    if not rows:
        return []
    m = sympy.Matrix(list(rows))
    if m.cols != ncols:
        raise ValueError("row length does not match the ambient rank")
    from sympy.matrices.normalforms import smith_normal_form

    d = smith_normal_form(m)
    out = []
    for i in range(min(d.rows, d.cols)):
        v = int(d[i, i])
        if v != 0:
            out.append(abs(v))
    return sorted(out)


def abelian_quotient(rows: Sequence[Sequence[int]], ncols: int):
    """(free_rank, torsion_orders) of Z^ncols modulo the row lattice."""
    inv = snf_invariants(rows, ncols)
    free_rank = ncols - len(inv)
    torsion = [v for v in inv if v > 1]
    return free_rank, torsion


def quotient_str(free_rank: int, torsion) -> str:
    parts = ["Z"] * free_rank + [f"Z/{t}" for t in torsion]
    return " + ".join(parts) if parts else "0"
