"""Claim verification engine: dispatches every registered claim family to
membership sweeps, pointwise comparisons, junction audits, winding
computations, and the trivialization samplers, and assembles the run report
with winding tables and exact Smith-normal-form certificates.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import atlas, braids, invariants as inv
from .paths import (
    Atom,
    Concat,
    EqualConcat,
    Embed,
    Inverse,
    Reparam,
    TWO_PI,
    closure_report,
    compare_values,
    config_lines_dual,
    domain_nodes,
    junction_report,
    outer_thirds_schedule,
    plane_incidence,
    pointwise_eq,
    sweep_item,
    value_dist,
)
from .projective import HPoint, Tolerances, chordal_batch, is_int, is_real, unit_rows
from .report import FAIL, PASS, ClaimReport, RunReport
from .strata import random_config, validate_values

# ---------------------------------------------------------------------------
# run configuration

DEFAULT_CIRCLE = 512
DEFAULT_DISK = (128, 64)
DEFAULT_CYLINDER = (256, 64)


@dataclass(frozen=True)
class RunConfig:
    """Verification run parameters; defaults are pinned to the contract
    tolerances (boundary 1e-9, lifts 1e-8, junctions 1e-9, sweep margins
    above 1e-6, winding residuals below 0.05)."""

    tol: Tolerances = Tolerances()
    circle_samples: int = DEFAULT_CIRCLE
    disk_grid: tuple = DEFAULT_DISK
    cylinder_grid: tuple = DEFAULT_CYLINDER
    boundary_tol: float = 1e-9
    lift_tol: float = 1e-8
    junction_tol: float = 1e-9
    sweep_margin_min: float = 1e-6
    numeric_floor: float = 1e-12
    seed: int = 0
    threads: int = 0              # 0 = available parallelism

    def __post_init__(self):
        # values from a JSON configuration file arrive unchecked
        for name in ("circle_samples", "seed", "threads"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("boundary_tol", "lift_tol", "junction_tol", "sweep_margin_min",
                     "numeric_floor"):
            value = getattr(self, name)
            if not is_real(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
        if self.circle_samples < DEFAULT_CIRCLE // 4:
            raise ValueError("circle sample cap below a quarter of the default")
        if self.circle_samples > inv.MAX_WINDING_SAMPLES:
            raise ValueError(f"circle samples above the cap {inv.MAX_WINDING_SAMPLES}")
        for name, grid, default in (("disk_grid", self.disk_grid, DEFAULT_DISK),
                                    ("cylinder_grid", self.cylinder_grid, DEFAULT_CYLINDER)):
            if (len(grid) != 2 or not all(map(is_int, grid))
                    or grid[0] < default[0] // 4 or grid[1] < default[1] // 4):
                raise ValueError(f"{name} {list(grid)} is not two sizes of at least "
                                 f"a quarter of the default {list(default)}")
            if grid[0] * grid[1] > inv.MAX_WINDING_SAMPLES:
                raise ValueError(f"{name} {list(grid)} has {grid[0] * grid[1]} nodes, "
                                 f"above the cap {inv.MAX_WINDING_SAMPLES}")
        if self.seed < 0:
            raise ValueError(f"seed must be 0 or more, got {self.seed}")
        if self.threads < 0:
            raise ValueError(f"threads must be 0 (all cores) or more, got {self.threads}")

    def to_json(self) -> dict:
        return {
            "tolerances": {
                "proj_eq_tol": self.tol.proj_eq_tol,
                "rank_rel_tol": self.tol.rank_rel_tol,
                "margin_warn": self.tol.margin_warn,
            },
            "grids": {
                "circle": self.circle_samples,
                "disk": list(self.disk_grid),
                "cylinder": list(self.cylinder_grid),
            },
            "boundary_tol": self.boundary_tol,
            "lift_tol": self.lift_tol,
            "junction_tol": self.junction_tol,
            "sweep_margin_min": self.sweep_margin_min,
            "numeric_floor": self.numeric_floor,
            "refine_cap": inv.MAX_WINDING_SAMPLES,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# shared helpers

def _loops():
    return {name: Atom(name) for name in ("alpha", "beta", "gamma", "sigma")}


def _add_sweep(rep: ClaimReport, item_id: str, cfg: RunConfig, values: bool = False, sw=None):
    """The membership rows of the sweep of ``item_id``, made here unless
    the claim made it already (``sw``); returns the sweep."""
    grid = {"loop": cfg.circle_samples, "disk": cfg.disk_grid,
            "cylinder": cfg.cylinder_grid}[atlas.get(item_id).kind]
    sw = sw or sweep_item(item_id, grid, cfg.tol, values)
    rep.grids[item_id] = sw.grid
    ok = sw.ok and sw.min_margin > cfg.sweep_margin_min
    rep.add(f"membership {item_id}", PASS if ok else FAIL,
            sw.min_margin, cfg.sweep_margin_min,
            note="" if sw.ok else f"failing sub-checks: {sorted(sw.fail_counts)}")
    if sw.max_residual > cfg.tol.rank_rel_tol:
        rep.add(f"incidence residual {item_id}", FAIL, sw.max_residual, cfg.tol.rank_rel_tol)
    return sw


def _add_junctions(rep: ClaimReport, item_id: str, cfg: RunConfig):
    jr = junction_report(item_id, 64)
    if jr["junctions"]:
        rep.add_distance(f"junctions {item_id}", jr["max_mismatch"],
                         cfg.junction_tol, cfg.numeric_floor)


def _add_closure(rep: ClaimReport, item_id: str, cfg: RunConfig):
    cr = closure_report(item_id)
    rep.add_distance(f"closure {item_id}", max(cr["closure"], cr["base_distance"]),
                     cfg.tol.proj_eq_tol, cfg.numeric_floor)


def _add_pointwise(rep: ClaimReport, name, lhs, rhs, cfg: RunConfig):
    rep.add_distance(name, pointwise_eq(lhs, rhs, cfg.circle_samples), cfg.boundary_tol,
                     cfg.numeric_floor)


def _fiber_vector_check(rep: ClaimReport, name, loop, expected, cfg: RunConfig):
    try:
        results = inv.fiber_winding_vector(loop, cfg.circle_samples, cfg.tol)
    except inv.WindingError as e:
        rep.add(name, FAIL, note=str(e))
        return
    vec = [r.winding for r in results]
    rep.add(name, inv.agreement(zip(results, expected)), max(r.residual for r in results),
            inv.WINDING_RESIDUAL_MAX, note=f"vector {vec} expected {list(expected)}")
    rep.extra.setdefault("fiber_vectors", {})[name] = vec
    rep.extra.setdefault("winding_refinements", {})[name] = max(r.refinements for r in results)


def _boundary_fiber_check(rep: ClaimReport, name, loop: Atom, cfg: RunConfig):
    """A boundary loop's fiber vector against the claim registry's entry
    ``fiber_winding(<loop label>)``."""
    expected = atlas.claim(rep.claim_id).expected[f"fiber_winding({loop.label()})"]
    _fiber_vector_check(rep, name, loop, expected, cfg)


def _cylinder_fiber_agreement(rep: ClaimReport, item_id: str, cfg: RunConfig):
    """For each line pinned to its base line across the whole cylinder, the
    fiber winding at t=0 and t=1 must agree (it is invariant along the
    printed homotopy, which never moves that line)."""
    nodes, _ = domain_nodes("cylinder", (96, 9))
    arr = atlas.get(item_id).eval(**nodes)
    ends = (Atom(item_id, t=0.0), Atom(item_id, t=1.0))
    for i, resid in enumerate(inv.line_constancy(arr)):
        if resid > cfg.tol.rank_rel_tol:
            continue
        f = inv.fiber_functional(i, arr.shape[-1] - 1)
        w0, w1 = (inv.winding(end, f, cfg.circle_samples, cfg.tol) for end in ends)
        rep.add(f"{item_id} fiber{i + 1} winding constant in t", inv.agreement([(w0, w1)]),
                note=f"t=0: {w0.winding}, t=1: {w1.winding}")


def _relation_check(rep: ClaimReport, name, lhs, rhs, cfg: RunConfig):
    r = inv.check_linear_relation(lhs, rhs, cfg.circle_samples, cfg.tol)
    rows = ", ".join(f"{f}:{a}={b}" for f, a, b in r.rows) or "no shared functionals"
    rep.add(name, r.status, note=rows)


# ---------------------------------------------------------------------------
# claim family verifiers

def _add_output_validity(rep: ClaimReport, res, cfg: RunConfig, center_dist=None):
    """Validity rows of one batch of trivialization outputs: a FAIL row that
    names the failing sub-checks if any output is invalid, then the least
    margin over the valid outputs.  ``center_dist`` adds the fixed-center
    condition: each output's meet within proj_eq_tol of its required center.
    Returns the mask of valid outputs."""
    valid, failing = res.verdicts, set(res.fail_counts)
    if center_dist is not None:
        matches = center_dist <= cfg.tol.proj_eq_tol
        valid = valid & matches
        if not matches.all():
            failing.add("center-matches")
    if not valid.all():
        rep.add("output validity", FAIL,
                note=f"{int(np.sum(~valid))} of {valid.size} outputs invalid; "
                     f"failing sub-checks: {sorted(failing)}")
    if valid.any():
        rep.add_margin("output validity margin", float(res.margins[valid].min()),
                       cfg.sweep_margin_min)
    else:
        rep.add("output validity margin", FAIL, note="no sample produced a valid output")
    return valid


def _worst(values) -> float:
    """Largest of the distances, 0 when there are none."""
    return float(np.max(values, initial=0.0))


def verify_C1(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C1")
    tol = cfg.tol
    rng = np.random.default_rng(cfg.seed + 1)
    base = atlas.PLANAR_BASE
    configs = np.stack([base] + [
        random_config(atlas.TAG_PLANAR_FIXED_2, cfg.seed + 10 + i, tol) for i in range(3)
    ])

    # identity at the reference center
    i0 = np.broadcast_to(atlas.I0_PLANAR, (len(configs), 3))
    rep.add_distance("identity at reference center",
                     compare_values(atlas.phi_triv(i0, configs), configs, "config"),
                     cfg.lift_tol, cfg.numeric_floor)

    # generic centers: output validity (center included), ruler agreement;
    # each of 12 centers [s:t:1] against every configuration
    st = np.stack([rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(12)])
    centers = np.repeat(np.column_stack([st, np.ones(len(st))]), len(configs), axis=0)
    inputs = np.tile(configs, (len(st), 1, 1))
    out = atlas.phi_triv(centers, inputs)
    res = validate_values(out, atlas.TAG_PLANAR_2, tol)
    center_dist = chordal_batch(res.centers, unit_rows(centers))
    valid = _add_output_validity(rep, res, cfg, center_dist)
    geom = atlas.phi_triv_geometric(centers[valid], inputs[valid])
    rep.add_distance("agreement with the ruler construction",
                     _worst(value_dist(out[valid], geom, "config")),
                     cfg.lift_tol, cfg.numeric_floor)

    # continuity across the singular locus of the geometric construction
    locus = HPoint([-1.0, 1.0, 3.0])          # on the first base line, off X2=0
    target = HPoint([0.4 + 0.3j, -0.8 + 0.1j, 1.0])
    ray = [(1 - eps) * locus.unit() + eps * target.unit() for eps in (1e-2, 1e-4, 1e-6)]
    at_locus, *near = atlas.phi_triv(np.stack([locus.coords] + ray),
                                     np.broadcast_to(base, (len(ray) + 1, 6, 3)))
    dists = list(value_dist(np.stack(near), at_locus, "config"))
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    rep.add("limit onto the singular locus", PASS if (decreasing and dists[-1] < 1e-4) else FAIL,
            dists[-1], 1e-4, note=f"ray distances {['%.2e' % d for d in dists]}")
    geom_near = atlas.phi_triv_geometric(
        ((1 - 1e-4) * locus.unit() + 1e-4 * target.unit())[None], base[None])
    rep.add_distance("ruler construction limit matches the formula on the locus",
                     compare_values(geom_near, at_locus[None], "config"), 1e-2, cfg.numeric_floor)
    return rep


def verify_C2(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C2")
    tol = cfg.tol
    rng = np.random.default_rng(cfg.seed + 2)
    base = atlas.PLANAR_BASE
    base_duals = np.stack([atlas.D10_DUAL, atlas.D20_DUAL, atlas.D30_DUAL])

    out = atlas.psi_triv(base_duals[None], base[None])
    rep.add_distance("identity at the base line triple",
                     compare_values(out, base[None], "config"),
                     cfg.lift_tol, cfg.numeric_floor)

    samples = []
    for _ in range(8):
        # three distinct lines through the center, away from Q = [1:1:1]
        duals = []
        while len(duals) < 3:
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            cov = np.array([u[0], u[1], 0.0], dtype=complex)
            if abs(cov[0] + cov[1]) < 0.2 * np.linalg.norm(cov):
                continue
            if any(float(chordal_batch(unit_rows(cov), unit_rows(d))) < 0.15 for d in duals):
                continue
            duals.append(cov)
        samples.append(np.stack(duals))
    duals = np.stack(samples)
    out = atlas.psi_triv(duals, np.broadcast_to(base, (len(duals), 6, 3)))
    valid = _add_output_validity(rep, validate_values(out, atlas.TAG_PLANAR_FIXED_2, tol), cfg)
    rep.add_distance("output lines equal the requested lines",
                     _worst(value_dist(config_lines_dual(out[valid]), duals[valid], "lines_dual")),
                     cfg.lift_tol, cfg.numeric_floor)
    return rep


def verify_C3(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C3")
    for name in ("alpha", "beta", "gamma", "sigma"):
        _add_sweep(rep, name, cfg)
        _add_closure(rep, name, cfg)
    return rep


def verify_C4(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C4")
    # the printed line loop and line disk: distinct lines through I0
    _add_sweep(rep, "s", cfg)
    sw = _add_sweep(rep, "Lambda", cfg, values=True)
    thetas, sigma_vals = Atom("sigma").sample(cfg.circle_samples)
    rep.add_distance("lines of sigma equal s",
                     compare_values(config_lines_dual(sigma_vals),
                                    Atom("s").sample(cfg.circle_samples)[1], "lines_dual"),
                     cfg.lift_tol, cfg.numeric_floor)

    rep.grids["Lambda_tilde"] = sw.grid
    lifted = config_lines_dual(atlas.get("Lambda_tilde").eval(**sw.nodes))
    rep.add_distance("lines of the lifted disk equal the printed line disk",
                     compare_values(lifted, sw.values, "lines_dual"),
                     cfg.lift_tol, cfg.numeric_floor)

    doubled = atlas.get("s").eval(2.0 * thetas % TWO_PI)
    rep.add_distance("line disk boundary equals the doubled line loop",
                     compare_values(Atom("Lambda").sample(cfg.circle_samples)[1], doubled,
                                    "lines_dual"),
                     cfg.lift_tol, cfg.numeric_floor)
    return rep


def verify_C5(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C5")
    sw = _add_sweep(rep, "Lambda_tilde", cfg, values=True)
    _add_pointwise(rep, "circle restriction equals the printed formula",
                   Atom("Lambda_tilde"), Atom("sigma_tilde_Lambda"), cfg)
    _add_closure(rep, "sigma_tilde_Lambda", cfg)
    # null-homotopy consequence: bracket-ratio windings of the boundary vanish
    for r in inv.disk_winding_nullity("Lambda_tilde", sw.values, list(inv.W_FUNCTIONALS.values()),
                                      cfg.circle_samples, cfg.tol):
        rep.add(f"boundary winding of {r.functional_id} vanishes", r.status, r.min_modulus,
                note=f"winding {r.boundary_winding}")
    return rep


def verify_C6(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C6")
    _add_sweep(rep, "L", cfg)
    _add_junctions(rep, "L", cfg)
    loops = _loops()
    word = Concat(Concat(Inverse(loops["alpha"]), Inverse(loops["beta"])), loops["gamma"])
    _add_pointwise(rep, "t=0 end equals (alpha^-1 * beta^-1) * gamma",
                   Atom("L", t=0.0), word, cfg)
    _add_pointwise(rep, "t=1 end equals (sigma * sigma) * restriction^-1",
                   Atom("L", t=1.0),
                   Concat(Concat(loops["sigma"], loops["sigma"]),
                          Inverse(Atom("sigma_tilde_Lambda"))),
                   cfg)
    _cylinder_fiber_agreement(rep, "L", cfg)
    _relation_check(rep, "winding: sigma*sigma vs alpha^-1*beta^-1*gamma",
                    Concat(loops["sigma"], loops["sigma"]), word, cfg)
    return rep


def verify_C7(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C7")
    loops = _loops()
    for name, undec in (("K_alpha", "alpha"), ("K_beta", "beta"), ("K_gamma", "gamma")):
        _add_sweep(rep, name, cfg)
        _add_junctions(rep, name, cfg)
        _add_pointwise(rep, f"{name} t=1 end equals the equal-speed conjugation",
                       Atom(name, t=1.0),
                       EqualConcat([loops["sigma"], loops[undec], Inverse(loops["sigma"])]),
                       cfg)
        _add_pointwise(rep, f"{name} t=0 end equals the reparametrized loop",
                       Atom(name, t=0.0),
                       Reparam(loops[undec], outer_thirds_schedule, "outer-thirds"),
                       cfg)
        _boundary_fiber_check(rep, f"{name} t=0 fiber winding vector", Atom(name, t=0.0), cfg)
        _cylinder_fiber_agreement(rep, name, cfg)
    return rep


def verify_C8(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C8")
    sw = _add_sweep(rep, "Phi_tilde", cfg)
    phi_pts = atlas.get("Phi").eval(**sw.nodes)
    rep.add_distance("center path equals the generator disk",
                     float(np.max(chordal_batch(sw.centers, unit_rows(phi_pts)))),
                     cfg.lift_tol, cfg.numeric_floor)
    _add_pointwise(rep, "circle restriction equals the printed formula",
                   Atom("Phi_tilde"), Atom("Phi_tilde_S1"), cfg)
    _add_closure(rep, "Phi_tilde_S1", cfg)
    return rep


def verify_C9(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C9")
    _add_sweep(rep, "H", cfg)
    _add_junctions(rep, "H", cfg)
    loops = _loops()
    lift = Concat(Atom("Phi_tilde_S1"), loops["sigma"])
    _add_pointwise(rep, "t=1 end equals restriction * sigma", Atom("H", t=1.0), lift, cfg)
    # frozen t=0 end, derived by dense-grid matching (see claim notes)
    _add_pointwise(rep, "t=0 end equals (alpha * beta) * (gamma * gamma) [frozen]",
                   Atom("H", t=0.0),
                   Concat(Concat(loops["alpha"], loops["beta"]),
                          Concat(loops["gamma"], loops["gamma"])),
                   cfg)
    stated = pointwise_eq(Atom("H", t=0.0),
                          Concat(Concat(loops["alpha"], loops["beta"]), loops["gamma"]),
                          cfg.circle_samples)
    rep.add("t=0 end vs (alpha * beta) * gamma [stated form, documented mismatch]",
            PASS, stated, None,
            note="printed cylinder traverses the third fiber motion twice at t=0; "
                 "recorded as a formula discrepancy, not a verification failure")
    rep.extra["stated_t0_distance"] = float(stated)
    _cylinder_fiber_agreement(rep, "H", cfg)
    _relation_check(rep, "winding: restriction*sigma vs alpha*beta*gamma", lift,
                    Concat(Concat(loops["alpha"], loops["beta"]), loops["gamma"]), cfg)
    rep.notes.append(
        "the stated t=0 identity fails pointwise (order-one distance); the "
        "frozen derived end is (alpha*beta)*(gamma*gamma).  With the verified "
        "doubled-loop relation the boundary class works out to "
        "3a+3b+3s instead of the stated 2a+2b+s; both lattices appear in the "
        "certificates section."
    )
    return rep


def verify_C10(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C10")
    sw = _add_sweep(rep, "Pi_tilde", cfg, values=True)
    planes = atlas.get("Pi").eval(**sw.nodes)
    rep.add_distance("configuration lies in the moving plane",
                     float(np.max(plane_incidence(sw.values, planes))),
                     cfg.lift_tol, cfg.numeric_floor)
    _add_pointwise(rep, "circle restriction equals the embedded simultaneous loop",
                   Atom("Pi_tilde_S1"), Embed(Atom("M", t=0.0)), cfg)
    _add_closure(rep, "Pi_tilde_S1", cfg)
    return rep


def verify_C11(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C11")
    _add_sweep(rep, "M", cfg)
    _add_junctions(rep, "M", cfg)
    loops = _loops()
    end0, end1 = Atom("M", t=0.0), Atom("M", t=1.0)
    _add_pointwise(rep, "t=1 end equals sigma * gamma^-1",
                   end1, Concat(loops["sigma"], Inverse(loops["gamma"])), cfg)
    # t=0 is the simultaneous product: first-line pair moves as sigma,
    # third-line pair as gamma^-1, at full speed together.
    n = cfg.circle_samples
    sim = loops["sigma"].sample(n)[1].copy()
    sim[..., 5, :] = Inverse(loops["gamma"]).sample(n)[1][..., 5, :]
    rep.add_distance("t=0 end is the simultaneous product",
                     compare_values(end0.sample(n)[1], sim, "config"),
                     cfg.boundary_tol, cfg.numeric_floor)
    _cylinder_fiber_agreement(rep, "M", cfg)
    _relation_check(rep, "winding: ends of the cylinder", end0, end1, cfg)
    return rep


def verify_C12(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C12")
    for lifted, printed in (("F_tilde", "F"), ("B_tilde", "B")):
        sw = _add_sweep(rep, lifted, cfg, values=True)
        target = sweep_item(printed, cfg.disk_grid, cfg.tol, values=True)   # the same disk nodes
        rep.add_distance(f"lines of {lifted} equal {printed}",
                         compare_values(sw.values, target.values, "lines_span"),
                         cfg.lift_tol, cfg.numeric_floor)
        _add_sweep(rep, printed, cfg, sw=target)
        _boundary_fiber_check(rep, f"{lifted} boundary fiber winding", Atom(f"{lifted}_S1"), cfg)
        _add_closure(rep, f"{lifted}_S1", cfg)
    return rep


def verify_C13(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C13")
    sw = _add_sweep(rep, "Psi_tilde", cfg)
    psi_pts = atlas.get("Psi").eval(**sw.nodes)
    rep.add_distance("center path equals the generator disk",
                     float(np.max(chordal_batch(sw.centers, unit_rows(psi_pts)))),
                     cfg.lift_tol, cfg.numeric_floor)
    _boundary_fiber_check(rep, "boundary fiber winding", Atom("Psi_tilde_S1"), cfg)
    _add_closure(rep, "Psi_tilde_S1", cfg)
    return rep


def verify_C14(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C14")
    sw = _add_sweep(rep, "Sigma_tilde", cfg, values=True)
    planes = atlas.get("Sigma").eval(**sw.nodes)
    rep.add_distance("configuration lies in the moving hyperplane",
                     float(np.max(plane_incidence(sw.values, planes))),
                     cfg.lift_tol, cfg.numeric_floor)
    _boundary_fiber_check(rep, "boundary fiber winding", Atom("Sigma_tilde_S1"), cfg)
    _add_closure(rep, "Sigma_tilde_S1", cfg)
    return rep


def verify_C15(cfg: RunConfig) -> ClaimReport:
    rep = _new_report("C15")
    tol = cfg.tol
    rng = np.random.default_rng(cfg.seed + 15)
    configs = np.stack([atlas.PLANAR_BASE_CP3] + [
        atlas.embed(random_config(atlas.TAG_PLANAR_FIXED_2, cfg.seed + 40 + i, tol))
        for i in range(2)
    ])

    p0 = np.broadcast_to(atlas.GR_TRIV_P0, (len(configs), 4))
    rep.add_distance("identity at the reference plane",
                     compare_values(atlas.gr_triv(p0, configs), configs, "config"),
                     cfg.lift_tol, cfg.numeric_floor)

    # each of 8 planes through the center, with Q off the plane, against
    # every configuration
    covs = []
    for _ in range(8):
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        covs.append(np.array([u[0], u[1], 0.0, u[2] + 2.0], dtype=complex))
    planes = np.repeat(np.stack(covs), len(configs), axis=0)
    inputs = np.tile(configs, (len(covs), 1, 1))
    out = atlas.gr_triv(planes, inputs)
    valid = _add_output_validity(rep, validate_values(out, atlas.TAG_PLANAR_FIXED_3, tol), cfg)
    rep.add_distance("output lies in the target plane",
                     _worst(plane_incidence(out[valid], planes[valid])),
                     cfg.lift_tol, cfg.numeric_floor)

    # two readings of the printed point display for the plane
    # X0 = p1 X1 + p2 X2 + p3 X3, where the plane is such a graph
    shown = valid & (np.abs(planes[:, 0]) > 1e-9)
    p = -planes[shown, 1:] / planes[shown, :1]
    tail = inputs[shown][..., 1:]
    heads = {"two_term": p[:, None, 0] * tail[..., 0] + p[:, None, 1] * tail[..., 1],
             "full": np.sum(p[:, None, :] * tail, axis=-1)}
    display = {name: _worst(value_dist(out[shown], np.concatenate([head[..., None], tail],
                                                                  axis=-1), "config"))
               for name, head in heads.items()}
    rep.add("printed coordinate display comparison (report only)", PASS,
            note=f"two-term reading distance {display['two_term']:.3e}, "
                 f"full linear reading distance {display['full']:.3e}; the display's "
                 "indices are inconsistent, the projection construction is authoritative")
    rep.extra["display_distances"] = display
    return rep


def _new_report(claim_id: str) -> ClaimReport:
    c = atlas.claim(claim_id)
    rep = ClaimReport(claim_id, c.kind, anchors=list(c.anchors))
    if c.notes:
        rep.notes.append(c.notes)
    return rep


VERIFIERS = {
    "C1": verify_C1, "C2": verify_C2, "C3": verify_C3, "C4": verify_C4,
    "C5": verify_C5, "C6": verify_C6, "C7": verify_C7, "C8": verify_C8,
    "C9": verify_C9, "C10": verify_C10, "C11": verify_C11, "C12": verify_C12,
    "C13": verify_C13, "C14": verify_C14, "C15": verify_C15,
}


def verify_claim(claim_id: str, cfg: RunConfig, workers=None) -> ClaimReport:
    """Run one claim in this process or, given a process pool ``workers``,
    in one of its processes, waiting for the report."""
    if claim_id not in VERIFIERS:
        raise atlas.AtlasError(f"unknown claim {claim_id!r}")
    if workers is None:
        return _run_claim(claim_id, cfg)
    return workers.submit(_run_claim, claim_id, cfg).result()


def _run_claim(claim_id: str, cfg: RunConfig) -> ClaimReport:
    # a worker looks the claim up itself, in the registry that the fork copied
    return VERIFIERS[claim_id](cfg)


# ---------------------------------------------------------------------------
# winding tables and certificates

def winding_tables(cfg: RunConfig) -> dict:
    n, tol = cfg.circle_samples, cfg.tol
    fiber_loops = ("alpha", "beta", "gamma", "F_tilde_S1", "B_tilde_S1", "Psi_tilde_S1",
                   "Sigma_tilde_S1")
    planar_loops = ("alpha", "beta", "gamma", "sigma", "sigma_tilde_Lambda", "Phi_tilde_S1")
    # one Atom per name, so each loop is sampled once for every table, and
    # each (loop, functional) pair is wound once for the tables and matrices
    loops = {name: Atom(name) for name in fiber_loops + planar_loops}
    fib = {name: inv.fiber_winding_vector(loops[name], n, tol) for name in fiber_loops}
    w = {name: [inv.winding(loops[name], f, n, tol) for f in inv.W_FUNCTIONALS.values()]
         for name in planar_loops}
    fiber_rows = {name: {"vector": [r.winding for r in vec],
                         "residual": max(r.residual for r in vec)}
                  for name, vec in fib.items()}
    w_rows = {name: {r.functional_id: {"winding": r.winding, "residual": r.residual,
                                       "min_modulus": r.min_modulus} for r in row}
              for name, row in w.items()}
    mat_fib, rank_fib = inv.independence_matrix([fib[name] for name in ("alpha", "beta", "gamma")])
    mat_w, rank_w = inv.independence_matrix([w[name] for name in ("alpha", "beta", "sigma")])
    return {
        "fiber_vectors": fiber_rows,
        "bracket_ratio_windings": w_rows,
        "independence": {
            "fiber_charts_on_abc": {"matrix": mat_fib, "rank": rank_fib},
            "bracket_ratios_on_ab_sigma": {
                "matrix": mat_w, "rank": rank_w,
                "note": "the bracket ratios are identically one on concurrent "
                        "configurations (the cutting lines meet the carrier line "
                        "in the common center), so this family does not separate; "
                        "independence of the generators is certified by the fiber "
                        "charts instead",
            },
        },
    }


def certificates(tables: dict) -> dict:
    """Exact certificates for Z^3 modulo each boundary lattice; the solid
    lattices take the measured boundary fiber vectors of the winding tables."""

    def quotient(rows, note=""):
        fr, tor = inv.abelian_quotient(rows, 3)
        cert = {"lattice_rows": [list(r) for r in rows],
                "invariant_factors": inv.snf_invariants(rows, 3),
                "quotient": inv.quotient_str(fr, tor),
                "free_rank": fr, "torsion": tor}
        return {**cert, "note": note} if note else cert

    vec = {name: row["vector"] for name, row in tables["fiber_vectors"].items()}
    boundary = [vec["F_tilde_S1"], vec["B_tilde_S1"]]
    return {
        # planar, basis (a, b, s): the doubled-loop relation gives c = a + b + 2s.
        "planar_center_fibration_stated": quotient(
            [[2, 2, 1]], "boundary class a+b+c-s with c = a+b+2s, using the stated cylinder end"),
        "planar_center_fibration_derived": quotient(
            [[3, 3, 3]], "boundary class a+b+2c-s as certified by the printed cylinder, whose "
                         "t=0 end doubles the third loop; disagrees with the stated lattice"),
        "plane_pencil_fibration": quotient(
            [[1, 1, 1]], "boundary class -(a+b+s) from the verified simultaneous-loop cylinder"),
        # solid, basis (a, b, c): measured boundary fiber vectors.
        "solid_fixed_center": quotient(boundary),
        "solid_center_fibration": quotient(boundary + [vec["Psi_tilde_S1"]]),
        "solid_hyperplane_pencil": quotient(
            boundary + [vec["Sigma_tilde_S1"]],
            "trivial quotient: the hyperplane boundary class generates, so the "
            "connecting map is an isomorphism"),
    }


# ---------------------------------------------------------------------------
# braid families

def braid_reports(cfg: RunConfig) -> dict:
    out = {}
    for family, verify_family in (("YB3", braids.verify_yb3), ("YB4", braids.verify_yb4)):
        acc = {"family": family, "ok": True, "per_n": [], "tuples": 0, "identities": 0}
        for n in range(3, 7):
            r = verify_family(n)
            acc["per_n"].append(r.to_json())
            acc["ok"] &= r.ok
            acc["tuples"] += r.tuples_checked
            acc["identities"] += r.identities_checked
        out[family] = acc
    return out


# ---------------------------------------------------------------------------
# driver

ALL_CLAIM_IDS = tuple(f"C{i}" for i in range(1, 16))

# claims by measured serial time, longest first (C12 about 100 ms, C2 about
# 2 ms): a pool that takes them in this order never starts a long one last
CLAIM_ORDER = ("C12", "C7", "C14", "C11", "C9", "C6", "C10", "C13", "C5", "C4",
               "C8", "C3", "C1", "C15", "C2")


def _fork_pool(workers: int):
    """``workers`` forked processes, all started now, before the caller
    starts a thread that a fork could copy mid-operation; None where the
    platform cannot fork.  Fork, not spawn: a spawned worker imports numpy
    and this package afresh (about 0.25 s on a 2-core x86_64 VM, more than
    the claims take there) and would not see a registry replaced in this
    process."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = None
    if "fork" in multiprocessing.get_all_start_methods():
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        pool.submit(int)          # a fork pool starts every worker at its first submit
    return pool


def _add_full_run_sections(report: RunReport, cfg: RunConfig):
    report.braid = braid_reports(cfg)
    report.winding_tables = winding_tables(cfg)
    report.certificates = certificates(report.winding_tables)
    report.notes.append(
        "solid base point: the third line label in the source display "
        "duplicates the first; normalized to the third line (X1 = X3 = 0)."
    )


def run_verification(cfg: RunConfig, claim_ids=None) -> RunReport:
    """Run the claims and, on a full run, the braid families, winding tables
    and certificates.  With more than one worker, the claims run longest
    first in forked worker processes, one dispatch thread per worker, while
    this thread builds the full-run sections; the report is assembled in
    claim order, so its bytes do not depend on the worker count."""
    ids = list(claim_ids) if claim_ids else list(ALL_CLAIM_IDS)
    for cid in ids:
        if cid not in VERIFIERS:
            raise atlas.AtlasError(f"unknown claim {cid!r}")
    report = RunReport(config=cfg.to_json())
    full_run = set(ids) == set(ALL_CLAIM_IDS)

    workers = min(cfg.threads or os.cpu_count() or 1, len(ids))
    procs = _fork_pool(workers) if workers > 1 else None
    if procs is None:
        for cid in ids:
            report.claims[cid] = verify_claim(cid, cfg)
        if full_run:
            _add_full_run_sections(report, cfg)
        return report

    with procs, ThreadPoolExecutor(max_workers=workers) as pool:
        def stop_on_error(fut):           # no claim starts after one has raised
            if not fut.cancelled() and fut.exception() is not None:
                pool.shutdown(wait=False, cancel_futures=True)

        futs = {cid: pool.submit(verify_claim, cid, cfg, procs)
                for cid in sorted(ids, key=CLAIM_ORDER.index)}
        for fut in futs.values():
            fut.add_done_callback(stop_on_error)
        if full_run:
            _add_full_run_sections(report, cfg)
    # leaving both pools waited for every dispatched claim and joined the workers
    for fut in map(futs.get, ids):
        if not fut.cancelled() and fut.exception() is not None:
            raise fut.exception()
    report.claims.update((cid, futs[cid].result()) for cid in ids)
    return report
