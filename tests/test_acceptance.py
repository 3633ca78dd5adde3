"""Acceptance suite: every contract criterion at its stated tolerance, one
printed verdict line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
The single documented deviation is the t=0 end of the H cylinder: the
printed formula traverses the third fiber motion twice, so the stated
comparison against (alpha*beta)*gamma fails pointwise and is kept as a
strict expected failure; the derivation-run identity against
(alpha*beta)*(gamma*gamma) passes at the same tolerance.  See the README
section "One documented formula discrepancy" for the full analysis.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from dcs import atlas
from dcs import braids
from dcs import invariants as inv
from dcs.paths import (
    Atom,
    Concat,
    Embed,
    Inverse,
    Reparam,
    TWO_PI,
    config_lines_dual,
    junction_report,
    outer_thirds_schedule,
    plane_incidence,
    pointwise_eq,
    sweep_item,
    value_dist,
)
from dcs.projective import chordal_batch, unit_rows
from dcs.report import dumps
from dcs.strata import SpaceTag, validate, validate_batch
from dcs.verify import RunConfig, run_verification

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "golden_report.json"

BOUNDARY_TOL = 1e-9
LIFT_TOL = 1e-8
JUNCTION_TOL = 1e-9
MARGIN_MIN = 1e-6
BASE_MARGIN_MIN = 1e-3
RESIDUAL_MAX = 0.05

CATALOG_SWEEPS = [
    ("alpha", "loop"), ("beta", "loop"), ("gamma", "loop"), ("sigma", "loop"),
    ("s", "loop"), ("Lambda", "disk"), ("Lambda_tilde", "disk"), ("L", "cylinder"),
    ("K_alpha", "cylinder"), ("K_beta", "cylinder"), ("K_gamma", "cylinder"),
    ("Phi_tilde", "disk"), ("H", "cylinder"), ("Pi_tilde", "disk"),
    ("M", "cylinder"), ("F_tilde", "disk"), ("B_tilde", "disk"),
    ("Psi_tilde", "disk"), ("Sigma_tilde", "disk"),
]


def announce(criterion, ok, text):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="session")
def cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def full_run(cfg):
    return run_verification(cfg)


@pytest.fixture(scope="session")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def loops():
    return {n: Atom(n) for n in ("alpha", "beta", "gamma", "sigma")}


# ---------------------------------------------------------------------------
# criterion 1: base points validate with healthy, frozen margins

def test_criterion_1_base_points(golden):
    margins = {}
    for tag, label in ((atlas.TAG_PLANAR_FIXED_2, "planar"),
                       (atlas.TAG_PLANAR_FIXED_3, "embedded"),
                       (atlas.TAG_SOLID_FIXED_3, "solid")):
        cfg6 = atlas.basepoint(tag)
        rep = validate(cfg6.points, tag)
        assert rep.verdict, (label, rep.failures)
        assert rep.margin > BASE_MARGIN_MIN
        margins[label] = rep.margin
    frozen = {"planar": 0.27216552697590873, "embedded": 0.27216552697590873,
              "solid": 0.7071067811865475}
    for label, value in margins.items():
        assert value == pytest.approx(frozen[label], rel=1e-12)
    announce(1, True, f"base points validate, margins {margins}")


# ---------------------------------------------------------------------------
# criterion 2: membership sweeps at default grids, stable under doubling

def test_criterion_2_membership_sweeps(cfg):
    worst = np.inf
    for item_id, kind in CATALOG_SWEEPS:
        grid = {"loop": cfg.circle_samples, "disk": cfg.disk_grid,
                "cylinder": cfg.cylinder_grid}[kind]
        rep = sweep_item(item_id, grid)
        assert rep.ok and rep.min_margin > MARGIN_MIN, rep
        doubled = {"loop": 2 * cfg.circle_samples,
                   "disk": (2 * cfg.disk_grid[0], 2 * cfg.disk_grid[1]),
                   "cylinder": (2 * cfg.cylinder_grid[0], 2 * cfg.cylinder_grid[1])}[kind]
        rep2 = sweep_item(item_id, doubled)
        assert rep2.ok and rep2.min_margin > MARGIN_MIN, rep2
        worst = min(worst, rep2.min_margin)
    announce(2, True, f"all catalog items stay in their spaces (worst doubled margin {worst:.4g})")


# ---------------------------------------------------------------------------
# criterion 3: lift identities pointwise below 1e-8

def test_criterion_3_lift_identities(cfg):
    n = cfg.circle_samples
    thetas = np.linspace(0.0, TWO_PI, n + 1)
    tt, rr = np.meshgrid(np.linspace(0, TWO_PI, 96, endpoint=False),
                         np.linspace(0, 1, 33), indexing="ij")
    tt, rr = tt.ravel(), rr.ravel()
    checks = {}

    lines_sigma = config_lines_dual(atlas.get("sigma").eval(thetas))
    checks["line projection of sigma = line loop"] = float(
        np.max(value_dist(lines_sigma, atlas.get("s").eval(thetas), "lines_dual")))

    lifted = config_lines_dual(atlas.get("Lambda_tilde").eval(tt, rho=rr))
    checks["line projection of the doubled-loop disk"] = float(
        np.max(value_dist(lifted, atlas.get("Lambda").eval(tt, rho=rr), "lines_dual")))

    doubled = atlas.get("s").eval((2.0 * thetas) % TWO_PI)
    checks["line disk boundary doubles the line loop"] = float(
        np.max(value_dist(atlas.get("Lambda").eval(thetas, rho=1.0), doubled, "lines_dual")))

    arr = atlas.get("Phi_tilde").eval(tt, rho=rr)
    centers = validate_batch(arr, SpaceTag.planar(2)).centers
    checks["center path of the planar lift"] = float(
        np.max(chordal_batch(centers, unit_rows(atlas.get("Phi").eval(tt, rho=rr)))))

    arr = atlas.get("Pi_tilde").eval(tt, rho=rr)
    checks["plane incidence of the pencil lift"] = float(
        np.max(plane_incidence(arr, atlas.get("Pi").eval(tt, rho=rr))))

    for lifted_id, printed_id in (("F_tilde", "F"), ("B_tilde", "B")):
        lifted = atlas.get(lifted_id).eval(tt, rho=rr)
        checks[f"line triple of {lifted_id}"] = float(
            np.max(value_dist(lifted, atlas.get(printed_id).eval(tt, rho=rr), "lines_span")))

    arr = atlas.get("Psi_tilde").eval(tt, rho=rr)
    centers = validate_batch(arr, SpaceTag.solid(3)).centers
    checks["center path of the solid lift"] = float(
        np.max(chordal_batch(centers, unit_rows(atlas.get("Psi").eval(tt, rho=rr)))))

    arr = atlas.get("Sigma_tilde").eval(tt, rho=rr)
    checks["hyperplane incidence of the top lift"] = float(
        np.max(plane_incidence(arr, atlas.get("Sigma").eval(tt, rho=rr))))

    bad = {k: v for k, v in checks.items() if v >= LIFT_TOL}
    announce(3, not bad, f"lift identities below {LIFT_TOL:g} "
                         f"(worst {max(checks.values()):.3e})" + (f"; failing: {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# criterion 4: boundary identities pointwise below 1e-9

def test_criterion_4_boundary_identities(cfg):
    lp = loops()
    n = cfg.circle_samples
    pairs = {
        "L t=0": (Atom("L", t=0.0),
                  Concat(Concat(Inverse(lp["alpha"]), Inverse(lp["beta"])), lp["gamma"])),
        "L t=1": (Atom("L", t=1.0),
                  Concat(Concat(lp["sigma"], lp["sigma"]), Inverse(Atom("sigma_tilde_Lambda")))),
        "H t=1": (Atom("H", t=1.0), Concat(Atom("Phi_tilde_S1"), lp["sigma"])),
        "M t=1": (Atom("M", t=1.0), Concat(lp["sigma"], Inverse(lp["gamma"]))),
        "embedded simultaneous loop": (Embed(Atom("M", t=0.0)), Atom("Pi_tilde_S1")),
    }
    for name, undec in (("K_alpha", "alpha"), ("K_beta", "beta"), ("K_gamma", "gamma")):
        from dcs.paths import EqualConcat

        pairs[f"{name} t=1"] = (Atom(name, t=1.0),
                                EqualConcat([lp["sigma"], lp[undec], Inverse(lp["sigma"])]))
        pairs[f"{name} t=0"] = (Atom(name, t=0.0),
                                Reparam(lp[undec], outer_thirds_schedule, "outer-thirds"))
    results = {k: pointwise_eq(a, b, n) for k, (a, b) in pairs.items()}
    bad = {k: v for k, v in results.items() if v >= BOUNDARY_TOL}
    announce(4, not bad,
             f"boundary identities below {BOUNDARY_TOL:g} "
             f"(worst {max(results.values()):.3e}; H t=0 handled separately)")


@pytest.mark.xfail(strict=True, reason=(
    "the printed t=0 end of the H cylinder traverses the third fiber motion "
    "twice; the stated comparison against (alpha*beta)*gamma fails pointwise "
    "by an order-one distance.  Documented formula defect; see the frozen "
    "derived identity test below and the decisions ledger."))
def test_criterion_4_h_t0_stated_form(cfg):
    lp = loops()
    d = pointwise_eq(Atom("H", t=0.0),
                     Concat(Concat(lp["alpha"], lp["beta"]), lp["gamma"]),
                     cfg.circle_samples)
    assert d < BOUNDARY_TOL


def test_criterion_4_h_t0_frozen_form(cfg):
    lp = loops()
    d = pointwise_eq(Atom("H", t=0.0),
                     Concat(Concat(lp["alpha"], lp["beta"]),
                            Concat(lp["gamma"], lp["gamma"])),
                     cfg.circle_samples)
    announce("4 (frozen H end)", d < BOUNDARY_TOL,
             f"t=0 end equals (alpha*beta)*(gamma*gamma) at {d:.3e}")


# ---------------------------------------------------------------------------
# criterion 5: piecewise junction agreement on a 64-point parameter grid

def test_criterion_5_piecewise_continuity():
    worst = 0.0
    for item_id in ("L", "K_alpha", "K_beta", "K_gamma", "H", "M", "epsilon", "eta"):
        rep = junction_report(item_id, 64)
        assert rep["junctions"] > 0
        worst = max(worst, rep["max_mismatch"])
        assert rep["max_mismatch"] < JUNCTION_TOL, rep
    announce(5, True, f"piecewise junctions agree (worst mismatch {worst:.3e})")


# ---------------------------------------------------------------------------
# criterion 6: winding relations with integer-exact results

def test_criterion_6_winding_relations(cfg):
    lp = loops()
    n = cfg.circle_samples
    failures = []

    rel = inv.check_linear_relation(
        Concat(lp["sigma"], lp["sigma"]),
        Concat(Concat(Inverse(lp["alpha"]), Inverse(lp["beta"])), lp["gamma"]), n)
    if rel.status != "pass":
        failures.append("doubled line loop relation")

    disk = sweep_item("Lambda_tilde", cfg.disk_grid, values=True).values
    for rep in inv.disk_winding_nullity("Lambda_tilde", disk,
                                        list(inv.W_FUNCTIONALS.values()), n):
        if rep.status != "pass":
            failures.append(f"nullity {rep.functional_id}")

    rel = inv.check_linear_relation(
        Concat(Atom("Phi_tilde_S1"), lp["sigma"]),
        Concat(Concat(lp["alpha"], lp["beta"]), lp["gamma"]), n)
    if rel.status != "pass":
        failures.append("planar lift boundary relation")

    expected = {
        "alpha": (1, 0, 0), "beta": (0, 1, 0), "gamma": (0, 0, 1),
        "F_tilde_S1": (0, -1, 1), "B_tilde_S1": (-1, 0, 1),
        "Psi_tilde_S1": (1, 1, 2), "Sigma_tilde_S1": (0, -1, 0),
    }
    for name, want in expected.items():
        res = inv.fiber_winding_vector(Atom(name), n)
        got = tuple(r.winding for r in res)
        resid = max(r.residual for r in res)
        if got != want or resid >= RESIDUAL_MAX:
            failures.append(f"fiber vector {name}: {got} vs {want}")

    announce(6, not failures, "winding relations hold with residuals below "
                              f"{RESIDUAL_MAX}" + (f"; failing: {failures}" if failures else ""))


# ---------------------------------------------------------------------------
# criterion 7: Smith-normal-form certificates on exact integers

def test_criterion_7_snf_certificates(full_run):
    certs = full_run.certificates
    assert certs["planar_center_fibration_stated"]["quotient"] == "Z + Z"
    assert certs["plane_pencil_fibration"]["quotient"] == "Z + Z"
    assert certs["solid_fixed_center"]["quotient"] == "Z"
    assert certs["solid_center_fibration"]["quotient"] == "Z/4"
    assert certs["solid_center_fibration"]["invariant_factors"] == [1, 1, 4]
    assert certs["solid_hyperplane_pencil"]["quotient"] == "0"
    announce(7, True, "quotient certificates: planar Z^2, pencil Z^2, solid Z then Z/4, "
                      "hyperplane connecting map an isomorphism")


def test_criterion_7_derived_lattice_documented(full_run):
    # the printed H cylinder certifies the doubled-gamma boundary class, whose
    # lattice disagrees with the stated one; both are recorded side by side
    derived = full_run.certificates["planar_center_fibration_derived"]
    assert derived["lattice_rows"] == [[3, 3, 3]]
    assert derived["quotient"] == "Z + Z + Z/3"
    assert "disagrees" in derived["note"]


# ---------------------------------------------------------------------------
# criterion 8: braid presentations, exhaustively and exactly

def test_criterion_8_braid_presentations():
    for n in range(3, 7):
        assert braids.verify_yb3(n).ok
        assert braids.verify_yb4(n).ok
    # negative controls: corrupted relations must fail
    lhs = braids.braid_mul(braids.alpha_word(1, 2), braids.alpha_word(1, 3),
                           braids.alpha_word(2, 3))
    rhs = braids.braid_mul(braids.alpha_word(1, 3), braids.alpha_word(2, 3),
                           braids.alpha_word(1, 3))
    assert not braids.acts_equally(lhs, rhs, 3)
    assert not braids.acts_trivially(
        braids.braid_mul(braids.alpha_word(1, 3), braids.alpha_word(2, 3),
                         braids.invert_word(braids.alpha_word(1, 3)),
                         braids.invert_word(braids.alpha_word(2, 3))), 3)
    announce(8, True, "triple and quadruple relation families pass for 3..6 strands; "
                      "negative controls fail")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reports

def test_criterion_9_determinism(cfg, full_run):
    again = run_verification(cfg)
    assert dumps(full_run.to_json()) == dumps(again.to_json())
    announce(9, True, "repeated full runs are byte-identical")


# ---------------------------------------------------------------------------
# the full run itself and the committed golden report

def test_all_claim_families_pass(full_run):
    verdicts = {cid: rep.verdict for cid, rep in full_run.claims.items()}
    assert set(verdicts.values()) == {"pass"}, verdicts
    assert all(fam["ok"] for fam in full_run.braid.values())
    assert full_run.exit_code() == 0


def _compare(fresh, frozen, path=""):
    if isinstance(frozen, dict):
        assert isinstance(fresh, dict) and fresh.keys() == frozen.keys(), path
        for k in frozen:
            _compare(fresh[k], frozen[k], f"{path}.{k}")
    elif isinstance(frozen, list):
        assert isinstance(fresh, list) and len(fresh) == len(frozen), path
        for i, (a, b) in enumerate(zip(fresh, frozen)):
            _compare(a, b, f"{path}[{i}]")
    elif isinstance(frozen, bool) or isinstance(frozen, str) or frozen is None:
        assert fresh == frozen, (path, fresh, frozen)
    elif isinstance(frozen, int):
        assert isinstance(fresh, int) and fresh == frozen, (path, fresh, frozen)
    else:
        assert abs(fresh - frozen) <= 1e-12 * max(1.0, abs(fresh), abs(frozen)), (
            path, fresh, frozen)


def _thresholded_values(report, path=""):
    """(path, value) of every row of a report that has a threshold."""
    if isinstance(report, dict):
        if "threshold" in report and "value" in report:
            yield path, report["value"]
        for k, v in report.items():
            yield from _thresholded_values(v, f"{path}.{k}")
    elif isinstance(report, list):
        for i, v in enumerate(report):
            yield from _thresholded_values(v, f"{path}[{i}]")


def _accuracy_mismatches(fresh, frozen):
    """The thresholded values whose frozen value lies below numeric_floor x
    1e4 and which fresh and frozen do not give within a factor of 16 of each
    other (or both as 0).  The 1e-12 rule of ``_compare`` is absolute below
    1, so it cannot see a value at rounding level grow a thousandfold."""
    small = frozen["config"]["numeric_floor"] * 1e4
    values = dict(_thresholded_values(fresh))
    bad = []
    for path, old in _thresholded_values(frozen):
        new = values[path]
        if old < small and not (old == new == 0 or (old > 0 and new > 0 and 1 / 16 <= new / old <= 16)):
            bad.append((path, new, old))
    return bad


def test_fresh_run_matches_committed_golden(full_run, golden):
    fresh = json.loads(dumps(full_run.to_json()))
    _compare(fresh, golden)
    assert not _accuracy_mismatches(fresh, golden)


def test_golden_compare_sees_a_thousandfold_distance(golden):
    """A distance at rounding level grown 1000x passes the 1e-12 rule and
    fails the factor-16 condition."""
    planted = json.loads(json.dumps(golden))
    row = planted["claims"]["C12"]["checks"][1]
    assert row["name"] == "lines of F_tilde equal F" and row["value"] < 1e-15
    row["value"] *= 1000
    _compare(planted, golden)
    assert [path for path, _, _ in _accuracy_mismatches(planted, golden)] == [".claims.C12.checks[1]"]
    assert not _accuracy_mismatches(golden, golden)
