"""Engine-level behavior: claim dispatch, negative controls, report
aggregation, and the certificates section."""

import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from dcs import atlas, strata, verify
from dcs import invariants as inv
from dcs.paths import Atom
from dcs.projective import HPoint
from dcs.report import FAIL, INCONCLUSIVE, PASS, ClaimReport, classify_distance, dumps
from dcs.strata import SpaceTag, validate
from dcs.verify import (
    ALL_CLAIM_IDS,
    RunConfig,
    _boundary_fiber_check,
    _cylinder_fiber_agreement,
    _fiber_vector_check,
    _relation_check,
    certificates,
    run_verification,
    verify_claim,
)


def test_unknown_claim_rejected():
    with pytest.raises(atlas.AtlasError):
        verify_claim("C16", RunConfig())


def test_perturbed_expected_vector_fails():
    rep = ClaimReport("demo", "winding-relation")
    _fiber_vector_check(rep, "control", Atom("Psi_tilde_S1"), (1, 1, 3), RunConfig())
    assert rep.verdict == FAIL
    assert "[1, 1, 2]" in rep.checks[-1].note


def test_correct_expected_vector_passes():
    rep = ClaimReport("demo", "winding-relation")
    _fiber_vector_check(rep, "control", Atom("Psi_tilde_S1"), (1, 1, 2), RunConfig())
    assert rep.verdict == PASS


@pytest.mark.parametrize("claim_id, loop", [
    ("C7", Atom("K_alpha", t=0.0)), ("C7", Atom("K_gamma", t=0.0)), ("C13", Atom("Psi_tilde_S1")),
], ids=["C7-K_alpha", "C7-K_gamma", "C13"])
def test_fiber_vectors_come_from_the_claim_registry(claim_id, loop, monkeypatch):
    """C7's t=0 vectors are read from the claim registry as the solid
    disks' boundary vectors are: the registered vector passes, and a
    perturbed registry entry fails the row."""
    expected = atlas.claim(claim_id).expected
    key = f"fiber_winding({loop.label()})"
    rep = ClaimReport(claim_id, "boundary")
    _boundary_fiber_check(rep, "registered", loop, RunConfig())
    assert rep.verdict == PASS and rep.checks[-1].note.endswith(f"expected {expected[key]}")
    monkeypatch.setitem(expected, key, [v + 1 for v in expected[key]])
    _boundary_fiber_check(rep, "perturbed", loop, RunConfig())
    assert rep.checks[-1].status == FAIL


def _fake_windings(monkeypatch, determinate=None):
    """Every winding is indeterminate, except the functionals named in
    ``determinate`` (id -> winding)."""
    def fake(loop, functional, n=512, tol=None):
        if determinate and functional.id in determinate:
            return inv.WindingResult(functional.id, determinate[functional.id], 0.0, 1.0, n, 0)
        return inv.WindingResult(functional.id, 0, 1.0, 1.0, n, 0, indeterminate=True)

    monkeypatch.setattr(inv, "winding", fake)


def test_indeterminate_fiber_vector_is_inconclusive(monkeypatch):
    _fake_windings(monkeypatch)
    rep = ClaimReport("demo", "winding-relation")
    _fiber_vector_check(rep, "control", Atom("Psi_tilde_S1"), (0, 0, 0), RunConfig())
    assert rep.verdict == INCONCLUSIVE


def test_fiber_mismatch_beside_indeterminate_fails(monkeypatch):
    _fake_windings(monkeypatch, {"fiber1": 5})
    rep = ClaimReport("demo", "winding-relation")
    _fiber_vector_check(rep, "control", Atom("Psi_tilde_S1"), (1, 1, 2), RunConfig())
    assert rep.verdict == FAIL


def test_indeterminate_cylinder_agreement_is_inconclusive(monkeypatch):
    _fake_windings(monkeypatch)
    rep = ClaimReport("demo", "boundary-identity")
    _cylinder_fiber_agreement(rep, "M", RunConfig())
    assert rep.checks and rep.verdict == INCONCLUSIVE


def test_indeterminate_relation_check_is_inconclusive(monkeypatch):
    _fake_windings(monkeypatch)
    rep = ClaimReport("demo", "boundary-identity")
    _relation_check(rep, "control", Atom("M", t=0.0), Atom("M", t=1.0), RunConfig())
    assert rep.verdict == INCONCLUSIVE


def test_certificates_take_the_measured_solid_vectors():
    vectors = {"F_tilde_S1": [0, -1, 1], "B_tilde_S1": [-1, 0, 1],
               "Psi_tilde_S1": [1, 1, 3], "Sigma_tilde_S1": [0, -1, 0]}
    certs = certificates({"fiber_vectors": {k: {"vector": v} for k, v in vectors.items()}})
    assert certs["solid_center_fibration"]["lattice_rows"][-1] == [1, 1, 3]
    assert certs["solid_center_fibration"]["quotient"] == "Z/5"
    assert certs["solid_fixed_center"]["quotient"] == "Z"
    assert certs["solid_hyperplane_pencil"]["quotient"] == "0"


def test_classify_distance_tiers():
    assert classify_distance(1e-15, 1e-9, 1e-12) == PASS
    assert classify_distance(1e-13, 1e-30, 1e-12) == INCONCLUSIVE
    assert classify_distance(0.5, 1e-9, 1e-12) == FAIL


def test_claim_report_aggregation():
    rep = ClaimReport("demo", "membership")
    rep.add("a", PASS)
    assert rep.verdict == PASS
    rep.add("b", INCONCLUSIVE)
    assert rep.verdict == INCONCLUSIVE
    rep.add("c", FAIL)
    assert rep.verdict == FAIL


def test_dumps_writes_numpy_scalars_as_python_values():
    doc = {"b": np.bool_(False), "i": np.int64(-3), "f": np.float64(0.1), "h": np.float32(0.5),
           "t": (np.uint8(1), 2.5)}
    assert dumps(doc) == dumps({"b": False, "i": -3, "f": 0.1, "h": 0.5, "t": [1, 2.5]})
    with pytest.raises(TypeError):
        dumps({"a": np.zeros(2)})


def test_reported_refine_cap_is_the_cap_in_force():
    assert RunConfig().to_json()["refine_cap"] == inv.MAX_WINDING_SAMPLES


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(circle_samples=16)
    with pytest.raises(ValueError):
        RunConfig(disk_grid=(8, 8))
    with pytest.raises(ValueError):
        RunConfig(disk_grid=(128,))
    with pytest.raises(ValueError):
        RunConfig(circle_samples=inv.MAX_WINDING_SAMPLES + 1)
    with pytest.raises(ValueError):
        RunConfig(threads=-1)
    for wrong in ({"circle_samples": 300.5}, {"seed": "0"}, {"seed": -20}, {"threads": True},
                  {"disk_grid": (128.5, 64)}, {"lift_tol": "1e-8"}):
        with pytest.raises(ValueError, match=next(iter(wrong))):
            RunConfig(**wrong)


def test_c9_report_documents_the_discrepancy():
    rep = verify_claim("C9", RunConfig())
    assert rep.verdict == PASS
    assert rep.extra["stated_t0_distance"] > 0.1
    assert any("frozen" in c.name for c in rep.checks)
    assert any("doubles the third" in n or "twice" in n for n in rep.notes)


def test_c15_reports_display_distances_without_gating():
    rep = verify_claim("C15", RunConfig())
    assert rep.verdict == PASS
    assert "display_distances" in rep.extra


def test_partial_run_has_no_global_sections():
    run = run_verification(RunConfig(), ["C3"])
    assert run.certificates == {} and run.winding_tables == {}
    assert run.exit_code() == 0


def _assert_no_child_process():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_pool_matches_serial():
    """Reports are byte-identical at one, two and three workers, at two
    seeds, on claims that include the longest (C12, which goes first), and
    the run leaves no child process behind."""
    ids = ["C2", "C3", "C12", "C15"]
    for seed in (0, 7):
        serial, *pooled = (dumps(run_verification(RunConfig(seed=seed, threads=t), ids).to_json())
                           for t in (1, 2, 3))
        assert pooled == [serial, serial]
    _assert_no_child_process()


def test_claim_order_is_a_permutation_of_the_claims():
    assert sorted(verify.CLAIM_ORDER) == sorted(ALL_CLAIM_IDS)


def test_claim_pool_fails_fast(monkeypatch, tmp_path):
    """A claim that raises cancels every claim not yet dispatched: with two
    workers, the error of the claim that goes first lets at most the two
    claims dispatched beside it start.  Claims run in worker processes, so
    each start leaves a file under ``tmp_path``, where this process sees it;
    the error crosses the process boundary intact and no worker outlives
    the run."""
    first = verify.CLAIM_ORDER[0]

    def claim(cid):
        def run(cfg):
            (tmp_path / cid).touch()
            if cid == first:
                raise strata.SamplingError("no sample")
            time.sleep(0.2)
            return ClaimReport(cid, "demo")
        return run

    monkeypatch.setattr(verify, "VERIFIERS", {cid: claim(cid) for cid in ALL_CLAIM_IDS})
    with pytest.raises(strata.SamplingError, match="^no sample$"):
        run_verification(RunConfig(threads=2))
    started = sorted(p.name for p in tmp_path.iterdir())
    assert first in started and len(started) <= 3, started
    _assert_no_child_process()


def test_claims_run_serially_where_fork_is_unavailable(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(os, "fork", no_fork)
    pooled = run_verification(RunConfig(threads=2), ["C3", "C5"])
    serial = run_verification(RunConfig(threads=1), ["C3", "C5"])
    assert dumps(pooled.to_json()) == dumps(serial.to_json())


def test_validator_imposes_only_written_conditions():
    # three first points collinear across the lines is allowed: membership
    # requires only distinctness, concurrency, spacing from the center, span
    pts = [
        HPoint([-1, 1, 0]), HPoint([-1, 1, 2]),
        HPoint([-1, 2, 0]), HPoint([-1, 2, 2]),
        HPoint([0, 1, 0]), HPoint([0, 1, 2]),
    ]
    rep = validate(pts, atlas.TAG_PLANAR_FIXED_2)
    assert rep.verdict, rep.failures
    # indeed collinear
    assert validate([pts[0], pts[2], pts[4]], SpaceTag("Fk_stratum", 2, k=3, span_i=1)).verdict


def test_all_claim_ids_have_verifiers():
    assert set(ALL_CLAIM_IDS) == {f"C{i}" for i in range(1, 16)}
    registry_ids = {c["id"] for c in atlas.export_registry()["claims"]}
    assert registry_ids == set(ALL_CLAIM_IDS)


@pytest.mark.parametrize("claim_id, partners", [
    ("C4", {"Lambda": "Lambda_tilde"}),
    ("C5", {"Lambda_tilde": None}),
    ("C8", {"Phi_tilde": "Phi"}),
    ("C10", {"Pi_tilde": "Pi"}),
    ("C12", {"F_tilde": "F", "B_tilde": "B"}),
    ("C13", {"Psi_tilde": "Psi"}),
    ("C14", {"Sigma_tilde": "Sigma"}),
])
def test_disk_claims_read_their_sweep(claim_id, partners, monkeypatch):
    """A disk claim evaluates each swept disk once on the disk grid, by its
    sweep, and evaluates the printed partner on the sweep's own nodes, or,
    where the claim sweeps the partner too (C12), compares the two sweeps'
    values on the same nodes, the partner evaluated once.  The one-block
    sweep's values are the evaluated block itself where the claim reads
    them, and are not kept where it reads only nodes and centers (C8, C13)."""
    calls, sweeps = [], {}
    original_eval, original_sweep = atlas.AtlasItem.eval, verify.sweep_item

    def eval_spy(self, theta, t=None, rho=None, side="right"):
        out = original_eval(self, theta, t=t, rho=rho, side=side)
        if rho is not None:
            calls.append((self.id, theta, out))
        return out

    def sweep_spy(item_id, grid, tol, values=False):
        sweeps[item_id] = original_sweep(item_id, grid, tol, values)
        return sweeps[item_id]

    monkeypatch.setattr(atlas.AtlasItem, "eval", eval_spy)
    monkeypatch.setattr(verify, "sweep_item", sweep_spy)
    assert verify_claim(claim_id, RunConfig()).verdict == PASS
    kept = claim_id not in ("C8", "C13")
    for swept, partner in partners.items():
        sw = sweeps[swept]
        (out,) = [out for i, _, out in calls if i == swept]
        assert sw.n_nodes == math.prod(RunConfig().disk_grid)
        assert sw.values is out if kept else sw.values is None
        if partner in sweeps:
            assert sweeps[partner].nodes["theta"].tobytes() == sw.nodes["theta"].tobytes()
            assert [i for i, _, _ in calls].count(partner) == 1
        elif partner is not None:
            assert any(i == partner and theta is sw.nodes["theta"] for i, theta, _ in calls)


def _off_center(z, lines):
    """Each covector's third coordinate set to 1e-6 z: lines that miss
    [0:0:1] away from the disk's center."""
    lines = lines.copy()
    lines[..., 2] = 1e-6 * z[..., None]
    return lines


def _equal_lines(z, lines):
    """The second covector replaced by the first."""
    return lines[..., [0, 0, 2], :]


@pytest.mark.parametrize("defects, failing", [
    ((_off_center,), ["center-incidence"]),
    ((_equal_lines,), ["lines-distinct"]),
    ((_off_center, _equal_lines), ["center-incidence", "lines-distinct"]),
], ids=["off-center", "equal-lines", "both"])
def test_C4_line_disk_sweep_catches_planted_defects(defects, failing, monkeypatch):
    """C4 sweeps the printed line disk Lambda: covectors off the center, or
    two equal covectors, fail its membership row by name."""
    item = atlas.get("Lambda")
    printed = item.formula

    def planted(z, zb, r):
        lines = printed(z, zb, r)
        for defect in defects:
            lines = defect(z, lines)
        return lines

    monkeypatch.setattr(item, "formula", planted)
    rep = verify_claim("C4", RunConfig())
    row = next(c for c in rep.checks if c.name == "membership Lambda")
    assert row.status == FAIL and row.note == f"failing sub-checks: {failing}"
    assert next(c for c in rep.checks if c.name == "membership s").status == PASS


def _d3_off_center(z, spans):
    """d3's second point moved by 1e-6 z along (0, 1, 0, 1): a line that
    misses the center [0:0:1:0] away from the disk's center."""
    spans = spans.copy()
    spans[..., 5, :] += 1e-6 * z[..., None] * np.array([0, 1, 0, 1])
    return spans


def _d2_equals_d3(z, spans):
    return spans[..., [0, 1, 4, 5, 4, 5], :]


@pytest.mark.parametrize("name", ["F", "B"])
@pytest.mark.parametrize("defects, failing", [
    ((_d3_off_center,), ["center-incidence"]),
    ((_d2_equals_d3,), ["lines-distinct"]),
    ((_d3_off_center, _d2_equals_d3), ["center-incidence", "lines-distinct"]),
], ids=["off-center", "equal-lines", "both"])
def test_C12_line_triple_sweeps_catch_planted_defects(name, defects, failing, monkeypatch):
    """C12 sweeps the printed line disks F and B in CP^3: a line off the
    center, or two equal lines, fail the disk's membership row by name."""
    item = atlas.get(name)
    printed = item.formula

    def planted(z, zb, r):
        spans = printed(z, zb, r)
        for defect in defects:
            spans = defect(z, spans)
        return spans

    monkeypatch.setattr(item, "formula", planted)
    rep = verify_claim("C12", RunConfig(disk_grid=(33, 16)))
    row = next(c for c in rep.checks if c.name == f"membership {name}")
    assert row.status == FAIL and row.note == f"failing sub-checks: {failing}"
    other = "B" if name == "F" else "F"
    assert next(c for c in rep.checks if c.name == f"membership {other}").status == PASS


def test_C1_shifted_output_center_fails_validity(monkeypatch):
    """Outputs of phi_triv whose center is 3e-9 (relative) off the requested
    one are invalid: the validity row fails and names center-matches."""
    original = atlas.phi_triv

    def shifted(centers, configs):
        centers = np.asarray(centers, dtype=complex)
        shift = 3e-9 * np.linalg.norm(centers, axis=-1, keepdims=True) * np.array([1, -1j, 0]) / np.sqrt(2)
        return original(centers + shift, configs)

    monkeypatch.setattr(atlas, "phi_triv", shifted)
    rep = verify_claim("C1", RunConfig())
    row = next(c for c in rep.checks if c.name == "output validity")
    assert row.status == FAIL and "center-matches" in row.note
