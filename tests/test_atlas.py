"""Atlas catalog: inventory, base points, formula spot values, junction
agreement, closures, and the trivialization maps."""

import numpy as np
import pytest

from dcs import atlas
from dcs.paths import closure_report, junction_report, sweep_item
from dcs.projective import HPoint, proj_dist
from dcs.strata import SpaceTag, validate

TWO_PI = 2 * np.pi


def dist_points(raw, expected):
    return proj_dist(HPoint(raw), HPoint(expected))


# ---------------------------------------------------------------------------
# inventory

def test_list_items_contains_mandatory_ids():
    items = atlas.list_items()
    for required in ("alpha", "beta", "gamma", "sigma", "s", "fiber_a",
                     "Lambda", "Lambda_tilde", "sigma_tilde_Lambda", "L",
                     "epsilon", "eta", "K_alpha", "K_beta", "K_gamma",
                     "Phi", "Phi_tilde", "Phi_tilde_S1", "H",
                     "phi_triv", "psi_triv", "gr_triv",
                     "Pi", "Pi_tilde", "M", "F", "B", "F_tilde", "B_tilde",
                     "Psi", "Psi_tilde", "Sigma", "Sigma_tilde", "D0_solid"):
        assert required in items, required


def test_unknown_id_errors():
    with pytest.raises(atlas.AtlasError):
        atlas.get("no_such_item")
    with pytest.raises(atlas.AtlasError):
        atlas.claims_for("no_such_item")


def test_alias_resolves():
    assert atlas.get("Lambda_tilde_S1") is atlas.get("sigma_tilde_Lambda")


# ---------------------------------------------------------------------------
# base points

def test_basepoint_planar_values():
    cfg = atlas.basepoint(SpaceTag.planar_fixed(2, HPoint([0, 0, 1])))
    expected = [[-1, 1, 1], [-1, 1, 2], [-1, 2, 1], [-1, 2, 2], [0, 1, 1], [0, 1, 2]]
    for p, e in zip(cfg.points, expected):
        assert dist_points(p.coords, e) < 1e-15


def test_basepoint_embedded_appends_zero():
    cfg = atlas.basepoint(atlas.TAG_PLANAR_FIXED_3)
    for p, q in zip(cfg.points, atlas.basepoint(atlas.TAG_PLANAR_FIXED_2).points):
        assert np.allclose(p.coords[:3], q.coords) and p.coords[3] == 0


def test_basepoint_solid_values():
    cfg = atlas.basepoint(atlas.TAG_SOLID_FIXED_3)
    expected = [[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 0], [0, 1, 1, 0],
                [1, 0, 0, 0], [1, 0, 1, 0]]
    for p, e in zip(cfg.points, expected):
        assert dist_points(p.coords, e) < 1e-15
    rep = validate(cfg.points, atlas.TAG_SOLID_FIXED_3)
    assert rep.verdict


def test_basepoint_unknown_tag():
    with pytest.raises(atlas.AtlasError):
        atlas.basepoint(SpaceTag.planar(5))


# ---------------------------------------------------------------------------
# spot values of the printed formulas

def test_alpha_and_sigma_close_at_base():
    for name in ("alpha", "sigma"):
        arr = atlas.get(name).eval(np.array([0.0]))[0]
        base = atlas.basepoint(atlas.TAG_PLANAR_FIXED_2).array()
        assert max(dist_points(a, b) for a, b in zip(arr, base)) < 1e-15


def test_alpha_moving_point_formula():
    arr = atlas.get("alpha").eval(np.array([np.pi / 3]))[0]
    z = np.exp(1j * np.pi / 3)
    assert dist_points(arr[1], [-1, 1, 1 + z]) < 1e-15


def test_lambda_restriction_third_point():
    arr = atlas.get("sigma_tilde_Lambda").eval(np.array([0.0]))[0]
    assert dist_points(arr[5], [0, 1, 2]) < 1e-15


def test_psi_disk_values():
    at_center = atlas.get("Psi").eval(np.array([0.0]), rho=np.array([0.0]))[0]
    assert dist_points(at_center, [1, 0, 0, 0]) < 1e-15
    boundary = atlas.get("Psi").eval(np.linspace(0, TWO_PI, 9), rho=1.0)
    for b in boundary:
        assert dist_points(b, [0, 0, 1, 0]) < 1e-15  # collapses to the center


def test_phi_disk_boundary_collapses():
    boundary = atlas.get("Phi").eval(np.linspace(0, TWO_PI, 9), rho=1.0)
    for b in boundary:
        assert dist_points(b, [0, 0, 1]) < 1e-15


# ---------------------------------------------------------------------------
# single-parameter typed evaluation

def test_eval_item_returns_configuration_at_base():
    cfg = atlas.eval_item("alpha", z=1.0)
    base = atlas.basepoint(atlas.TAG_PLANAR_FIXED_2)
    assert max(proj_dist(a, b) for a, b in zip(cfg.points, base.points)) < 1e-14
    cfg = atlas.eval_item("sigma", z=1.0)
    assert max(proj_dist(a, b) for a, b in zip(cfg.points, base.points)) < 1e-14


def test_eval_item_point_and_lines():
    p = atlas.eval_item("Psi", z=0.0)
    assert proj_dist(p, HPoint([1, 0, 0, 0])) < 1e-15
    triple = atlas.eval_item("s", z=1j)
    assert proj_dist(triple[0], HPoint([1j, 1, 0])) < 1e-15
    spans = atlas.eval_item("F", z=0.5)
    assert len(spans) == 3
    val = atlas.eval_item("eta", theta=np.pi)
    assert val == pytest.approx(1 + np.exp(3j * np.pi))


def test_eval_item_domain_guards():
    with pytest.raises(atlas.AtlasError):
        atlas.eval_item("alpha", z=2.0)        # off the circle
    with pytest.raises(atlas.AtlasError):
        atlas.eval_item("Psi_tilde", z=3.0)    # outside the disk
    with pytest.raises(atlas.AtlasError):
        atlas.eval_item("L", z=1.0)            # missing the cylinder parameter
    with pytest.raises(atlas.AtlasError):
        atlas.eval_item("L", z=1.0, t=1.5)     # t outside [0, 1]
    with pytest.raises(atlas.AtlasError):
        atlas.eval_item("phi_triv")            # not a parametric item


def test_eval_item_cylinder_boundary():
    cfg = atlas.eval_item("L", z=np.exp(0.7j), t=0.0)
    assert cfg.ambient_dim == 2


# ---------------------------------------------------------------------------
# claims registry

def test_claims_for_selected_items():
    kinds = {c.id for c in atlas.claims_for("L")}
    assert kinds == {"C6"}
    ids = {c.id for c in atlas.claims_for("alpha")}
    assert "C3" in ids
    ids = {c.id for c in atlas.claims_for("Psi_tilde")}
    assert ids == {"C13"}


def test_claim_registry_complete():
    assert [c.id for c in atlas.claims()] == [f"C{i}" for i in range(1, 16)]
    with pytest.raises(atlas.AtlasError):
        atlas.claim("C99")


def test_export_registry_shape():
    doc = atlas.export_registry()
    assert "alpha" in doc["items"]
    assert len(doc["claims"]) == 15


# ---------------------------------------------------------------------------
# junctions and closures for every piecewise / based item

# distinct interior (theta, t) piece bounds on the 64-point t grid
JUNCTIONS = {"L": 402, "H": 375, "M": 125, "K_alpha": 252, "K_beta": 252,
             "K_gamma": 252, "epsilon": 126, "eta": 2}


@pytest.mark.parametrize("item_id", list(JUNCTIONS))
def test_piecewise_junctions_agree(item_id):
    rep = junction_report(item_id, 64)
    assert rep["junctions"] == JUNCTIONS[item_id]
    assert rep["max_mismatch"] < 1e-9, rep


def test_piecewise_arcs_tile_the_circle():
    # interval decompositions must cover [0, 2*pi] with monotone boundaries
    # for every cylinder parameter, or piece selection would be ambiguous
    for item_id in ("L", "H", "M", "K_alpha", "epsilon", "eta"):
        item = atlas.get(item_id)
        for name, arc in item.arcs.items():
            for t in np.linspace(0.0, 1.0, 21):
                b = arc.bounds(float(t))
                assert b[0] == 0.0 and b[-1] == pytest.approx(TWO_PI), (item_id, name)
                assert np.all(np.diff(b) >= -1e-15), (item_id, name, t, b)


@pytest.mark.parametrize("item_id", [
    "alpha", "beta", "gamma", "sigma", "s", "sigma_tilde_Lambda",
    "Phi_tilde_S1", "Pi_tilde_S1", "F_tilde_S1", "B_tilde_S1",
    "Psi_tilde_S1", "Sigma_tilde_S1", "L", "H", "M",
    "K_alpha", "K_beta", "K_gamma",
])
def test_loops_close_at_base(item_id):
    rep = closure_report(item_id)
    assert rep["ok"], rep


@pytest.mark.parametrize("end", [0.0, 1.0])
def test_closure_audits_both_cylinder_ends(end, monkeypatch):
    """A cylinder whose boundary circle at t = end does not close is
    caught, whichever end it is."""
    item = atlas.get("L")
    original = item.formula

    def open_at_end(z, zb, r, opened, **arcs):
        v = original(z, zb, r, **arcs)
        hit = opened != 0
        v[hit] = np.roll(v[hit], 1, axis=-2)
        return v

    # an arc that is 0 before the closing angle and 1 at it on the t = end circle
    opened = atlas.Arc(0, TWO_PI, lambda th, t: t == end)
    monkeypatch.setattr(item, "arcs", {**item.arcs, "opened": opened})
    monkeypatch.setattr(item, "formula", open_at_end)
    rep = closure_report("L")
    assert not rep["ok"] and rep["closure"] > 0.1, rep


@pytest.mark.parametrize("item_id", ["D0", "D0_cp3", "D0_solid", "D0_solid_cp4"])
def test_basepoint_items_broadcast_over_theta(item_id):
    item = atlas.get(item_id)
    vals = item.eval(np.linspace(0.0, 1.0, 5))
    assert vals.shape == (5,) + atlas.basepoint(item.target).array().shape
    got = atlas.eval_item(item_id)
    assert np.array_equal(got.array(), atlas.basepoint(item.target).array())
    rep = sweep_item(item_id, 512)
    assert rep.ok and rep.grid == "circle:1" and rep.n_nodes == 1


ARCS = [(item_id, name) for item_id in ("L", "H", "M", "K_alpha", "K_beta", "K_gamma",
                                        "epsilon", "eta")
        for name in atlas.get(item_id).arcs]


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("item_id, arc_name", ARCS)
def test_arc_per_node_t_matches_scalar_t(item_id, arc_name, side):
    """One t per node selects the same piece and value as one t for all
    angles, bit for bit, also on the piece boundaries themselves."""
    arc = atlas.get(item_id).arcs[arc_name]
    grid = np.linspace(0.0, TWO_PI, 97)
    ts = np.linspace(0.0, 1.0, 9)
    thetas = [np.sort(np.concatenate([grid, arc.bounds(float(t))])) for t in ts]
    per_t = np.concatenate([arc(th, float(t), side) for th, t in zip(thetas, ts)])
    per_node = arc(np.concatenate(thetas), np.repeat(ts, [th.size for th in thetas]), side)
    assert per_node.tobytes() == per_t.tobytes()


BREAKPOINTS = [(item_id, name, k) for item_id, name in ARCS
               for k in range(len(atlas.get(item_id).arcs[name].breaks))]


@pytest.mark.parametrize("item_id, arc_name, k", BREAKPOINTS)
def test_junction_audit_catches_a_moved_breakpoint(item_id, arc_name, k, monkeypatch):
    """Moving one interior breakpoint by 1e-3 leaves the two pieces meeting
    at different values there, and the junction audit reports it."""
    arc = atlas.get(item_id).arcs[arc_name]
    b = arc.breaks[k]
    moved = (lambda t: b(t) + 1e-3) if callable(b) else b + 1e-3
    monkeypatch.setattr(arc, "breaks", arc.breaks[:k] + (moved,) + arc.breaks[k + 1:])
    assert junction_report(item_id, 64)["max_mismatch"] > 1e-6


# ---------------------------------------------------------------------------
# membership on reduced grids (full grids exercised by the acceptance suite)

@pytest.mark.parametrize("item_id", ["Lambda_tilde", "Phi_tilde", "Pi_tilde",
                                     "F_tilde", "B_tilde", "Psi_tilde", "Sigma_tilde"])
def test_disks_stay_in_their_spaces(item_id):
    rep = sweep_item(item_id, (48, 17))
    assert rep.ok and rep.min_margin > 1e-6, rep.to_json()


def test_line_disks_stay_valid():
    for item_id in ("Lambda", "F", "B"):
        rep = sweep_item(item_id, (48, 17))
        assert rep.ok, rep.to_json()


# ---------------------------------------------------------------------------
# trivializations

def test_phi_triv_identity_and_center():
    base = atlas.basepoint(atlas.TAG_PLANAR_FIXED_2)
    out = atlas.phi_triv(HPoint([0, 0, 1]), base)
    assert max(proj_dist(a, b) for a, b in zip(out.points, base.points)) < 1e-14

    center = HPoint([0.3 + 0.2j, -0.4, 1])
    out = atlas.phi_triv(center, base)
    rep = validate(out.points, SpaceTag.planar_fixed(2, center))
    assert rep.verdict
    geom = atlas.phi_triv_geometric(center, base)
    assert max(proj_dist(a, b) for a, b in zip(out.points, geom.points)) < 1e-9


def test_phi_triv_rejects_center_on_reference_line():
    with pytest.raises(ValueError):
        atlas.phi_triv(HPoint([1, 1, 0]), atlas.basepoint(atlas.TAG_PLANAR_FIXED_2))


def test_psi_triv_identity():
    base = atlas.basepoint(atlas.TAG_PLANAR_FIXED_2)
    duals = np.stack([atlas.D10_DUAL, atlas.D20_DUAL, atlas.D30_DUAL])
    pairs = [(base.points[0], base.points[1]), (base.points[2], base.points[3]),
             (base.points[4], base.points[5])]
    out = atlas.psi_triv(duals, pairs)
    assert max(proj_dist(a, b) for a, b in zip(out.points, base.points)) < 1e-12


def test_psi_triv_random_fibers():
    r = np.random.default_rng(3)
    base = atlas.basepoint(atlas.TAG_PLANAR_FIXED_2)
    charts = [lambda w, k=k: HPoint([-1, k, w]) for k in (1, 2)]
    charts.append(lambda w: HPoint([0, 1, w]))
    for _ in range(5):
        pairs = []
        for chart in charts:
            a, b = r.normal(size=2) + 1j * r.normal(size=2)
            if abs(a - b) < 0.1:
                b = a + 1.0
            pairs.append((chart(a), chart(b)))
        duals = np.stack([atlas.D10_DUAL, atlas.D20_DUAL, atlas.D30_DUAL])
        out = atlas.psi_triv(duals, pairs)
        for got, (want, _) in zip(out.points[::2], pairs):
            assert proj_dist(got, want) < 1e-9
        rep = validate(out.points, atlas.TAG_PLANAR_FIXED_2)
        assert rep.verdict


def test_gr_triv_identity_and_validity():
    base = atlas.basepoint(atlas.TAG_PLANAR_FIXED_3)
    p0 = np.array([0, 0, 0, 1], dtype=complex)
    out = atlas.gr_triv(p0, base)
    assert max(proj_dist(a, b) for a, b in zip(out.points, base.points)) < 1e-12

    cov = np.array([0.2 + 0.1j, -0.3, 0, 1.0], dtype=complex)
    out = atlas.gr_triv(cov, base)
    rep = validate(out.points, atlas.TAG_PLANAR_FIXED_3)
    assert rep.verdict
    # every output point on the plane
    for p in out.points:
        u = p.unit()
        assert abs(cov @ u) / np.linalg.norm(cov) < 1e-12


def test_gr_triv_rejects_bad_planes():
    base = atlas.basepoint(atlas.TAG_PLANAR_FIXED_3)
    with pytest.raises(ValueError):
        atlas.gr_triv(np.array([0, 0, 1.0, 0]), base)   # does not contain the center
    with pytest.raises(ValueError):
        atlas.gr_triv(np.array([1.0, 0, 0, 0]), base)   # contains the projection point
