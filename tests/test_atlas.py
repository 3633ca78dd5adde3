"""Atlas catalog: inventory, base points, formula spot values, junction
agreement, closures, and the trivialization maps."""

import numpy as np
import pytest

from dcs import atlas
from dcs.paths import closure_report, compare_values, junction_report, plane_incidence, sweep_item
from dcs.projective import DEFAULT_TOL, HPoint, brackets, proj_dist, unit_rows
from dcs.strata import SpaceTag, random_config, validate
from dcs.verify import ALL_CLAIM_IDS

TWO_PI = 2 * np.pi


def dist_points(raw, expected):
    return proj_dist(HPoint(raw), HPoint(expected))


# ---------------------------------------------------------------------------
# inventory

def test_list_items_contains_mandatory_ids():
    items = atlas.export_registry()["items"]
    for required in ("alpha", "beta", "gamma", "sigma", "s",
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
# evaluation at single parameters

def test_eval_item_returns_configuration_at_base():
    base = atlas.basepoint(atlas.TAG_PLANAR_FIXED_2).array()
    for item_id in ("alpha", "sigma"):
        cfg = atlas.get(item_id).eval(np.array([0.0]))[0]
        assert compare_values(cfg, base, "config") < 1e-14


def test_eval_item_point_and_lines():
    p = atlas.get("Psi").eval(np.array([0.0]), rho=0.0)[0]
    assert dist_points(p, [1, 0, 0, 0]) < 1e-15
    triple = atlas.get("s").eval(np.array([np.pi / 2]))[0]
    assert dist_points(triple[0], [1j, 1, 0]) < 1e-15
    spans = atlas.get("F").eval(np.array([0.0]), rho=0.5)[0]
    assert spans.shape == (6, 4)
    val = atlas.get("eta").eval(np.array([np.pi]))[0]
    assert val == pytest.approx(1 + np.exp(3j * np.pi))
    with pytest.raises(atlas.AtlasError):
        atlas.get("phi_triv").eval(np.array([0.0]))     # not a parametric item


def test_eval_item_cylinder_boundary():
    cfg = atlas.get("L").eval(np.array([0.7]), t=0.0)[0]
    assert cfg.shape == (6, 3)


# ---------------------------------------------------------------------------
# claims registry

def test_claims_for_selected_items():
    def claims_for(item_id):
        return {cid for cid in ALL_CLAIM_IDS if item_id in atlas.claim(cid).references}

    assert claims_for("L") == {"C6"}
    assert "C3" in claims_for("alpha")
    assert claims_for("Psi_tilde") == {"C13"}


def test_claim_registry_complete():
    assert [c["id"] for c in atlas.export_registry()["claims"]] == [f"C{i}" for i in range(1, 16)]
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
    assert rep["closure"] <= DEFAULT_TOL.proj_eq_tol, rep
    assert rep["base_distance"] <= DEFAULT_TOL.proj_eq_tol, rep


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
    assert rep["closure"] > 0.1, rep


# ---------------------------------------------------------------------------
# configurations written in place

def _stacked(*pts):
    """The former definition of ``config(point(...), ...)``: each point's
    coordinates stacked, then the points."""
    rows = [np.stack(np.broadcast_arrays(*(np.asarray(c, dtype=np.complex128) for c in p)), axis=-1)
            for p in pts]
    return np.stack(np.broadcast_arrays(*rows), axis=-2)


_RNG = np.random.default_rng(5)
_ZN = np.exp(1j * _RNG.uniform(0.0, TWO_PI, 7))
_ZG = _RNG.normal(size=(5, 4)) + 1j * _RNG.normal(size=(5, 4))


@pytest.mark.parametrize("pts", [
    [(-1, 2.5, 1 + 2j), atlas.A30, (0, 0.0, -1)],
    [(-1, _ZN, 1), (0, 2 * _ZN, 1 + _ZN.real), atlas.B30],
    [(_ZG, 1, 0), (_ZG[:, :1], -_ZG.real, 2), (0, _ZG[0], _ZG.conj())],
], ids=["scalar", "nodes", "grid"])
def test_config_writes_the_stacked_bytes(pts):
    got = atlas.config(*(atlas.point(*p) for p in pts))
    want = _stacked(*pts)
    assert got.shape == want.shape and got.dtype == want.dtype == np.complex128
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


BARE_POINTS = {"Phi": 3, "Pi": 4, "Psi": 4, "Sigma": 5}


@pytest.mark.parametrize("item_id", sorted(i for i in atlas.export_registry()["items"]
                                           if atlas.get(i).formula is not None))
def test_every_item_evaluates_to_a_contiguous_array(item_id):
    """On a (theta, rho) grid, or a (theta, t) grid for a cylinder, every
    item's values have the value kind's trailing shape, complex dtype and C
    order; the bare points and planes are (..., m) arrays."""
    item = atlas.get(item_id)
    theta = np.linspace(0.0, TWO_PI, 6)[:, None]
    other = np.linspace(0.0, 1.0, 3)
    if item.kind == "cylinder":
        vals = item.eval(theta, t=other)
    else:
        vals = item.eval(theta, rho=other if item.kind == "disk" else None)
    lead = (6, 3) if item.kind in ("disk", "cylinder") else (6, 1)
    trailing = {"scalar": (), "lines_dual": (3, 3),
                "point": (BARE_POINTS.get(item_id),), "plane": (BARE_POINTS.get(item_id),)}
    m = item.target.n + 1 if item.target is not None else None
    want = lead + trailing.get(item.value_kind, (6, m))
    assert vals.shape == want and vals.dtype == np.complex128 and vals.flags.c_contiguous


@pytest.mark.parametrize("item_id", ["D0", "D0_cp3", "D0_solid", "D0_solid_cp4"])
def test_basepoint_items_broadcast_over_theta(item_id):
    item = atlas.get(item_id)
    vals = item.eval(np.linspace(0.0, 1.0, 5))
    assert vals.shape == (5,) + atlas.basepoint(item.target).array().shape
    assert np.array_equal(vals[0], atlas.basepoint(item.target).array())
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
    assert rep.ok and rep.min_margin > 1e-6, rep


def test_line_disks_stay_valid():
    for item_id in ("Lambda", "F", "B"):
        rep = sweep_item(item_id, (48, 17))
        assert rep.ok, rep


# ---------------------------------------------------------------------------
# trivializations (batched over samples)

BASE2 = atlas.PLANAR_BASE
BASE_DUALS = np.stack([atlas.D10_DUAL, atlas.D20_DUAL, atlas.D30_DUAL])


def test_phi_triv_identity_and_center():
    out = atlas.phi_triv(atlas.I0_PLANAR[None], BASE2[None])
    assert compare_values(out, BASE2[None], "config") < 1e-14

    center = np.array([0.3 + 0.2j, -0.4, 1])
    out = atlas.phi_triv(center[None], BASE2[None])
    rep = validate([HPoint(p) for p in out[0]], SpaceTag.planar_fixed(2, HPoint(center)))
    assert rep.verdict
    geom = atlas.phi_triv_geometric(center[None], BASE2[None])
    assert compare_values(out, geom, "config") < 1e-9


def test_phi_triv_rejects_center_on_reference_line():
    with pytest.raises(ValueError):
        atlas.phi_triv(np.array([[0.3, 0.1, 1], [1, 1, 0]]), np.stack([BASE2, BASE2]))


def test_psi_triv_identity():
    out = atlas.psi_triv(BASE_DUALS[None], BASE2[None])
    assert compare_values(out, BASE2[None], "config") < 1e-12


def test_psi_triv_random_fibers():
    r = np.random.default_rng(3)
    charts = [lambda w, k=k: [-1, k, w] for k in (1, 2)]
    charts.append(lambda w: [0, 1, w])
    configs = []
    for _ in range(5):
        pts = []
        for chart in charts:
            a, b = r.normal(size=2) + 1j * r.normal(size=2)
            if abs(a - b) < 0.1:
                b = a + 1.0
            pts += [chart(a), chart(b)]
        configs.append(np.array(pts, dtype=complex))
    configs = np.stack(configs)
    out = atlas.psi_triv(np.broadcast_to(BASE_DUALS, (5, 3, 3)), configs)
    # on the base lines the projection is the identity
    assert compare_values(out, configs, "config") < 1e-9
    for cfg in out:
        assert validate([HPoint(p) for p in cfg], atlas.TAG_PLANAR_FIXED_2).verdict


def test_psi_triv_lands_on_dual_lines():
    """Each output point lies on its requested line and on the line through
    Q and its reference point, for random lines through the center and for
    the isotropic covector [1, i, 0] (d . d = 0), on which picking two
    points of the line from the cross products d x e_i can collapse."""
    r = np.random.default_rng(11)
    duals = np.zeros((20, 3, 3), dtype=complex)
    duals[..., :2] = r.normal(size=(20, 3, 2)) + 1j * r.normal(size=(20, 3, 2))
    duals[0, 0] = [1, 1j, 0]
    out = atlas.psi_triv(duals, np.broadcast_to(BASE2, (20, 6, 3)))
    u = unit_rows(out)
    on_d = np.abs(np.sum(u * np.repeat(unit_rows(duals), 2, axis=1), axis=-1))
    assert on_d.max() < 1e-14
    points = np.concatenate([u, np.broadcast_to(unit_rows(atlas.PSI_TRIV_Q), (20, 1, 3)),
                             np.broadcast_to(unit_rows(BASE2), (20, 6, 3))], axis=1)
    on_qa = np.abs(brackets(points.T, [(i, 6, 7 + i) for i in range(6)]))
    assert on_qa.max() < 1e-14
    assert dist_points(out[0, 0], [-1j, 1, 1]) < 1e-15     # [-1:1:1] from [1:1:1]


def test_gr_triv_identity_and_validity():
    base = atlas.PLANAR_BASE_CP3
    out = atlas.gr_triv(atlas.GR_TRIV_P0[None], base[None])
    assert compare_values(out, base[None], "config") < 1e-12

    cov = np.array([0.2 + 0.1j, -0.3, 0, 1.0], dtype=complex)
    out = atlas.gr_triv(cov[None], base[None])[0]
    assert validate([HPoint(p) for p in out], atlas.TAG_PLANAR_FIXED_3).verdict
    # every output point on the plane
    assert np.max(plane_incidence(out, cov)) < 1e-12


def test_gr_triv_rejects_bad_planes():
    base = np.stack([atlas.PLANAR_BASE_CP3] * 2)
    good = np.array([0.2, -0.3, 0, 1.0])
    with pytest.raises(ValueError):   # does not contain the center
        atlas.gr_triv(np.stack([good, [0, 0, 1.0, 0]]), base)
    with pytest.raises(ValueError):   # contains the projection point
        atlas.gr_triv(np.stack([good, [1.0, 0, 0, 0]]), base)


def _trivialization_inputs():
    r = np.random.default_rng(5)
    planar = np.stack([atlas.PLANAR_BASE] + [
        random_config(atlas.TAG_PLANAR_FIXED_2, 70 + i).array() for i in range(5)])
    centers = np.column_stack([r.normal(size=(6, 2)) + 1j * r.normal(size=(6, 2)),
                               np.ones(6)])
    duals = np.zeros((6, 3, 3), dtype=complex)
    duals[..., :2] = r.normal(size=(6, 3, 2)) + 1j * r.normal(size=(6, 3, 2))
    planes = np.zeros((6, 4), dtype=complex)
    planes[:, [0, 1, 3]] = r.normal(size=(6, 3)) + 1j * r.normal(size=(6, 3))
    planes[:, 3] += 2.0
    return {"phi_triv": (centers, planar), "phi_triv_geometric": (centers, planar),
            "psi_triv": (duals, planar), "gr_triv": (planes, atlas.embed(planar))}


@pytest.mark.parametrize("name", ["phi_triv", "phi_triv_geometric", "psi_triv", "gr_triv"])
def test_trivialization_batch_equals_rows(name):
    """A batch gives byte-equal outputs to the same rows one at a time."""
    fn = getattr(atlas, name)
    params, configs = _trivialization_inputs()[name]
    batch = fn(params, configs)
    assert batch.shape == configs.shape
    rows = np.concatenate([fn(params[k:k + 1], configs[k:k + 1]) for k in range(len(params))])
    assert batch.tobytes() == rows.tobytes()


@pytest.mark.parametrize("n", [1, 10, 2049, 40000])
@pytest.mark.parametrize("item_id", ["sigma", "Lambda_tilde", "Pi_tilde", "Sigma_tilde", "F", "L", "H"])
def test_item_rows_do_not_depend_on_batch_size(item_id, n):
    """A node's value is byte-equal in a batch of any size and alone: the
    first eight nodes, the last and 64 random ones, on a loop, a disk in each
    of CP^2, CP^3 and CP^4, a line-span disk and the arc cylinders."""
    item = atlas.get(item_id)
    r = np.random.default_rng(n)
    nodes = {"theta": r.uniform(0.0, 2 * np.pi, n)}
    if item.kind != "loop":
        nodes["rho" if item.kind == "disk" else "t"] = r.uniform(0.0, 1.0, n)
    batch = item.eval(**nodes)
    assert batch.shape[0] == n
    for i in np.unique(np.r_[0:min(n, 8), n - 1, r.integers(0, n, 64)]):
        alone = item.eval(**{k: v[i:i + 1] for k, v in nodes.items()})
        assert batch[i:i + 1].tobytes() == alone.tobytes(), (item_id, n, i)
