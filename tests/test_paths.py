"""Path engine: concatenation/inversion conventions (calibrated against the
printed cylinder ends), pointwise comparison metrics, sweeps, and the loop
expression grammar."""

import random

import numpy as np
import pytest

from dcs import atlas
from dcs.paths import (
    Atom,
    Concat,
    EqualConcat,
    Embed,
    Inverse,
    PathError,
    Reparam,
    SWEEP_BLOCK,
    TWO_PI,
    config_lines_dual,
    domain_nodes,
    outer_thirds_schedule,
    parse_loop_expr,
    pointwise_eq,
    sweep_item,
    value_dist,
)
from dcs import invariants as inv
from dcs.cli import main
from dcs.projective import HPoint, chordal_batch, frame_residual, line_frame, to_columns, unit_rows
from dcs.strata import SpaceTag, validate_batch, validate_lines_batch

ALPHA, BETA, GAMMA, SIGMA = (Atom(n) for n in ("alpha", "beta", "gamma", "sigma"))


# ---------------------------------------------------------------------------
# the concatenation convention

def test_concat_convention_matches_first_cylinder_t0():
    lhs = Atom("L", t=0.0)
    rhs = Concat(Concat(Inverse(ALPHA), Inverse(BETA)), GAMMA)
    assert pointwise_eq(lhs, rhs) < 1e-9


def test_concat_convention_matches_first_cylinder_t1():
    lhs = Atom("L", t=1.0)
    rhs = Concat(Concat(SIGMA, SIGMA), Inverse(Atom("sigma_tilde_Lambda")))
    assert pointwise_eq(lhs, rhs) < 1e-9


def test_equal_speed_convention_matches_conjugation_tables():
    for name, undec in (("K_alpha", ALPHA), ("K_beta", BETA), ("K_gamma", GAMMA)):
        lhs = Atom(name, t=1.0)
        rhs = EqualConcat([SIGMA, undec, Inverse(SIGMA)])
        assert pointwise_eq(lhs, rhs) < 1e-9


def test_concat_with_constant_loop_keeps_windings():
    padded = Concat(ALPHA, Atom("D0"))      # the base point item is constant in theta
    vec = inv.fiber_winding_vector(padded)
    assert tuple(r.winding for r in vec) == (1, 0, 0)


def test_concat_evaluates_each_operand_on_its_own_half():
    th = np.append(domain_nodes("closed_circle", 512)[0]["theta"], np.nextafter(np.pi, 4.0))
    p, q = ALPHA, Inverse(BETA)
    first = th <= np.pi
    got = Concat(p, q).at(th)
    assert np.array_equal(got[first], p.at(2.0 * th[first]))
    assert np.array_equal(got[~first], q.at(2.0 * th[~first] - TWO_PI))
    # pi stays with p: alpha(2 pi) and beta(0) are the same point but differ bitwise
    at_pi = Concat(ALPHA, BETA).at(np.array([np.pi]))
    assert at_pi.tobytes() == ALPHA.at(np.array([TWO_PI])).tobytes()
    assert at_pi.tobytes() != BETA.at(np.array([0.0])).tobytes()


def test_word_evaluates_each_node_once(monkeypatch, capsys):
    nodes, items = [], []
    original = atlas.AtlasItem.eval

    def counting(self, theta, *args, **kwargs):
        nodes.append(np.size(theta))
        items.append(self.id)
        return original(self, theta, *args, **kwargs)

    monkeypatch.setattr(atlas.AtlasItem, "eval", counting)
    word = parse_loop_expr("alpha*beta^-1*gamma*alpha*beta*gamma^-1*alpha*beta")
    word.at(domain_nodes("closed_circle", 512)[0]["theta"])
    assert sum(nodes) == 513
    assert items == ["alpha", "beta", "gamma"]     # one evaluation per distinct atom
    # one sample of the word serves the line check and all six windings
    nodes.clear()
    assert main(["winding", "alpha*beta*gamma", "fiber", "w1", "w2", "w3"]) == 0
    assert sum(nodes) == 513


def test_mixed_ambient_word_rejected():
    with pytest.raises(PathError, match=r"^\(alpha \* Pi_tilde_S1\) concatenates values of "
                                        r"shapes \(6, 3\) and \(6, 4\)$"):
        parse_loop_expr("alpha*Pi_tilde_S1").at(np.linspace(0.0, TWO_PI, 17))


# ---------------------------------------------------------------------------
# word evaluation against the recursive per-window definition

def reference_at(expr, theta):
    """The definition a word's values must keep: every part of a
    concatenation evaluated on its own window, recursively, an inverse on
    reflected angles and a reparametrization on scheduled ones."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if isinstance(expr, Atom):
        return expr.item.eval(th, t=expr.t)
    if isinstance(expr, Embed):
        return atlas.embed(reference_at(expr.p, th), expr.extra)
    if isinstance(expr, Inverse):
        return reference_at(expr.p, TWO_PI - th)
    if isinstance(expr, Reparam):
        return reference_at(expr.p, expr.schedule(th))
    n, idx, out = len(expr.parts), expr.window(th), None
    for k, part in enumerate(expr.parts):
        mask = idx == k
        if mask.any():
            v = reference_at(part, n * th[mask] - k * TWO_PI)
            if out is None:
                out = np.zeros(th.shape + v.shape[1:], dtype=v.dtype)
            out[mask] = v
    return out


# leaves of the random words, per ambient space; an Embed is one leaf
CP2_LEAVES = [lambda n=n: Atom(n) for n in ("alpha", "beta", "gamma", "sigma",
                                            "sigma_tilde_Lambda", "Phi_tilde_S1", "D0")] + [
    lambda: Atom("M", t=0.0), lambda: Atom("L", t=1.0), lambda: Atom("K_beta", t=0.5)]
CP3_LEAVES = [lambda n=n: Atom(n) for n in ("Pi_tilde_S1", "F_tilde_S1", "B_tilde_S1")] + [
    lambda: Embed(Atom("M", t=0.0)), lambda: Embed(Concat(ALPHA, Inverse(GAMMA)))]


def random_word(rng, leaves, size):
    """A word of ``size`` leaves: binary products and equal-speed triple
    products in random parentheses, each node inverted or put through the
    outer-thirds schedule at random."""
    if size == 1:
        node = leaves[rng.randrange(len(leaves))]()
    elif size >= 3 and rng.random() < 0.3:
        a = rng.randint(1, size - 2)
        b = rng.randint(1, size - a - 1)
        node = EqualConcat([random_word(rng, leaves, k) for k in (a, b, size - a - b)])
    else:
        k = rng.randint(1, size - 1)
        node = Concat(random_word(rng, leaves, k), random_word(rng, leaves, size - k))
    if rng.random() < 0.3:
        node = Inverse(node)
    if rng.random() < 0.1:
        node = Reparam(node, outer_thirds_schedule, "outer-thirds")
    return node


def _leaf_keys(expr):
    """The atlas evaluations a word may make: one per distinct atom, and
    an embedded word's own for each Embed."""
    if isinstance(expr, Atom):
        return {(expr.item_id, expr.t)}
    if isinstance(expr, Embed):
        return {(id(expr), key) for key in _leaf_keys(expr.p)}
    return set().union(*(_leaf_keys(p) for p in getattr(expr, "parts", [getattr(expr, "p", None)])))


@pytest.mark.parametrize("seed", range(40))
def test_word_values_match_the_recursive_definition(seed, monkeypatch):
    """Random words of up to 12 leaves, on the closed grid, on the
    midpoints a winding refinement asks for and on unsorted angles, give
    the bytes of the recursive definition; each distinct leaf is evaluated
    at most once per call, and every angle exactly once."""
    rng = random.Random(seed)
    word = random_word(rng, CP3_LEAVES if seed % 4 == 3 else CP2_LEAVES, rng.randint(1, 12))
    grid = domain_nodes("closed_circle", 64 + 32 * (seed % 3))[0]["theta"]
    mids = 0.5 * (grid[:-1] + grid[1:])[::3]
    scattered = np.random.default_rng(seed).uniform(0.0, TWO_PI, 101)
    calls = []
    original = atlas.AtlasItem.eval

    def counting(self, theta, *args, **kwargs):
        calls.append(np.size(theta))
        return original(self, theta, *args, **kwargs)

    for theta in (grid, mids, scattered, np.array([np.pi])):
        want = reference_at(word, theta)
        monkeypatch.setattr(atlas.AtlasItem, "eval", counting)
        calls.clear()
        got = word.at(theta)
        monkeypatch.setattr(atlas.AtlasItem, "eval", original)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), word.label()
        assert sum(calls) == theta.size and len(calls) <= len(_leaf_keys(word))
    closed = domain_nodes("closed_circle", 64)[0]["theta"]
    assert word.sample(64)[1].tobytes() == reference_at(word, closed).tobytes()


# ---------------------------------------------------------------------------
# inversion

def test_double_inverse_is_identity():
    assert pointwise_eq(Inverse(Inverse(ALPHA)), ALPHA) < 1e-15


def test_inverse_negates_windings():
    vec = inv.fiber_winding_vector(Inverse(ALPHA))
    assert tuple(r.winding for r in vec) == (-1, 0, 0)


def test_inverse_gamma_matches_simultaneous_factor():
    # the third-point motion of the simultaneous end of M is gamma reversed
    thetas = np.linspace(0, TWO_PI, 257)
    m0 = atlas.get("M").eval(thetas, t=0.0)[..., 5, :]
    ginv = Inverse(GAMMA).at(thetas)[..., 5, :]
    d = value_dist(m0[:, None, :], ginv[:, None, :], "config")
    assert float(np.max(d)) < 1e-12


# ---------------------------------------------------------------------------
# pointwise_eq

def test_pointwise_eq_identical_and_different():
    assert pointwise_eq(ALPHA, ALPHA) < 1e-15
    assert pointwise_eq(ALPHA, BETA) > 0.1


def test_pointwise_eq_requires_reasonable_grid():
    with pytest.raises(PathError):
        pointwise_eq(ALPHA, BETA, grid_n=8)


def test_pointwise_eq_symmetry_and_triangle():
    loops = [ALPHA, BETA, GAMMA, SIGMA]
    n = 64
    for a in loops:
        for b in loops:
            dab = pointwise_eq(a, b, n)
            assert dab == pytest.approx(pointwise_eq(b, a, n), abs=1e-12)
            for c in loops:
                assert dab <= pointwise_eq(a, c, n) + pointwise_eq(c, b, n) + 1e-12


def test_lines_of_sigma_follow_the_line_loop():
    thetas = np.linspace(0, TWO_PI, 129)
    lines = config_lines_dual(atlas.get("sigma").eval(thetas))
    s_vals = atlas.get("s").eval(thetas)
    assert float(np.max(value_dist(lines, s_vals, "lines_dual"))) < 1e-12


def _unit_line_residual(spans, lines):
    """``projective.line_residual`` of unit rows (..., 2, m) that nothing
    normalizes again: its frame steps on the rows' coordinate-major form."""
    s, t = to_columns(spans), to_columns(np.broadcast_to(lines, spans.shape))
    return frame_residual(s, *line_frame(t[:, 0], t[:, 1])).T


@pytest.mark.parametrize("kind, shape", [
    ("config", (6, 3)), ("config", (6, 5)), ("lines_dual", (3, 3)), ("lines_span", (3, 2, 4)),
])
def test_value_dist_normalizes_raw_rows_in_its_passes(kind, shape):
    """value_dist takes raw rows and normalizes them inside its passes: bit
    for bit the distance of the rows normalized first with ``unit_rows``,
    at scales 1e-200 to 1e200 (so a batch mixes rows of the far-norm
    branch with rows in range), over several passes, with every other pair
    the same point at another scale, and with one side broadcast.  Spans
    are drawn (3, 2, m) and passed as six rows, which value_dist pairs."""
    rng = np.random.default_rng(len(shape) * shape[-1])
    n = 20000
    a, b = ((rng.normal(size=(n, *shape)) + 1j * rng.normal(size=(n, *shape)))
            * 10.0 ** rng.integers(-200, 201, size=(n, *shape[:-1], 1)) for _ in range(2))
    b[::2] = a[::2] * (0.3 - 2j)
    former = _unit_line_residual if kind == "lines_span" else chordal_batch
    rows = (lambda x: x.reshape(x.shape[:-3] + (6, 4))) if kind == "lines_span" else (lambda x: x)
    for rhs in (b, b[0]):
        ref = former(unit_rows(a), unit_rows(rhs)).max(axis=-1)
        assert value_dist(rows(a), rows(rhs), kind).tobytes() == ref.tobytes()


def test_embed_matches_padded_coordinates():
    thetas = np.linspace(0, TWO_PI, 65)
    v = Embed(Atom("M", t=0.0)).at(thetas)
    assert v.shape[-1] == 4
    assert np.all(v[..., 3] == 0)


# ---------------------------------------------------------------------------
# reparametrization

def test_outer_thirds_schedule_shape():
    th = np.array([0.0, np.pi / 2, 2 * np.pi / 3, np.pi, 4 * np.pi / 3, 5.0, TWO_PI])
    out = outer_thirds_schedule(th)
    assert out[0] == 0 and out[1] == 0 and out[2] == pytest.approx(0)
    assert out[3] == pytest.approx(np.pi)
    assert out[4] == pytest.approx(TWO_PI) and out[-1] == TWO_PI


def test_reparam_matches_conjugation_cylinder_start():
    for name, undec in (("K_alpha", ALPHA), ("K_beta", BETA), ("K_gamma", GAMMA)):
        lhs = Atom(name, t=0.0)
        rhs = Reparam(undec, outer_thirds_schedule, "outer-thirds")
        assert pointwise_eq(lhs, rhs) < 1e-9


# ---------------------------------------------------------------------------
# winding interplay (additivity over the expression algebra)

def test_winding_additive_under_concat():
    pairs = [(ALPHA, BETA), (ALPHA, GAMMA), (BETA, GAMMA), (GAMMA, GAMMA)]
    for a, b in pairs:
        va = inv.fiber_winding_vector(a)
        vb = inv.fiber_winding_vector(b)
        vab = inv.fiber_winding_vector(Concat(a, b))
        assert tuple(x.winding for x in vab) == tuple(
            x.winding + y.winding for x, y in zip(va, vb)
        )


def _rewound(loop, functional, n):
    """Winding with the refinement done as a full re-evaluation: each round
    evaluates the loop again at every angle."""
    thetas = np.linspace(0.0, TWO_PI, n + 1)
    refinements = 0
    while True:
        vals = functional(loop.at(thetas))
        dargs = (np.diff(np.angle(vals)) + np.pi) % TWO_PI - np.pi
        bad = np.abs(dargs) >= np.pi / 2
        if not np.any(bad):
            break
        thetas = np.sort(np.concatenate([thetas, 0.5 * (thetas[:-1][bad] + thetas[1:][bad])]))
        refinements += 1
    total = float(np.sum(dargs)) / TWO_PI
    k = int(np.round(total))
    return inv.WindingResult(functional.id, k, abs(total - k), float(np.abs(vals).min()),
                             thetas.size, refinements)


def test_winding_refinement_terminates():
    fast = EqualConcat([ALPHA] * 8)
    res = inv.winding(fast, inv.fiber_functional(0, 2), n=16)
    assert res.winding == 8
    assert res.refinements >= 1
    assert res.samples < 2 ** 20
    # evaluating only the new midpoints gives the same result, bit for bit
    assert res == _rewound(fast, inv.fiber_functional(0, 2), 16)


def test_boundary_identities_stable_under_grid_doubling():
    # a passing cylinder-end identity must keep passing on a doubled grid
    cases = [
        (Atom("L", t=0.0), Concat(Concat(Inverse(ALPHA), Inverse(BETA)), GAMMA)),
        (Atom("H", t=1.0), Concat(Atom("Phi_tilde_S1"), SIGMA)),
        (Atom("M", t=1.0), Concat(SIGMA, Inverse(GAMMA))),
        (Atom("K_beta", t=1.0), EqualConcat([SIGMA, BETA, Inverse(SIGMA)])),
    ]
    for lhs, rhs in cases:
        d1 = pointwise_eq(lhs, rhs, 512)
        d2 = pointwise_eq(lhs, rhs, 1024)
        assert d1 < 1e-9 and d2 < 1e-9


def test_winding_additive_over_ratio_functionals_all_pairs():
    gens = {"alpha": ALPHA, "beta": BETA, "gamma": GAMMA, "sigma": SIGMA}
    singles = {
        name: {f.id: inv.winding(lp, f).winding for f in inv.W_FUNCTIONALS.values()}
        for name, lp in gens.items()
    }
    for na, a in gens.items():
        for nb, b in gens.items():
            for f in inv.W_FUNCTIONALS.values():
                got = inv.winding(Concat(a, b), f).winding
                assert got == singles[na][f.id] + singles[nb][f.id]
            for f in inv.W_FUNCTIONALS.values():
                assert inv.winding(Inverse(a), f).winding == -singles[na][f.id]


# ---------------------------------------------------------------------------
# sweeps

def test_sweep_stability_under_doubling():
    for item_id, grid in (("sigma", 128), ("Lambda_tilde", (32, 9))):
        r1 = sweep_item(item_id, grid)
        grid2 = grid * 2 if isinstance(grid, int) else (grid[0] * 2, 2 * grid[1] - 1)
        r2 = sweep_item(item_id, grid2)
        assert r1.ok and r2.ok
        assert r2.min_margin <= r1.min_margin * 1.001  # nested refinement only shrinks margins


def test_domain_nodes_grids_and_labels():
    nodes, label = domain_nodes("loop", 8)
    assert label == "circle:8" and list(nodes) == ["theta"]
    assert np.array_equal(nodes["theta"], np.arange(8) * (TWO_PI / 8))
    nodes, label = domain_nodes("basepoint", 512)
    assert label == "circle:1" and nodes["theta"].tolist() == [0.0]
    nodes, label = domain_nodes("disk", (4, 3))
    assert label == "disk:4x3" and list(nodes) == ["theta", "rho"]
    assert nodes["rho"][:3].tolist() == [0.0, 0.5, 1.0] and np.all(nodes["theta"][:3] == 0.0)
    nodes, label = domain_nodes("cylinder", (4, 3))
    assert label == "cylinder:4x3" and list(nodes) == ["theta", "t"]
    assert nodes["t"].tolist() == [0.0] * 4 + [0.5] * 4 + [1.0] * 4       # t-major
    assert np.array_equal(nodes["theta"][4:8], nodes["theta"][:4])
    nodes, label = domain_nodes("closed_circle", 16)
    assert label == "closed_circle:16" and list(nodes) == ["theta"]
    assert nodes["theta"].size == 17 and nodes["theta"][-1] == TWO_PI
    theta, values = ALPHA.sample(16)            # a loop's sample is this grid
    assert np.array_equal(theta, nodes["theta"])
    assert np.array_equal(values, ALPHA.at(theta)) and ALPHA.sample(16)[1] is values
    for arr in (theta, values):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(PathError):
        domain_nodes("closed_circle", 15)
    with pytest.raises(PathError):
        domain_nodes("closed_circle", inv.MAX_WINDING_SAMPLES + 1)
    with pytest.raises(PathError):
        domain_nodes("map", 8)


WRONG_CENTER = SpaceTag.planar_fixed(2, HPoint([1, 0, 0]))


@pytest.mark.parametrize("item_id, grid, tag", [
    ("L", (256, 64), None),
    ("Phi_tilde", (129, 64), None),
    ("L", (256, 64), WRONG_CENTER),
    ("Lambda", (129, 64), None),
    ("F", (129, 64), None),
], ids=["cylinder", "disk", "cylinder-wrong-center", "lines-dual-disk", "lines-span-disk"])
def test_blocked_sweep_matches_one_batch(item_id, grid, tag, monkeypatch):
    """A sweep over more than SWEEP_BLOCK nodes, validated block by block,
    reports what one batch over all nodes reports: configurations against
    validate_batch, line triples against validate_lines_batch.  Its nodes
    are the domain's and its values, written block by block into one
    array, are byte for byte the item's values at all nodes at once."""
    item = atlas.get(item_id)
    if tag is not None:
        monkeypatch.setattr(item, "target", tag)
    nodes, label = domain_nodes(item.kind, grid)
    assert nodes["theta"].size > SWEEP_BLOCK
    one_batch = validate_batch if item.value_kind == "config" else validate_lines_batch
    values = item.eval(**nodes)
    ref = one_batch(values, item.target)
    rep = sweep_item(item_id, grid, values=True)
    i = int(np.argmin(ref.margins))
    assert rep.grid == label and rep.n_nodes == nodes["theta"].size
    assert list(rep.nodes) == list(nodes)
    assert all(rep.nodes[k].tobytes() == v.tobytes() for k, v in nodes.items())
    assert rep.values.shape == values.shape and rep.values.tobytes() == values.tobytes()
    assert rep.ok == ref.all_ok
    assert rep.min_margin == ref.margins[i]
    assert rep.worst_param == tuple(v[i] for v in nodes.values())
    assert rep.max_residual == ref.residuals.max()
    assert rep.fail_counts == ref.fail_counts
    if item.value_kind == "config":
        assert np.array_equal(rep.centers, ref.centers)
    else:
        assert rep.centers is None and ref.centers is None
    if tag is WRONG_CENTER:
        assert rep.fail_counts["center-matches"] == rep.n_nodes


def test_sweep_tie_across_blocks_keeps_the_first_node():
    """K_alpha on a 256 x 64 cylinder attains its least margin at nodes of
    both blocks; the sweep reports the first of them, not a later tie.  Not
    asked for its values, it keeps none."""
    item = atlas.get("K_alpha")
    nodes, _ = domain_nodes(item.kind, (256, 64))
    ref = validate_batch(item.eval(**nodes), item.target)
    tied = np.flatnonzero(ref.margins == ref.margins.min())
    assert tied[0] < SWEEP_BLOCK <= tied[-1]
    rep = sweep_item("K_alpha", (256, 64))
    assert rep.min_margin == ref.margins[tied[0]]
    assert rep.worst_param == tuple(v[tied[0]] for v in nodes.values())
    assert rep.values is None


@pytest.mark.parametrize("item_id, grid", [("alpha", 512), ("L", (256, 64))])
def test_cp2_sweep_runs_lapack_on_few_nodes(item_id, grid, monkeypatch):
    """The CP^2 sweep decides every node without LAPACK: configurations are
    measured as pencil points through their meet, so no node takes an SVD
    matrix, where an all-LAPACK sweep would take five per node."""
    matrices = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rep = sweep_item(item_id, grid)
    assert rep.ok and atlas.get(item_id).target.n == 2
    assert sum(matrices) == 0


def test_sweep_rejects_non_domain_items():
    with pytest.raises(PathError):
        sweep_item("phi_triv", 64)


# ---------------------------------------------------------------------------
# expression grammar

def test_parse_simple_and_nested():
    e = parse_loop_expr("sigma*sigma")
    assert e.label() == "(sigma * sigma)"
    e = parse_loop_expr("(alpha^-1*beta^-1)*gamma")
    assert pointwise_eq(e, Concat(Concat(Inverse(ALPHA), Inverse(BETA)), GAMMA)) < 1e-15


def test_parse_double_inverse():
    e = parse_loop_expr("alpha^-1^-1")
    assert pointwise_eq(e, ALPHA) < 1e-15


@pytest.mark.parametrize("bad", ["alpha*", "*alpha", "(alpha", "alpha)", "alpha^-1^", "l@"])
def test_parse_errors(bad):
    with pytest.raises(PathError):
        parse_loop_expr(bad)


def test_parse_unknown_atom():
    with pytest.raises(Exception):
        parse_loop_expr("nonexistent_loop")


def test_parse_rejects_non_loop_items():
    with pytest.raises(PathError):
        parse_loop_expr("Lambda_tilde*alpha")  # disk item is not a loop atom
