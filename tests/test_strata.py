"""Membership predicates: base configurations, named failure modes, margin
behavior, and the constructive random sampler."""

import numpy as np
import pytest

from dcs import atlas, strata
from dcs.paths import domain_nodes
from dcs.projective import (
    DEFAULT_TOL,
    HPoint,
    ProjectiveError,
    chordal_batch,
    meet,
    rank3_screen,
    relative_singular_values,
    span_dim,
    unit_rows,
)
from dcs.strata import (
    Config6,
    SpaceTag,
    in_configuration_space,
    random_config,
    validate,
    validate_batch,
    validate_lines_batch,
)

PLANAR_TAG = atlas.TAG_PLANAR_FIXED_2
SOLID_TAG = atlas.TAG_SOLID_FIXED_3


def base_planar() -> Config6:
    return atlas.basepoint(PLANAR_TAG)


def test_configuration_space_base_points():
    rep = in_configuration_space(base_planar().points)
    assert rep.verdict
    # oracle: the closest pair of base points sits at distance 0.2721655...
    assert rep.margin == pytest.approx(0.2721655269759083, rel=1e-9)


def test_configuration_space_repeated_point():
    pts = list(base_planar().points)
    pts[1] = pts[0]
    rep = in_configuration_space(pts)
    assert not rep.verdict and rep.failures


def test_pair_margin_is_chordal_distance():
    rep = in_configuration_space(base_planar().points[:2])
    assert rep.verdict
    assert rep.margin == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_span_dim_of_base_points():
    assert span_dim(base_planar().points) == 2
    assert span_dim(atlas.basepoint(SOLID_TAG).points) == 3
    collinear = [HPoint([1, 0, 0]), HPoint([0, 1, 0]), HPoint([1, 1, 0])]
    assert span_dim(collinear) == 1


def test_fk_tags_count_their_points():
    pts = base_planar().points
    assert validate(pts, SpaceTag("Fk", 2, k=6)).verdict
    rep = validate(pts, SpaceTag("Fk_stratum", 2, k=6, span_i=2))
    assert rep.verdict and rep.details["span"] == 2
    with pytest.raises(ProjectiveError, match="needs 3 points, got 6"):
        validate(pts, SpaceTag("Fk", 2, k=3))


def test_validate_base_planar():
    rep = validate(base_planar().points, PLANAR_TAG)
    assert rep.verdict and not rep.failures
    assert rep.margin > 1e-3


def test_validate_base_solid():
    rep = validate(atlas.basepoint(SOLID_TAG).points, SOLID_TAG)
    assert rep.verdict
    assert rep.margin > 1e-3


def test_validate_coincident_points_named_failure():
    pts = list(base_planar().points)
    pts[1] = pts[0]
    rep = validate(pts, PLANAR_TAG)
    assert not rep.verdict
    assert any("pairwise-distinct" in f for f in rep.failures)


def test_validate_wrong_center():
    tag = SpaceTag.planar_fixed(2, HPoint([1, 0, 0]))
    rep = validate(base_planar().points, tag)
    assert not rep.verdict
    assert any("center-matches" in f for f in rep.failures)


def test_validate_solid_vs_planar_tags():
    solid = atlas.basepoint(SOLID_TAG)
    rep = validate(solid.points, SpaceTag.planar(3))
    assert not rep.verdict  # span check rejects a solid configuration
    planar3 = atlas.basepoint(atlas.TAG_PLANAR_FIXED_3)
    rep = validate(planar3.points, SpaceTag.solid(3))
    assert not rep.verdict  # and a planar one cannot be solid


def test_fixed_to_free_monotonicity():
    for tag, free in ((PLANAR_TAG, SpaceTag.planar(2)), (SOLID_TAG, SpaceTag.solid(3))):
        cfg = atlas.basepoint(tag)
        assert validate(cfg.points, tag).verdict
        assert validate(cfg.points, free).verdict


def test_validate_rescaling_invariance():
    r = np.random.default_rng(7)
    base = base_planar()
    rep0 = validate(base.points, PLANAR_TAG)
    for _ in range(1000):
        scales = r.normal(size=6) + 1j * r.normal(size=6)
        if np.min(np.abs(scales)) < 1e-3:
            continue
        pts = [HPoint(s * p.coords) for s, p in zip(scales, base.points)]
        rep = validate(pts, PLANAR_TAG)
        assert rep.verdict
        assert rep.margin == pytest.approx(rep0.margin, abs=1e-10)


def test_validate_margin_golden():
    # frozen on first computation; dominated by a line-separation quantity
    rep = validate(base_planar().points, PLANAR_TAG)
    assert rep.verdict and rep.margin == pytest.approx(0.10144199648855792, rel=1e-9)
    rep = validate(atlas.basepoint(SOLID_TAG).points, SOLID_TAG)
    assert rep.verdict and rep.margin == pytest.approx(0.5, rel=1e-9)


def test_validate_margin_linear_in_collision_parameter():
    base = base_planar()
    i0 = HPoint(atlas.I0_PLANAR)

    def margin(eps):
        pts = list(base.points)
        pts[0] = HPoint((1 - eps) * i0.unit() + eps * pts[0].unit())
        rep = validate(pts, PLANAR_TAG)
        assert rep.verdict
        return rep.margin

    m1, m2 = margin(1e-2), margin(5e-3)
    assert m1 / m2 == pytest.approx(2.0, rel=0.05)  # finite-difference slope


def test_random_config_valid_and_reproducible():
    for seed in range(20):
        cfg = random_config(SpaceTag.planar(2), seed)
        assert validate(cfg.points, SpaceTag.planar(2)).verdict
    again = random_config(SpaceTag.planar(2), 3)
    first = random_config(SpaceTag.planar(2), 3)
    assert np.allclose(again.array(), first.array())


def test_random_config_solid_and_fixed_center():
    cfg = random_config(SpaceTag.solid(3), 11)
    assert validate(cfg.points, SpaceTag.solid(3)).verdict
    cfg = random_config(PLANAR_TAG, 12)
    rep = validate(cfg.points, PLANAR_TAG)
    assert rep.verdict


def test_validate_batch_matches_scalar():
    r = np.random.default_rng(5)
    cfgs = [random_config(SpaceTag.planar(2), 100 + i) for i in range(4)]
    pts = list(base_planar().points)
    pts[1] = pts[0]
    arrs = [c.array() for c in cfgs] + [np.stack([p.coords for p in pts])]
    res = validate_batch(np.stack(arrs), SpaceTag.planar(2))
    assert list(res.verdicts) == [True, True, True, True, False]


def test_validate_lines_through_center():
    duals = np.stack([atlas.D10_DUAL, atlas.D20_DUAL, atlas.D30_DUAL])
    res = validate_lines_batch(duals[None], atlas.TAG_LINES_I0)
    assert res.verdicts[0] and not res.fail_counts and res.centers is None
    repeated = np.stack([atlas.D10_DUAL, atlas.D10_DUAL, atlas.D30_DUAL])
    res = validate_lines_batch(repeated[None], atlas.TAG_LINES_I0)
    assert not res.verdicts[0] and res.fail_counts == {"lines-distinct": 1}


def test_configuration_space_names_every_coincidence_in_order():
    p, q, r = (HPoint(c) for c in ([1, 0, 0], [0, 1, 0], [0, 0, 1]))
    rep = in_configuration_space([p, q, p, r, q])
    assert not rep.verdict and rep.margin == 0.0
    assert rep.failures == ["points 0 and 2 coincide", "points 1 and 4 coincide"]
    single = in_configuration_space([p])
    assert single.verdict and single.margin == np.inf


def test_validate_line_triple_tag():
    rep = validate(base_planar().points, atlas.TAG_LINES_I0)
    assert rep.verdict and not rep.failures and rep.margin > 0.1
    pts = list(base_planar().points)
    pts[5] = HPoint([1, 1, 2])        # the third line now misses [0:0:1]
    rep = validate(pts, atlas.TAG_LINES_I0)
    assert not rep.verdict and rep.failures == ["center-incidence"]
    pts = list(base_planar().points)
    pts[1] = pts[0]                   # the first span is a point, not a line
    rep = validate(pts, atlas.TAG_LINES_I0)
    assert not rep.verdict and rep.failures == ["span-defined"] and rep.margin < 1e-12


def test_config6_shape_guard():
    with pytest.raises(ProjectiveError):
        Config6(base_planar().points[:5])


def test_space_tag_validation():
    with pytest.raises(ValueError):
        SpaceTag("D_planar", 1)
    with pytest.raises(ValueError):
        SpaceTag("D_solid_fixed", 3)            # missing center
    with pytest.raises(ValueError):
        SpaceTag("D_solid_fixed", 3, center=HPoint([0, 0, 1]))  # wrong ambient
    with pytest.raises(ValueError):
        SpaceTag("nonsense", 2)
    for tag in ({"kind": "Fk", "n": 2}, {"kind": "Fk", "n": 2, "k": 0},
                {"kind": "Fk_stratum", "n": 2, "i": 2}):   # k missing or 0
        with pytest.raises(ValueError, match="k >= 1"):
            SpaceTag.from_json(tag)


def test_space_tag_json_roundtrip():
    tag = SpaceTag.solid_fixed(3, HPoint(atlas.I0_SOLID))
    again = SpaceTag.from_json(tag.to_json())
    assert again.kind == tag.kind and again.n == tag.n
    assert np.allclose(again.center.unit(), tag.center.unit())


# ---------------------------------------------------------------------------
# the CP^2 screen against an all-LAPACK reference

RANK_TOL, POINT_TOL, MEET_TOL = 1e-8, 1e-9, 1e-12
I0 = np.array([0, 0, 1], dtype=complex)


def _rel3(rows):
    s = np.linalg.svd(rows, compute_uv=False)
    return s[..., 2] / s[..., 0]


def _rel(rows, k):
    s = np.linalg.svd(rows, compute_uv=False)
    return s[..., k] / s[..., 0]


def _line_sine(p1, q1, p2, q2):
    """Sine of the angle between the lines p1 q1 and p2 q2 of CP^n, n >= 3:
    the largest singular value of the part of an orthonormal basis of the
    first line orthogonal to the second."""
    q1b = np.linalg.qr(np.stack([p1, q1], axis=-1))[0]
    q2b = np.linalg.qr(np.stack([p2, q2], axis=-1))[0]
    off = q1b - q2b @ (np.conj(np.swapaxes(q2b, -1, -2)) @ q1b)
    return np.linalg.svd(off, compute_uv=False)[..., 0]


def lapack_reference(points, tag):
    """Every check of validate_batch with each rank value a LAPACK singular
    value ratio.  Returns the verdicts, the fail counts, the margins and, per
    check, the quantity compared with its threshold."""
    u = unit_rows(np.asarray(points, dtype=complex))
    m = u.shape[-1]
    pair = np.stack([chordal_batch(u[:, i], u[:, j]) for i in range(6) for j in range(i + 1, 6)], -1)
    lines = {f"lines-distinct {name}": _rel3(u[:, rows])
             for name, rows in (("d1-d2", [0, 1, 2, 3]), ("d1-d3", [0, 1, 4, 5]),
                                ("d2-d3", [2, 3, 4, 5]))}
    centers = meet(u[:, 0], u[:, 1], u[:, 2], u[:, 3])[0]
    # the meet is defined when each pair spans a line and the lines differ:
    # |p x q| is the chordal distance of unit p, q, and |l1 x l2| / (|l1| |l2|)
    # the sine of the angle between the lines
    if m == 3:
        l1, l2 = np.cross(u[:, 0], u[:, 1]), np.cross(u[:, 2], u[:, 3])
        n1, n2 = np.linalg.norm(l1, axis=-1), np.linalg.norm(l2, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            sine = np.nan_to_num(np.linalg.norm(np.cross(l1, l2), axis=-1) / (n1 * n2))
    else:
        n1, n2 = chordal_batch(u[:, 0], u[:, 1]), chordal_batch(u[:, 2], u[:, 3])
        sine = _line_sine(*(u[:, i] for i in range(4)))
    meet_q = np.min([n1, n2, sine], axis=0)
    inc = _rel3(np.concatenate([centers[:, None], u[:, 4:6]], axis=1))
    apart = np.stack([chordal_batch(u[:, i], centers) for i in range(6)], -1)
    want = tag.span_required
    span = _rel(u, want)
    quantity = {"pairwise-distinct": (pair.min(-1), POINT_TOL), **{k: (v, RANK_TOL) for k, v in lines.items()},
                "meet-defined": (meet_q, MEET_TOL),
                "concurrent d3": (inc, RANK_TOL), "center-apart": (apart.min(-1), POINT_TOL),
                "span-at-least": (span, RANK_TOL)}
    passes = {"pairwise-distinct": np.all(pair > POINT_TOL, -1),
              **{k: v > RANK_TOL for k, v in lines.items()}, "meet-defined": meet_q >= MEET_TOL,
              "concurrent d3": inc <= RANK_TOL, "center-apart": np.all(apart > POINT_TOL, -1),
              "span-at-least": span > RANK_TOL}
    if m > 3:
        skew = _rel(u[:, :4], 3)
        quantity["concurrent d1-d2"] = (skew, RANK_TOL)
        passes["concurrent d1-d2"] = skew <= RANK_TOL
    if m > want + 1:
        excess = _rel(u, want + 1)
        quantity["span-exact"] = (excess, RANK_TOL)
        passes["span-exact"] = excess <= RANK_TOL
    if tag.center is not None:
        dcen = chordal_batch(centers, tag.center.unit())
        quantity["center-matches"] = (dcen, POINT_TOL)
        passes["center-matches"] = dcen <= POINT_TOL
    margins = np.min([pair.min(-1), *lines.values(), apart.min(-1), span], axis=0)
    verdicts = np.all(list(passes.values()), axis=0)
    fail_counts = {k: int(np.sum(~v)) for k, v in passes.items() if not v.all()}
    return verdicts, fail_counts, margins, quantity


def svd_meet_defined(p1, q1, p2, q2):
    """The meet-defined verdict of the SVD meet that the CP^2 cross product
    replaced: the null vector (a, b, c, d) of the columns [p1, q1, -p2, -q2]
    gives the point a p1 + b q1, defined when its norm is at least 1e-12."""
    vh = np.linalg.svd(np.stack([p1, q1, -p2, -q2], axis=-1))[2]
    ab = np.conj(vh[..., -1, :2])
    return np.linalg.norm(ab[..., 0, None] * p1 + ab[..., 1, None] * q1, axis=-1) >= MEET_TOL


def test_meet_defined_for_close_pairs_on_distinct_lines():
    # A_i = I0 + e_i, B_i = I0 + (1 + 1e-6) e_i on d1 and d2: each pair about
    # 5e-7 apart, the lines about 3e-7 from each other, the unnormalized
    # cross-product meet about 1e-13 long
    e = np.eye(3, dtype=complex)
    cfg = _config(I0, [e[0], e[1], e[0] + e[1]], [[1, 1 + 1e-6], [1, 1 + 1e-6], [1, 2]])
    u = unit_rows(cfg)
    assert svd_meet_defined(*u[:4])
    point, defined = meet(*u[:4])
    assert defined and np.linalg.norm(point) == pytest.approx(1.0)
    for batch in (cfg[None], np.stack([cfg, atlas.PLANAR_BASE])):
        res = validate_batch(batch, SpaceTag.planar_fixed(2, HPoint(I0)))
        assert res.all_ok and res.fail_counts == {}


def _cplx(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _config(center, dirs, coeffs):
    """A_i = center + a_i D_i, B_i = center + b_i D_i: six points on three
    lines through the center."""
    return np.stack([center + a * d for d, pair in zip(dirs, coeffs) for a in pair])


def _hug(make, quantity, target):
    """Two nodes make(x), x in [target / 10, 10 target], whose LAPACK
    quantity lies next to target from below and from above (bisection)."""
    lo, hi = target / 10, target * 10
    for _ in range(200):
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        lo, hi = (mid, hi) if quantity(make(mid)) < target else (lo, mid)
    return [make(lo), make(hi)]


def _repeated_top(x):
    """d1 through e1, e2 and d2 through (e1 + e2) / sqrt(2), (e1 - e2 + x e3) /
    sqrt(2): the Gram matrix of the four rows has eigenvalues about 2, 2 and
    x^2 / 2, so d1-d2 has a repeated top eigenvalue and a margin near x / 2."""
    e = np.eye(3, dtype=complex)
    cfg = _config(e[0], [e[1], e[0] + e[1], e[1] + e[2]], [[1, 2], [1, 3], [1, 2]])
    cfg[:4] = [e[0], e[1], (e[0] + e[1]) / np.sqrt(2), (e[0] - e[1] + x * e[2]) / np.sqrt(2)]
    return cfg


def near_degenerate_corpus(seed=20, tag=None):
    """Seeded CP^2 configurations: generic ones; for every threshold, nodes
    whose quantity lies within 10x of it; nodes whose rank quantity lies next
    to its threshold on either side (d1-d2 with a repeated top Gram
    eigenvalue, d1-d2, span, concurrent d3); stacks with repeated Gram
    eigenvalues and the planar base point; and every node again with other
    representatives, which ties with it in exact arithmetic.  A tag above
    CP^2 gives the same for its space (see ``_corpus_above_cp2``)."""
    if tag is not None and tag.n > 2:
        return _corpus_above_cp2(tag, seed)
    rng = np.random.default_rng(seed)
    near = lambda thr: thr * 10 ** rng.uniform(-0.7, 0.7)
    nodes = [_config(I0, _cplx(rng, 3, 3), _cplx(rng, 3, 2)) for _ in range(40)]
    for _ in range(12):
        d, c, w = _cplx(rng, 3, 3), _cplx(rng, 3, 2), _cplx(rng, 3)
        # the two points of d1 close together
        nodes.append(_config(I0, d, [[c[0, 0], c[0, 0] * (1 + near(POINT_TOL))], *c[1:]]))
        # the two points of d1 and of d2 close together, on distinct lines
        nodes.append(_config(I0, d, [[c[0, 0], c[0, 0] * (1 + 1e-7)],
                                     [c[1, 0], c[1, 0] * (1 + near(100 * POINT_TOL))], c[2]]))
        # d2 close to d1, then so close that the meet is undefined
        nodes.append(_config(I0, [d[0], d[0] + near(RANK_TOL) * w, d[2]], c))
        nodes.append(_config(I0, [d[0], d[0] + near(MEET_TOL) * w, d[2]], c))
        # B3 just off d3
        cfg = _config(I0, d, c)
        cfg[5] += near(RANK_TOL) * w
        nodes.append(cfg)
        # A1 close to the center
        nodes.append(_config(I0, d, [[near(POINT_TOL), c[0, 1]], *c[1:]]))
        # all six points close to one line
        nodes.append(_config(I0, d[0] + near(RANK_TOL) * _cplx(rng, 3, 3), c))
        # the center just off the fixed tag's center
        nodes.append(_config(I0 + near(POINT_TOL) * w, d, c))
    # quantities next to the rank threshold, a repeated top eigenvalue among them
    d, c, w = _cplx(rng, 3, 3), _cplx(rng, 3, 2), _cplx(rng, 3)
    lines = lambda cfg: _rel3(unit_rows(cfg[:4]))
    nodes += _hug(_repeated_top, lines, RANK_TOL)
    nodes += _hug(lambda x: _config(I0, [d[0], d[0] + x * w, d[2]], c), lines, RANK_TOL)
    nodes += _hug(lambda x: _config(I0, d[0] + x * np.stack([w, w[::-1], d[1]]), c),
                  lambda cfg: _rel3(unit_rows(cfg)), RANK_TOL)
    for _ in range(4):
        d, c, w = _cplx(rng, 3, 3), _cplx(rng, 3, 2), _cplx(rng, 3)

        def off_d3(x, d=d, c=c, w=w):
            cfg = _config(I0, d, c)
            cfg[5] += x * w
            return cfg

        nodes += _hug(off_d3, lambda cfg: lapack_reference(cfg[None], SpaceTag.planar(2))[3]
                      ["concurrent d3"][0][0], RANK_TOL)

    # repeated Gram eigenvalues: d1-d2 stacks e1, e2, e3, (e1 + e2 + e3) / sqrt(3)
    # (eigenvalues 2, 1, 1) and four rows of the 4x4 Fourier matrix (orthogonal
    # columns: all eigenvalues equal, as for orthonormal rows)
    e = np.eye(3, dtype=complex)
    for head in (np.stack([e[0], e[1], e[2], np.ones(3) / np.sqrt(3)]),
                 np.array([[1, 1j ** k, (-1) ** k] for k in range(4)])):
        center = np.cross(np.cross(head[0], head[1]), np.cross(head[2], head[3]))
        cfg = _config(center, [head[0], head[2], _cplx(rng, 3)], [[1, 1], [1, 1], [0.5, 1.5]])
        cfg[:4] = head
        nodes.append(cfg)
    nodes.append(atlas.PLANAR_BASE.copy())

    nodes = np.stack(nodes)
    phases = np.exp(2j * np.pi * rng.uniform(size=nodes.shape[:2]))[..., None]
    return np.concatenate([nodes, nodes * phases * rng.uniform(0.5, 2.0, size=phases.shape)])


@pytest.mark.parametrize("tag", [SpaceTag.planar(2), SpaceTag.planar_fixed(2, HPoint(I0))],
                         ids=["free", "fixed"])
def test_screen_matches_lapack_near_every_threshold(tag):
    corpus = near_degenerate_corpus()
    verdicts, fail_counts, margins, quantity = lapack_reference(corpus, tag)
    for name, (q, thr) in quantity.items():
        assert np.any((q > thr / 10) & (q < thr * 10)), f"no node within 10x of {name}"
    # the stated bound holds on every screened stack, repeated eigenvalues included
    u = unit_rows(corpus)
    rows = np.concatenate([u, meet(u[:, 0], u[:, 1], u[:, 2], u[:, 3])[0][:, None]], axis=1)
    stacks = ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5), (6, 4, 5), (0, 1, 2, 3, 4, 5))
    est, err = rank3_screen(rows, stacks)
    for k, s in enumerate(stacks):
        assert np.all(np.abs(est[:, k] - _rel3(rows[:, list(s)])) <= err[:, k]), s
    # where d1 and d2 are distinct lines, meet-defined is the SVD meet's verdict
    u = unit_rows(corpus)
    distinct = quantity["lines-distinct d1-d2"][0] > RANK_TOL
    assert np.array_equal(quantity["meet-defined"][0][distinct] >= MEET_TOL,
                          svd_meet_defined(*(u[distinct, i] for i in range(4))))
    res = validate_batch(corpus, tag)
    assert np.array_equal(res.verdicts, verdicts)
    assert res.fail_counts == fail_counts
    assert res.margins.min() == margins.min()
    assert np.argmin(res.margins) == np.argmin(margins)
    assert res.margins[verdicts].min() == margins[verdicts].min()
    assert np.argmin(np.where(verdicts, res.margins, np.inf)) == np.argmin(np.where(verdicts, margins, np.inf))


# ---------------------------------------------------------------------------
# the screens above CP^2 and on line triples against the same reference

def _in_space(rng, tag):
    """Three line directions of a configuration of the tag's kind: in one
    plane through the center for a planar tag, independent for a solid one."""
    d = _cplx(rng, 3, tag.n + 1)
    if tag.span_required == 2:
        d[2] = d[0] * rng.normal() + d[1] * rng.normal()
    return d


def exact_rank_nodes(m):
    """Configurations in CP^(m-1), m >= 4, with integer coordinates: d1 = d2,
    d2 = d3, A1 = B1 and A2 = B2.  With each, the rank-check stacks (rows as
    in ``strata._rank_checks``) whose rows span fewer than three dimensions
    exactly.  Read as triples of spans (A_i, B_i), they are lines d1 = d2,
    d2 = d3 and spans of one point."""
    e = np.eye(m, dtype=complex)
    nodes = np.stack([[e[0], e[1], e[0] + e[1], e[0] + 2 * e[1], e[2], e[2] + e[3]],
                      [e[0] + e[2], e[0] + 2 * e[2], e[0], e[1], e[0] + e[1], e[0] - e[1]],
                      [e[0], e[0], e[1], e[1] + e[2], e[2], e[2] + e[3]],
                      [e[0], e[0] + e[2], e[1], e[1], e[3], e[2] + e[3]]])
    short = [[(0, 1, 2, 3)], [(2, 3, 4, 5)], [(0, 1, 2, 3), (0, 1, 4, 5)], [(2, 3, 4, 5)]]
    return nodes, short


def _assert_short_stacks_unscreened(rows, short):
    """rank3_screen gives no bound, third or fourth value, on a stack whose
    rows span fewer than three dimensions exactly: LAPACK takes its values."""
    for node, stacks in zip(rows, short):
        err = rank3_screen(node[None], stacks, stacks)[1]
        assert np.all(np.isinf(err)), (stacks, err)


def _corpus_above_cp2(tag, seed):
    """``near_degenerate_corpus`` for a tag of CP^3 or CP^4: generic nodes;
    nodes within 10x of every threshold, the skew of d1, d2 and the span's
    excess or shortfall among them; nodes next to each rank threshold from
    both sides; orthonormal and Fourier d1-d2 stacks (all Gram eigenvalues
    equal) and a stack with eigenvalues 2, 1, 1; the atlas base point; the
    ``exact_rank_nodes``; and every node again with other representatives."""
    rng = np.random.default_rng(seed)
    m = tag.n + 1
    center = tag.center.unit() if tag.center is not None else unit_rows(_cplx(rng, m))
    near = lambda thr: thr * 10 ** rng.uniform(-0.7, 0.7)
    solid = tag.span_required == 3

    def out_of(d, c):
        """A unit vector orthogonal to the center and the first two directions."""
        w = _cplx(rng, m)
        basis = np.linalg.qr(np.stack([c, d[0], d[1]], axis=-1))[0]
        w = w - basis @ (np.conj(basis.T) @ w)
        return w / np.linalg.norm(w)

    nodes = [_config(center, _in_space(rng, tag), _cplx(rng, 3, 2)) for _ in range(40)]
    for _ in range(8):
        d, c, w = _in_space(rng, tag), _cplx(rng, 3, 2), _cplx(rng, m)
        nodes.append(_config(center, d, [[c[0, 0], c[0, 0] * (1 + near(POINT_TOL))], *c[1:]]))
        nodes.append(_config(center, d, [[c[0, 0], c[0, 0] * (1 + 1e-7)],
                                         [c[1, 0], c[1, 0] * (1 + near(100 * POINT_TOL))], c[2]]))
        nodes.append(_config(center, [d[0], d[0] + near(RANK_TOL) * w, d[2]], c))
        nodes.append(_config(center, [d[0], d[0] + near(MEET_TOL) * w, d[2]], c))
        cfg = _config(center, d, c)
        cfg[5] += near(RANK_TOL) * w                     # B3 just off d3
        nodes.append(cfg)
        nodes.append(_config(center, d, [[near(POINT_TOL), c[0, 1]], *c[1:]]))
        nodes.append(_config(center, d[0] + near(RANK_TOL) * _cplx(rng, 3, m), c))
        nodes.append(_config(center + near(POINT_TOL) * w, d, c))
        cfg = _config(center, d, c)
        cfg[3] += near(RANK_TOL) * out_of(d, center)     # B2 off the plane of d1 and A2: skew
        nodes.append(cfg)
        # the third line just in or just out of the plane of the first two
        e = d.copy()
        e[2] = d[0] * rng.normal() + d[1] * rng.normal() + near(RANK_TOL) * out_of(d, center)
        nodes.append(_config(center, e, c))
    d, c, w = _in_space(rng, tag), _cplx(rng, 3, 2), _cplx(rng, m)
    off = out_of(d, center)
    lines = lambda cfg: _rel3(unit_rows(cfg[:4]))
    nodes += _hug(lambda x: _config(center, [d[0], d[0] + x * w, d[2]], c), lines, RANK_TOL)

    def skewed(x):                                       # B2 off the plane of d1 and A2
        cfg = _config(center, d, c)
        cfg[3] += x * off
        return cfg

    def spanned(x):                                      # d3 off the plane of d1 and d2
        e = d.copy()
        e[2] = d[0] + d[1] + x * off
        return _config(center, e, c)

    nodes += _hug(skewed, lambda cfg: _rel(unit_rows(cfg[:4]), 3), RANK_TOL)
    index = tag.span_required if solid else tag.span_required + 1
    nodes += _hug(spanned, lambda cfg: _rel(unit_rows(cfg), index), RANK_TOL)

    def off_d3(x):
        cfg = _config(center, d, c)
        cfg[5] += x * w
        return cfg

    nodes += _hug(off_d3, lambda cfg: lapack_reference(cfg[None], tag)[3]["concurrent d3"][0][0], RANK_TOL)
    # equal Gram eigenvalues: orthonormal d1-d2 stacks (rows of the identity,
    # of a Fourier matrix) and e1, e2, e3, (e1 + e2 + e3) / sqrt(3)
    e = np.eye(m, dtype=complex)
    fourier = np.array([[1j ** (j * k) for k in range(m)] for j in range(4)]) / np.sqrt(m)
    for head in (e[:4], fourier, np.stack([e[0], e[1], e[2], e[:3].sum(axis=0) / np.sqrt(3)])):
        cfg = _config(center, _in_space(rng, tag), _cplx(rng, 3, 2))
        cfg[:4] = head
        nodes.append(cfg)
    nodes.append(atlas.basepoint(tag).array() if tag.center is not None else atlas.SOLID_BASE.copy())
    nodes = np.concatenate([np.stack(nodes), exact_rank_nodes(m)[0]])
    phases = np.exp(2j * np.pi * rng.uniform(size=nodes.shape[:2]))[..., None]
    return np.concatenate([nodes, nodes * phases * rng.uniform(0.5, 2.0, size=phases.shape)])


def svd_meet_point(p1, q1, p2, q2):
    """The point a p1 + b q1 of the SVD meet (see ``svd_meet_defined``)."""
    vh = np.linalg.svd(np.stack([p1, q1, -p2, -q2], axis=-1))[2]
    ab = np.conj(vh[..., -1, :2])
    return ab[..., 0, None] * p1 + ab[..., 1, None] * q1


def _assert_screened_batch_is_lapacks(res, verdicts, fail_counts, margins):
    assert np.array_equal(res.verdicts, verdicts)
    assert res.fail_counts == fail_counts
    assert res.margins.min() == margins.min()
    assert np.argmin(res.margins) == np.argmin(margins)
    assert res.margins[verdicts].min() == margins[verdicts].min()
    assert np.argmin(np.where(verdicts, res.margins, np.inf)) == np.argmin(np.where(verdicts, margins, np.inf))


def _screen_of(check, m):
    """The rank3_screen call that _rank_values makes for ``check`` on rows
    of m coordinates, or None where it takes LAPACK's value."""
    _, stack, k, is_margin = check
    if k == 2:
        return lambda rows: rank3_screen(rows, [stack])
    if not is_margin and min(len(stack), m) == 4:
        return lambda rows: rank3_screen(rows, [], [stack])
    return None


def _rank_rows(points):
    """Unit rows of configurations with the meet of d1 and d2 as row 6, as
    validate_batch stacks them, and where that meet is defined."""
    u = unit_rows(points)
    centers, defined = meet(*(u[:, i] for i in range(4)))
    return np.concatenate([u, centers[:, None]], axis=1), defined


def _assert_bounds_hold(rows, checks):
    """For each check that _rank_values screens, rank3_screen's stated
    bound covers LAPACK's value at every node; every other check takes
    LAPACK's value, bit for bit."""
    n, m = len(rows), rows.shape[-1]
    passing = np.ones(n, dtype=bool)
    values = strata._rank_values(rows, checks, np.ones(n), passing, passing, DEFAULT_TOL)
    for i, check in enumerate(checks):
        ref = relative_singular_values(rows[:, list(check[1])])[:, check[2]]
        screen = _screen_of(check, m)
        if screen is None:
            assert values[:, i].tobytes() == ref.tobytes(), check[0]
        else:
            est, err = screen(rows)
            assert np.all(np.abs(est[:, 0] - ref) <= err[:, 0]), check[0]


@pytest.mark.parametrize("name, unscreened", [("Psi_tilde", ["span-at-least"]),
                                              ("Sigma_tilde", ["span-at-least", "span-exact"])])
def test_unscreened_rank_values_are_lapacks(name, unscreened):
    """On a block of a solid disk of CP^3 and of CP^4, each rank value that
    rank3_screen does not screen (the solid span) is LAPACK's, bit for bit,
    at every node."""
    item = atlas.get(name)
    rows = _rank_rows(item.eval(**domain_nodes("disk", (32, 16))[0]))[0]
    checks = strata._rank_checks(item.target.span_required, item.target.n + 1)
    assert [c[0] for c in checks if _screen_of(c, rows.shape[-1]) is None] == unscreened
    _assert_bounds_hold(rows, checks)


ABOVE_CP2 = [SpaceTag.solid(3), atlas.TAG_SOLID_FIXED_3, atlas.TAG_PLANAR_FIXED_3, atlas.TAG_SOLID_FIXED_4]


@pytest.mark.parametrize("tag", ABOVE_CP2, ids=["solid-3", "solid-fixed-3", "planar-fixed-3", "solid-fixed-4"])
def test_screen_above_cp2_matches_lapack_near_every_threshold(tag):
    corpus = near_degenerate_corpus(tag=tag)
    verdicts, fail_counts, margins, quantity = lapack_reference(corpus, tag)
    for name, (q, thr) in quantity.items():
        assert np.any((q > thr / 10) & (q < thr * 10)), f"no node within 10x of {name}"
    assert verdicts.sum() > 40 and (~verdicts).sum() > 40
    rows, defined = _rank_rows(corpus)
    _assert_bounds_hold(rows, strata._rank_checks(tag.span_required, tag.n + 1))
    exact, short = exact_rank_nodes(tag.n + 1)
    _assert_short_stacks_unscreened(_rank_rows(exact)[0], short)
    u, centers = rows[:, :6], rows[:, 6]
    # where d1 and d2 are distinct lines that meet, meet-defined is the SVD
    # meet's verdict (on skew lines that verdict rests on an arbitrary null
    # vector: four orthonormal points have four equal singular values); where
    # they meet at an angle, the points agree
    distinct = (quantity["lines-distinct d1-d2"][0] > RANK_TOL) & (quantity["concurrent d1-d2"][0] <= RANK_TOL)
    assert np.array_equal(defined[distinct], svd_meet_defined(*(u[distinct, i] for i in range(4))))
    well_posed = np.minimum(chordal_batch(u[:, 0], u[:, 1]), chordal_batch(u[:, 2], u[:, 3])) > 1e-3
    meets = well_posed & (quantity["lines-distinct d1-d2"][0] > 1e-3) & (quantity["concurrent d1-d2"][0] < 1e-13)
    assert meets.sum() > 100
    svd_point = unit_rows(svd_meet_point(*(u[meets, i] for i in range(4))))
    assert chordal_batch(centers[meets], svd_point).max() < 1e-12
    _assert_screened_batch_is_lapacks(validate_batch(corpus, tag), verdicts, fail_counts, margins)


@pytest.mark.parametrize("tag", [SpaceTag.planar(2), SpaceTag.planar_fixed(2, HPoint(I0))] + ABOVE_CP2,
                         ids=["free", "fixed", "solid-3", "solid-fixed-3", "planar-fixed-3", "solid-fixed-4"])
def test_screen_matches_lapack_where_a_rank_margin_is_least(tag):
    """The corpus without the nodes whose chordal margins lie below 1e-3 or
    whose rank quantities lie within 1e4 of their threshold, so that a rank
    margin, screened unless LAPACK runs on it as a candidate, is least over
    all nodes and over the passing ones."""
    corpus = near_degenerate_corpus(tag=tag)
    quantity = lapack_reference(corpus, tag)[3]
    keep = np.minimum(quantity["pairwise-distinct"][0], quantity["center-apart"][0]) > 1e-3
    for v, thr in quantity.values():
        keep &= (thr != RANK_TOL) | (v < 1e-12) | (v > 1e-4)
    corpus = corpus[keep]
    verdicts, fail_counts, margins, quantity = lapack_reference(corpus, tag)
    assert verdicts.any() and not verdicts.all()
    rank = np.min([v for k, (v, _) in quantity.items() if k.startswith(("lines", "span-at"))], axis=0)
    assert rank.min() == margins.min() and rank[verdicts].min() == margins[verdicts].min()
    _assert_screened_batch_is_lapacks(validate_batch(corpus, tag), verdicts, fail_counts, margins)


def lapack_lines_reference(spans, tag):
    """Every check of validate_lines_batch on spans (N, 3, 2, n+1) with each
    rank value a LAPACK singular value ratio: verdicts, fail counts,
    margins and the quantity of each check."""
    u = unit_rows(np.asarray(spans, dtype=complex))
    c = tag.center.unit()
    pairs = [(0, 1), (0, 2), (1, 2)]
    distinct = np.min([_rel3(np.concatenate([u[:, i], u[:, j]], axis=1)) for i, j in pairs], axis=0)
    span_d = chordal_batch(u[:, :, 0], u[:, :, 1]).min(-1)
    incidence = np.max([_rel3(np.concatenate([u[:, i], np.broadcast_to(c, (len(u), 1, c.size))], axis=1))
                        for i in range(3)], axis=0)
    quantity = {"lines-distinct": (distinct, RANK_TOL), "span-defined": (span_d, POINT_TOL),
                "center-incidence": (incidence, RANK_TOL)}
    passes = {"lines-distinct": distinct > RANK_TOL, "span-defined": span_d > POINT_TOL,
              "center-incidence": incidence <= RANK_TOL}
    verdicts = np.all(list(passes.values()), axis=0)
    fail_counts = {k: int(np.sum(~v)) for k, v in passes.items() if not v.all()}
    return verdicts, fail_counts, np.minimum(distinct, span_d), quantity


def line_triples_corpus(tag, seed=21):
    """Seeded triples of spans (A_i, B_i) of lines through the tag's center:
    generic ones; within 10x of every threshold (two lines close, a span's
    points close, a line just off the center); next to the rank thresholds
    from both sides; mutually orthogonal lines, whose margins all tie, as
    on the atlas's F and B; the ``exact_rank_nodes`` as spans; and every
    triple again with other representatives."""
    rng = np.random.default_rng(seed)
    m = tag.n + 1
    c = tag.center.unit()
    near = lambda thr: thr * 10 ** rng.uniform(-0.7, 0.7)
    triple = lambda d, a: _config(c, d, a).reshape(3, 2, m)
    nodes = [triple(_cplx(rng, 3, m), _cplx(rng, 3, 2)) for _ in range(40)]
    for _ in range(10):
        d, a, w = _cplx(rng, 3, m), _cplx(rng, 3, 2), _cplx(rng, m)
        nodes.append(triple([d[0], d[0] + near(RANK_TOL) * w, d[2]], a))
        nodes.append(triple(d, [[a[0, 0], a[0, 0] * (1 + near(POINT_TOL))], *a[1:]]))
        t = triple(d, a)
        t[2, 1] += near(RANK_TOL) * w
        nodes.append(t)
    d, a, w = _cplx(rng, 3, m), _cplx(rng, 3, 2), _cplx(rng, m)
    nodes += _hug(lambda x: triple([d[0], d[0] + x * w, d[2]], a),
                  lambda t: lapack_lines_reference(t[None], tag)[3]["lines-distinct"][0][0], RANK_TOL)

    def off_center(x):
        t = triple(d, a)
        t[1, 0] += x * w
        return t

    nodes += _hug(off_center, lambda t: lapack_lines_reference(t[None], tag)[3]["center-incidence"][0][0],
                  RANK_TOL)
    e = np.eye(m, dtype=complex)
    others = [k for k in range(m) if abs(c[k]) < 0.5]
    for _ in range(8):
        nodes.append(triple([e[k] for k in others[:3]], _cplx(rng, 3, 2)))
    nodes = np.concatenate([np.stack(nodes), exact_rank_nodes(m)[0].reshape(-1, 3, 2, m)])
    phases = np.exp(2j * np.pi * rng.uniform(size=nodes.shape[:3]))[..., None]
    return np.concatenate([nodes, nodes * phases * rng.uniform(0.5, 2.0, size=phases.shape)])


def test_screen_on_line_triples_matches_lapack_near_every_threshold():
    tag = atlas.TAG_LINES_I0_SOLID
    corpus = line_triples_corpus(tag)
    verdicts, fail_counts, margins, quantity = lapack_lines_reference(corpus, tag)
    for name, (q, thr) in quantity.items():
        assert np.any((q > thr / 10) & (q < thr * 10)), f"no node within 10x of {name}"
    rows = unit_rows(corpus.reshape(len(corpus), 6, -1))
    rows = np.concatenate([rows, np.broadcast_to(tag.center.unit(), (len(rows), 1, tag.n + 1))], axis=1)
    _assert_bounds_hold(rows, strata._LINE_CHECKS)
    exact, short = exact_rank_nodes(tag.n + 1)
    center = np.broadcast_to(tag.center.unit(), (len(exact), 1, tag.n + 1))
    _assert_short_stacks_unscreened(np.concatenate([unit_rows(exact), center], axis=1), short)
    _assert_screened_batch_is_lapacks(validate_lines_batch(corpus, tag), verdicts, fail_counts, margins)
    # without the spans whose points lie within 1e-3 and the triples within
    # 1e4 of a rank threshold, a screened rank margin is least
    keep = quantity["span-defined"][0] > 1e-3
    for name in ("lines-distinct", "center-incidence"):
        keep &= (quantity[name][0] < 1e-12) | (quantity[name][0] > 1e-4)
    corpus = corpus[keep]
    verdicts, fail_counts, margins, _ = lapack_lines_reference(corpus, tag)
    _assert_screened_batch_is_lapacks(validate_lines_batch(corpus, tag), verdicts, fail_counts, margins)


# ---------------------------------------------------------------------------
# each distinct node validated once per batch

def _repeated(nodes, seed):
    """Every node of ``nodes`` two or three times, in shuffled order."""
    rng = np.random.default_rng(seed)
    idx = np.repeat(np.arange(len(nodes)), rng.integers(2, 4, size=len(nodes)))
    return nodes[rng.permutation(idx)]


def _assert_same_result(res, ref):
    assert res.verdicts.tobytes() == ref.verdicts.tobytes()
    assert res.margins.tobytes() == ref.margins.tobytes()
    assert res.residuals.tobytes() == ref.residuals.tobytes()
    assert res.fail_counts == ref.fail_counts
    assert (res.centers is None) == (ref.centers is None)
    if ref.centers is not None:
        assert res.centers.tobytes() == ref.centers.tobytes()
    assert np.argmin(res.margins) == np.argmin(ref.margins)
    assert (np.argmin(np.where(res.verdicts, res.margins, np.inf))
            == np.argmin(np.where(ref.verdicts, ref.margins, np.inf)))


def _bitwise_distinct(nodes):
    """The first occurrence of each bitwise-distinct node, in order."""
    first = {}
    for i, v in enumerate(nodes):
        first.setdefault(v.tobytes(), i)
    return nodes[sorted(first.values())]


def _signed_zero_twins(nodes):
    """The bitwise-distinct nodes, then two copies of the first node, one
    with an entry +0.0 and one -0.0: equal as numbers, so equal in any
    grouping by value, but bitwise distinct."""
    nodes = _bitwise_distinct(nodes)
    plus, minus = nodes[:1].copy(), nodes[:1].copy()
    plus.reshape(-1)[0] = 0.0
    minus.reshape(-1)[0] = complex(-0.0, 0.0)
    return np.concatenate([nodes, plus, minus])


@pytest.mark.parametrize("kind, tag", [
    ("configs", SpaceTag.planar_fixed(2, HPoint(I0))),
    ("configs", atlas.TAG_SOLID_FIXED_3),
    ("lines", atlas.TAG_LINES_I0_SOLID),
], ids=["planar-fixed-2", "solid-fixed-3", "line-triples"])
def test_repeated_nodes_are_validated_once(kind, tag, monkeypatch):
    """A batch in which every node, failing ones included, appears two or
    three times out of order gives the result of the same batch validated
    node by node without grouping: verdicts, margins, residuals and centers
    at every node, fail_counts counting each failing node with its
    multiplicity, and the first node attaining each least margin.  The
    kernel sees each bitwise-distinct node once, in order of first
    occurrence."""
    if kind == "configs":
        distinct = near_degenerate_corpus(tag=tag)
        validator, name = validate_batch, "_validate_configs"
    else:
        distinct = line_triples_corpus(tag)
        validator, name = validate_lines_batch, "_validate_lines"
    distinct = _signed_zero_twins(distinct)
    batch = _repeated(distinct, 5)
    ref = getattr(strata, name)(batch, tag, DEFAULT_TOL, None)
    assert not ref.all_ok and ref.verdicts.any()
    seen = []
    kernel = getattr(strata, name)

    def spy(values, *args):
        seen.append(values.copy())
        return kernel(values, *args)

    monkeypatch.setattr(strata, name, spy)
    res = validator(batch, tag)
    _assert_same_result(res, ref)
    assert len(seen) == 1 and seen[0].tobytes() == _bitwise_distinct(batch).tobytes()
    assert len(seen[0]) == len(distinct)
    # and the distinct nodes validated as a batch of their own, expanded
    alone = validator(distinct, tag)
    index = {d.tobytes(): i for i, d in enumerate(distinct)}
    at = [index[v.tobytes()] for v in batch]
    assert res.verdicts.tobytes() == alone.verdicts[at].tobytes()
    assert res.margins.tobytes() == alone.margins[at].tobytes()
    assert sum(alone.fail_counts.values()) < sum(res.fail_counts.values())


def test_batch_of_distinct_nodes_is_passed_whole(monkeypatch):
    """Without repeats (and for one node) the kernel gets the batch as
    given, with no multiplicities."""
    corpus = _bitwise_distinct(near_degenerate_corpus())
    calls = []
    kernel = strata._validate_configs

    def spy(values, tag, tol, counts):
        calls.append((values, counts))
        return kernel(values, tag, tol, counts)

    monkeypatch.setattr(strata, "_validate_configs", spy)
    for batch in (corpus, corpus[:1]):
        validate_batch(batch, PLANAR_TAG)
        values, counts = calls.pop()
        assert values is batch and counts is None
