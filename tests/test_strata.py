"""Membership predicates: base configurations, named failure modes, margin
behavior, and the constructive random sampler."""

import json

import numpy as np
import pytest

from dcs import atlas, strata
from dcs.cli import main
from dcs.paths import domain_nodes, sweep_item
from dcs.projective import (
    DEFAULT_TOL,
    DimensionMismatchError,
    HPoint,
    ProjectiveError,
    chordal_batch,
    meet,
    pencil_points,
    to_columns,
    unit_rows,
)
from dcs.strata import (
    BatchResult,
    Config6,
    SpaceTag,
    random_config,
    validate,
    validate_batch,
    validate_lines_batch,
    validate_values,
)

PLANAR_TAG = atlas.TAG_PLANAR_FIXED_2
SOLID_TAG = atlas.TAG_SOLID_FIXED_3


def base_planar() -> Config6:
    return atlas.basepoint(PLANAR_TAG)


def test_configuration_space_base_points():
    rep = validate(base_planar().points, SpaceTag("Fk", 2, k=6))
    assert rep.verdict
    # oracle: the closest pair of base points sits at distance 0.2721655...
    assert rep.margin == pytest.approx(0.2721655269759083, rel=1e-9)
    assert rep.details == {"margin": rep.margin, "max_residual": 0.0}


def test_configuration_space_repeated_point():
    pts = list(base_planar().points)
    pts[1] = pts[0]
    rep = validate(pts, SpaceTag("Fk", 2, k=6))
    assert not rep.verdict and rep.failures == ["pairwise-distinct"]


def test_pair_margin_is_chordal_distance():
    rep = validate(base_planar().points[:2], SpaceTag("Fk", 2, k=2))
    assert rep.verdict
    assert rep.margin == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_span_dim_of_base_points():
    """A stratum tag passes exactly at the span of its points: span-at-least
    fails below it, span-exact above it."""
    collinear = [HPoint([1, 0, 0]), HPoint([0, 1, 0]), HPoint([1, 1, 0])]
    for pts, n, span in ((base_planar().points, 2, 2), (atlas.basepoint(SOLID_TAG).points, 3, 3),
                         (collinear, 2, 1)):
        for i in range(1, n + 1):
            rep = validate(pts, SpaceTag("Fk_stratum", n, k=len(pts), span_i=i))
            want = ["span-at-least"] if i > span else ["span-exact"] if i < span else []
            assert rep.failures == want and rep.verdict == (i == span), (n, span, i)


def test_fk_tags_count_their_points():
    pts = base_planar().points
    assert validate(pts, SpaceTag("Fk", 2, k=6)).verdict
    rep = validate(pts, SpaceTag("Fk_stratum", 2, k=6, span_i=2))
    assert rep.verdict and set(rep.details) == {"margin", "max_residual"}
    with pytest.raises(ProjectiveError, match="needs 3 points, got 6"):
        validate(pts, SpaceTag("Fk", 2, k=3))


def test_every_tag_checks_the_ambient_dimension():
    """Points of CP^2 under a CP^3 tag, and of CP^3 under a CP^2 tag, are
    refused by the one validator choice, whatever the tag kind."""
    planar, solid = base_planar().points, atlas.basepoint(SOLID_TAG).points
    for pts, tag in ((planar, SpaceTag("Fk", 3, k=6)), (planar, SpaceTag("Fk_stratum", 3, k=6, span_i=2)),
                     (planar, SpaceTag.planar(3)), (solid, atlas.TAG_LINES_I0)):
        with pytest.raises(DimensionMismatchError, match="points have"):
            validate(pts, tag)


@pytest.mark.parametrize("tag", [SpaceTag("Fk", 2, k=2), SpaceTag("Fk_stratum", 3, k=2, span_i=1),
                                 SpaceTag.planar(2), atlas.TAG_LINES_I0_SOLID],
                         ids=["Fk", "Fk_stratum", "D_planar", "F3_lines_through"])
def test_mixed_ambient_dimensions_are_refused(tag):
    """Points of CP^2 and CP^3 in one set raise DimensionMismatchError
    before they are stacked, with the stray point first or last."""
    count = tag.k or 6
    fit = [HPoint(np.eye(tag.n + 1)[i % (tag.n + 1)] + 1) for i in range(count - 1)]
    stray = HPoint(np.ones(6 - tag.n))      # CP^3 under a CP^2 tag, CP^2 under a CP^3 one
    for pts in (fit + [stray], [stray] + fit):
        with pytest.raises(DimensionMismatchError, match="mixed ambient dimensions"):
            validate(pts, tag)


def _rank_sets(seed=24, count=700):
    """Seeded point sets of rank 1-4 in CP^1-CP^4, k = 1-6 points, each
    row at a scale from 1e-6 to 1e6; half of them get a perturbation of
    size 1e-11 to 1e-5, which puts singular values and pair distances near
    the thresholds from both sides.  Only sets whose unit rows' relative
    singular values all lie at least 10x above or 10x below rank_rel_tol,
    and whose pair distances at least 10x above or below proj_eq_tol, are
    kept.  Yields (n, the rows, their LAPACK rank, least pair distance and
    relative singular values)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 5))
        rank = int(rng.integers(1, min(4, n + 1) + 1))
        k = int(rng.integers(rank, 7))
        rows = _cplx(rng, k, rank) @ _cplx(rng, rank, n + 1)
        if rng.random() < 0.5:
            rows = rows + 10.0 ** rng.uniform(-11, -5) * _cplx(rng, k, n + 1)
        rows = rows * 10.0 ** rng.uniform(-6, 6, size=(k, 1))
        u = unit_rows(rows)
        rel = np.linalg.svd(u, compute_uv=False)
        rel = rel / rel[0]
        pair = min((_chordal(u[i], u[j]) for i in range(k) for j in range(i + 1, k)), default=np.inf)
        if (np.all((rel >= 10 * RANK_TOL) | (rel <= RANK_TOL / 10))
                and not POINT_TOL / 10 < pair < 10 * POINT_TOL):
            yield n, rows, int(np.sum(rel > RANK_TOL)), pair, rel


def test_stratum_verdicts_match_the_svd_rank():
    """Under every Fk_stratum tag of its ambient space, each kept set of
    ``_rank_sets`` fails span-at-least exactly when its LAPACK rank is
    below i + 1, span-exact exactly when it is above, and
    pairwise-distinct exactly when two points are within proj_eq_tol."""
    kept, ranks, near = 0, set(), set()
    for n, rows, rank, pair, rel in _rank_sets():
        kept += 1
        ranks.add(rank)
        near.update(np.sign(np.log10(rel[(rel < 1e3 * RANK_TOL) & (rel > RANK_TOL / 1e3)] / RANK_TOL)))
        pts = [HPoint(r) for r in rows]
        for i in range(1, n + 1):
            want = [name for name, bad in (("pairwise-distinct", pair <= POINT_TOL),
                                           ("span-at-least", rank < i + 1), ("span-exact", rank > i + 1)) if bad]
            rep = validate(pts, SpaceTag("Fk_stratum", n, k=len(pts), span_i=i))
            assert rep.failures == want and rep.verdict == (not want), (n, rank, i, rel)
    assert kept >= 500 and ranks >= {1, 2, 3, 4} and near == {-1, 1}


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
    # frozen on first computation; the planar margin is the closest pair of
    # base points (see test_configuration_space_base_points)
    rep = validate(base_planar().points, PLANAR_TAG)
    assert rep.verdict and rep.margin == pytest.approx(0.27216552697590873, rel=1e-9)
    rep = validate(atlas.basepoint(SOLID_TAG).points, SOLID_TAG)
    assert rep.verdict and rep.margin == pytest.approx(0.7071067811865475, rel=1e-9)


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


def test_configuration_space_coincidences_fail_pairwise_distinct():
    """Coincident points fail one named check, pairwise-distinct, with the
    least pair distance, 0, as the margin; one point has no pair, so its
    margin is inf."""
    p, q, r = (HPoint(c) for c in ([1, 0, 0], [0, 1, 0], [0, 0, 1]))
    rep = validate([p, q, p, r, q], SpaceTag("Fk", 2, k=5))
    assert not rep.verdict and rep.margin == 0.0
    assert rep.failures == ["pairwise-distinct"]
    single = validate([p], SpaceTag("Fk", 2, k=1))
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
# configurations against the definition they had before the pencil: every
# rank value a LAPACK singular value ratio

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
    """Every check of validate_batch as it was defined before configurations
    were measured on the pencil: lines-distinct, concurrent and span as
    relative singular values of stacks of rows, by LAPACK.  Returns the
    verdicts, the fail counts, the margins and, per check, the quantity
    compared with its threshold."""
    u = unit_rows(np.asarray(points, dtype=complex))
    m = u.shape[-1]
    pair = np.stack([chordal_batch(u[:, i], u[:, j]) for i in range(6) for j in range(i + 1, 6)], -1)
    lines = {f"lines-distinct {name}": _rel3(u[:, rows])
             for name, rows in (("d1-d2", [0, 1, 2, 3]), ("d1-d3", [0, 1, 4, 5]),
                                ("d2-d3", [2, 3, 4, 5]))}
    centers = meet(*(u[:, i].T for i in range(4)))[0].T
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


def test_undefined_cp2_meet_is_a_unit_point():
    """Where the CP^2 meet is undefined its placeholder is exactly p1 = A1,
    a unit point, so the distances read from it are distances: for d1 and
    d2 spanned by four points of one line, whose cross-product meet is
    rounding noise about 1e-17 long, and for two equal real spans, whose
    cross product is exactly 0.
    The placeholder is a center like any other, so beside meet-defined the
    node fails center-apart, whose distance, 0 to rounding, is the margin,
    lines-distinct, since d1 and d2 are one line of the pencil through it,
    and concurrent, since d3 misses it."""
    rng = np.random.default_rng(23)
    p, q = _cplx(rng, 2, 3)
    d1 = [a * p + b * q for a, b in _cplx(rng, 4, 2)]
    e = np.eye(3, dtype=complex)
    s = np.sqrt(0.5)
    for cfg in (np.stack(d1 + list(_cplx(rng, 2, 3))),
                np.array([e[0], e[1], s * (e[0] + e[1]), s * (e[0] - e[1]), e[2], e.sum(0)])):
        u = unit_rows(cfg)
        assert np.linalg.norm(np.cross(np.cross(u[0], u[1]), np.cross(u[2], u[3]))) < 1e-12
        point, defined = meet(*u[:4])
        assert not defined and np.array_equal(point, u[0])
        res = validate_batch(cfg, SpaceTag.planar(2))
        assert np.array_equal(res.centers[0], u[0]) and not res.verdicts[0]
        assert res.fail_counts == {"meet-defined": 1, "center-apart": 1, "lines-distinct": 1, "concurrent": 1}
        assert res.margins[0] <= 4 * np.finfo(float).eps and 0 <= res.residuals[0] <= 1


def test_residuals_at_undefined_cp2_meets_match_the_reference():
    """At the free CP^2 pencil corpus's nodes whose meet is undefined, the
    residual is the plain-numpy reference's within 1e-13, as everywhere
    else: the placeholder p1 is a center like any other."""
    tag = SpaceTag.planar(2)
    corpus = pencil_corpus(tag)
    _, _, _, residuals, quantity = config_pencil_reference(corpus, tag)
    undefined = quantity["meet-defined"][0] < 0.5
    assert undefined.sum() >= 2
    res = validate_batch(corpus, tag)
    assert np.all(np.abs(res.residuals - residuals)[undefined] <= 1e-13)


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


# ---------------------------------------------------------------------------
# corpora above CP^2

def _in_space(rng, tag):
    """Three line directions of a configuration of the tag's kind: in one
    plane through the center for a planar tag, independent for a solid one."""
    d = _cplx(rng, 3, tag.n + 1)
    if tag.span_required == 2:
        d[2] = d[0] * rng.normal() + d[1] * rng.normal()
    return d


def exact_rank_nodes(m):
    """Configurations in CP^(m-1), m >= 4, with integer coordinates: d1 = d2,
    d2 = d3, A1 = B1 and A2 = B2.  Read as triples of spans (A_i, B_i), they
    are lines d1 = d2, d2 = d3 and spans of one point."""
    e = np.eye(m, dtype=complex)
    return np.stack([[e[0], e[1], e[0] + e[1], e[0] + 2 * e[1], e[2], e[2] + e[3]],
                     [e[0] + e[2], e[0] + 2 * e[2], e[0], e[1], e[0] + e[1], e[0] - e[1]],
                     [e[0], e[0], e[1], e[1] + e[2], e[2], e[2] + e[3]],
                     [e[0], e[0] + e[2], e[1], e[1], e[3], e[2] + e[3]]])


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
    nodes = np.concatenate([np.stack(nodes), exact_rank_nodes(m)])
    phases = np.exp(2j * np.pi * rng.uniform(size=nodes.shape[:2]))[..., None]
    return np.concatenate([nodes, nodes * phases * rng.uniform(0.5, 2.0, size=phases.shape)])


def svd_meet_point(p1, q1, p2, q2):
    """The point a p1 + b q1 of the SVD meet (see ``svd_meet_defined``)."""
    vh = np.linalg.svd(np.stack([p1, q1, -p2, -q2], axis=-1))[2]
    ab = np.conj(vh[..., -1, :2])
    return ab[..., 0, None] * p1 + ab[..., 1, None] * q1


def lapack_lines_reference(spans, tag):
    """Every check of validate_lines_batch on spans (A_i, B_i) as six points
    (N, 6, n+1) with each rank value a LAPACK singular value ratio:
    verdicts, fail counts, margins and the quantity of each check."""
    u = unit_rows(np.asarray(spans, dtype=complex)).reshape(len(spans), 3, 2, -1)
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


def _chordal(u, v):
    """Chordal distance of unit vectors u and v: the norm of u's component
    orthogonal to v."""
    return np.linalg.norm(u - np.vdot(v, u) * v)


LINE_PAIRS = ((0, 1), (0, 2), (1, 2))


def _distance_from_span(x, rows):
    """Chordal distance of unit x from the span of ``rows``, by QR."""
    q = np.linalg.qr(np.stack(rows, axis=-1))[0]
    return np.linalg.norm(x - q @ (np.conj(q.T) @ x))


def _pencil_point(pair, c):
    """The point of the pencil through unit c of the span of the unit pair
    (the unit part orthogonal to c of the point farther from it) and its
    residual (the distance of the other point from the span of c and the
    farther point)."""
    away = [x - np.vdot(c, x) * c for x in pair]
    far = int(np.linalg.norm(away[1]) > np.linalg.norm(away[0]))
    size = np.linalg.norm(away[far])
    return away[far] / size if size > 0 else away[far], _distance_from_span(pair[1 - far], [c, pair[far]])


def pencil_reference(spans, tag):
    """Every check of validate_lines_batch on spans (A_i, B_i) as six points
    (N, 6, n+1), node by node in plain numpy: each line's point of the
    pencil through the center (the unit part orthogonal to the center of
    the span's point farther from it) and its residual (the distance of the
    other point from the span of the center and the farther point, by QR).  Returns verdicts, fail
    counts, margins and the quantity of each check, as
    ``lapack_lines_reference``."""
    c = tag.center.unit()
    distinct, span_d, incidence = [], [], []
    for node in np.asarray(spans, dtype=complex).reshape(len(spans), 3, 2, -1):
        node = node / np.linalg.norm(node, axis=-1, keepdims=True)
        dirs, residuals = zip(*(_pencil_point(pair, c) for pair in node))
        distinct.append(min(_chordal(dirs[i], dirs[j]) for i, j in LINE_PAIRS))
        span_d.append(min(_chordal(p, q) for p, q in node))
        incidence.append(max(residuals))
    distinct, span_d, incidence = map(np.array, (distinct, span_d, incidence))
    quantity = {"span-defined": (span_d, POINT_TOL), "lines-distinct": (distinct, POINT_TOL),
                "center-incidence": (incidence, RANK_TOL)}
    passes = {"span-defined": span_d > POINT_TOL, "lines-distinct": distinct > POINT_TOL,
              "center-incidence": incidence <= RANK_TOL}
    verdicts = np.all(list(passes.values()), axis=0)
    fail_counts = {k: int(np.sum(~v)) for k, v in passes.items() if not v.all()}
    return verdicts, fail_counts, np.minimum(distinct, span_d), quantity


def line_triples_corpus(tag, seed=21):
    """Seeded triples of spans (A_i, B_i), as six points (N, 6, n+1), of
    lines through the tag's center: generic ones; within 10x of every
    threshold (two lines close, a span's points close, a line just off the
    center), and 1e4 past it on either side; next to each threshold of
    ``pencil_reference`` from both sides; mutually orthogonal lines, whose
    margins all tie, as on the atlas's F and B; the ``exact_rank_nodes`` as
    spans; and every triple again with other representatives."""
    rng = np.random.default_rng(seed)
    m = tag.n + 1
    c = tag.center.unit()
    near = lambda thr: thr * 10 ** rng.uniform(-0.7, 0.7)
    triple = lambda d, a: _config(c, d, a)

    def close_lines(d, a, w, x):
        return triple([d[0], d[0] + x * w, d[2]], a)

    def close_points(d, a, w, x):
        return triple(d, [[a[0, 0], a[0, 0] * (1 + x)], *a[1:]])

    def off_center(d, a, w, x):
        t = triple(d, a)
        t[5] += x * w
        return t

    defects = [(close_lines, POINT_TOL, "lines-distinct"), (close_points, POINT_TOL, "span-defined"),
               (off_center, RANK_TOL, "center-incidence")]
    nodes = [triple(_cplx(rng, 3, m), _cplx(rng, 3, 2)) for _ in range(40)]
    for _ in range(10):
        for make, thr, _ in defects:
            for x in (near(thr), thr * 1e-4, thr * 1e4):
                nodes.append(make(_cplx(rng, 3, m), _cplx(rng, 3, 2), _cplx(rng, m), x))
    for make, thr, name in defects:
        d, a, w = _cplx(rng, 3, m), _cplx(rng, 3, 2), _cplx(rng, m)
        nodes += _hug(lambda x: make(d, a, w, x), lambda t: pencil_reference(t[None], tag)[3][name][0][0], thr)
    e = np.eye(m, dtype=complex)
    others = [k for k in range(m) if abs(c[k]) < 0.5]
    for _ in range(8):
        nodes.append(triple([e[k] for k in others[:3]], _cplx(rng, 3, 2)))
    nodes = np.concatenate([np.stack(nodes), exact_rank_nodes(m)])
    phases = np.exp(2j * np.pi * rng.uniform(size=nodes.shape[:2]))[..., None]
    return np.concatenate([nodes, nodes * phases * rng.uniform(0.5, 2.0, size=phases.shape)])


def test_line_triples_match_the_pencil_reference():
    """The kernel's margins and residuals are the plain-numpy reference's
    within 1e-13 at every node of a corpus that hugs each threshold; so are
    its verdicts and fail counts wherever no quantity lies within 1e-13 of
    its threshold."""
    tag = atlas.TAG_LINES_I0_SOLID
    corpus = line_triples_corpus(tag)
    _, _, margins, quantity = pencil_reference(corpus, tag)
    for name, (q, thr) in quantity.items():
        assert np.any((q > thr / 10) & (q <= thr)) and np.any((q > thr) & (q < thr * 10)), name
    res = validate_lines_batch(corpus, tag)
    assert np.all(np.abs(res.margins - margins) <= 1e-13)
    assert np.all(np.abs(res.residuals - quantity["center-incidence"][0]) <= 1e-13)
    clear = np.all([np.abs(q - thr) > 1e-13 for q, thr in quantity.values()], axis=0)
    verdicts, fail_counts, _, _ = pencil_reference(corpus[clear], tag)
    assert verdicts.any() and len(fail_counts) == 3
    res = validate_lines_batch(corpus[clear], tag)
    assert np.array_equal(res.verdicts, verdicts) and res.fail_counts == fail_counts


def test_line_triple_verdicts_agree_with_lapack_away_from_thresholds():
    """Lines-distinct and center-incidence were relative singular values of
    four- and three-row stacks, passing above and at or below
    rank_rel_tol.  Wherever every one of those LAPACK quantities lies
    outside [thr / 100, 100 thr], the closed-form verdicts are theirs, and
    so are the fail counts on the triples through the center (a line off
    the center is no point of the pencil, so lines-distinct may read
    otherwise on it)."""
    tag = atlas.TAG_LINES_I0_SOLID
    corpus = line_triples_corpus(tag)
    quantity = lapack_lines_reference(corpus, tag)[3]
    corpus = corpus[np.all([(q < thr / 100) | (q > thr * 100) for q, thr in quantity.values()], axis=0)]
    verdicts, fail_counts, _, quantity = lapack_lines_reference(corpus, tag)
    assert set(fail_counts) == {"span-defined", "lines-distinct", "center-incidence"} and verdicts.any()
    assert np.array_equal(validate_lines_batch(corpus, tag).verdicts, verdicts)
    through = corpus[quantity["center-incidence"][0] <= RANK_TOL]
    fail_counts = lapack_lines_reference(through, tag)[1]
    assert set(fail_counts) == {"span-defined", "lines-distinct"}
    assert validate_lines_batch(through, tag).fail_counts == fail_counts


# ---------------------------------------------------------------------------
# configurations as line triples through their meet

CONFIG_TAGS = [SpaceTag.planar(2), SpaceTag.planar_fixed(2, HPoint(I0)), SpaceTag.solid(3),
               atlas.TAG_SOLID_FIXED_3, atlas.TAG_PLANAR_FIXED_3, atlas.TAG_SOLID_FIXED_4]
CONFIG_TAG_IDS = ["free", "fixed", "solid-3", "solid-fixed-3", "planar-fixed-3", "solid-fixed-4"]
PENCIL_CHECKS = {"lines-distinct", "concurrent", "span-at-least", "span-exact"}


def config_pencil_reference(points, tag):
    """Every check of validate_batch, node by node in plain numpy.  The
    center is ``projective.meet`` of d1 and d2 (checked against the SVD meet
    by ``test_meet_matches_the_svd_meet``); each span's point of the pencil
    through it and its residual are ``_pencil_point``'s; the span is the
    distance, by QR, of one pencil point from the span of the two farthest
    apart.  Returns verdicts, fail counts, margins, residuals and, per
    check, the quantity, its threshold and whether it is a margin."""
    solid, m = tag.span_required == 3, tag.n + 1
    q = {name: [] for name in ("pairwise-distinct", "meet-defined", "center-apart", "center-matches",
                               "lines-distinct", "concurrent", "span")}
    for node in np.asarray(points, dtype=complex):
        u = node / np.linalg.norm(node, axis=-1, keepdims=True)
        center, defined = meet(*u[:4, :, None])
        c = center[:, 0]
        q["pairwise-distinct"].append(min(_chordal(u[i], u[j]) for i in range(6) for j in range(i + 1, 6)))
        q["meet-defined"].append(float(defined[0]))
        q["center-apart"].append(min(_chordal(x, c) for x in u))
        if tag.center is not None:
            q["center-matches"].append(_chordal(c, tag.center.unit()))
        dirs, residuals = zip(*(_pencil_point(u[2 * i:2 * i + 2], c) for i in range(3)))
        dist = [_chordal(dirs[i], dirs[j]) for i, j in LINE_PAIRS]
        q["lines-distinct"].append(min(dist))
        q["concurrent"].append(max(residuals))
        (i, j), k = LINE_PAIRS[int(np.argmax(dist))], 2 - int(np.argmax(dist))
        q["span"].append(_distance_from_span(dirs[k], [dirs[i], dirs[j]]))
    q = {name: np.array(v) for name, v in q.items() if v}
    quantity = {"pairwise-distinct": (q["pairwise-distinct"], POINT_TOL, True),
                "meet-defined": (q["meet-defined"], 0.5, True),
                "center-apart": (q["center-apart"], POINT_TOL, True),
                "lines-distinct": (q["lines-distinct"], POINT_TOL, True),
                "concurrent": (q["concurrent"], RANK_TOL, False)}
    if tag.center is not None:
        quantity["center-matches"] = (q["center-matches"], POINT_TOL, False)
    if solid:
        quantity["span-at-least"] = (q["span"], RANK_TOL, True)
    elif m > 3:
        quantity["span-exact"] = (q["span"], RANK_TOL, False)
    passes = {name: v > thr if margin else v <= thr for name, (v, thr, margin) in quantity.items()}
    verdicts = np.all(list(passes.values()), axis=0)
    fail_counts = {k: int(np.sum(~v)) for k, v in passes.items() if not v.all()}
    margins = np.min([v for k, (v, _, margin) in quantity.items() if margin and k != "meet-defined"], axis=0)
    residuals = np.max([v for v, _, margin in quantity.values() if not margin], axis=0)
    return verdicts, fail_counts, margins, residuals, quantity


def pencil_corpus(tag, seed=22):
    """``near_degenerate_corpus`` for the tag, and for each defect below,
    nodes next to its threshold from both sides and nodes 1e4 past it on
    either side: d3 close to d1 (lines-distinct), B3 off d3 (concurrent),
    the two points of d3 close (pairwise-distinct) and, above CP^2, d3 off
    the plane of d1 and d2 (span), all leaving the meet of d1 and d2 as it
    is; then two lines whose pencil points lie 1e-8 to 1e-6 apart, in the
    tag's plane or space."""
    rng = np.random.default_rng(seed)
    m = tag.n + 1
    center = tag.center.unit() if tag.center is not None else unit_rows(_cplx(rng, m))

    def close_lines(d, c, w, x):
        return _config(center, [d[0], d[1], d[0] + x * w], c)

    def off_d3(d, c, w, x):
        cfg = _config(center, d, c)
        cfg[5] += x * w
        return cfg

    def close_points(d, c, w, x):
        return _config(center, d, [*c[:2], [c[2, 0], c[2, 0] * (1 + x)]])

    def off_plane(d, c, w, x):
        return _config(center, [d[0], d[1], d[0] + d[1] + x * _orthogonal([center, d[0], d[1]])], c)

    defects = [(close_lines, POINT_TOL, "lines-distinct"), (off_d3, RANK_TOL, "concurrent"),
               (close_points, POINT_TOL, "pairwise-distinct")]
    if m > 3:
        defects.append((off_plane, RANK_TOL, "span-at-least" if tag.span_required == 3 else "span-exact"))
    nodes = [near_degenerate_corpus(tag=tag)]
    for make, thr, name in defects:
        d, c, w = _in_space(rng, tag), _cplx(rng, 3, 2), _cplx(rng, m)
        nodes.append(_hug(lambda x: make(d, c, w, x),
                          lambda cfg: config_pencil_reference(cfg[None], tag)[4][name][0][0], thr))
        for x in (thr * 1e-4, thr * 1e4) * 4:
            nodes.append([make(_in_space(rng, tag), _cplx(rng, 3, 2), _cplx(rng, m), x)])
    for x in 10.0 ** rng.uniform(-8, -6, size=16):
        d = _in_space(rng, tag)
        nodes.append([_config(center, [d[0], d[0] + x * d[1], d[2]], _cplx(rng, 3, 2))])
    return np.concatenate([np.asarray(n) for n in nodes])


@pytest.mark.parametrize("tag", CONFIG_TAGS, ids=CONFIG_TAG_IDS)
def test_configs_match_the_pencil_reference(tag):
    """The kernel's margins and residuals are the plain-numpy reference's
    within 1e-13 at every node of a corpus that hugs each threshold of the
    pencil, with pencil points 1e-8 to 1e-6 apart among them; so are its
    verdicts and fail counts wherever no quantity lies within 1e-13 of its
    threshold."""
    corpus = pencil_corpus(tag)
    verdicts, fail_counts, margins, residuals, quantity = config_pencil_reference(corpus, tag)
    for name in PENCIL_CHECKS.intersection(quantity):
        q, thr, _ = quantity[name]
        assert np.any((q > thr / 10) & (q <= thr)) and np.any((q > thr) & (q < thr * 10)), name
    res = validate_batch(corpus, tag)
    assert np.all(np.abs(res.margins - margins) <= 1e-13)
    # where the meet is undefined it is a placeholder, and the node fails
    # meet-defined whatever its residual
    defined = quantity["meet-defined"][0] > 0.5
    assert not defined.all() and not res.verdicts[~defined].any()
    assert np.all(np.abs(res.residuals - residuals)[defined] <= 1e-13)
    clear = defined & np.all([np.abs(q - thr) > 1e-13 for q, thr, _ in quantity.values()], axis=0)
    verdicts, fail_counts = config_pencil_reference(corpus[clear], tag)[:2]
    assert verdicts.any() and set(fail_counts) == set(quantity) - {"meet-defined"}
    res = validate_batch(corpus[clear], tag)
    assert np.array_equal(res.verdicts, verdicts) and res.fail_counts == fail_counts


@pytest.mark.parametrize("tag", CONFIG_TAGS, ids=CONFIG_TAG_IDS)
def test_config_verdicts_agree_with_lapack_away_from_thresholds(tag):
    """Wherever every quantity of ``lapack_reference``, the definition by
    relative singular values, lies outside [thr / 100, 100 thr], the
    verdicts on the pencil are its verdicts."""
    corpus = pencil_corpus(tag)
    quantity = lapack_reference(corpus, tag)[3]
    for name, (q, thr) in quantity.items():
        assert np.any((q > thr / 10) & (q < thr * 10)), f"no node within 10x of {name}"
    corpus = corpus[np.all([(q < thr / 100) | (q > thr * 100) for q, thr in quantity.values()], axis=0)]
    verdicts = lapack_reference(corpus, tag)[0]
    assert verdicts.sum() > 20 and (~verdicts).sum() > 10
    assert np.array_equal(validate_batch(corpus, tag).verdicts, verdicts)


@pytest.mark.parametrize("tag", CONFIG_TAGS, ids=CONFIG_TAG_IDS)
def test_meet_matches_the_svd_meet(tag):
    """Where d1 and d2 are distinct lines that meet, meet-defined is the SVD
    meet's verdict (on skew lines that verdict rests on an arbitrary null
    vector: four orthonormal points have four equal singular values); where
    they meet at an angle, the points agree."""
    corpus = near_degenerate_corpus(tag=tag)
    quantity = lapack_reference(corpus, tag)[3]
    u = unit_rows(corpus)
    centers, defined = meet(*(u[:, i].T for i in range(4)))
    centers = centers.T
    lines = quantity["lines-distinct d1-d2"][0]
    skew = quantity["concurrent d1-d2"][0] if tag.n > 2 else np.zeros(len(u))
    distinct = (lines > RANK_TOL) & (skew <= RANK_TOL)
    assert np.array_equal(defined[distinct], svd_meet_defined(*(u[distinct, i] for i in range(4))))
    well_posed = np.minimum(chordal_batch(u[:, 0], u[:, 1]), chordal_batch(u[:, 2], u[:, 3])) > 1e-3
    meets = well_posed & (lines > 1e-3) & (skew < 1e-13)
    assert meets.sum() > 50
    svd_point = unit_rows(svd_meet_point(*(u[meets, i] for i in range(4))))
    assert chordal_batch(centers[meets], svd_point).max() < 1e-12


@pytest.mark.parametrize("tag", CONFIG_TAGS, ids=CONFIG_TAG_IDS)
def test_center_apart_is_the_chordal_distance_to_the_meet(tag):
    """validate_batch reads center-apart from the pencil step: the nearer
    point of each span's distance from the meet, the norm of its part
    orthogonal to the meet.  At every node of the pencil corpus, and of
    configurations with A1 1e-12 to 1e-4 from the meet, that is the chordal
    distance (``chordal_batch``) of the nearer point from the normalized
    meet within 4 eps, and so is the margin of the configurations with A1
    that close, where center-apart is the least margin."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(24)
    near = []
    for x in 10.0 ** rng.uniform(-12, -4, size=24):
        cfg = _config(tag.center.unit() if tag.center is not None else unit_rows(_cplx(rng, tag.n + 1)),
                      _in_space(rng, tag), [[x, 1], *_cplx(rng, 2, 2)])
        near.append(cfg)
    corpus = np.concatenate([pencil_corpus(tag), np.stack(near)])
    u = unit_rows(corpus)
    cols = to_columns(u)
    centers = meet(*(cols[:, i] for i in range(4)))[0]
    assert np.abs(np.linalg.norm(centers, axis=0) - 1).max() <= 4 * eps
    apart = pencil_points(cols[:, 0::2], cols[:, 1::2], centers[:, None])[2]
    chordal = chordal_batch(u, centers.T[:, None]).reshape(len(u), 3, 2).min(axis=-1).T
    assert np.abs(apart - chordal).max() <= 4 * eps
    margins = validate_batch(corpus, tag).margins[-len(near):]
    assert np.abs(margins - chordal.min(axis=0)[-len(near):]).max() <= 4 * eps


def _orthogonal(rows):
    """A unit vector orthogonal to every row."""
    return np.linalg.svd(np.asarray(rows))[2][-1]


def _b3_off_its_line(cfg, tag):
    cfg[5] += 1e-6 * np.linalg.norm(cfg[5]) * _orthogonal([tag.center.coords, cfg[4]])
    return cfg


def _d3_onto_d1(cfg, tag):
    cfg[4], cfg[5] = cfg[0] + 2 * cfg[1], 2 * cfg[0] + cfg[1]
    return cfg


def _b3_out_of_the_space(cfg, tag):
    cfg[5] += 1e-6 * np.linalg.norm(cfg[5]) * _orthogonal(cfg)
    return cfg


@pytest.mark.parametrize("tag, defect, failing", [
    (atlas.TAG_PLANAR_FIXED_2, _b3_off_its_line, ["concurrent"]),
    (atlas.TAG_SOLID_FIXED_3, _b3_off_its_line, ["concurrent"]),
    (atlas.TAG_PLANAR_FIXED_2, _d3_onto_d1, ["lines-distinct"]),
    # two equal lines through the center span a plane, not a 3-space
    (atlas.TAG_SOLID_FIXED_3, _d3_onto_d1, ["lines-distinct", "span-at-least"]),
    (atlas.TAG_SOLID_FIXED_3, lambda cfg, tag: atlas.PLANAR_BASE_CP3.copy(), ["span-at-least"]),
    (atlas.TAG_PLANAR_FIXED_3, lambda cfg, tag: atlas.SOLID_BASE.copy(), ["span-exact"]),
    (atlas.TAG_SOLID_FIXED_4, _b3_out_of_the_space, ["concurrent"]),
], ids=["off-line-planar-2", "off-line-solid-3", "equal-lines-planar-2", "equal-lines-solid-3",
        "planar-as-solid-3", "solid-as-planar-3", "out-of-space-solid-4"])
def test_configuration_checks_catch_planted_defects(tag, defect, failing):
    """Each configuration check fails on a defect planted in the tag's base
    point, alone and in a batch with the base point: B3 moved 1e-6 off its
    line or, in CP^4, out of the 3-space of the others (concurrent; the
    solid span-exact of CP^4 is implied by it); A3 and B3 moved onto d1
    (lines-distinct; d2 moved there would leave the meet of d1 and d2
    undefined); a planar configuration under a solid tag (span-at-least)
    and a solid one under the CP^3 planar tag (span-exact)."""
    cfg = atlas.basepoint(tag)
    assert validate(cfg.points, tag).verdict
    base = cfg.array()
    planted = defect(base.copy(), tag)
    rep = validate(Config6.from_array(planted).points, tag)
    assert not rep.verdict and rep.failures == failing
    res = validate_batch(np.stack([base, planted]), tag)
    assert list(res.verdicts) == [True, False] and res.fail_counts == {name: 1 for name in failing}


def test_line_triples_take_no_rank_stack(monkeypatch, tmp_path):
    """Validation takes no LAPACK SVD: sweeps of an item of every
    configuration tag of the atlas and of the line-triple items F, B, s and
    Lambda, and ``dcs membership`` on a one-node configuration file and a
    span-form line-triple file, run with ``numpy.linalg.svd`` unavailable."""
    def unavailable(*args, **kwargs):
        raise AssertionError("validation took an SVD")

    monkeypatch.setattr(np.linalg, "svd", unavailable)
    configs = ("alpha", "Phi_tilde", "Pi_tilde", "F_tilde", "Psi_tilde", "Sigma_tilde")
    tags = {(it.target.kind, it.target.n) for it in atlas._REGISTRY.values()
            if it.target is not None and it.value_kind == "config"}
    assert {(atlas.get(name).target.kind, atlas.get(name).target.n) for name in configs} == tags
    for name in configs + ("F", "B", "s", "Lambda"):
        grid = 64 if atlas.get(name).kind == "loop" else (32, 16)
        assert sweep_item(name, grid).ok, name
    nodes = domain_nodes("disk", (4, 4))[0]
    spans = atlas.get("F").eval(**nodes)[5]
    for doc in (Config6.from_array(spans).to_json(atlas.TAG_LINES_I0_SOLID),
                atlas.basepoint(atlas.TAG_SOLID_FIXED_4).to_json(atlas.TAG_SOLID_FIXED_4)):
        path = tmp_path / "node.json"
        path.write_text(json.dumps(doc))
        assert main(["membership", str(path)]) == 0


def test_every_tag_kind_takes_validate_values_and_no_svd(monkeypatch, tmp_path):
    """``validate`` of a valid and an invalid point set under every tag
    kind, and ``dcs membership`` on an Fk_stratum file, each go through
    ``strata.validate_values`` once, with ``numpy.linalg.svd``
    unavailable."""
    def unavailable(*args, **kwargs):
        raise AssertionError("validation took an SVD")

    monkeypatch.setattr(np.linalg, "svd", unavailable)
    kinds, real = [], strata.validate_values

    def spy(values, tag, *args):
        kinds.append(tag.kind)
        return real(values, tag, *args)

    monkeypatch.setattr(strata, "validate_values", spy)
    planar, solid = base_planar().points, atlas.basepoint(SOLID_TAG).points
    planar3 = atlas.basepoint(atlas.TAG_PLANAR_FIXED_3).points
    coincident = (planar[0], planar[0]) + planar[2:]
    off_center = planar[:5] + (HPoint([1, 1, 2]),)
    cases = {
        "Fk": (SpaceTag("Fk", 2, k=6), planar, coincident),
        "Fk_stratum": (SpaceTag("Fk_stratum", 3, k=6, span_i=3), solid, planar3),
        "D_planar": (SpaceTag.planar(2), planar, coincident),
        "D_planar_fixed": (PLANAR_TAG, planar, coincident),
        "D_solid": (SpaceTag.solid(3), solid, planar3),
        "D_solid_fixed": (SOLID_TAG, solid, planar3),
        "F3_lines_through": (atlas.TAG_LINES_I0, planar, off_center),
    }
    assert set(cases) == set(SpaceTag._KINDS)
    for kind, (tag, good, bad) in cases.items():
        assert validate(good, tag).verdict, kind
        assert not validate(bad, tag).verdict, kind
    assert kinds == [kind for kind in cases for _ in range(2)]
    path = tmp_path / "stratum.json"
    path.write_text(json.dumps(base_planar().to_json(SpaceTag("Fk_stratum", 2, k=6, span_i=2))))
    assert main(["membership", str(path)]) == 0 and kinds[-1] == "Fk_stratum" and len(kinds) == 15


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


def _pass_columns(values):
    """The unit coordinate-major points (m, k, N) that a validation kernel
    gets for the rows ``values``."""
    return unit_rows(to_columns(values.reshape(len(values), -1, values.shape[-1])), axis=0)


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


# The named checks of a kernel, in the order it returns them.
CHECK_ORDER = {
    "D_planar_fixed": ["pairwise-distinct", "meet-defined", "center-apart", "center-matches",
                       "lines-distinct", "concurrent"],
    "D_solid_fixed": ["pairwise-distinct", "meet-defined", "center-apart", "center-matches",
                      "lines-distinct", "concurrent", "span-at-least"],
    "F3_lines_through": ["span-defined", "lines-distinct", "center-incidence"],
}


def _kernel_result(kernel, values, tag):
    """A validation kernel's checks, margins, residuals and centers on the
    whole batch ``values`` in one pass, with no grouping, read node by
    node: the verdicts the AND of the checks, fail_counts each check's
    failing nodes."""
    checks, margins, residuals, centers = kernel(_pass_columns(values), tag, DEFAULT_TOL)
    verdicts = np.all(list(checks.values()), axis=0)
    fail_counts = {name: int(np.sum(~mask)) for name, mask in checks.items() if not mask.all()}
    return BatchResult(verdicts, margins, residuals, fail_counts, centers)


@pytest.mark.parametrize("kind, tag", [
    ("configs", SpaceTag.planar_fixed(2, HPoint(I0))),
    ("configs", atlas.TAG_SOLID_FIXED_3),
    ("lines", atlas.TAG_LINES_I0_SOLID),
], ids=["planar-fixed-2", "solid-fixed-3", "line-triples"])
def test_repeated_nodes_are_validated_once(kind, tag, monkeypatch):
    """A batch in which every node, failing ones included, appears two or
    three times out of order gives the result of the kernel on the same
    batch read node by node without grouping: verdicts, margins,
    residuals and centers at every node, fail_counts counting each failing
    node with its multiplicity, and the first node attaining each least
    margin.  The kernel sees each bitwise-distinct node once, in order of
    first occurrence, and returns each named check as a mask over those
    nodes."""
    if kind == "configs":
        distinct = near_degenerate_corpus(tag=tag)
        validator, name = validate_batch, "_validate_configs"
    else:
        distinct = line_triples_corpus(tag)
        validator, name = validate_lines_batch, "_validate_lines"
    distinct = _signed_zero_twins(distinct)
    batch = _repeated(distinct, 5)
    kernel = getattr(strata, name)
    ref = _kernel_result(kernel, batch, tag)
    assert not ref.all_ok and ref.verdicts.any()
    seen, returned = [], []

    def spy(cols, *args):
        seen.append(cols.copy())
        returned.append(kernel(cols, *args))
        return returned[-1]

    monkeypatch.setattr(strata, name, spy)
    res = validator(batch, tag)
    _assert_same_result(res, ref)
    assert len(seen) == 1 and seen[0].tobytes() == _pass_columns(_bitwise_distinct(batch)).tobytes()
    assert seen[0].shape[-1] == len(distinct)
    checks = returned[0][0]
    assert list(checks) == CHECK_ORDER[tag.kind]
    assert all(mask.shape == (len(distinct),) and mask.dtype == bool for mask in checks.values())
    # and the distinct nodes validated as a batch of their own, expanded
    alone = validator(distinct, tag)
    index = {d.tobytes(): i for i, d in enumerate(distinct)}
    at = [index[v.tobytes()] for v in batch]
    assert res.verdicts.tobytes() == alone.verdicts[at].tobytes()
    assert res.margins.tobytes() == alone.margins[at].tobytes()
    assert sum(alone.fail_counts.values()) < sum(res.fail_counts.values())


def test_batch_of_distinct_nodes_is_passed_whole(monkeypatch):
    """Without repeats (and for one node) the kernel gets the whole batch,
    as its unit coordinate-major points, in one pass, and the result is
    the kernel's checks, margins, residuals and centers read node by
    node."""
    corpus = _bitwise_distinct(near_degenerate_corpus())
    calls = []
    kernel = strata._validate_configs

    def spy(cols, tag, tol):
        calls.append(cols)
        return kernel(cols, tag, tol)

    monkeypatch.setattr(strata, "_validate_configs", spy)
    for batch in (corpus, corpus[:1]):
        res = validate_batch(batch, PLANAR_TAG)
        assert len(calls) == 1 and calls.pop().tobytes() == _pass_columns(batch).tobytes()
        _assert_same_result(res, _kernel_result(kernel, batch, PLANAR_TAG))


@pytest.mark.parametrize("kind, pass_nodes", [
    ("configs", 7), ("lines", 7), ("configs", strata.PASS_NODES),
])
def test_passes_match_one_node_validation(kind, pass_nodes, monkeypatch):
    """A batch whose distinct nodes span several validation passes, each
    node repeated up to four times and its repeats spread over the batch,
    so that repeats of the nodes on either side of every pass boundary
    come later and out of order, gives byte for byte each node's one-node
    validation: verdicts, margins, residuals and centers, with fail_counts
    the one-node failures summed with multiplicity."""
    monkeypatch.setattr(strata, "PASS_NODES", pass_nodes)
    if kind == "configs":
        tag, corpus = PLANAR_TAG, _bitwise_distinct(near_degenerate_corpus())
    else:
        tag = atlas.TAG_LINES_I0_SOLID
        corpus = _bitwise_distinct(line_triples_corpus(tag))
    copies = -(-(2 * pass_nodes + 3) // len(corpus))
    distinct = _bitwise_distinct(np.concatenate([corpus * (1 + 0.25 * k) for k in range(copies)]))
    assert len(distinct) > 2 * pass_nodes
    rng = np.random.default_rng(pass_nodes)
    mult = rng.integers(1, 5, size=len(distinct))
    order = np.concatenate([np.arange(len(distinct)), rng.permutation(np.repeat(np.arange(len(distinct)), mult - 1))])
    res = validate_values(distinct[order], tag)
    fail_counts = {}
    for i, node in enumerate(distinct):
        one = validate_values(node[None], tag)
        at = order == i
        assert res.verdicts[at].tobytes() == np.repeat(one.verdicts, mult[i]).tobytes()
        assert res.margins[at].tobytes() == np.repeat(one.margins, mult[i]).tobytes()
        assert res.residuals[at].tobytes() == np.repeat(one.residuals, mult[i]).tobytes()
        if kind == "configs":
            assert res.centers[at].tobytes() == np.repeat(one.centers, mult[i], axis=0).tobytes()
        for name in one.fail_counts:
            fail_counts[name] = fail_counts.get(name, 0) + int(mult[i])
    assert res.fail_counts == fail_counts and not res.all_ok and res.verdicts.any()
