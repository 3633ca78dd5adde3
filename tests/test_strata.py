"""Membership predicates: base configurations, named failure modes, margin
behavior, and the constructive random sampler."""

import numpy as np
import pytest

from dcs import atlas
from dcs.projective import HPoint, ProjectiveError, span_dim
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
