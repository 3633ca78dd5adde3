"""Projective arithmetic: golden values from independent oracles, then the
scale/permutation invariance properties."""

import numpy as np
import pytest

from dcs.projective import (
    DegenerateSpanError,
    DimensionMismatchError,
    HPoint,
    NoIntersectionError,
    ProjectiveError,
    Tolerances,
    ZeroVectorError,
    bracket,
    line_from_dual,
    line_through,
    meet_lines,
    on_line,
    proj_dist,
    span_dim,
)

A10 = HPoint([-1, 1, 1])
B10 = HPoint([-1, 1, 2])
A20 = HPoint([-1, 2, 1])
I0 = HPoint([0, 0, 1])


def rng():
    return np.random.default_rng(20260810)


def random_point(r, dim=2):
    return HPoint(r.normal(size=dim + 1) + 1j * r.normal(size=dim + 1))


# ---------------------------------------------------------------------------
# proj_dist

def test_proj_dist_proportional_is_zero():
    assert proj_dist(HPoint([1, 2, 3]), HPoint([2, 4, 6])) == 0.0


def test_proj_dist_orthogonal_is_one():
    assert proj_dist(HPoint([1, 0, 0]), HPoint([0, 1, 0])) == pytest.approx(1.0)


def test_proj_dist_golden_third():
    # oracle: direct formula with exact integers, 1 - 16/18 = 1/9
    assert proj_dist(A10, B10) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_proj_dist_scale_invariant():
    r = rng()
    for _ in range(200):
        p, q = random_point(r), random_point(r)
        lam = r.normal() + 1j * r.normal()
        mu = r.normal() + 1j * r.normal()
        if abs(lam) < 1e-3 or abs(mu) < 1e-3:
            continue
        d0 = proj_dist(p, q)
        d1 = proj_dist(HPoint(lam * p.coords), HPoint(mu * q.coords))
        assert abs(d0 - d1) < 1e-12


def test_proj_dist_symmetric():
    r = rng()
    for _ in range(50):
        p, q = random_point(r), random_point(r)
        assert proj_dist(p, q) == pytest.approx(proj_dist(q, p), abs=1e-15)


def test_proj_dist_errors():
    with pytest.raises(DimensionMismatchError):
        proj_dist(HPoint([1, 0, 0]), HPoint([1, 0, 0, 0]))
    with pytest.raises(ZeroVectorError):
        HPoint([0, 0, 0])
    for bad in (np.inf, np.nan):
        with pytest.raises(ProjectiveError, match="non-finite"):
            HPoint([1, bad, 0])


def test_proj_dist_resolves_tiny_separations():
    # the straight 1 - |<u,v>|^2 form cannot see below sqrt(eps)
    p = HPoint([1, 1, 1])
    q = HPoint([1, 1, 1 + 1e-11])
    assert 1e-12 < proj_dist(p, q) < 1e-10


# ---------------------------------------------------------------------------
# span_dim

def test_span_dim_collinear():
    pts = [HPoint([1, 0, 0]), HPoint([0, 1, 0]), HPoint([1, 1, 0])]
    assert span_dim(pts) == 1


def test_span_dim_base_configurations():
    from dcs import atlas

    planar = [HPoint(p) for p in atlas.PLANAR_BASE]
    assert span_dim(planar) == 2
    solid = [HPoint(p) for p in atlas.SOLID_BASE]
    assert span_dim(solid) == 3


def test_span_dim_invariances():
    r = rng()
    pts = [random_point(r, 3) for _ in range(5)]
    base = span_dim(pts)
    for _ in range(20):
        perm = r.permutation(len(pts))
        scaled = [HPoint((r.normal() + 1j * r.normal()) * pts[i].coords) for i in perm]
        assert span_dim(scaled) == base


def test_span_dim_empty_errors():
    with pytest.raises(Exception):
        span_dim([])


# ---------------------------------------------------------------------------
# line_through / on_line

def test_line_through_solid_first_line():
    # [0:0:0:1] v [0:0:1:1] is the line X0 = X1 = 0
    l = line_through(HPoint([0, 0, 0, 1]), HPoint([0, 0, 1, 1]))
    ok, _ = on_line(HPoint([0, 0, 5, 7]), l)
    assert ok
    ok, _ = on_line(HPoint([1, 0, 0, 0]), l)
    assert not ok


def test_line_through_satisfies_first_base_equation():
    # the line through [-1:1:1] and [-1:1:2] is X0 + X1 = 0
    l = line_through(A10, B10)
    cov = l.dual()
    assert proj_dist(cov, HPoint([1, 1, 0])) < 1e-12


def test_line_through_coincident_errors():
    with pytest.raises(DegenerateSpanError):
        line_through(A10, HPoint(2.0 * A10.coords))


def test_on_line_center_on_first_line():
    l = line_through(A10, B10)
    ok, residual = on_line(I0, l)
    assert ok and residual < 1e-12


def test_on_line_negative():
    l = line_through(A10, B10)
    ok, _ = on_line(HPoint([1, 0, 0]), l)
    assert not ok


def test_on_line_margin_golden():
    # oracle: svd of the unit rows [A2; A1; B1] gives s3/s1 = 0.08377284452...
    l = line_through(A10, B10)
    ok, margin = on_line(A20, l)
    assert not ok
    assert margin == pytest.approx(0.08377284452080491, rel=1e-9)


def test_on_line_roundtrip_property():
    r = rng()
    for _ in range(100):
        p, q = random_point(r), random_point(r)
        if proj_dist(p, q) < 1e-3:
            continue
        l = line_through(p, q)
        assert on_line(p, l)[0] and on_line(q, l)[0]


# ---------------------------------------------------------------------------
# meet_lines

def test_meet_base_lines_planar():
    d1 = line_through(A10, B10)
    d2 = line_through(A20, HPoint([-1, 2, 2]))
    assert proj_dist(meet_lines(d1, d2), I0) < 1e-12


def test_meet_base_lines_solid():
    d1 = line_through(HPoint([0, 0, 0, 1]), HPoint([0, 0, 1, 1]))
    d2 = line_through(HPoint([0, 1, 0, 0]), HPoint([0, 1, 1, 0]))
    assert proj_dist(meet_lines(d1, d2), HPoint([0, 0, 1, 0])) < 1e-12


def test_meet_skew_lines_errors():
    d1 = line_through(HPoint([1, 0, 0, 0]), HPoint([0, 1, 0, 0]))
    d2 = line_through(HPoint([0, 0, 1, 0]), HPoint([0, 0, 0, 1]))
    with pytest.raises(NoIntersectionError):
        meet_lines(d1, d2)


def test_meet_identical_lines_errors():
    d1 = line_through(A10, B10)
    d2 = line_through(B10, HPoint([-1, 1, 5]))
    with pytest.raises(DegenerateSpanError):
        meet_lines(d1, d2)


def test_meet_reconstructs_common_point():
    r = rng()
    hits = 0
    while hits < 50:
        a, b, c = (random_point(r) for _ in range(3))
        if abs(bracket(a, b, c)) < 1e-2:
            continue
        hits += 1
        m = meet_lines(line_through(a, b), line_through(a, c))
        assert proj_dist(m, a) < 1e-9


# ---------------------------------------------------------------------------
# bracket

def test_bracket_collinear_zero():
    assert abs(bracket(A10, B10, I0)) < 1e-14


def test_bracket_golden():
    # oracle: numpy determinant of [[-1,1,1],[-1,1,2],[-1,2,1]] equals 1
    assert bracket(A10, B10, A20) == pytest.approx(1.0)


def test_bracket_antisymmetry():
    r = rng()
    for _ in range(50):
        p, q, s = (random_point(r) for _ in range(3))
        assert bracket(p, q, s) == pytest.approx(-bracket(q, p, s), rel=1e-12)


def test_bracket_matches_numpy_det():
    r = rng()
    for _ in range(50):
        p, q, s = (random_point(r) for _ in range(3))
        expect = np.linalg.det(np.stack([p.coords, q.coords, s.coords]))
        assert bracket(p, q, s) == pytest.approx(expect, rel=1e-10)


def test_bracket_vanishes_iff_collinear():
    r = rng()
    for _ in range(50):
        p, q = random_point(r), random_point(r)
        lam, mu = r.normal() + 1j * r.normal(), r.normal() + 1j * r.normal()
        on = HPoint(lam * p.coords + mu * q.coords)
        assert abs(bracket(p, q, on)) < 1e-9 * max(
            1.0, abs(bracket(p, q, random_point(r)))
        )
        assert span_dim([p, q, on]) <= 1


def test_bracket_dimension_guard():
    with pytest.raises(DimensionMismatchError):
        bracket(HPoint([1, 0, 0, 0]), HPoint([0, 1, 0, 0]), HPoint([0, 0, 1, 0]))


# ---------------------------------------------------------------------------
# dual form round trip

def test_line_from_dual_roundtrip():
    r = rng()
    for _ in range(50):
        cov = random_point(r)
        l = line_from_dual(cov.coords)
        assert proj_dist(l.dual(), cov) < 1e-9


def test_line_from_dual_isotropic_covector():
    # c . c = 0 makes the naive two-cross-products choice collapse
    l = line_from_dual(np.array([1.0, 1j, 0.0]))
    assert proj_dist(l.p, l.q) > 1e-3


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(proj_eq_tol=0.0)
    with pytest.raises(ValueError):
        Tolerances(proj_eq_tol=2.0)
