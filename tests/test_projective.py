"""Projective arithmetic: golden values from independent oracles, then the
scale/permutation invariance properties."""

import numpy as np
import pytest

from dcs import atlas
from dcs.projective import (
    DEFAULT_TOL,
    DimensionMismatchError,
    HPoint,
    ProjectiveError,
    Tolerances,
    ZeroVectorError,
    bracket_rows,
    chordal_batch,
    meet,
    proj_dist,
    relative_singular_values,
    span_dim,
    unit_rows,
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
# incidence with the span of two points (third relative singular value)

def incidence(x, p, q):
    """Rank-2 residual of the unit rows [x; p; q]: zero iff x lies on p q."""
    return relative_singular_values(unit_rows(np.stack([x.coords, p.coords, q.coords])))[2]


def test_line_through_solid_first_line():
    # [0:0:0:1] v [0:0:1:1] is the line X0 = X1 = 0
    p, q = HPoint([0, 0, 0, 1]), HPoint([0, 0, 1, 1])
    assert incidence(HPoint([0, 0, 5, 7]), p, q) <= DEFAULT_TOL.rank_rel_tol
    assert incidence(HPoint([1, 0, 0, 0]), p, q) > DEFAULT_TOL.rank_rel_tol


def test_line_through_satisfies_first_base_equation():
    # the line through [-1:1:1] and [-1:1:2] is X0 + X1 = 0
    cov = HPoint(np.cross(A10.coords, B10.coords))
    assert proj_dist(cov, HPoint([1, 1, 0])) < 1e-12


def test_line_through_coincident_errors():
    # coincident points span no line, so nothing meets it in one point
    _, _, defined = meet(A10.unit(), HPoint(2.0 * A10.coords).unit(), A20.unit(), I0.unit())
    assert not defined


def test_on_line_center_on_first_line():
    assert incidence(I0, A10, B10) < 1e-12


def test_on_line_negative():
    assert incidence(HPoint([1, 0, 0]), A10, B10) > DEFAULT_TOL.rank_rel_tol


def test_on_line_margin_golden():
    # oracle: svd of the unit rows [A2; A1; B1] gives s3/s1 = 0.08377284452...
    assert incidence(A20, A10, B10) == pytest.approx(0.08377284452080491, rel=1e-9)


def test_on_line_roundtrip_property():
    r = rng()
    for _ in range(100):
        p, q = random_point(r), random_point(r)
        if proj_dist(p, q) < 1e-3:
            continue
        assert incidence(p, p, q) <= DEFAULT_TOL.rank_rel_tol
        assert incidence(q, p, q) <= DEFAULT_TOL.rank_rel_tol


# ---------------------------------------------------------------------------
# meet

def test_meet_base_lines_planar():
    point, skew, defined = meet(A10.unit(), B10.unit(), A20.unit(), HPoint([-1, 2, 2]).unit())
    assert defined and skew == 0.0
    assert proj_dist(HPoint(point), I0) < 1e-12


def test_meet_base_lines_solid():
    point, skew, defined = meet(*(HPoint(p).unit() for p in
                                  ([0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 0], [0, 1, 1, 0])))
    assert defined and skew <= DEFAULT_TOL.rank_rel_tol
    assert proj_dist(HPoint(point), HPoint([0, 0, 1, 0])) < 1e-12


def test_meet_skew_lines_residual():
    # X2 = X3 = 0 and X0 = X1 = 0 span all of CP^3
    _, skew, _ = meet(*np.eye(4, dtype=complex))
    assert skew > DEFAULT_TOL.rank_rel_tol
    assert skew == pytest.approx(1.0)


def test_meet_reconstructs_common_point():
    r = rng()
    triangles = []
    while len(triangles) < 50:
        a, b, c = (random_point(r) for _ in range(3))
        if abs(bracket_rows(a.coords, b.coords, c.coords)) < 1e-2:
            continue
        triangles.append(unit_rows(np.stack([a.coords, b.coords, c.coords])))
    t = np.stack(triangles)
    point, skew, defined = meet(t[:, 0], t[:, 1], t[:, 0], t[:, 2])
    assert defined.all() and np.all(skew == 0.0)
    for m, (a, _, _) in zip(point, t):
        assert proj_dist(HPoint(m), HPoint(a)) < 1e-9


# ---------------------------------------------------------------------------
# bracket

def bracket(p, q, r):
    return bracket_rows(p.coords, q.coords, r.coords)


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


# ---------------------------------------------------------------------------
# lines given by their covector (the central projection of atlas.psi_triv)

def spanned_duals(out):
    """Covectors of the lines through the output pairs (A_i, B_i)."""
    return unit_rows(np.cross(out[..., 0::2, :], out[..., 1::2, :]))


def test_line_from_dual_roundtrip():
    # project random points onto random lines d . X = 0 through [0:0:1];
    # the line through each output pair has d as its dual again
    r = rng()
    duals = np.zeros((50, 3, 3), dtype=complex)
    duals[..., :2] = r.normal(size=(50, 3, 2)) + 1j * r.normal(size=(50, 3, 2))
    configs = r.normal(size=(50, 6, 3)) + 1j * r.normal(size=(50, 6, 3))
    out = atlas.psi_triv(duals, configs)
    assert chordal_batch(spanned_duals(out), unit_rows(duals)).max() < 1e-9


def test_line_from_dual_isotropic_covector():
    # c . c = 0 makes the naive two-cross-products choice collapse
    cov = np.array([1.0, 1j, 0.0])
    out = atlas.psi_triv(np.broadcast_to(cov, (1, 3, 3)), atlas.PLANAR_BASE[None])[0]
    for a, b in zip(out[0::2], out[1::2]):
        assert proj_dist(HPoint(a), HPoint(b)) > 1e-3
    assert chordal_batch(spanned_duals(out), unit_rows(cov)).max() < 1e-9


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(proj_eq_tol=2.0)
    for name in ("proj_eq_tol", "rank_rel_tol", "margin_warn"):
        for value in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match=name):
                Tolerances(**{name: value})


def test_package_exports_resolve():
    import dcs

    missing = [name for name in dcs.__all__ if not hasattr(dcs, name)]
    assert not missing, missing
