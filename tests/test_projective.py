"""Projective arithmetic: golden values from independent oracles, then the
scale/permutation invariance properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcs import atlas
from dcs.projective import (
    CHUNK,
    DEFAULT_TOL,
    DimensionMismatchError,
    HPoint,
    ProjectiveError,
    Tolerances,
    ZeroVectorError,
    bracket_rows,
    chordal_batch,
    chordal_pairs,
    line_residual,
    meet,
    proj_dist,
    rank3_screen,
    relative_singular_values,
    span_dim,
    unit_rows,
)
from dcs.report import FAIL, classify_distance

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
    _, defined = meet(A10.unit(), HPoint(2.0 * A10.coords).unit(), A20.unit(), I0.unit())
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
    point, defined = meet(A10.unit(), B10.unit(), A20.unit(), HPoint([-1, 2, 2]).unit())
    assert defined
    assert proj_dist(HPoint(point), I0) < 1e-12


def test_meet_base_lines_solid():
    rows = unit_rows(np.array([[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 0], [0, 1, 1, 0]], dtype=complex))
    point, defined = meet(*rows)
    assert defined and relative_singular_values(rows)[3] <= DEFAULT_TOL.rank_rel_tol
    assert proj_dist(HPoint(point), HPoint([0, 0, 1, 0])) < 1e-12


def test_meet_skew_lines_residual():
    # X2 = X3 = 0 and X0 = X1 = 0 span all of CP^3: the skew residual, the
    # fourth relative singular value of the four points, is 1 from LAPACK,
    # within rank3_screen's bound (an infinite one: the points do not span
    # three dimensions), and the meet is the point of the first line nearest
    # the second, here any of its points
    rows = np.eye(4, dtype=complex)[None]
    assert relative_singular_values(rows)[0, 3] == pytest.approx(1.0)
    est, err = rank3_screen(rows, [], [(0, 1, 2, 3)])
    assert abs(est[0, 0] - 1.0) <= err[0, 0]
    point, defined = meet(*rows[0])
    assert defined and proj_dist(HPoint(point), HPoint([1, 0, 0, 0])) < 1e-12


def test_meet_reconstructs_common_point():
    r = rng()
    triangles = []
    while len(triangles) < 50:
        a, b, c = (random_point(r) for _ in range(3))
        if abs(bracket_rows(a.coords, b.coords, c.coords)) < 1e-2:
            continue
        triangles.append(unit_rows(np.stack([a.coords, b.coords, c.coords])))
    t = np.stack(triangles)
    point, defined = meet(t[:, 0], t[:, 1], t[:, 0], t[:, 2])
    assert defined.all()
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


# ---------------------------------------------------------------------------
# closed-form rank screen


def test_rank3_screen_does_not_depend_on_batch_size():
    """A node's screened value and bound are the same in any batch; numpy
    rounds a complex product differently once it reuses a large temporary
    in place, so an unchunked screen would fail this."""
    r = rng()
    rows = unit_rows(r.normal(size=(20000, 7, 3)) + 1j * r.normal(size=(20000, 7, 3)))
    stacks = ((0, 1, 2, 3), (6, 4, 5), (0, 1, 2, 3, 4, 5))
    est, err = rank3_screen(rows, stacks)
    for lo, hi in ((0, 1), (5, 9), (100, 2148), (19000, 20000)):
        e, b = rank3_screen(rows[lo:hi], stacks)
        assert np.array_equal(e, est[lo:hi]) and np.array_equal(b, err[lo:hi])
    ref = relative_singular_values(rows[:, [0, 1, 2, 3]])[..., 2]
    assert np.all(np.abs(est[:, 0] - ref) <= err[:, 0])


def test_rank3_screen_bounds_repeated_eigenvalues():
    """Orthonormal rows (Gram eigenvalues all equal) and an orthonormal
    basis with its normalized sum (2, 1, 1), where Smith's formula is off
    by about sqrt(eps): LAPACK's value lies within the bound."""
    r = rng()
    for q in (np.eye(3, dtype=complex),
              np.linalg.qr(r.normal(size=(3, 3)) + 1j * r.normal(size=(3, 3)))[0]):
        rows = np.concatenate([q, q.sum(axis=0, keepdims=True) / np.sqrt(3)])[None]
        stacks = ((0, 1, 2), (0, 1, 2, 3))
        est, err = rank3_screen(rows, stacks)
        for k, s in enumerate(stacks):
            ref = relative_singular_values(rows[:, list(s)])[..., 2]
            assert abs(est[0, k] - ref[0]) <= err[0, k] < 1e-6


# the batched kernels on rows alone and in batches of any size
KERNELS = {
    "bracket_rows": (3, 3, lambda a: bracket_rows(a[:, 0], a[:, 1], a[:, 2])),
    "chordal_batch": (2, 3, lambda a: chordal_batch(a[:, 0], a[:, 1])),
    "chordal_pairs": (7, 4, lambda a: chordal_pairs(a, [(0, 1), (2, 6), (5, 3)])),
    "line_residual": (4, 4, lambda a: line_residual(a[:, :2], a[:, 2:])),
    "meet": (4, 4, lambda a: meet(*(a[:, i] for i in range(4)))),
    "rank3_screen": (7, 4, lambda a: rank3_screen(a, [(0, 1, 2, 3), (6, 4, 5)], [(0, 1, 2, 3)])),
    "rank3_screen CP^2": (7, 3, lambda a: rank3_screen(a, [(0, 1, 2, 3), (6, 4, 5)])),
    "unit_rows": (3, 4, unit_rows),
}


@pytest.mark.parametrize("n", [1, 10, 2049, 8192, 40000])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_rows_do_not_depend_on_batch_size(name, n):
    """Each row of a batch is byte-equal to the row computed alone: all of
    the first 2,000 rows for the cheap kernels, and the first eight, the
    last, rows around the first two pass boundaries and 24 random ones for
    the screens.  numpy computes a complex product of a large temporary in place,
    and rounds it differently, so an unchunked kernel fails this.  unit_rows
    takes raw rows at scales 1e-200 to 1e200, so that a batch mixes rows of
    its far-norm branch with rows in range."""
    r, m, kernel = KERNELS[name]
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(n, r, m)) + 1j * rng.normal(size=(n, r, m))
    rows = rows * 10.0 ** rng.integers(-200, 201, size=(n, r, 1)) if name == "unit_rows" else unit_rows(rows)

    def run(a):
        out = kernel(a)
        return out if isinstance(out, tuple) else (out,)

    batch = run(rows)
    if name in ("bracket_rows", "chordal_batch", "chordal_pairs", "line_residual", "unit_rows"):
        picks = range(min(n, 2000))
    else:
        edges = np.r_[CHUNK - 2:CHUNK + 3, 2 * CHUNK - 2:2 * CHUNK + 3]
        picks = np.unique(np.r_[0:8, n - 1, edges, rng.integers(0, n, 24)].clip(0, n - 1))
    for i in picks:
        for whole, alone in zip(batch, run(rows[i:i + 1])):
            assert whole[i].tobytes() == alone[0].tobytes(), i


# ---------------------------------------------------------------------------
# line equality in closed form

def _line_pair(seed, m):
    """Unit rows p, q of a line of CP^(m-1) with chordal distance at least
    0.1, two unit points x, y of it at least 0.1 apart, and a unit vector w
    orthogonal to the line."""
    r = np.random.default_rng(seed)
    while True:
        p, q, w = unit_rows(r.normal(size=(3, m)) + 1j * r.normal(size=(3, m)))
        c = r.normal(size=(2, 2)) + 1j * r.normal(size=(2, 2))
        x, y = unit_rows(c @ np.stack([p, q]))
        basis = np.linalg.qr(np.stack([p, q]).T)[0]
        w = unit_rows(w - basis @ (basis.conj().T @ w))
        if min(chordal_batch(p, q), chordal_batch(x, y)) >= 0.1:
            return p, q, x, y, w


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 5), st.floats(-9, 0), st.integers(0, 1))
@settings(max_examples=200, deadline=None)
def test_line_residual_is_zero_iff_same_line_and_tracks_lapack(seed, m, tilt, which):
    """On the same line the value is 0 to rounding; with one point tilted
    off the line by 10^tilt it reads above a tenth of the tilt, and it lies
    within the stated factors (1/sqrt(2) and 3/s, s the line's chordal
    distance) of LAPACK's third relative singular value of the four rows."""
    p, q, x, y, w = _line_pair(seed, m)
    line = np.stack([p, q])
    assert line_residual(np.stack([x, y]), line) <= 16 * np.finfo(float).eps
    assert line_residual(np.stack([y, x]), np.stack([q, p])) <= 16 * np.finfo(float).eps
    delta = 10.0 ** tilt
    span = np.stack([x, y])
    span[which] += delta * w
    span = unit_rows(span)
    value = line_residual(span, line)
    assert value > delta / 10
    ref = relative_singular_values(np.concatenate([span, line]))[2]
    s = chordal_batch(p, q)
    assert ref / np.sqrt(2) * (1 - 1e-6) <= value <= 3 * ref / s * (1 + 1e-6)


@pytest.mark.parametrize("side", ["span", "line"])
def test_line_residual_fails_a_span_of_one_point(side):
    """A pair with A_i = B_i on either side spans no line: the value is 1,
    which fails every distance threshold, never 0 or NaN; so is a pair with
    a non-finite entry."""
    p, q, x, y, _ = _line_pair(7, 4)
    span, line = np.stack([x, y]), np.stack([p, q])
    if side == "span":
        span = np.stack([p, p])          # both points on the line
    else:
        line = np.stack([x, x])          # the span's first point, twice
    value = line_residual(span, line)
    assert value == 1.0
    assert classify_distance(float(value), 1e-8, 1e-12) == FAIL
    nan = line_residual(np.stack([x, np.full(4, np.nan)]), np.stack([p, q]))
    assert nan == 1.0
