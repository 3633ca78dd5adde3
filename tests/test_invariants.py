"""Winding invariants: fiber vectors against brute-force argument tracking,
bracket-ratio constancy, relation checks with negative controls, disk
nullity, and exact abelian-quotient certificates."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcs import atlas
from dcs import invariants as inv
from dcs.paths import Atom, Concat, Inverse, TWO_PI, compare_values, domain_nodes, parse_loop_expr
from dcs.projective import DEFAULT_TOL, VECTOR_ROWS, ProjectiveError
from dcs.report import FAIL, INCONCLUSIVE, PASS

ALPHA, BETA, GAMMA, SIGMA = (Atom(n) for n in ("alpha", "beta", "gamma", "sigma"))


def brute_force_winding(expr, functional, n=8192):
    """Independent oracle: dense unwrapped phase accumulation."""
    thetas = np.linspace(0.0, TWO_PI, n + 1)
    vals = functional(expr.at(thetas))
    return int(round(float(np.unwrap(np.angle(vals))[-1] - np.angle(vals)[0]) / TWO_PI))


# ---------------------------------------------------------------------------
# winding basics

def test_constant_loop_has_zero_windings():
    base = Atom("D0")
    for f in list(inv.W_FUNCTIONALS.values()) + [inv.fiber_functional(i, 2) for i in range(3)]:
        assert inv.winding(base, f).winding == 0


def test_first_fiber_chart_along_first_generator():
    # the moving point is [-1:1:1+z]; chart difference is (1+z) - 1 = z
    res = inv.winding(ALPHA, inv.fiber_functional(0, 2))
    assert res.winding == 1 and res.residual < 1e-12
    assert res.winding == brute_force_winding(ALPHA, inv.fiber_functional(0, 2))


def test_bracket_ratio_windings_vanish():
    # frozen by first computation: the cutting lines meet the carrier line at
    # the common center, so each ratio is identically one and all windings 0
    for name in ("alpha", "beta", "gamma", "sigma", "Phi_tilde_S1"):
        for f in inv.W_FUNCTIONALS.values():
            res = inv.winding(Atom(name), f)
            assert res.winding == 0 and res.residual < 1e-10
            assert abs(res.min_modulus - 1.0) < 1e-10  # identically one


def test_w_functionals_scale_invariant():
    r = np.random.default_rng(1)
    thetas = np.linspace(0, TWO_PI, 33)
    configs = atlas.get("Phi_tilde_S1").eval(thetas)
    for f in inv.W_FUNCTIONALS.values():
        # every representative rescaled at random
        scales = np.exp(r.normal(size=(33, 6)) + 1j * r.uniform(0, TWO_PI, size=(33, 6)))
        change = np.abs(f(configs * scales[..., None]) - f(configs)) / np.abs(f(configs))
        assert change.max() < 1e-12


def _row_bracket(a, b, c):
    """Brackets of row-major CP^2 representatives (rows, 3), one pass."""
    return (a[..., 0] * (b[..., 1] * c[..., 2] - b[..., 2] * c[..., 1])
            - a[..., 1] * (b[..., 0] * c[..., 2] - b[..., 2] * c[..., 0])
            + a[..., 2] * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0]))


def row_major_ratio(arr, i, j, k):
    """Oracle: the bracket ratio ([AjBjAi] [AkBkBi]) / ([AkBkAi] [AjBjBi])
    from four row-major bracket passes over strided views of the
    configurations, in passes of VECTOR_ROWS rows."""
    rows = arr.reshape(-1, 6, 3)

    def bracket(p, q, r):
        passes = [rows[at:at + VECTOR_ROWS] for at in range(0, len(rows), VECTOR_ROWS)]
        return np.concatenate([_row_bracket(x[:, p], x[:, q], x[:, r]) for x in passes]).reshape(arr.shape[:-2])

    ai, bi, aj, bj, ak, bk = (2 * (n - 1) + s for n in (i, j, k) for s in (0, 1))
    return bracket(aj, bj, ai) * bracket(ak, bk, bi) / (bracket(ak, bk, ai) * bracket(aj, bj, bi))


RATIO_LINES = {"w1": (1, 2, 3), "w2": (2, 3, 1), "w3": (3, 1, 2)}
PLANAR_LOOPS = ("alpha", "beta", "gamma", "sigma", "sigma_tilde_Lambda", "Phi_tilde_S1")


def seeded_word(seed):
    """A word of 1 to 8 planar loops and inverses, part of it inverted as a
    whole in parentheses."""
    r = np.random.default_rng(seed)
    atoms = [str(r.choice(PLANAR_LOOPS)) + ("^-1" if r.random() < 0.3 else "")
             for _ in range(r.integers(1, 9))]
    i, j = sorted(r.integers(0, len(atoms) + 1, size=2))
    if j > i:
        atoms[i:j] = ["(" + "*".join(atoms[i:j]) + ")^-1"]
    return "*".join(atoms)


def lambda_tilde_disk():
    """Lambda_tilde on the default disk grid, the values its sweep in C5
    hands to disk_winding_nullity."""
    return atlas.get("Lambda_tilde").eval(**domain_nodes("disk", (128, 64))[0])


# the seven fiber loops, sigma, sigma_tilde_Lambda and Phi_tilde_S1, seeded
# words, Lambda_tilde on the default disk grid, and a sample long enough
# that the bracket passes split
RATIO_CASES = {
    **{name: (lambda name=name: Atom(name).sample(512)[1])
       for name in ("alpha", "beta", "gamma", "F_tilde_S1", "B_tilde_S1", "Psi_tilde_S1",
                    "Sigma_tilde_S1", "sigma", "sigma_tilde_Lambda", "Phi_tilde_S1")},
    **{f"word {seed}": (lambda seed=seed: parse_loop_expr(seeded_word(seed)).sample(512)[1])
       for seed in range(20)},
    "Lambda_tilde disk": lambda_tilde_disk,
    "sigma_tilde_Lambda*Phi_tilde_S1 long":
        lambda: parse_loop_expr("sigma_tilde_Lambda*Phi_tilde_S1").sample(20000)[1],
}


@pytest.mark.parametrize("case", sorted(RATIO_CASES))
def test_bracket_ratios_match_the_row_major_formula(case):
    """w1-w3, from one coordinate-major pass of the four stacked brackets,
    are byte-equal to the row-major formula; the fiber loops outside CP^2
    have no bracket ratio and are refused."""
    configs = RATIO_CASES[case]()
    for name, f in inv.W_FUNCTIONALS.items():
        if configs.shape[-1] != 3:
            with pytest.raises(ProjectiveError):
                f(configs)
            continue
        want = row_major_ratio(configs, *RATIO_LINES[name])
        assert f(configs).tobytes() == want.tobytes(), name


def test_fiber_functionals_scale_invariant():
    r = np.random.default_rng(4)
    thetas = np.linspace(0, TWO_PI, 33)
    configs = atlas.get("alpha").eval(thetas)
    for i in range(3):
        f = inv.fiber_functional(i, 2)
        scales = np.exp(r.normal(size=(33, 6)) + 1j * r.uniform(0, TWO_PI, size=(33, 6)))
        change = np.abs(f(configs * scales[..., None]) - f(configs)) / np.abs(f(configs))
        assert change.max() < 1e-12


def test_fiber_vectors_of_catalog_boundaries():
    expected = {
        ("alpha", 2): (1, 0, 0),
        ("beta", 2): (0, 1, 0),
        ("gamma", 2): (0, 0, 1),
        ("F_tilde_S1", 3): (0, -1, 1),
        ("B_tilde_S1", 3): (-1, 0, 1),
        ("Psi_tilde_S1", 3): (1, 1, 2),
        ("Sigma_tilde_S1", 4): (0, -1, 0),
    }
    for (name, ambient), want in expected.items():
        res = inv.fiber_winding_vector(Atom(name))
        got = tuple(r.winding for r in res)
        assert got == want, (name, got)
        assert max(r.residual for r in res) < inv.WINDING_RESIDUAL_MAX
        for i in range(3):
            assert brute_force_winding(Atom(name), inv.fiber_functional(i, ambient)) == want[i]


def test_fiber_vector_rejects_moving_lines():
    with pytest.raises(inv.MovingLinesError):
        inv.fiber_winding_vector(SIGMA)
    with pytest.raises(inv.MovingLinesError):
        inv.fiber_winding_vector(Atom("Phi_tilde_S1"))


def test_degenerate_functional_reported_with_location():
    # chart difference of the first line minus one vanishes along the loop
    f0 = inv.fiber_functional(0, 2)
    bad = inv.ScalarFunctional("shifted", lambda arr: f0.fn(arr) - 1.0, 2)
    with pytest.raises(inv.DegenerateFunctionalError):
        inv.winding(ALPHA, bad)


def test_winding_requires_a_closed_loop():
    from dcs.paths import Reparam

    open_path = Reparam(GAMMA, lambda th: 0.7 * th, "open")
    with pytest.raises(inv.WindingError):
        inv.winding(open_path, inv.fiber_functional(2, 2))


def test_unregistered_chart_ambient_rejected():
    with pytest.raises(inv.WindingError):
        inv.fiber_functional(0, 7)
    # line constancy reads the ambient space from the configurations
    with pytest.raises(inv.WindingError):
        inv.line_constancy(np.ones((2, 6, 8), dtype=complex))


# configurations whose lines line_constancy measures: the seven fiber loops
# of the winding tables, sigma (whose first two lines move), a product, and
# the cylinder grids of the fiber-agreement rows
CONSTANCY_CASES = {
    **{name: (lambda name=name: Atom(name).sample(512)[1])
       for name in ("alpha", "beta", "gamma", "F_tilde_S1", "B_tilde_S1", "Psi_tilde_S1",
                    "Sigma_tilde_S1", "sigma")},
    "alpha*beta^-1*gamma": lambda: parse_loop_expr("alpha*beta^-1*gamma").sample(512)[1],
    **{f"{name} cylinder": (lambda name=name: atlas.get(name).eval(
        **domain_nodes("cylinder", (96, 9))[0])) for name in ("L", "K_alpha", "H", "M")},
}


@pytest.mark.parametrize("case", sorted(CONSTANCY_CASES))
def test_line_constancy_matches_the_per_line_comparison(case):
    """One pass over the three lines gives, line by line, the bits of the
    former per-line ``compare_values(..., "lines_span")`` against the base
    line; a moving line is reported with the same message."""
    configs = CONSTANCY_CASES[case]()
    base = inv._fiber_set(configs.shape[-1] - 1)[0]
    per_line = [compare_values(configs[..., 2 * i:2 * i + 2, :], base[2 * i:2 * i + 2], "lines_span")
                for i in range(3)]
    got = inv.line_constancy(configs)
    assert got.shape == (3,)
    assert [np.float64(v).tobytes() for v in got] == [np.float64(v).tobytes() for v in per_line]
    moving = [i for i, v in enumerate(per_line) if v > DEFAULT_TOL.rank_rel_tol]
    if not case.endswith("cylinder"):    # the cylinders move some lines and pin others
        assert (case == "sigma") == bool(moving)
    if case == "sigma":
        i = moving[0]
        with pytest.raises(inv.MovingLinesError) as err:
            inv.fiber_winding_vector(Atom("sigma"))
        assert str(err.value) == (f"line {i + 1} moves along the loop "
                                  f"(incidence residual {per_line[i]:.3e})")


# ---------------------------------------------------------------------------
# relations

def test_doubled_line_loop_relation():
    lhs = Concat(SIGMA, SIGMA)
    rhs = Concat(Concat(Inverse(ALPHA), Inverse(BETA)), GAMMA)
    rep = inv.check_linear_relation(lhs, rhs)
    assert rep.status == PASS
    # moving lines on the left exclude the fiber charts from the family
    assert {row[0] for row in rep.rows} == {"w1", "w2", "w3"}


def test_negative_control_relation_fails():
    rep = inv.check_linear_relation(ALPHA, BETA)
    assert rep.status == FAIL
    assert any(a != b for _, a, b in rep.rows)


def test_relation_includes_fibers_when_lines_fixed():
    rep = inv.check_linear_relation(Concat(ALPHA, BETA), Concat(BETA, ALPHA))
    names = {row[0] for row in rep.rows}
    assert {"fiber1", "fiber2", "fiber3"} <= names
    assert rep.status == PASS


# ---------------------------------------------------------------------------
# independence matrices

def winding_rows(loops, functionals):
    return [[inv.winding(lp, f) for f in functionals] for lp in loops]


def test_generators_independent_over_fiber_charts():
    mat, rank = inv.independence_matrix(
        winding_rows([ALPHA, BETA, GAMMA], [inv.fiber_functional(i, 2) for i in range(3)]))
    assert mat == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rank == 3


def test_bracket_ratios_do_not_separate():
    # frozen by first computation: rank 0, the family is constant on the space
    mat, rank = inv.independence_matrix(
        winding_rows([ALPHA, BETA, SIGMA], list(inv.W_FUNCTIONALS.values())))
    assert mat == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert rank == 0


def test_constant_loop_rank_zero():
    base = Atom("D0")
    _, rank = inv.independence_matrix(winding_rows([base], [inv.fiber_functional(0, 2)]))
    assert rank == 0


def test_independence_matrix_rejects_indeterminate_entries():
    rows = winding_rows([ALPHA], [inv.fiber_functional(0, 2)])
    rows[0][0].indeterminate = True
    with pytest.raises(inv.WindingError, match="fiber1"):
        inv.independence_matrix(rows)


# ---------------------------------------------------------------------------
# the verdict rule shared by every winding comparison

def result(winding, indeterminate=False, fid="f"):
    return inv.WindingResult(fid, winding, 1.0 if indeterminate else 0.0, 1.0, 513, 0,
                             indeterminate)


def test_agreement_rule():
    assert inv.agreement([(result(1), 1), (result(-2), result(-2))]) == PASS
    assert inv.agreement([(result(1), 2)]) == FAIL
    assert inv.agreement([(result(0, True), 0)]) == INCONCLUSIVE
    assert inv.agreement([(result(1), result(1, True))]) == INCONCLUSIVE
    # a determinate mismatch wins over an indeterminate pair
    assert inv.agreement([(result(0, True), 0), (result(1), 2)]) == FAIL
    assert inv.agreement([]) == PASS


@pytest.fixture
def indeterminate_windings(monkeypatch):
    """Every winding comes back indeterminate (refinement cap exhausted)."""
    def fake(loop, functional, n=512, tol=None):
        return result(0, True, functional.id)

    monkeypatch.setattr(inv, "winding", fake)


def test_indeterminate_relation_is_inconclusive(indeterminate_windings):
    rep = inv.check_linear_relation(Concat(ALPHA, BETA), Concat(BETA, ALPHA))
    assert rep.status == INCONCLUSIVE and len(rep.rows) == 6


def test_indeterminate_disk_boundary_is_inconclusive(indeterminate_windings):
    reps = inv.disk_winding_nullity("Lambda_tilde", lambda_tilde_disk(),
                                    list(inv.W_FUNCTIONALS.values()))
    assert [r.status for r in reps] == [INCONCLUSIVE] * 3


# ---------------------------------------------------------------------------
# disk nullity

def test_null_homotopy_disk_kills_windings():
    reps = inv.disk_winding_nullity("Lambda_tilde", lambda_tilde_disk(),
                                    list(inv.W_FUNCTIONALS.values()))
    assert [rep.functional_id for rep in reps] == list(inv.W_FUNCTIONALS)
    for rep in reps:
        assert rep.status == "pass" and rep.boundary_winding == 0


def test_punctured_disk_is_inconclusive():
    # chart difference of the first line equals 1/(zbar + r) on this disk,
    # which passes through 1 on the real radius: subtracting 1 plants a zero
    # inside the disk and the nullity test must refuse to conclude.
    f0 = inv.fiber_functional(0, 2)
    punctured = inv.ScalarFunctional("punctured", lambda arr: f0.fn(arr) - 1.0, 2)
    ok, bad = inv.disk_winding_nullity("Lambda_tilde", lambda_tilde_disk(),
                                       [inv.W_FUNCTIONALS["w1"], punctured])
    assert ok.status == "pass" and bad.status == "inconclusive"
    assert bad.functional_id == "punctured" and bad.boundary_winding is None


def test_disk_nullity_refuses_an_item_that_is_no_disk():
    with pytest.raises(inv.WindingError, match="sigma is not a disk item"):
        inv.disk_winding_nullity("sigma", Atom("sigma").sample(512)[1],
                                 list(inv.W_FUNCTIONALS.values()))


def test_nonvanishing_moduli_along_catalog_loops():
    for name in ("alpha", "beta", "gamma", "sigma", "sigma_tilde_Lambda", "Phi_tilde_S1"):
        for f in inv.W_FUNCTIONALS.values():
            res = inv.winding(Atom(name), f)
            assert res.min_modulus > 1e-6


# ---------------------------------------------------------------------------
# Smith normal form certificates

def det_int(m):
    """Integer determinant by Laplace expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * v * det_int([row[:j] + row[j + 1:] for row in m[1:]])
               for j, v in enumerate(m[0]) if v)


def test_snf_single_rows():
    assert inv.snf_invariants([[2, 2, 1]], 3) == [1]
    assert inv.abelian_quotient([[2, 2, 1]], 3) == (2, [])
    assert inv.snf_invariants([[1, 1, 1]], 3) == [1]
    assert inv.abelian_quotient([[1, 1, 1]], 3) == (2, [])
    assert inv.abelian_quotient([[3, 3, 3]], 3) == (2, [3])


def test_snf_solid_lattices():
    assert inv.abelian_quotient([[0, -1, 1], [-1, 0, 1]], 3) == (1, [])
    rows = [[0, -1, 1], [-1, 0, 1], [1, 1, 2]]
    assert inv.snf_invariants(rows, 3) == [1, 1, 4]
    assert inv.abelian_quotient(rows, 3) == (0, [4])
    # oracle: |det| equals the product of the invariant factors
    assert abs(det_int(rows)) == 4
    hyper = [[0, -1, 1], [-1, 0, 1], [0, -1, 0]]
    assert inv.abelian_quotient(hyper, 3) == (0, [])
    assert abs(det_int(hyper)) == 1


def test_snf_divisibility_property():
    r = np.random.default_rng(0)
    for _ in range(25):
        rows = r.integers(-6, 7, size=(3, 3)).tolist()
        invs = inv.snf_invariants(rows, 3)
        for a, b in zip(invs, invs[1:]):
            assert b % a == 0
        d = abs(det_int(rows))
        prod = 1
        for v in invs:
            prod *= v
        if len(invs) == 3:
            assert prod == d
        else:
            assert d == 0


def test_quotient_rendering():
    assert inv.quotient_str(2, []) == "Z + Z"
    assert inv.quotient_str(0, [4]) == "Z/4"
    assert inv.quotient_str(0, []) == "0"


def test_empty_lattice():
    assert inv.snf_invariants([], 3) == []
    assert inv.abelian_quotient([], 3) == (3, [])


@pytest.mark.parametrize("rows", [[[1, 2, 3], [1, 2]], [[1, 2]], [[1, 2, 3, 4]], [[1, 2, 3], []]])
def test_snf_rejects_rows_of_the_wrong_length(rows):
    with pytest.raises(ValueError, match="row length does not match the ambient rank"):
        inv.snf_invariants(rows, 3)


@pytest.mark.parametrize("rows", [[[2.5, 0, 0]], [[2.0, 4, 0]], [[1, 0, 0], [0, "1", 0]]])
def test_snf_rejects_entries_that_are_not_integers(rows):
    # an integral float is refused too: int() would truncate a non-integral one
    with pytest.raises(ValueError, match="lattice entries must be integers"):
        inv.snf_invariants(rows, 3)


def test_snf_accepts_numpy_integers():
    assert inv.snf_invariants([[np.int64(2), np.int32(4), 0]], 3) == [2]


def test_snf_fix_up_when_the_corner_does_not_divide_the_rest():
    # diagonal but not normal: the corner 2 does not divide 3
    assert inv.snf_invariants([[2, 0], [0, 3]], 2) == [1, 6]
    assert inv.snf_invariants([[2, 0, 0], [0, 3, 0], [0, 0, 5]], 3) == [1, 1, 30]
    assert inv.abelian_quotient([[2, 0, 0], [0, 3, 0]], 3) == (1, [6])


def test_snf_negative_pivots_give_positive_factors():
    assert inv.snf_invariants([[-2, 0], [0, -4]], 2) == [2, 4]
    assert inv.snf_invariants([[-3, -3, -3]], 3) == [3]
    assert inv.snf_invariants([[-4, 6]], 2) == [2]


def test_zero_matrix_has_no_factors_and_rank_zero():
    assert inv.snf_invariants([[0, 0, 0], [0, 0, 0]], 3) == []
    assert inv.abelian_quotient([[0, 0, 0]], 3) == (3, [])
    mat, rank = inv.independence_matrix([[result(0)] * 3] * 3)
    assert mat == [[0, 0, 0]] * 3 and rank == 0


def test_snf_of_non_square_matrices():
    # 2x3: d1 = 2, d2 = gcd(36, 48, 24) = 12;  3x2: d1 = 1, d2 = gcd(-2, -4, -2) = 2
    assert inv.snf_invariants([[2, 4, 4], [-6, 6, 12]], 3) == [2, 6]
    assert inv.snf_invariants([[1, 2], [3, 4], [5, 6]], 2) == [1, 2]
    assert inv.independence_matrix([[result(v) for v in row]
                                    for row in ([1, 2], [3, 4], [5, 6])])[1] == 2


def determinantal_factors(a):
    """d_k / d_(k-1) for k = 1, 2, ... while d_k != 0, where d_k is the gcd of
    all k x k minors and d_0 = 1 (Newman, Integral Matrices, ch. II)."""
    out, prev = [], 1
    for k in range(1, min(len(a), len(a[0])) + 1):
        d = math.gcd(*(det_int([[a[i][j] for j in cols] for i in rows])
                       for rows in itertools.combinations(range(len(a)), k)
                       for cols in itertools.combinations(range(len(a[0])), k)))
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


def fraction_rank(a):
    """Rank by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in a]
    rank = 0
    for c in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][c] / m[rank][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


@st.composite
def int_matrices(draw):
    """Integer matrices up to 4x5, entries in [-6, 6], with some rows and
    columns zeroed and, at times, a last row dependent on the first two."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    a = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    for i in draw(st.sets(st.integers(0, m - 1))):
        a[i] = [0] * n
    for j in draw(st.sets(st.integers(0, n - 1))):
        for row in a:
            row[j] = 0
    if m > 2 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        a[-1] = [x + k * y for x, y in zip(a[0], a[1])]
    return a


@given(int_matrices())
@settings(max_examples=400, deadline=None)
def test_snf_matches_determinantal_divisors_and_exact_rank(a):
    before = [row[:] for row in a]
    factors = inv.snf_invariants(a, len(a[0]))
    assert a == before
    assert factors == determinantal_factors(a)
    assert all(f > 0 for f in factors)
    assert all(b % f == 0 for f, b in zip(factors, factors[1:]))
    _, rank = inv.independence_matrix([[result(v) for v in row] for row in a])
    assert rank == len(factors) == fraction_rank(a)
