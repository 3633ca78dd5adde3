"""Artin action and the pure-braid relation families, decided exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcs.braids import (
    BraidError,
    acts_equally,
    acts_trivially,
    alpha_word,
    artin_act,
    braid_mul,
    free_reduce,
    generator,
    invert_word,
    verify_yb3,
    verify_yb4,
)


def random_free_word(r, n, length=12):
    return free_reduce([(int(r.integers(1, n + 1)), int(r.choice((-1, 1))))
                        for _ in range(length)])


def random_braid(r, n, length=8):
    return tuple((int(r.integers(1, n)), int(r.choice((-1, 1)))) for _ in range(length))


# ---------------------------------------------------------------------------
# free words

@given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from((-1, 1))), max_size=40))
@settings(max_examples=200, deadline=None)
def test_free_reduce_is_idempotent_and_reduced(letters):
    w = free_reduce(letters)
    assert free_reduce(w) == w
    for (g1, e1), (g2, e2) in zip(w, w[1:]):
        assert not (g1 == g2 and e1 == -e2)


@given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from((-1, 1))), max_size=20))
@settings(max_examples=200, deadline=None)
def test_word_times_inverse_cancels(letters):
    w = free_reduce(letters)
    assert free_reduce(braid_mul(w, invert_word(w))) == ()


# ---------------------------------------------------------------------------
# the Artin action

def test_sigma_action_definition():
    assert artin_act(((1, 1),), generator(1), 2) == free_reduce(((1, 1), (2, 1), (1, -1)))
    assert artin_act(((1, 1),), generator(2), 2) == generator(1)
    assert artin_act(((1, 1),), generator(3), 4) == generator(3)


def test_sigma_inverse_action():
    r = np.random.default_rng(2)
    for _ in range(100):
        n = int(r.integers(2, 7))
        w = random_free_word(r, n)
        b = random_braid(r, n, 1)
        assert artin_act(braid_mul(b, invert_word(b)), w, n) == w


def test_action_respects_composition():
    r = np.random.default_rng(3)
    for _ in range(1000):
        n = int(r.integers(2, 7))
        b1, b2 = random_braid(r, n, 5), random_braid(r, n, 5)
        w = random_free_word(r, n)
        assert artin_act(braid_mul(b1, b2), w, n) == artin_act(b1, artin_act(b2, w, n), n)


def _act_letter(i, sign, w):
    """s_i^sign applied to the free word w, one letter of w at a time: the
    definition, independent of the package's image tracking."""
    out = []
    for g, e in w:
        if sign == 1:
            image = {i: ((i, 1), (i + 1, 1), (i, -1)), i + 1: ((i, 1),)}.get(g, ((g, 1),))
        else:
            image = {i: ((i + 1, 1),), i + 1: ((i + 1, -1), (i, 1), (i + 1, 1))}.get(g, ((g, 1),))
        out.extend(image if e == 1 else invert_word(image))
    return free_reduce(out)


def reference_act(braid, w, n):
    """The Artin action letter by letter, the rightmost braid letter first."""
    w = free_reduce(w)
    for g, e in reversed(braid):
        w = _act_letter(g, e, w)
    return w


def letters(top, size):
    return st.lists(st.tuples(st.integers(1, top), st.sampled_from((-1, 1))), max_size=size).map(tuple)


@st.composite
def braids_and_word(draw):
    """A strand count n of 2 to 6, two braid words on n strands and a free
    word in x_1 ... x_{n+1}."""
    n = draw(st.integers(2, 6))
    return n, draw(letters(n - 1, 16)), draw(letters(n - 1, 16)), draw(letters(n + 1, 12))


@given(braids_and_word())
@settings(max_examples=300, deadline=None)
def test_images_match_the_letter_by_letter_action(case):
    """The braid's images of the free generators, tracked left to right,
    act on every free word (a generator above n included, which every braid
    fixes) as the letter-by-letter definition does, and ``acts_equally`` and
    ``acts_trivially`` compare what the definition gives on the generators."""
    n, braid, other, w = case
    assert artin_act(braid, w, n) == reference_act(braid, w, n)
    gens = [generator(g) for g in range(1, n + 1)]
    images = [reference_act(braid, x, n) for x in gens]
    assert acts_equally(braid, other, n) == (images == [reference_act(other, x, n) for x in gens])
    assert acts_trivially(braid, n) == (images == gens)
    assert acts_trivially(braid_mul(braid, invert_word(braid)), n)


def test_pure_generator_fixes_later_strands():
    assert artin_act(alpha_word(1, 2), generator(3), 3) == generator(3)
    for n in range(3, 7):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                for g in range(1, n + 1):
                    if g < i or g > j:
                        assert artin_act(alpha_word(i, j), generator(g), n) == generator(g)


def test_pure_generator_abelianized_action_is_identity():
    # linking behavior: every image abelianizes back to the same generator
    for n in range(2, 7):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                for g in range(1, n + 1):
                    img = artin_act(alpha_word(i, j), generator(g), n)
                    sums = [sum(e for h, e in img if h == k) for k in range(1, n + 1)]
                    assert sums == [int(k == g) for k in range(1, n + 1)]


def test_pure_generators_fix_the_full_product():
    for n in range(2, 7):
        prod = free_reduce(braid_mul(*[generator(g) for g in range(1, n + 1)]))
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                assert artin_act(alpha_word(i, j), prod, n) == prod


def test_index_guards():
    with pytest.raises(BraidError):
        artin_act(((5, 1),), generator(1), 3)
    with pytest.raises(BraidError):
        alpha_word(3, 2)
    with pytest.raises(BraidError):
        artin_act(((1, 1),), generator(1), 99)


# ---------------------------------------------------------------------------
# relation families

@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_yb3_exhaustive(n):
    rep = verify_yb3(n)
    assert rep.ok
    assert rep.tuples_checked == len(list(__import__("itertools").combinations(range(n), 3)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_yb4_exhaustive(n):
    rep = verify_yb4(n)
    assert rep.ok
    expected = 0 if n < 4 else len(list(__import__("itertools").combinations(range(n), 4)))
    assert rep.tuples_checked == expected


def test_yb3_smallest_case_counts():
    rep = verify_yb3(3)
    assert rep.tuples_checked == 1 and rep.identities_checked == 2


def test_corrupted_triple_relation_fails():
    # swap one index: a_12 a_13 a_23 vs a_13 a_23 a_13 acts differently
    lhs = braid_mul(alpha_word(1, 2), alpha_word(1, 3), alpha_word(2, 3))
    rhs = braid_mul(alpha_word(1, 3), alpha_word(2, 3), alpha_word(1, 3))
    assert not acts_equally(lhs, rhs, 3)


def test_corrupted_commutation_fails():
    # [a_13, a_23] is not trivial: i<j<k<l is essential in the fourth family
    from dcs.braids import _commutator

    assert not all(
        artin_act(_commutator(alpha_word(1, 3), alpha_word(2, 3)), generator(g), 3) == generator(g)
        for g in range(1, 4)
    )
