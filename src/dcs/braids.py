"""Exact verification of pure-braid presentations through the Artin action
on a free group.

A free word is a reduced tuple of (generator index, +-1) pairs.  The braid
generator s_i acts by x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i and fixes
the other generators; the pure generators a_ij expand as
(s_{j-1} ... s_{i+1}) s_i^2 (s_{i+1}^-1 ... s_{j-1}^-1).  Relations are
decided exactly: both sides must act identically on every free generator
after free reduction, which compares the images of the generators, each
braid's computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

DEFAULT_MAX_STRANDS = 8


class BraidError(ValueError):
    pass


# ---------------------------------------------------------------------------
# free words

def free_reduce(letters):
    """Cancel adjacent inverse pairs; the reduced word is canonical."""
    out = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def invert_word(w):
    """Inverse of a free word or of a braid word (both are letter tuples)."""
    return tuple((g, -e) for g, e in reversed(w))


def generator(i):
    return ((i, 1),)


# ---------------------------------------------------------------------------
# Artin action

def _join(u, v):
    """The reduced product of reduced words u and v: only the seam cancels."""
    k, top = 0, min(len(u), len(v))
    while k < top and u[-1 - k][0] == v[k][0] and u[-1 - k][1] == -v[k][1]:
        k += 1
    return u[:len(u) - k] + v[k:]


def _substitute(img, w):
    """The free word w with each letter x_g^e replaced by the e-th power of
    img[g-1], the image of x_g (x_g itself beyond img), reduced at each
    seam."""
    out = ()
    for g, e in w:
        image = img[g - 1] if 1 <= g <= len(img) else generator(g)
        out = _join(out, image if e == 1 else invert_word(image))
    return out


def _images(braid, n):
    """The images of the free generators x_1 ... x_n under the automorphism
    of a braid word, as reduced words, after checking the word.

    The images are tracked left to right over the freely reduced word:
    appending s_i^e to a braid whose automorphism has images img makes the
    image of each generator the substitution of img into its image under
    s_i^e, so that of x_i becomes img[i] img[i+1] img[i]^-1 and that of
    x_{i+1} img[i] for s_i, and img[i+1] and img[i+1]^-1 img[i] img[i+1]
    for s_i^-1 (Birman, Braids, Links, and Mapping Class Groups, 1974,
    1.4)."""
    if n > DEFAULT_MAX_STRANDS:
        raise BraidError(f"strand count {n} above cap {DEFAULT_MAX_STRANDS}")
    for g, e in braid:
        if not 1 <= g <= n - 1:
            raise BraidError(f"braid index {g} out of range for {n} strands")
        if e not in (1, -1):
            raise BraidError("braid exponents must be +-1")
    img = [generator(g) for g in range(1, n + 1)]
    for g, e in free_reduce(braid):
        if e == 1:
            img[g - 1], img[g] = _substitute(img, ((g, 1), (g + 1, 1), (g, -1))), img[g - 1]
        else:
            img[g - 1], img[g] = img[g], _substitute(img, ((g + 1, -1), (g, 1), (g + 1, 1)))
    return tuple(img)


def artin_act(braid, w, n):
    """Apply a braid word (sequence of (index, +-1)) to a free word: the
    images of the free generators (``_images``) substituted into w, the
    generators above n fixed.

    Composition convention: the rightmost letter acts first, so
    act(b1 b2, w) = act(b1, act(b2, w)).
    """
    return _substitute(_images(braid, n), w)


def alpha_word(i, j):
    """a_ij as a braid word: (s_{j-1} ... s_{i+1}) s_i^2 (s_{i+1}^-1 ... s_{j-1}^-1)."""
    if not 1 <= i < j:
        raise BraidError("need 1 <= i < j")
    prefix = [(k, 1) for k in range(j - 1, i, -1)]
    suffix = [(k, -1) for k in range(i + 1, j)]
    return tuple(prefix + [(i, 1), (i, 1)] + suffix)


def braid_mul(*braids):
    out = []
    for b in braids:
        out.extend(b)
    return tuple(out)


def acts_equally(b1, b2, n) -> bool:
    """Exact equality of the induced free-group automorphisms: the same
    images of every free generator."""
    return _images(b1, n) == _images(b2, n)


def acts_trivially(b, n) -> bool:
    return _images(b, n) == _images((), n)


# ---------------------------------------------------------------------------
# relation families

@dataclass
class RelationFamilyReport:
    family: str
    n: int
    tuples_checked: int
    identities_checked: int
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "tuples": self.tuples_checked,
            "identities": self.identities_checked,
            "failures": [str(f) for f in self.failures],
            "ok": self.ok,
        }


def verify_yb3(n: int) -> RelationFamilyReport:
    """a_ij a_ik a_jk = a_ik a_jk a_ij = a_jk a_ij a_ik for all i < j < k."""
    if n < 3:
        raise BraidError("the triple relations need at least 3 strands")
    failures = []
    count = 0
    idents = 0
    for i, j, k in combinations(range(1, n + 1), 3):
        count += 1
        aij, aik, ajk = alpha_word(i, j), alpha_word(i, k), alpha_word(j, k)
        w1 = braid_mul(aij, aik, ajk)
        w2 = braid_mul(aik, ajk, aij)
        w3 = braid_mul(ajk, aij, aik)
        for lhs, rhs, name in ((w1, w2, "first=second"), (w2, w3, "second=third")):
            idents += 1
            if not acts_equally(lhs, rhs, n):
                failures.append((i, j, k, name))
    return RelationFamilyReport("YB3", n, count, idents, failures)


def _commutator(a, b):
    return braid_mul(a, b, invert_word(a), invert_word(b))


def verify_yb4(n: int) -> RelationFamilyReport:
    """[a_kl, a_ij] = [a_jl, a_jk^-1 a_ik a_jk] = [a_il, a_jk]
    = [a_jl, a_kl a_ik a_kl^-1] = 1 for all i < j < k < l.

    For n < 4 there are no index tuples and the family holds vacuously.
    """
    if n < 2:
        raise BraidError("need at least 2 strands")
    failures = []
    count = 0
    idents = 0
    for i, j, k, l in combinations(range(1, n + 1), 4):
        count += 1
        aij, aik, ajk = alpha_word(i, j), alpha_word(i, k), alpha_word(j, k)
        ail, ajl, akl = alpha_word(i, l), alpha_word(j, l), alpha_word(k, l)
        conj1 = braid_mul(invert_word(ajk), aik, ajk)
        conj2 = braid_mul(akl, aik, invert_word(akl))
        checks = (
            ("[a_kl, a_ij]", _commutator(akl, aij)),
            ("[a_jl, a_jk^-1 a_ik a_jk]", _commutator(ajl, conj1)),
            ("[a_il, a_jk]", _commutator(ail, ajk)),
            ("[a_jl, a_kl a_ik a_kl^-1]", _commutator(ajl, conj2)),
        )
        for name, wb in checks:
            idents += 1
            if not acts_trivially(wb, n):
                failures.append((i, j, k, l, name))
    return RelationFamilyReport("YB4", n, count, idents, failures)
