"""Seeded inputs and ops of the benchmark workloads.

Every op is one in-process call of ``dcs.cli.main`` with captured output,
checked afterwards by an oracle from ``oracles``.  The inputs depend only on
the seed: the program receives the generated argument lists and files and
nothing else.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import partial

import numpy as np

import oracles

NPROC = os.cpu_count() or 1

# ---------------------------------------------------------------------------
# ops


@dataclass
class Op:
    argv: list
    check: object            # callable(text, exit_code) -> reason or None
    label: str = ""


@dataclass
class Workload:
    name: str
    passes: object           # callable(k) -> (serial ops, parallel ops) of pass k
    par_clients: int         # client threads of a parallel pass
    warmup: Op               # also the op the set-up probe times
    pass_check: object = None   # callable(serial_texts, parallel_texts)


# ---------------------------------------------------------------------------
# verify_all


def verify_all(seed, root, work_dir):
    with open(os.path.join(root, "golden", "golden_report.json"), encoding="utf-8") as fh:
        golden = json.load(fh)

    def op(threads):
        return Op(["verify", "--all", "--seed", str(seed), "--threads", str(threads),
                   "--format", "json"],
                  partial(oracles.check_report, golden=golden, seed=seed),
                  f"verify --all threads={threads}")

    def pass_check(serial_texts, parallel_texts):
        return oracles.check_identical(serial_texts[0], parallel_texts[0])

    warm = Op(["verify", "--claim", "C4", "--threads", "1", "--format", "json"],
              lambda text, code: None if code == 0 else f"exit code {code}", "verify C4")
    ops = ([op(1)], [op(NPROC)])
    return Workload("verify_all", lambda k: ops, 1, warm, pass_check)


# ---------------------------------------------------------------------------
# winding_queries

FIBER_ATOMS = ("alpha", "beta", "gamma")
MOVING_ATOMS = ("sigma", "sigma_tilde_Lambda", "Phi_tilde_S1")
# Nesting deeper than this puts an atom's angular window below one sample
# spacing at the default 512 samples; see README.md, "Known defect".
MAX_DEPTH = 8


@dataclass
class WindingQuery:
    expr: str
    functionals: tuple
    expected_fiber: tuple


def _atoms(rng, n, names):
    return [(rng.choice(names), rng.random() < 0.3) for _ in range(n)]


def _exponents(atoms):
    vec = [0, 0, 0]
    for name, inverted in atoms:
        if name in FIBER_ATOMS:
            vec[FIBER_ATOMS.index(name)] += -1 if inverted else 1
    return vec


def _plain(atoms):
    """a*b*c as typed; the parser left-nests it, so its depth is n - 1."""
    return "*".join(name + ("^-1" if inv else "") for name, inv in atoms)


def _tree(rng, atoms):
    """Random full parenthesisation; returns (text, nesting depth)."""
    if len(atoms) == 1:
        name, inv = atoms[0]
        return name + ("^-1" if inv else ""), 0
    k = rng.randint(1, len(atoms) - 1)
    left, dl = _tree(rng, atoms[:k])
    right, dr = _tree(rng, atoms[k:])
    return f"({left}*{right})", 1 + max(dl, dr)


def _paren(rng, atoms):
    while True:
        text, depth = _tree(rng, atoms)
        if depth <= MAX_DEPTH:
            return text


def winding_inputs(seed, k=0, count=120, deep=False):
    """Seeded winding queries.  Four in five use alpha, beta and gamma and
    ask ``fiber w1 w2 w3``, alternating plain words of 1-9 atoms and
    parenthesised words of 1-12 atoms; one in five mixes in the moving loops
    and asks ``w1 w2 w3``.  Word lengths cycle through their range so that
    every seed gives the same length mix; the seed picks the atoms, the
    inversions and the parenthesisation.  ``deep`` gives plain words of
    10-12 atoms instead, the known-defect reproducer.  Pass ``k`` of a run
    gets its own words."""
    rng = random.Random(f"{seed}:{k}")
    out = []
    for i in range(count):
        fns = ("fiber", "w1", "w2", "w3")
        if deep:
            atoms = _atoms(rng, 10 + i % 3, FIBER_ATOMS)
            text = _plain(atoms)
        elif i % 5 == 4:
            atoms = _atoms(rng, 1 + (i // 5) % 9, FIBER_ATOMS + MOVING_ATOMS)
            if all(name in FIBER_ATOMS for name, _ in atoms):
                atoms[rng.randrange(len(atoms))] = (rng.choice(MOVING_ATOMS), False)
            text = _plain(atoms) if i % 10 == 4 else _paren(rng, atoms)
            fns = ("w1", "w2", "w3")
        elif i % 2 == 0:
            atoms = _atoms(rng, 1 + (i // 2) % (MAX_DEPTH + 1), FIBER_ATOMS)
            text = _plain(atoms)
        else:
            atoms = _atoms(rng, 1 + (i // 2) % 12, FIBER_ATOMS)
            text = _paren(rng, atoms)
        out.append(WindingQuery(text, fns, tuple(_exponents(atoms))))
    return out


def winding_queries(seed, root, work_dir, deep=False):
    def passes(k):
        ops = [Op(["winding", q.expr, *q.functionals],
                  partial(oracles.check_winding, query=q), q.expr)
               for q in winding_inputs(seed, k, deep=deep)]
        return ops, ops

    warm = Op(["winding", "alpha*beta", "fiber", "w1"],
              lambda text, code: None if code == 0 else f"exit code {code}", "alpha*beta")
    name = "winding_deep" if deep else "winding_queries"
    return Workload(name, passes, NPROC, warm)


# ---------------------------------------------------------------------------
# membership_queries

# (kind, n, center or None): the six tags the atlas uses.
TAGS = (
    ("D_planar_fixed", 2, (0, 0, 1)),
    ("D_planar", 2, None),
    ("D_planar_fixed", 3, (0, 0, 1, 0)),
    ("D_solid", 3, None),
    ("D_solid_fixed", 3, (0, 0, 1, 0)),
    ("D_solid_fixed", 4, (0, 0, 1, 0, 0)),
)


@dataclass
class MembershipQuery:
    path: str
    tag: str
    kind: str          # valid | off-line | coincident | planar-under-solid
    valid: bool


def _cplx(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _rel_sv(rows, k):
    s = np.linalg.svd(rows / np.linalg.norm(rows, axis=-1, keepdims=True), compute_uv=False)
    return s[k] / s[0]


def _chordal(u, v):
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return np.linalg.norm(u - np.vdot(v, u) * v)


def _well_conditioned(pts, center, span):
    """The construction's own margins, far from the program's 1e-8 to 1e-9
    thresholds, so that the constructed verdict is unambiguous."""
    for i in range(6):
        if _chordal(pts[i], center) < 0.05:
            return False
        for j in range(i + 1, 6):
            if _chordal(pts[i], pts[j]) < 0.05:
                return False
    for a, b in ((0, 1), (0, 2), (1, 2)):
        if _rel_sv(pts[[2 * a, 2 * a + 1, 2 * b, 2 * b + 1]], 2) < 1e-3:
            return False
    return _rel_sv(pts, span) > 1e-3


def _construct(rng, n, center, span):
    """A center, three lines through it spanning a projective ``span``-space,
    and two points on each line, each with a random representative scale."""
    while True:
        c = np.asarray(center, dtype=complex) if center is not None else _cplx(rng, n + 1)
        basis = _cplx(rng, 3, n + 1)
        if span == 2:
            dirs = (basis[0], basis[1], basis[0] + (0.5 + rng.random()) * basis[1])
        else:
            dirs = basis
        pts = []
        for d in dirs:
            a, b = _cplx(rng, 2)
            pts += [c + a * d, c + b * d]
        pts = np.array(pts)
        if _well_conditioned(pts, c, span):
            scale = np.exp(rng.normal(size=6) * 0.5 + 1j * rng.uniform(0, 2 * np.pi, size=6))
            return pts * scale[:, None], c


def membership_inputs(seed, k=0, count=60):
    """Seeded (tag, kind, points, center) tuples for pass ``k``; the tags
    cycle and every third round of tags is invalid by construction."""
    rng = np.random.default_rng([seed, k])
    out = []
    for i in range(count):
        kind, n, center = TAGS[i % len(TAGS)]
        span = 2 if kind.startswith("D_planar") else 3
        invalid = (i // len(TAGS)) % 3 == 2
        how = "valid"
        if invalid:
            choices = ["off-line", "coincident"] + (["planar-under-solid"] if span == 3 else [])
            how = choices[int(rng.integers(len(choices)))]
        pts, c = _construct(rng, n, center, 2 if how == "planar-under-solid" else span)
        if how == "off-line":
            # move B3 off its line, by an amount far above every threshold
            q = np.linalg.qr(pts[4:6].T)[0]
            off = _cplx(rng, n + 1)
            off -= q @ (q.conj().T @ off)
            pts[5] = pts[5] + 0.5 * np.linalg.norm(pts[5]) * off / np.linalg.norm(off)
        elif how == "coincident":
            pts[1] = pts[0] * np.exp(rng.normal() + 1j * rng.uniform(0, 2 * np.pi))
        out.append((kind, n, how, pts, c if center is not None else None))
    return out


def _pairs(vec):
    return [[float(z.real), float(z.imag)] for z in vec]


def membership_queries(seed, root, work_dir):
    def passes(k):
        pass_dir = os.path.join(work_dir, f"pass-{k}")
        os.makedirs(pass_dir, exist_ok=True)
        ops = []
        for i, (kind, n, how, pts, center) in enumerate(membership_inputs(seed, k)):
            doc = {"points": [_pairs(p) for p in pts], "tag": {"kind": kind, "n": n}}
            if center is not None:
                doc["tag"]["center"] = _pairs(np.asarray(center, dtype=complex))
            path = os.path.join(pass_dir, f"config-{i:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            q = MembershipQuery(path, f"{kind}/CP{n}", how, how == "valid")
            ops.append(Op(["membership", q.path], partial(oracles.check_membership, query=q),
                          f"{q.tag} {q.kind}"))
        return ops, ops

    return Workload("membership_queries", passes, NPROC, passes(0)[0][0])


WORKLOADS = {
    "verify_all": verify_all,
    "winding_queries": winding_queries,
    "membership_queries": membership_queries,
    "winding_deep": partial(winding_queries, deep=True),
}
