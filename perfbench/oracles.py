"""Independent output checks for the benchmark workloads.

Each oracle returns ``None`` when the output is right and a one-line reason
when it is wrong.  None of them calls into dcs: they read the program's
printed output and compare it with the committed golden report or with
what the benchmark constructed.
"""

from __future__ import annotations

import json
import math

# Report keys the run seed feeds; everything else is seed-independent.
SEEDED_KEYS = (("config", "seed"), ("claims", "C1"), ("claims", "C2"), ("claims", "C15"))


def golden_mismatch(fresh, frozen, path=""):
    """First difference under the test suite's golden rule: same keys and
    lengths, ints, strings, bools and nulls exactly, floats within 1e-12
    relative (absolute below 1)."""
    if isinstance(frozen, dict):
        if not isinstance(fresh, dict) or fresh.keys() != frozen.keys():
            return f"{path or '/'}: keys differ"
        for k in frozen:
            bad = golden_mismatch(fresh[k], frozen[k], f"{path}.{k}")
            if bad:
                return bad
        return None
    if isinstance(frozen, list):
        if not isinstance(fresh, list) or len(fresh) != len(frozen):
            return f"{path}: list length differs"
        for i, (a, b) in enumerate(zip(fresh, frozen)):
            bad = golden_mismatch(a, b, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(frozen, (bool, str)) or frozen is None:
        return None if fresh == frozen and type(fresh) is type(frozen) else f"{path}: {fresh!r} != {frozen!r}"
    if isinstance(frozen, int):
        ok = isinstance(fresh, int) and not isinstance(fresh, bool) and fresh == frozen
        return None if ok else f"{path}: {fresh!r} != {frozen!r}"
    if not isinstance(fresh, (int, float)) or isinstance(fresh, bool):
        return f"{path}: {fresh!r} is not a number"
    if not math.isfinite(fresh) or abs(fresh - frozen) > 1e-12 * max(1.0, abs(fresh), abs(frozen)):
        return f"{path}: {fresh!r} != {frozen!r}"
    return None


def _drop_seeded(doc):
    doc = json.loads(json.dumps(doc))
    for section, key in SEEDED_KEYS:
        doc.get(section, {}).pop(key, None)
    return doc


def check_report(text, exit_code, golden, seed):
    """verify_all: the printed report against the golden file.  At seed 0
    the whole report must match; at other seeds every section the seed does
    not feed must match, the seed must be echoed, and every verdict must be
    pass."""
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    try:
        doc = json.loads(text)
    except ValueError as e:
        return f"report is not JSON: {e}"
    if seed == 0:
        return golden_mismatch(doc, golden)
    bad = golden_mismatch(_drop_seeded(doc), _drop_seeded(golden))
    if bad:
        return bad
    if doc.get("config", {}).get("seed") != seed:
        return f"config.seed is {doc.get('config', {}).get('seed')!r}, expected {seed}"
    for cid, claim in doc["claims"].items():
        if claim.get("verdict") != "pass":
            return f"claim {cid} verdict {claim.get('verdict')!r}"
    return None


def check_identical(serial_text, parallel_text):
    """The serial and parallel reports must be byte-identical."""
    if serial_text == parallel_text:
        return None
    a, b = serial_text.encode("utf-8"), parallel_text.encode("utf-8")
    i = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"serial and parallel reports differ at byte {i}"


def check_winding(text, exit_code, query):
    """winding_queries: fiber vector equals the exponent sums of alpha,
    beta and gamma; w1-w3 wind zero times; exit code 0."""
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    try:
        rows = json.loads(text)["windings"]
    except (ValueError, KeyError) as e:
        return f"bad winding output: {e}"
    for name in query.functionals:
        if name not in rows:
            return f"{name} missing from the output"
    if "fiber" in query.functionals:
        got = rows["fiber"].get("vector")
        if got != list(query.expected_fiber):
            return f"fiber vector {got} != exponent sums {list(query.expected_fiber)}"
    for name in query.functionals:
        if name != "fiber" and rows[name].get("winding") != 0:
            return f"{name} winding {rows[name].get('winding')} != 0"
    return None


def check_membership(text, exit_code, query):
    """membership_queries: the verdict and exit code match the construction."""
    want_exit = 0 if query.valid else 1
    if exit_code != want_exit:
        return f"exit code {exit_code}, expected {want_exit} ({query.kind})"
    try:
        verdict = json.loads(text)["verdict"]
    except (ValueError, KeyError) as e:
        return f"bad membership output: {e}"
    if verdict is not query.valid:
        return f"verdict {verdict!r}, constructed {query.kind}"
    return None
