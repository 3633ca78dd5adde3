"""Planted-defect checks: every oracle must reject a deliberately wrong
output and accept the right one.

    python3 perfbench/selfcheck.py

``run.py`` runs these before every measurement and stops if one fails.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import oracles
from workloads import MembershipQuery, WindingQuery


def _first_float(doc, path=()):
    """Path to the first float of magnitude at least 0.1 in a JSON document
    (below 1 the golden rule's tolerance is absolute, 1e-12, so a 1e-10
    relative change of a smaller value could hide inside it)."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        if isinstance(v, float) and abs(v) >= 0.1:
            return path + (k,)
        if isinstance(v, (dict, list)):
            found = _first_float(v, path + (k,))
            if found:
                return found
    return None


def _golden_case(golden):
    text = json.dumps(golden)
    planted = copy.deepcopy(golden)
    where = _first_float(planted["claims"])
    node = planted["claims"]
    for k in where[:-1]:
        node = node[k]
    node[where[-1]] *= 1.0 + 1e-10
    return (oracles.check_report(text, 0, golden, 0),
            oracles.check_report(json.dumps(planted), 0, golden, 0))


def _winding_case():
    q = WindingQuery("alpha*beta^-1", ("fiber", "w1"), (1, -1, 0))

    def out(vec):
        return json.dumps({"windings": {"fiber": {"vector": vec}, "w1": {"winding": 0}}})

    return oracles.check_winding(out([1, -1, 0]), 0, q), oracles.check_winding(out([1, 0, 0]), 0, q)


def _membership_case():
    q = MembershipQuery("config.json", "D_planar/CP2", "valid", True)
    return (oracles.check_membership(json.dumps({"verdict": True}), 0, q),
            oracles.check_membership(json.dumps({"verdict": False}), 0, q))


def _identical_case():
    text = '{"a": 1}\n'
    return oracles.check_identical(text, text), oracles.check_identical(text, text.replace("1", "2"))


def run(root):
    """Return a list of (name, right-output verdict, planted-defect verdict)
    rows; raise AssertionError if an oracle accepts a defect or rejects the
    right output."""
    with open(os.path.join(root, "golden", "golden_report.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    rows = [
        ("golden compare, one float perturbed by 1e-10 relative", *_golden_case(golden)),
        ("exponent-sum oracle, fiber vector off by one", *_winding_case()),
        ("membership oracle, flipped verdict", *_membership_case()),
        ("serial-versus-parallel check, one byte changed", *_identical_case()),
    ]
    for name, clean, planted in rows:
        if clean is not None:
            raise AssertionError(f"{name}: rejected the right output: {clean}")
        if planted is None:
            raise AssertionError(f"{name}: accepted the planted defect")
    return rows


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    for name, _clean, planted in run(os.path.dirname(here)):
        print(f"PASS {name}: rejected ({planted})")
    sys.exit(0)
