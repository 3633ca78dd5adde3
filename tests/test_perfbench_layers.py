"""The benchmark tracer (perfbench/tracing.py) wraps dcs functions by module
and attribute name.  Every name it lists must still resolve, so that a
rename inside dcs cannot silently break a traced benchmark run.  The tracer
file is parsed, not imported or executed."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

from dcs import atlas, invariants, strata
from dcs.paths import SWEEP_BLOCK, sweep_item
from dcs.projective import HPoint

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) in ("LAYERS", "POOL_LAYERS") for t in node.targets):
            for row in node.value.elts:
                yield row.elts[0].value, row.elts[1].value


def test_every_traced_layer_resolves():
    names = list(_traced_names())
    assert len(names) > 20
    missing = []
    for module, attr in names:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert not missing, missing


def _params(fn):
    return list(inspect.signature(fn).parameters)


def test_hooked_arguments_stay_in_place():
    """The tracer's count hooks read these arguments by position."""
    assert _params(atlas.AtlasItem.eval)[:4] == ["self", "theta", "t", "rho"]
    assert _params(invariants.winding)[:3] == ["loop", "functional", "n"]
    assert _params(strata.validate_batch)[0] == "points"
    assert _params(strata.validate_lines_batch)[0] == "arr"
    fields = {f.name for f in dataclasses.fields(invariants.WindingResult)}
    assert {"samples", "refinements"} <= fields


def test_validators_are_looked_up_at_call_time(monkeypatch):
    """The tracer replaces ``dcs.strata.validate_batch`` and
    ``validate_lines_batch`` by wrappers.  Patching only those two module
    attributes must be enough to see every sweep block and every single
    validation, so no caller may hold a validator bound at import."""
    calls = []

    def counting(name):
        original = getattr(strata, name)

        def wrapper(values, *args, **kwargs):
            calls.append((name, len(values)))
            return original(values, *args, **kwargs)

        monkeypatch.setattr(strata, name, wrapper)

    counting("validate_batch")
    counting("validate_lines_batch")
    assert sweep_item("sigma", 64).n_nodes == 64
    assert sweep_item("Lambda", (129, 64)).n_nodes == 129 * 64
    base = [HPoint(p) for p in atlas.basepoint(atlas.TAG_PLANAR_FIXED_2)]
    assert strata.validate(base, atlas.TAG_PLANAR_FIXED_2).verdict
    assert strata.validate(base, atlas.TAG_LINES_I0).verdict
    assert calls == [
        ("validate_batch", 64),
        ("validate_lines_batch", SWEEP_BLOCK),
        ("validate_lines_batch", 129 * 64 - SWEEP_BLOCK),
        ("validate_batch", 1),
        ("validate_lines_batch", 1),
    ]
