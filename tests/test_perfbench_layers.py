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
