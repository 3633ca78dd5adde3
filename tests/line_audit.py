"""Line audit: the lines of ``src/dcs`` that no entry point reaches.

Calls ``dcs.cli.main`` in-process on the program's entry points:

- ``verify --all`` at ``--threads 1 --format json`` and at
  ``--threads 2 --format text``;
- ``verify`` of the claims C1 and C3 (``--claim "C[13]"``) with every run
  flag set: ``--samples``, ``--grid``, ``--cylinder-grid``, ``--tol``,
  ``--seed``, ``--threads``, ``--json`` and a ``--config`` file that sets
  both grids and a tolerance, so the flags' merges with the file run;
- ``atlas export``;
- the seed-0 words of the ``winding_queries`` benchmark workload and its
  seed-0 ``membership_queries`` files, from ``perfbench/workloads.py``,
  which is imported and only read;
- two membership files of the planar base point, under an ``Fk`` tag and
  under an ``Fk_stratum`` tag (n = 2, k = 6, i = 2).

Only frames of ``src/dcs`` are traced, with ``sys.settrace`` and
``threading.settrace`` (the verify pool's threads), from before ``dcs`` is
imported, so module-level lines count too.  The report lists, per module,
each run of lines that have bytecode and never ran, leaving out ``raise``
statements and ``except`` bodies: those are error paths, which valid input
does not take.  The script uses the standard library only, beside the
program and the workload module; pytest does not collect it.

Usage: python tests/line_audit.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dcs"
PREFIX = str(SRC) + os.sep

reached: set = set()     # (file name, line number)


def _trace_lines(frame, event, arg):
    if event == "line":
        reached.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    if frame.f_code.co_filename.startswith(PREFIX):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return _trace_lines
    return None


def _quiet_main(main, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def run_entry_points() -> list:
    """Every argument list run, with its exit code."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from dcs.cli import main

    runs = [["verify", "--all", "--threads", "1", "--format", "json"],
            ["verify", "--all", "--threads", "2", "--format", "text"],
            ["atlas", "export"]]
    with tempfile.TemporaryDirectory() as work:
        config = os.path.join(work, "run.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"disk_grid": [32, 16], "cylinder_grid": [64, 16],
                       "tolerances": {"rank_rel_tol": 1e-8}}, fh)
        runs.append(["verify", "--claim", "C[13]", "--samples", "256", "--grid", "32x16",
                     "--cylinder-grid", "64x16", "--tol", "1e-9", "--seed", "3", "--threads", "1",
                     "--json", os.path.join(work, "report.json"), "--config", config])
        for name in ("winding_queries", "membership_queries"):
            runs += [op.argv for op in workloads.WORKLOADS[name](0, str(ROOT), work).passes(0)[0]]
        base = [(-1, 1, 1), (-1, 1, 2), (-1, 2, 1), (-1, 2, 2), (0, 1, 1), (0, 1, 2)]
        for name, tag in (("fk", {"kind": "Fk", "n": 2, "k": 6}),
                          ("stratum", {"kind": "Fk_stratum", "n": 2, "k": 6, "i": 2})):
            path = os.path.join(work, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"points": [[[x, 0] for x in p] for p in base], "tag": tag}, fh)
            runs.append(["membership", path])
        return [(argv, _quiet_main(main, argv)) for argv in runs]


def _code_lines(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _error_lines(tree) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Raise, ast.ExceptHandler)):
            out.update(range(node.lineno, node.end_lineno + 1))
    return out


def _scopes(tree) -> list:
    """(first line, last line, qualified name) of every def and class."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                out.append((child.lineno, child.end_lineno, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def unreached(path: Path) -> list:
    """Runs of unreached lines of one module: (first, last, lines in the run,
    scope, source of the first)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = sorted(_code_lines(compile(source, str(path), "exec")) - _error_lines(tree))
    text = source.splitlines()
    scopes = _scopes(tree)
    runs, current = [], []
    for line in lines:
        if (str(path), line) in reached:
            if current:
                runs.append(current)
            current = []
        else:
            current.append(line)
    if current:
        runs.append(current)
    out = []
    for run in runs:
        inner = [s for s in scopes if s[0] <= run[0] <= s[1]]
        scope = max(inner, key=lambda s: s[0])[2] if inner else "<module>"
        out.append((run[0], run[-1], len(run), scope, text[run[0] - 1].strip()))
    return out


def main() -> int:
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    try:
        runs = run_entry_points()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    codes: dict = {}
    for _, code in runs:
        codes[code] = codes.get(code, 0) + 1
    print(f"{len(runs)} entry point calls, exit codes {dict(sorted(codes.items()))}")
    total = 0
    for path in sorted(SRC.glob("*.py")):
        found = unreached(path)
        total += sum(run[2] for run in found)
        print(f"{path.name}: {len(found)} unreached runs")
        for first, last, _, scope, line in found:
            span = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {span:>9}  {scope}: {line}")
    print(f"total: {total} unreached lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
