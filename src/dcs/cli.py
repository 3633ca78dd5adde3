"""Batch verification driver.

Commands:
  dcs verify [--all | --claim ID ...] [--samples N] [--grid AxB]
             [--cylinder-grid AxB] [--tol X] [--seed S] [--json PATH]
             [--format json|text] [--threads N] [--config FILE]
  dcs winding EXPR FUNCTIONAL... [--samples N]   (16 <= N <= 2^20)
  dcs membership FILE
  dcs atlas export

Exit codes: 0 all pass, 1 at least one failure, 2 no failure but at least
one inconclusive result, 64 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path


EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="dcs", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command")

    v = sub.add_parser("verify", help="run claim families and emit a report")
    v.add_argument("--all", action="store_true", help="run every claim family")
    v.add_argument("--claim", action="append", default=[], metavar="ID",
                   help="run a single claim family (repeatable)")
    v.add_argument("--samples", type=int, default=None, help="circle samples")
    v.add_argument("--grid", default=None, metavar="AxB", help="disk grid, e.g. 128x64")
    v.add_argument("--cylinder-grid", default=None, metavar="AxB")
    v.add_argument("--tol", type=float, default=None,
                   help="override the comparison tolerances")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--json", default=None, metavar="PATH", help="write the JSON report here")
    v.add_argument("--format", choices=("json", "text"), default="text")
    v.add_argument("--threads", type=int, default=None, help="worker pool size")
    v.add_argument("--config", default=None, metavar="FILE", help="JSON run configuration")

    w = sub.add_parser("winding", help="winding table of a loop expression")
    w.add_argument("expr", help="loop expression: atom | expr '*' expr | expr '^-1' | '(' expr ')'")
    w.add_argument("functionals", nargs="+", help="w1 w2 w3 fiber")
    w.add_argument("--samples", type=int, default=512,
                   help="closed circle grid intervals, 16 to 2^20")

    m = sub.add_parser("membership", help="validate a configuration file")
    m.add_argument("file", help="JSON file with points and an optional space tag")

    a = sub.add_parser("atlas", help="atlas registry commands")
    a.add_argument("action", choices=("export",))
    return p


def _parse_grid(text):
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except Exception:
        raise UsageError(f"bad grid {text!r}, expected AxB") from None


def _run_config(args):
    from dataclasses import fields

    from .projective import Tolerances
    from .verify import RunConfig

    base: dict = {}
    if args.config:
        try:
            base = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            raise UsageError(f"cannot read run configuration: {e}") from None
        if not isinstance(base, dict):
            raise UsageError("a run configuration file holds one JSON object")
    # the file names RunConfig fields, with "tolerances" in place of "tol"
    keys = {f.name for f in fields(RunConfig)} - {"tol"} | {"tolerances"}
    unknown = sorted(set(base) - keys)
    if unknown:
        raise UsageError(f"unknown run configuration key(s): {', '.join(unknown)}")
    kwargs = dict(base)
    for key in ("disk_grid", "cylinder_grid"):
        if key in base:
            if not isinstance(base[key], list):
                raise UsageError(f"{key} must be a list of two sizes, got {base[key]!r}")
            kwargs[key] = tuple(base[key])
    tol_kwargs = kwargs.pop("tolerances", {})
    if not isinstance(tol_kwargs, dict):
        raise UsageError(f"tolerances must be an object of named tolerances, got {tol_kwargs!r}")
    unknown = sorted(set(tol_kwargs) - {f.name for f in fields(Tolerances)})
    if unknown:
        raise UsageError(f"unknown tolerance key(s): {', '.join(unknown)}")

    if args.samples is not None:
        kwargs["circle_samples"] = args.samples
    if args.grid is not None:
        kwargs["disk_grid"] = _parse_grid(args.grid)
    if args.cylinder_grid is not None:
        kwargs["cylinder_grid"] = _parse_grid(args.cylinder_grid)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.threads is not None:
        kwargs["threads"] = args.threads
    try:
        if args.tol is not None:
            tol_kwargs["proj_eq_tol"] = args.tol
            kwargs["boundary_tol"] = args.tol
            kwargs["lift_tol"] = args.tol
            kwargs["junction_tol"] = args.tol
        if tol_kwargs:
            kwargs["tol"] = Tolerances(**tol_kwargs)
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as e:
        raise UsageError(str(e)) from None


def cmd_verify(args) -> int:
    from . import report as rpt
    from .verify import ALL_CLAIM_IDS, run_verification

    cfg = _run_config(args)
    if args.all and args.claim:
        raise UsageError("--all and --claim are mutually exclusive")
    if args.claim:
        import fnmatch

        claim_ids = []
        for pattern in args.claim:
            hits = [cid for cid in ALL_CLAIM_IDS if fnmatch.fnmatchcase(cid, pattern)]
            if not hits:
                raise UsageError(f"unknown claim id or pattern {pattern!r}")
            claim_ids.extend(h for h in hits if h not in claim_ids)
    else:
        claim_ids = list(ALL_CLAIM_IDS)

    # open the report file first, so a bad path costs no verification run
    try:
        json_out = open(args.json, "w", encoding="utf-8") if args.json else None
    except OSError as e:
        raise UsageError(f"cannot write the JSON report: {e}") from None
    with json_out or contextlib.nullcontext():
        run = run_verification(cfg, claim_ids)
        doc = run.to_json()
        if json_out:
            json_out.write(rpt.dumps(doc))
    if args.format == "json":
        sys.stdout.write(rpt.dumps(doc))
    else:
        sys.stdout.write(rpt.render_text(doc))
    return run.exit_code()


def cmd_winding(args) -> int:
    from . import invariants as inv
    from . import report as rpt
    from .paths import PathError, parse_loop_expr

    rows = {}
    status = EXIT_OK
    try:
        expr = parse_loop_expr(args.expr)
        if expr.value_kind != "config":
            raise PathError(f"{expr.label()} is not a loop of configurations")
        ambient = expr.sample(args.samples)[1].shape[-1] - 1
        for name in args.functionals:
            if name == "fiber":
                try:
                    vec = inv.fiber_winding_vector(expr, args.samples)
                except inv.MovingLinesError as e:
                    rows["fiber"] = {"error": str(e)}
                    status = max(status, EXIT_FAIL)
                    continue
                rows["fiber"] = {"vector": [r.winding for r in vec],
                                 "residual": max(r.residual for r in vec)}
                if any(r.indeterminate for r in vec):
                    status = max(status, EXIT_INCONCLUSIVE)
            elif name in inv.W_FUNCTIONALS:
                f = inv.W_FUNCTIONALS[name]
                if f.ambient != ambient:
                    raise UsageError(f"{name} acts on CP^{f.ambient} loops, "
                                     f"{expr.label()} lies in CP^{ambient}")
                res = inv.winding(expr, f, args.samples)
                rows[name] = res.to_json()
                if res.indeterminate:
                    status = max(status, EXIT_INCONCLUSIVE)
            else:
                raise UsageError(f"unknown functional {name!r} (use w1, w2, w3 or fiber)")
    except (PathError, KeyError) as e:
        raise UsageError(str(e)) from None
    sys.stdout.write(rpt.dumps({"expr": expr.label(), "windings": rows}))
    return status


def cmd_membership(args) -> int:
    from . import report as rpt
    from .projective import ProjectiveError
    from .strata import Config6, SpaceTag, validate

    try:
        doc = json.loads(Path(args.file).read_text(encoding="utf-8"))
        cfg = Config6.from_json(doc)
        if "tag" in doc:
            tag = SpaceTag.from_json(doc["tag"])
        elif cfg.ambient_dim == 2:
            tag = SpaceTag.planar(2)
        else:
            tag = SpaceTag.solid(cfg.ambient_dim)
        if tag.n != cfg.ambient_dim:
            raise ValueError(f"tag expects CP^{tag.n} but the points lie in CP^{cfg.ambient_dim}")
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise UsageError(f"cannot read configuration file: {e}") from None
    try:
        rep = validate(cfg.points, tag)
    except ProjectiveError as e:      # an Fk tag whose k is not the file's six points
        raise UsageError(str(e)) from None
    sys.stdout.write(rpt.dumps(rep.to_json()))
    return EXIT_OK if rep.verdict else EXIT_FAIL


def cmd_atlas(args) -> int:
    from . import atlas
    from . import report as rpt

    if args.action == "export":
        sys.stdout.write(rpt.dumps(atlas.export_registry()))
        return EXIT_OK
    raise UsageError(f"unknown atlas action {args.action!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (verify, winding, membership, atlas)")
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "winding":
            return cmd_winding(args)
        if args.command == "membership":
            return cmd_membership(args)
        if args.command == "atlas":
            return cmd_atlas(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
