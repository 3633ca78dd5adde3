"""Command-line driver: exit-code contract, determinism, filters, and the
file-based commands."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcs import atlas, verify
from dcs.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, main
from dcs.projective import HPoint
from dcs.strata import SpaceTag, validate


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# verify

def test_verify_single_claim(capsys):
    code, out, _ = run_cli(["verify", "--claim", "C6"], capsys)
    assert code == EXIT_OK
    assert "C6" in out and "pass" in out


def test_verify_claim_filter_runs_only_requested(capsys, tmp_path):
    path = tmp_path / "r.json"
    code, _, _ = run_cli(["verify", "--claim", "C3", "--claim", "C5",
                          "--json", str(path)], capsys)
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    assert sorted(doc["claims"]) == ["C3", "C5"]
    assert doc["braid"] == {}  # braid families only run with the full set


def test_verify_unknown_claim_is_usage_error(capsys):
    code, _, err = run_cli(["verify", "--claim", "C99"], capsys)
    assert code == EXIT_USAGE and "C99" in err


def test_verify_claim_glob(capsys, tmp_path):
    path = tmp_path / "glob.json"
    code, _, _ = run_cli(["verify", "--claim", "C1?", "--json", str(path)], capsys)
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    assert sorted(doc["claims"]) == ["C10", "C11", "C12", "C13", "C14", "C15"]


def test_verify_all_and_claim_conflict(capsys):
    code, _, _ = run_cli(["verify", "--all", "--claim", "C1"], capsys)
    assert code == EXIT_USAGE
    code, _, err = run_cli(["verify", "--all", "--freeze"], capsys)
    assert code == EXIT_USAGE and "--freeze" in err


def test_verify_tolerance_below_binary64_is_inconclusive(capsys):
    code, out, _ = run_cli(["verify", "--claim", "C4", "--tol", "1e-30"], capsys)
    assert code == EXIT_INCONCLUSIVE
    assert "inconclusive" in out


@pytest.mark.parametrize("kind", ["tol", "config"])
def test_verify_tolerances_no_sample_meets_are_usage_error(kind, capsys, tmp_path):
    """Tolerances that no configuration of C1's sampler meets end the run
    with one error line naming them, not a traceback, and write no report:
    a ``--json`` path is left as it was, absent (``tol``) or holding an
    earlier report (``config``)."""
    report = tmp_path / "report.json"
    if kind == "tol":
        extra = ["--tol", "0.9"]
    else:
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"tolerances": {"margin_warn": 0.5}}))
        extra = ["--config", str(f)]
        report.write_bytes(b'{"earlier": "report"}\n')
    before = sorted(tmp_path.iterdir()), report.read_bytes() if report.exists() else None
    code, _, err = run_cli(["verify", "--claim", "C1", "--json", str(report)] + extra, capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error: random configuration sampling failed") and err.count("\n") == 1
    assert "margin_warn=" in err and "proj_eq_tol=" in err
    assert (sorted(tmp_path.iterdir()), report.read_bytes() if report.exists() else None) == before


def test_verify_grid_caps(capsys):
    code, _, err = run_cli(["verify", "--claim", "C3", "--samples", "8"], capsys)
    assert code == EXIT_USAGE and "quarter" in err


def test_verify_config_file(capsys, tmp_path):
    cfg = {"circle_samples": 256, "seed": 5}
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    code, _, _ = run_cli(["verify", "--claim", "C3", "--config", str(f)], capsys)
    assert code == EXIT_OK


def _write_run_config(path, kind):
    if kind == "invalid-json":
        path.write_text('{"circle_samples": 256')
    elif kind == "not-an-object":
        path.write_text("[256]")
    elif kind == "grid-one-size":
        path.write_text(json.dumps({"disk_grid": [128]}))
    elif kind == "grid-scalar":
        path.write_text(json.dumps({"disk_grid": 5}))
    # "missing": no file at all


# unknown, wrongly typed or out-of-range run configuration values: kind ->
# (file, the claim to run); the error names the innermost first key of the
# file.  Python's json reads and writes Infinity and NaN.
MISTYPED_CONFIGS = {
    "circle-samples-fraction": ({"circle_samples": 300.5}, "C3"),
    "grid-fraction": ({"disk_grid": [128.5, 64]}, "C3"),
    "grid-above-the-cap": ({"disk_grid": [1024, 1025]}, "C3"),
    "seed-string": ({"seed": "abc"}, "C1"),
    "seed-fraction": ({"seed": 1.5}, "C1"),
    "boundary-tol-string": ({"boundary_tol": "x"}, "C5"),
    "threads-fraction": ({"threads": 1.5}, "C3"),
    "tolerances-scalar": ({"tolerances": 5}, "C3"),
    "unknown-key": ({"circle_sample": 300}, "C3"),
    "tolerance-string": ({"tolerances": {"proj_eq_tol": "x"}}, "C3"),
    "tolerance-bool": ({"tolerances": {"proj_eq_tol": True}}, "C3"),
    "tolerance-unknown": ({"tolerances": {"proj_eq": 1e-9}}, "C3"),
    "boundary-tol-infinity": ({"boundary_tol": float("inf")}, "C11"),
    "lift-tol-negative": ({"lift_tol": -1}, "C1"),
    "numeric-floor-nan": ({"numeric_floor": float("nan")}, "C3"),
    "junction-tol-zero": ({"junction_tol": 0.0}, "C6"),
    "rank-rel-tol-infinity": ({"tolerances": {"rank_rel_tol": float("inf")}}, "C3"),
}


def _first_key(doc):
    key = next(iter(doc))
    return _first_key(doc[key]) if isinstance(doc[key], dict) else key


@pytest.mark.parametrize("kind", ["missing", "invalid-json", "not-an-object",
                                  "grid-one-size", "grid-scalar", "threads-negative",
                                  "json-missing-dir", "json-is-a-directory",
                                  *MISTYPED_CONFIGS])
def test_verify_malformed_input_is_usage_error(kind, capsys, tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("ran the verification")

    monkeypatch.setattr(verify, "run_verification", no_run)
    f = tmp_path / "cfg.json"
    if kind == "threads-negative":
        argv = ["verify", "--claim", "C3", "--threads", "-2"]
    elif kind == "json-missing-dir":
        argv = ["verify", "--claim", "C3", "--json", str(tmp_path / "missing" / "r.json")]
    elif kind == "json-is-a-directory":
        argv = ["verify", "--claim", "C3", "--json", str(tmp_path)]
    elif kind in MISTYPED_CONFIGS:
        doc, claim = MISTYPED_CONFIGS[kind]
        f.write_text(json.dumps(doc))
        argv = ["verify", "--claim", claim, "--config", str(f)]
    else:
        _write_run_config(f, kind)
        argv = ["verify", "--claim", "C3", "--config", str(f)]
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if kind in MISTYPED_CONFIGS:
        key = _first_key(MISTYPED_CONFIGS[kind][0])
        assert key in lines[0], lines[0]
    if kind == "tolerance-unknown":     # named like an unknown top-level key
        assert lines[0] == "error: unknown tolerance key(s): proj_eq"


@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "C3", "--samples", str(2 ** 20 + 1)],
    ["winding", "alpha", "w1", "--samples", str(2 ** 20 + 1)],
    ["verify", "--claim", "C3", "--grid", "1025x1024"],
    ["verify", "--claim", "C3", "--cylinder-grid", "4097x256"],
], ids=["verify", "winding", "grid", "cylinder-grid"])
def test_samples_above_the_cap_rejected_before_sampling(argv, capsys, monkeypatch):
    """More circle samples, or more disk or cylinder grid nodes, than 2^20
    is a usage error raised before any atlas item is evaluated; a grid of
    exactly 2^20 nodes is a valid run configuration."""
    def no_eval(*args, **kwargs):
        raise AssertionError("evaluated an atlas item")

    monkeypatch.setattr(atlas.AtlasItem, "eval", no_eval)
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and str(2 ** 20) in err
    verify.RunConfig(disk_grid=(1024, 1024), cylinder_grid=(4096, 256))


def test_verify_deterministic_reports(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for p in (p1, p2):
        code, _, _ = run_cli(["verify", "--claim", "C3", "--claim", "C6",
                              "--seed", "9", "--json", str(p)], capsys)
        assert code == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_threads_do_not_change_output(capsys, tmp_path):
    p1, p2 = tmp_path / "serial.json", tmp_path / "pool.json"
    run_cli(["verify", "--claim", "C3", "--claim", "C5", "--json", str(p1)], capsys)
    run_cli(["verify", "--claim", "C3", "--claim", "C5", "--threads", "2",
             "--json", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# winding

def test_winding_relation_vectors_match(capsys):
    code, out, _ = run_cli(["winding", "sigma*sigma", "w1", "w2", "w3"], capsys)
    assert code == EXIT_OK
    lhs = json.loads(out)
    code, out, _ = run_cli(["winding", "(alpha^-1*beta^-1)*gamma", "w1", "w2", "w3"], capsys)
    rhs = json.loads(out)
    for w in ("w1", "w2", "w3"):
        assert lhs["windings"][w]["winding"] == rhs["windings"][w]["winding"]


def test_winding_fiber_vector(capsys):
    code, out, _ = run_cli(["winding", "alpha", "fiber"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["windings"]["fiber"]["vector"] == [1, 0, 0]


def test_winding_parse_error(capsys):
    code, _, err = run_cli(["winding", "alpha*", "w1"], capsys)
    assert code == EXIT_USAGE


def test_winding_unknown_functional(capsys):
    code, _, _ = run_cli(["winding", "alpha", "w9"], capsys)
    assert code == EXIT_USAGE


DEEP = "error: loop expression nested deeper than 100 levels\n"


# (argv, the exact error line or None)
@pytest.mark.parametrize("argv, line", [
    (["s", "w1"], None),                          # line triples, not configurations
    (["eta", "fiber"], None),                     # a scalar loop
    (["Pi_tilde_S1", "w1"], None),                # CP^3 loop, CP^2 functional
    (["alpha*Pi_tilde_S1", "w1"], None),          # a word mixing CP^2 and CP^3
    (["alpha", "w1", "--samples", "-3"], None),
    (["alpha", "fiber", "--samples", "0"], None),
    (["alpha", "w1", "--samples", "15"], None),
    (["sigma_tilde_Lambd", "w1"], "error: unknown atlas item 'sigma_tilde_Lambd'\n"),
    (["(" * 1200 + "alpha" + ")" * 1200, "w1"], DEEP),
    (["*".join(["alpha"] * 1500), "w1"], DEEP),
    (["alpha" + "^-1" * 3000, "fiber"], DEEP),
], ids=["lines", "scalar", "ambient", "mixed-word", "samples-negative",
        "samples-zero", "samples-15", "unknown-atom", "deep-parentheses", "deep-product",
        "deep-inverse"])
def test_winding_malformed_query_is_usage_error(argv, line, capsys):
    code, out, err = run_cli(["winding", *argv], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if line is not None:
        assert err == line


@pytest.mark.parametrize("word", ["*".join(["alpha"] * 101), "(" * 100 + "alpha" + ")" * 100,
                                  "alpha" + "^-1" * 100], ids=["product", "parentheses", "inverse"])
def test_winding_word_at_the_depth_cap_runs(word, capsys):
    code, out, _ = run_cli(["winding", word, "w1", "--samples", "64"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["windings"]["w1"]["winding"] == 0


def test_winding_moving_lines_reported(capsys):
    code, out, _ = run_cli(["winding", "sigma", "fiber"], capsys)
    assert code == EXIT_FAIL
    assert "error" in json.loads(out)["windings"]["fiber"]


# ---------------------------------------------------------------------------
# membership

def _write_config(tmp_path, cfg, tag=None, name="c.json"):
    doc = cfg.to_json(tag)
    f = tmp_path / name
    f.write_text(json.dumps(doc))
    return str(f)


def test_membership_base_point(capsys, tmp_path):
    f = _write_config(tmp_path, atlas.basepoint(atlas.TAG_PLANAR_FIXED_2),
                      atlas.TAG_PLANAR_FIXED_2)
    code, out, _ = run_cli(["membership", f], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] is True


def test_membership_coincident_points(capsys, tmp_path):
    cfg = atlas.basepoint(atlas.TAG_PLANAR_FIXED_2)
    doc = cfg.to_json(atlas.TAG_PLANAR_FIXED_2)
    doc["points"][1] = doc["points"][0]
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run_cli(["membership", str(f)], capsys)
    assert code == EXIT_FAIL
    assert not json.loads(out)["verdict"]


def test_membership_solid_under_planar_tag(capsys, tmp_path):
    f = _write_config(tmp_path, atlas.basepoint(atlas.TAG_SOLID_FIXED_3),
                      SpaceTag.planar(3), "solid.json")
    code, out, _ = run_cli(["membership", f], capsys)
    assert code == EXIT_FAIL
    assert any("span" in x for x in json.loads(out)["failures"])


def test_membership_line_triple_tag(capsys, tmp_path):
    base = atlas.basepoint(atlas.TAG_PLANAR_FIXED_2)
    f = _write_config(tmp_path, base, atlas.TAG_LINES_I0, "lines.json")
    code, out, _ = run_cli(["membership", f], capsys)
    assert code == EXIT_OK and json.loads(out)["verdict"] is True
    doc = base.to_json(atlas.TAG_LINES_I0)
    doc["points"][5] = HPoint([1, 1, 2]).to_json()     # the third line misses [0:0:1]
    f = tmp_path / "miss.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run_cli(["membership", str(f)], capsys)
    assert code == EXIT_FAIL
    assert json.loads(out)["failures"] == ["center-incidence"]


def test_membership_fk_tag_with_six_points(capsys, tmp_path):
    base = atlas.basepoint(atlas.TAG_PLANAR_FIXED_2)
    f = _write_config(tmp_path, base, SpaceTag("Fk", 2, k=6), "f6.json")
    code, out, _ = run_cli(["membership", f], capsys)
    assert code == EXIT_OK and json.loads(out)["verdict"] is True


def test_membership_missing_file(capsys):
    code, _, err = run_cli(["membership", "/nonexistent/nowhere.json"], capsys)
    assert code == EXIT_USAGE


def _malformed(kind):
    doc = atlas.basepoint(atlas.TAG_PLANAR_FIXED_2).to_json(atlas.TAG_PLANAR_FIXED_2)
    if kind == "inf":
        doc["points"][0][0][0] = float("inf")
    elif kind == "nan":
        doc["points"][0][0][0] = float("nan")
    elif kind == "points-not-a-list":
        doc["points"] = 5
    elif kind == "tag-ambient-mismatch":
        doc["tag"] = atlas.TAG_SOLID_3.to_json()
    elif kind == "bool-coordinate":   # true would read as the coordinate 1
        doc["points"][0][0] = [True, 0.0]
    elif kind == "string-coordinate":
        doc["points"][2][1] = ["0.5", 0.0]
    elif kind in ("float-n", "string-n"):
        doc["tag"]["n"] = 2.0 if kind == "float-n" else "2"
    elif kind == "string-i":
        doc["tag"] = {"kind": "Fk_stratum", "n": 2, "k": 6, "i": "1"}
    elif kind == "bool-k":
        doc["tag"] = {"kind": "Fk", "n": 2, "k": True}
    elif kind.startswith("fk-"):      # six points under F_3, F_0, or F_k without a k
        doc["tag"] = {"kind": "Fk_stratum" if kind == "fk-stratum-no-k" else "Fk", "n": 2, "i": 2}
        if kind in ("fk-k3", "fk-k0"):
            doc["tag"]["k"] = int(kind[-1])
    else:  # six points of CP^1, untagged or as line spans through a center
        doc = {"points": [[[1.0, 0.0], [float(k), 0.0]] for k in range(6)]}
        if kind == "lines-cp1":
            doc["tag"] = {"kind": "F3_lines_through", "n": 1, "center": [[1.0, 0.0], [0.0, 0.0]]}
    return doc


# the field each error line must name
NAMED_FIELD = {"bool-coordinate": "points[0]", "string-coordinate": "points[2]",
               "float-n": "tag n", "string-n": "tag n", "string-i": "tag i", "bool-k": "tag k"}


@pytest.mark.parametrize("kind", ["inf", "nan", "points-not-a-list", "cp1-untagged",
                                  "tag-ambient-mismatch", "lines-cp1", "fk-k3", "fk-k0",
                                  "fk-no-k", "fk-stratum-no-k", *NAMED_FIELD])
def test_membership_malformed_file_is_usage_error(kind, capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(_malformed(kind)))
    code, out, err = run_cli(["membership", str(f)], capsys)
    assert code == EXIT_USAGE and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in err
    if kind in ("inf", "nan"):
        assert "non-finite" in err
    if kind == "fk-k3":
        assert "needs 3 points, got 6" in err
    if kind in NAMED_FIELD:
        assert NAMED_FIELD[kind] in err


def _raw(coords):
    """A point as written, without the normalization of HPoint.to_json."""
    return [[float(v.real), float(v.imag)] for v in coords]


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_membership_is_scale_invariant(scale, capsys, tmp_path):
    tag = atlas.TAG_PLANAR_FIXED_2
    base = atlas.basepoint(tag)
    ref = validate(base.points, tag)
    points = [HPoint(p.coords * scale) for p in base.points]
    center = HPoint(tag.center.coords * scale)
    got = validate(points, SpaceTag.planar_fixed(2, center))
    assert ref.verdict and got.verdict
    assert abs(got.margin - ref.margin) <= 1e-12
    f = tmp_path / "scaled.json"
    f.write_text(json.dumps({"points": [_raw(p.coords) for p in points],
                             "tag": {"kind": tag.kind, "n": 2, "center": _raw(center.coords)}}))
    code, out, _ = run_cli(["membership", str(f)], capsys)
    assert code == EXIT_OK
    assert abs(json.loads(out)["margin"] - ref.margin) <= 1e-12


# membership files of every tag kind over CP^1..CP^4, with finite extremes
EXTREMES = st.sampled_from([0.0, 1.0, -1.0, 1e-300, -1e-300, 1e-200, 1e200, 1e300, -1e300])
COORD = st.one_of(EXTREMES, st.floats(-4.0, 4.0), st.floats(allow_nan=False, allow_infinity=False))


def _points(dim, count):
    return st.lists(st.lists(st.tuples(COORD, COORD).map(list), min_size=dim + 1, max_size=dim + 1),
                    min_size=count, max_size=count)


@st.composite
def membership_docs(draw):
    n = draw(st.integers(1, 4))
    if n >= 2 and draw(st.booleans()):
        # a registered base point, each representative rescaled by an extreme
        base = atlas.PLANAR_BASE if n == 2 else atlas.SOLID_BASE
        arr = atlas.embed(base, n + 1 - base.shape[-1])
        scales = draw(st.lists(EXTREMES.filter(bool), min_size=6, max_size=6))
        points = [_raw(row * c) for row, c in zip(arr, scales)]
    else:
        points = draw(_points(n, 6))
    doc = {"points": points}
    if draw(st.booleans()):
        tag = {"kind": draw(st.sampled_from(SpaceTag._KINDS)), "n": draw(st.integers(1, 4))}
        if draw(st.booleans()):
            tag["center"] = draw(_points(tag["n"], 1))[0]
        for key in ("k", "i"):
            if draw(st.booleans()):
                tag[key] = draw(st.integers(0, 7))
        doc["tag"] = tag
    return doc


def _no_constant(name):
    raise ValueError(f"{name} in the output")


def _exit_contract(argv, codes=(EXIT_OK, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_USAGE)):
    """Run ``main(argv)``: it exits with one of ``codes`` and no traceback,
    and a usage error prints one error line and nothing else.  Returns the
    exit code and standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in codes
    if code == EXIT_USAGE:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    return code, out.getvalue()


@given(membership_docs())
@settings(max_examples=300, deadline=None)
def test_membership_property(doc):
    with tempfile.TemporaryDirectory() as d:
        f = f"{d}/c.json"
        with open(f, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, out = _exit_contract(["membership", f], (EXIT_OK, EXIT_FAIL, EXIT_USAGE))
    if code != EXIT_USAGE:
        json.loads(out, parse_constant=_no_constant)


# atoms of loop words: loops of configurations in CP^2, in CP^3, and a mix
# of both with items that are no such loop (line triples, a cylinder)
CP2_ATOMS = ["alpha", "beta", "gamma", "sigma", "sigma_tilde_Lambda"]
CP3_ATOMS = ["Pi_tilde_S1", "F_tilde_S1"]
WORD_ATOMS = [CP2_ATOMS, CP3_ATOMS, CP2_ATOMS + CP3_ATOMS + ["s", "L"]]


@st.composite
def winding_argv(draw):
    atoms = st.sampled_from(draw(st.sampled_from(WORD_ATOMS)))
    word = draw(st.recursive(atoms, lambda w: st.one_of(
        st.tuples(w, w).map("*".join), w.map(lambda x: x + "^-1"), w.map(lambda x: f"({x})")),
        max_leaves=6))
    # each part sometimes malformed
    if draw(st.integers(0, 3)) == 0:    # a stray or missing character
        i = draw(st.integers(0, len(word)))
        word = word[:i] + draw(st.sampled_from(["(", ")", ""])) + word[i + 1:]
    functionals = draw(st.lists(st.sampled_from(["w1", "w2", "w3", "fiber"]), min_size=1, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        functionals.insert(draw(st.integers(0, len(functionals))), "w4")
    samples = draw(st.sampled_from(["15", "-3", "abc"] if draw(st.integers(0, 3)) == 0 else ["16", "64"]))
    return [word, *functionals, "--samples", samples]


@given(winding_argv())
@settings(max_examples=150, deadline=None)
def test_winding_property(argv):
    """Any query exits 0, 1, 2 or 64, with no traceback: a usage error
    prints one error line and nothing else, a run its JSON table."""
    code, out = _exit_contract(["winding", *argv])
    if code != EXIT_USAGE:
        json.loads(out, parse_constant=_no_constant)


# flags of `dcs verify`: (flag, valid values, out-of-range or malformed
# values); the valid grids are the smallest, where each claim takes at most
# about 40 ms
VERIFY_FLAGS = [
    ("--samples", ["128"], ["127", "abc"]),
    ("--grid", ["32x16"], ["31x16", "32", "axb"]),
    ("--cylinder-grid", ["64x16"], ["64x15", "x"]),
    ("--seed", ["0", "7"], ["-20", "-5", "-50", "abc", "1.5"]),
    ("--tol", ["1e-9"], ["0", "-1", "inf", "abc"]),
    ("--threads", ["1", "2"], ["-2", "x"]),
    ("--format", ["json", "text"], ["xml"]),
]


@st.composite
def verify_argv(draw):
    claims = draw(st.lists(st.sampled_from(["C1", "C2", "C3", "C4", "C15", "C99"]),
                           min_size=1, max_size=2, unique=True))
    argv = ["verify"] + [a for c in claims for a in ("--claim", c)]
    if draw(st.integers(0, 7)) == 0:
        argv.append("--all")
    for flag, valid, bad in VERIFY_FLAGS:
        # the seed is bad in half the examples, mostly negative
        bad_odds = 2 if flag == "--seed" else 10
        argv += [flag, draw(st.sampled_from(bad if draw(st.integers(1, bad_odds)) == 1 else valid))]
    return argv


@given(verify_argv())
@settings(max_examples=150, deadline=None)
def test_verify_property(argv):
    """Any `dcs verify` command line exits 0, 1, 2 or 64, with no
    traceback: a usage error prints one error line and nothing else."""
    _exit_contract(argv)


# ---------------------------------------------------------------------------
# atlas export and misc

def test_atlas_export(capsys):
    code, out, _ = run_cli(["atlas", "export"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert "sigma_tilde_Lambda" in doc["items"]
    assert {c["id"] for c in doc["claims"]} == {f"C{i}" for i in range(1, 16)}


def test_cached_parser_shares_no_parsed_state(monkeypatch):
    """The parser is built once per process, and repeated and concurrent
    calls of main each get their own arguments: --claim does not accumulate
    across calls, a call without it sees none, and a command that changes
    its arguments changes no later call's."""
    import threading

    from dcs import cli

    assert cli.build_parser() is cli.build_parser()
    seen = {}

    def record(args):
        seen.setdefault(threading.current_thread().name, []).append(list(args.claim or []))
        if args.claim is not None:
            args.claim.append("C9")
        return EXIT_OK
    monkeypatch.setattr(cli, "cmd_verify", record)
    for _ in range(3):
        assert main(["verify", "--claim", "C3", "--claim", "C5"]) == EXIT_OK
        assert main(["verify", "--all"]) == EXIT_OK
    assert seen.pop(threading.current_thread().name) == [["C3", "C5"], []] * 3
    start = threading.Barrier(4)

    def worker(k):
        start.wait()
        for _ in range(50):
            main(["verify", "--claim", f"C{k}"])
            main(["verify"])
    threads = [threading.Thread(target=worker, args=(k,), name=f"client-{k}") for k in range(1, 5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == {f"client-{k}": [[f"C{k}"], []] * 50 for k in range(1, 5)}


def test_no_command_is_usage_error(capsys):
    assert run_cli([], capsys)[0] == EXIT_USAGE


def test_console_entry_point():
    r = subprocess.run([sys.executable, "-m", "dcs.cli", "verify", "--claim", "C3"],
                       capture_output=True, text=True)
    assert r.returncode == 0


# Run in a fresh interpreter with sympy blocked, so that any import of it
# raises: every command, a full ``verify --all`` included, and the exact rank
# and Smith normal form must run on plain integers.
SYMPY_PROBE = """
import contextlib, io, json, sys
sys.modules["sympy"] = None
from dcs.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
from dcs import invariants as inv
from dcs.paths import Atom
assert inv.snf_invariants([], 3) == []
assert inv.snf_invariants([[3, 3, 3]], 3) == [3]
assert inv.snf_invariants([[0, -1, 1], [-1, 0, 1], [1, 1, 2]], 3) == [1, 1, 4]
rows = [[inv.winding(Atom(name), inv.fiber_functional(i, 2)) for i in range(3)]
        for name in ("alpha", "beta", "gamma")]
assert inv.independence_matrix(rows)[1] == 3
"""


def test_no_command_imports_sympy(tmp_path):
    f = _write_config(tmp_path, atlas.basepoint(atlas.TAG_PLANAR_FIXED_2),
                      atlas.TAG_PLANAR_FIXED_2)
    argvs = [["winding", "alpha*beta", "fiber", "w1"], ["membership", f], ["atlas", "export"],
             ["verify", "--claim", "C4", "--threads", "1"], ["verify", "--all", "--threads", "1"]]
    src = Path(__file__).resolve().parents[1] / "src"
    r = subprocess.run([sys.executable, "-c", SYMPY_PROBE, json.dumps(argvs)],
                       capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert r.returncode == 0, r.stderr
