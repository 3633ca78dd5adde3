"""Command-line driver: exit-code contract, determinism, filters, and the
file-based commands."""

import contextlib
import io
import json
import subprocess
import sys
import tempfile

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
], ids=["verify", "winding"])
def test_samples_above_the_cap_rejected_before_sampling(argv, capsys, monkeypatch):
    def no_eval(*args, **kwargs):
        raise AssertionError("evaluated an atlas item")

    monkeypatch.setattr(atlas.AtlasItem, "eval", no_eval)
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and str(2 ** 20) in err


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


@pytest.mark.parametrize("argv", [
    ["s", "w1"],                          # line triples, not configurations
    ["fiber_a", "w1"],                    # chart pairs
    ["eta", "fiber"],                     # a scalar loop
    ["Pi_tilde_S1", "w1"],                # CP^3 loop, CP^2 functional
    ["alpha*Pi_tilde_S1", "w1"],          # a word mixing CP^2 and CP^3
    ["alpha", "w1", "--samples", "-3"],
    ["alpha", "fiber", "--samples", "0"],
    ["alpha", "w1", "--samples", "15"],
], ids=["lines", "pair", "scalar", "ambient", "mixed-word", "samples-negative",
        "samples-zero", "samples-15"])
def test_winding_malformed_query_is_usage_error(argv, capsys):
    code, out, err = run_cli(["winding", *argv], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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
    elif kind.startswith("fk-"):      # six points under F_3, F_0, or F_k without a k
        doc["tag"] = {"kind": "Fk_stratum" if kind == "fk-stratum-no-k" else "Fk", "n": 2, "i": 2}
        if kind in ("fk-k3", "fk-k0"):
            doc["tag"]["k"] = int(kind[-1])
    else:  # six points of CP^1, untagged or as line spans through a center
        doc = {"points": [[[1.0, 0.0], [float(k), 0.0]] for k in range(6)]}
        if kind == "lines-cp1":
            doc["tag"] = {"kind": "F3_lines_through", "n": 1, "center": [[1.0, 0.0], [0.0, 0.0]]}
    return doc


@pytest.mark.parametrize("kind", ["inf", "nan", "points-not-a-list", "cp1-untagged",
                                  "tag-ambient-mismatch", "lines-cp1", "fk-k3", "fk-k0",
                                  "fk-no-k", "fk-stratum-no-k"])
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


@given(membership_docs())
@settings(max_examples=300, deadline=None)
def test_membership_property(doc):
    with tempfile.TemporaryDirectory() as d:
        f = f"{d}/c.json"
        with open(f, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["membership", f])
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        json.loads(out.getvalue(), parse_constant=_no_constant)


# ---------------------------------------------------------------------------
# atlas export and misc

def test_atlas_export(capsys):
    code, out, _ = run_cli(["atlas", "export"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert "sigma_tilde_Lambda" in doc["items"]
    assert {c["id"] for c in doc["claims"]} == {f"C{i}" for i in range(1, 16)}


def test_no_command_is_usage_error(capsys):
    assert run_cli([], capsys)[0] == EXIT_USAGE


def test_console_entry_point():
    r = subprocess.run([sys.executable, "-m", "dcs.cli", "verify", "--claim", "C3"],
                       capture_output=True, text=True)
    assert r.returncode == 0
