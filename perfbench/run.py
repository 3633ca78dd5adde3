"""dcs benchmark: run one workload against the dcs package, check every
output with an independent oracle, and print the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics and the tracing overhead; the spans go to
``.bench_out/trace-<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the
workloads, the metrics and the layers each metric should move.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 3          # serial and parallel passes per untraced run, at least
SETUP_REPEATS = 7       # fresh interpreters timed for setup_s
DCS_MODULES = ("dcs", "dcs.projective", "dcs.strata", "dcs.atlas", "dcs.paths",
               "dcs.invariants", "dcs.braids", "dcs.verify", "dcs.report", "dcs.cli")


# ---------------------------------------------------------------------------
# captured output: cli.main writes to sys.stdout, so each client thread gets
# its own buffer behind one process-wide router


class _Router(io.TextIOBase):
    def __init__(self, real):
        self.real = real
        self.local = threading.local()

    def write(self, s):
        buf = getattr(self.local, "buf", None)
        return (self.real if buf is None else buf).write(s)

    def flush(self):
        self.real.flush()


class Runner:
    """Runs ops through ``dcs.cli.main`` with captured stdout and stderr."""

    def __init__(self, nproc):
        self.nproc = nproc
        self.tracer = None
        self._out = _Router(sys.stdout)
        self._err = _Router(sys.stderr)

    def __enter__(self):
        sys.stdout, sys.stderr = self._out, self._err
        return self

    def __exit__(self, *exc):
        sys.stdout, sys.stderr = self._out.real, self._err.real
        return False

    def run_op(self, op, op_id=None):
        """(latency s, exit code, stdout text, error) of one op."""
        cli = sys.modules["dcs.cli"]          # looked up per call: tracing patches it
        out = self._out.local.buf = io.StringIO()
        self._err.local.buf = io.StringIO()
        if self.tracer is not None:
            self.tracer.set_op(op_id)
        error = None
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except Exception as e:  # an escaped exception is a failed op, not a crash
            code, error = None, f"{type(e).__name__}: {e}"
        latency = time.perf_counter() - t0
        self._out.local.buf = self._err.local.buf = None
        return latency, code, out.getvalue(), error

    def run_pass(self, ops, clients, first_id=0):
        """One closed-loop pass over ``ops`` with ``clients`` client threads."""
        ids = range(first_id, first_id + len(ops))
        t0 = time.perf_counter()
        if clients == 1:
            results = [self.run_op(op, i) for op, i in zip(ops, ids)]
        else:
            with ThreadPoolExecutor(max_workers=clients) as pool:
                results = list(pool.map(self.run_op, ops, ids))
        wall = time.perf_counter() - t0
        failures = []
        for op, (_lat, code, text, error) in zip(ops, results):
            reason = error or op.check(text, code)
            if reason:
                failures.append(f"{op.label}: {reason}")
        return PassResult(wall, [r[0] for r in results], [r[2] for r in results], failures)


class PassResult(NamedTuple):
    wall: float
    latencies: list
    texts: list
    failures: list


class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.reasons = []

    def add(self, result, extra_failures=()):
        failures = list(result.failures) + list(extra_failures)
        self.attempted += len(result.latencies)
        self.failed += len(failures)
        self.reasons.extend(failures[:max(0, 5 - len(self.reasons))])


# ---------------------------------------------------------------------------
# statistics


TAIL_PCT = 95


def pass_tail(latencies):
    """The 95th percentile (nearest rank) of one pass's op latencies.

    The run reports the median of these over its serial passes, not a
    percentile of all latencies pooled: the host's speed drifts within a
    run, and a pooled tail is drawn mostly from its slowest seconds."""
    xs = sorted(latencies)
    return xs[len(xs) * TAIL_PCT // 100]


def pooled_tail_note(values):
    """The pooled p95 and the highest pooled percentile with ten samples
    beyond it, printed beside the metric for information."""
    xs = sorted(values)
    n = len(xs)
    note = f"pooled p{TAIL_PCT} of {n} = {xs[n * TAIL_PCT // 100] * 1e3:.4g} ms"
    if n > 10:
        note += f", p{100.0 * (n - 10) / n:.1f} = {xs[n - 11] * 1e3:.4g} ms has 10 beyond it"
    return note


def setup_seconds(workload):
    """Median over fresh interpreters of import plus one warm-up op."""
    spec = json.dumps(workload.warmup.argv)
    values = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), ROOT, spec],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        reason = workload.warmup.check(row["out"], row["exit"])
        if reason:
            raise RuntimeError(f"set-up probe warm-up op failed: {reason}")
        values.append(row["setup_s"])
    return statistics.median(values), values


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def timed_run(runner, wl, seconds):
    tally = Tally()
    serial, parallel, latencies, tails = [], [], [], []
    start = time.perf_counter()
    while True:
        ops, par_ops = wl.passes(len(serial))
        s = runner.run_pass(ops, 1)
        p = runner.run_pass(par_ops, wl.par_clients)
        mismatch = wl.pass_check(s.texts, p.texts) if wl.pass_check else None
        tally.add(s)
        tally.add(p, [mismatch] if mismatch else [])
        serial.append(s.wall)
        parallel.append(p.wall)
        latencies.extend(s.latencies)
        tails.append(pass_tail(s.latencies))
        if time.perf_counter() - start >= seconds and len(serial) >= MIN_PASSES:
            break
    metrics = {
        "wall_s": (statistics.median(serial), "s"),
        "wall_par_s": (statistics.median(parallel), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (statistics.median(tails) * 1e3, "ms"),
    }
    notes = {
        "wall_s": f"median of {len(serial)} serial passes of {len(ops)} ops, "
                  f"range {min(serial):.4f}-{max(serial):.4f}",
        "wall_par_s": f"median of {len(parallel)} passes at {runner.nproc} "
                      + ("client threads" if wl.par_clients > 1 else "verify threads")
                      + f", range {min(parallel):.4f}-{max(parallel):.4f}",
        "op_p50_ms": f"{len(latencies)} op latencies from the serial passes",
        "op_tail_ms": f"median over {len(tails)} serial passes of each pass's p{TAIL_PCT} "
                      f"of {len(ops)} ops, range {min(tails) * 1e3:.4g}-{max(tails) * 1e3:.4g} ms; "
                      + pooled_tail_note(latencies),
    }
    return metrics, notes, tally


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def traced_run(runner, wl, seconds, seed):
    from tracing import POOL_LAYERS, Instrumentation, Tracer, pool_executor

    tally = Tally()
    tracer = Tracer()
    untraced, traced = [], []
    counts = None
    ops, par_ops = wl.passes(0)    # every traced pass repeats the same ops
    origin = start = time.perf_counter()
    while True:
        u = runner.run_pass(ops, 1)
        tracer.reset_pass()
        runner.tracer = tracer
        with Instrumentation(tracer):
            t = runner.run_pass(ops, 1, first_id=len(traced) * len(ops))
        runner.tracer = None
        if counts is None:
            counts = dict(tracer.counts)
        elif dict(tracer.counts) != counts:
            raise RuntimeError("layer counts differ between two traced passes of the same ops")
        tally.add(u)
        tally.add(t)
        untraced.append(u.wall)
        traced.append(t.wall)
        if time.perf_counter() - start >= seconds:
            break
    times = tracer.layer_times()

    pool = None
    if wl.name == "verify_all":
        pool_tracer = Tracer()
        submits = {}
        with Instrumentation(pool_tracer, POOL_LAYERS, pool_executor(submits)):
            p = runner.run_pass(par_ops, wl.par_clients)
        tally.add(p)
        pool = _pool_figures(pool_tracer, submits, p.wall)
        tracer.spans.extend(pool_tracer.spans)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"trace-{wl.name}-seed{seed}.jsonl"), origin)
    metrics, table = per_layer(times, counts, traced, untraced, pool)
    return metrics, table, tally


def _pool_figures(tr, submits, wall):
    spans = [s for s in tr.spans if s[1].startswith("verify.claim.")]
    workers = submits.get("_workers", 1)
    pool_start = submits.get("_start", min(s[2] for s in spans))
    pool_wall = max(s[3] for s in spans) - pool_start
    busy = sum(s[3] - s[2] for s in spans)
    waits = [s[2] - submits.get(s[1].rsplit(".", 1)[1], pool_start) for s in spans]
    return {
        "workers": workers, "pool_wall_s": pool_wall, "pass_wall_s": wall,
        "busy_s": busy, "idle_s": workers * pool_wall - busy,
        "queue_wait_s": sum(waits), "mean_wait_s": statistics.mean(waits),
        "longest_claim_s": max(s[3] - s[2] for s in spans),
    }


CLAIMS = tuple(f"C{i}" for i in range(1, 16))
SELF_LAYERS = (
    "atlas.eval", "strata.validate_batch", "strata.validate_lines_batch", "strata.validate",
    "projective.svd", "paths.sweep_item", "paths.pointwise_eq", "paths.junction_report",
    "paths.closure_report", "paths.parse_loop_expr", "invariants.winding",
    "invariants.line_constancy", "invariants.fiber_winding_vector",
    "invariants.snf_invariants", "invariants.independence_matrix", "braids.verify_yb3",
    "braids.verify_yb4", "report.to_json", "report.dumps", "cli.main",
)
COUNTS = (
    "atlas.eval.calls", "atlas.eval.nodes", "strata.validate_batch.calls",
    "strata.validate_batch.nodes", "strata.validate_batch.cp2.nodes",
    "strata.validate_batch.cp3.nodes", "strata.validate_batch.cp4.nodes",
    "strata.validate_lines_batch.nodes", "strata.validate.calls", "projective.svd.calls",
    "projective.svd.matrices", "paths.sweep_item.calls", "paths.parse_loop_expr.calls",
    "invariants.winding.calls", "invariants.winding.samples",
    "invariants.winding.refinements", "invariants.line_constancy.calls",
    "invariants.fiber_winding_vector.calls", "invariants.snf_invariants.calls",
    "braids.identities", "report.bytes", "cli.main.calls",
)


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(times, counts, traced, untraced, pool):
    """Per-layer metrics for the JSON line, plus a readable table with the
    absolute times behind every share.  ``times`` covers all traced passes,
    ``counts`` one of them; ``traced`` and ``untraced`` are pass walls."""
    def c(key):
        return counts.get(key, 0)

    n_passes = len(traced)

    # validate_batch spans are named per ambient space; fold them together
    vb = [0, 0.0, 0.0]
    for amb in (2, 3, 4):
        row = times.get(f"strata.validate_batch.cp{amb}", [0, 0.0, 0.0])
        vb = [x + y for x, y in zip(vb, row)]
    times = dict(times)
    times["strata.validate_batch"] = vb

    def self_s(name):
        return times.get(name, [0, 0.0, 0.0])[2] / n_passes

    def incl_s(name):
        return times.get(name, [0, 0.0, 0.0])[1] / n_passes

    pass_s = sum(traced) / n_passes

    def pct(seconds):
        return 100.0 * seconds / pass_s

    m = {}
    wall_t, wall_u = statistics.median(traced), statistics.median(untraced)
    m["trace.wall_s"] = (wall_t, "s")
    m["trace.untraced_wall_s"] = (wall_u, "s")
    m["trace.overhead_s"] = (wall_t - wall_u, "s")
    m["trace.overhead_pct"] = (100.0 * (wall_t - wall_u) / wall_u, "%")
    for k in COUNTS:
        m[k] = (c(k), "count")
    m["strata.validate_batch.nodes_per_call"] = (
        _ratio(c("strata.validate_batch.nodes"), c("strata.validate_batch.calls")), "ratio")
    m["strata.validate_batch.unique_node_ratio"] = (
        _ratio(c("strata.validate_batch.unique_nodes"), c("strata.validate_batch.nodes")), "ratio")
    m["invariants.winding.repeat_ratio"] = (
        _ratio(c("invariants.winding.repeats"), c("invariants.winding.calls")), "ratio")
    m["paths.atom_evals_per_sample"] = (
        _ratio(c("paths.winding_atom_nodes"), c("invariants.winding.samples")), "ratio")
    for name in SELF_LAYERS:
        m[f"{name}.self_pct"] = (pct(self_s(name)), "%")
    for amb in (2, 3, 4):
        m[f"strata.validate_batch.cp{amb}.self_pct"] = (
            pct(self_s(f"strata.validate_batch.cp{amb}")), "%")
    for cid in CLAIMS:
        m[f"verify.claim.{cid}.wall_pct"] = (pct(incl_s(f"verify.claim.{cid}")), "%")
    for name in ("braid_reports", "winding_tables", "certificates"):
        m[f"verify.{name}.wall_pct"] = (pct(incl_s(f"verify.{name}")), "%")
    if pool:
        cap = pool["workers"] * pool["pool_wall_s"]
        m["verify.pool.busy_pct"] = (100.0 * pool["busy_s"] / cap, "%")
        m["verify.pool.idle_pct"] = (100.0 * pool["idle_s"] / cap, "%")
        m["verify.pool.queue_wait_pct"] = (100.0 * pool["mean_wait_s"] / pool["pool_wall_s"], "%")
        m["verify.pool.longest_claim_pct"] = (
            100.0 * pool["longest_claim_s"] / pool["pool_wall_s"], "%")
    else:
        for k in ("busy", "idle", "queue_wait", "longest_claim"):
            m[f"verify.pool.{k}_pct"] = (0.0, "%")

    # readable table: absolute self times and per-unit costs per traced pass
    per_unit = {
        "atlas.eval": ("ns/node", 1e9, "atlas.eval.nodes"),
        "strata.validate_batch": ("us/node", 1e6, "strata.validate_batch.nodes"),
        "strata.validate_batch.cp2": ("us/node", 1e6, "strata.validate_batch.cp2.nodes"),
        "strata.validate_batch.cp3": ("us/node", 1e6, "strata.validate_batch.cp3.nodes"),
        "strata.validate_batch.cp4": ("us/node", 1e6, "strata.validate_batch.cp4.nodes"),
        "strata.validate_lines_batch": ("us/node", 1e6, "strata.validate_lines_batch.nodes"),
        "strata.validate": ("us/call", 1e6, "strata.validate.calls"),
        "projective.svd": ("us/matrix", 1e6, "projective.svd.matrices"),
        "paths.parse_loop_expr": ("us/call", 1e6, "paths.parse_loop_expr.calls"),
        "invariants.winding": ("us/sample", 1e6, "invariants.winding.samples"),
        "cli.main": ("us/call", 1e6, "cli.main.calls"),
    }
    table = [f"per traced pass: {pass_s:.4f} s over {n_passes} passes"]
    for name in sorted(times):
        if name == "trace.hook" or not self_s(name) and not incl_s(name):
            continue
        line = (f"  {name:42s} calls {times[name][0] // n_passes:8d}  "
                f"self {self_s(name):9.5f} s  incl {incl_s(name):9.5f} s")
        if name in per_unit:
            unit, scale, key = per_unit[name]
            line += f"  {scale * _ratio(self_s(name), c(key)):10.3f} {unit} (self)"
        table.append(line)
    table.append(f"  tracing hooks: {self_s('trace.hook'):.5f} s per pass")
    if pool:
        table.append("  pool: " + ", ".join(f"{k} {v:.4f}" if isinstance(v, float) else f"{k} {v}"
                                           for k, v in pool.items()))
    return m, table


# ---------------------------------------------------------------------------
# host facts


def host_facts(seed, workload):
    import numpy as np
    import sympy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        blas_name = blas_version = "unknown"
    threads = {k: os.environ.get(k, "unset")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "sympy": sympy.__version__, "blas": blas_name, "blas_version": blas_version,
            "blas_threads": threads, "dcs_threads_env": os.environ.get("DCS_THREADS", "unset")}


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dcs", "cli.py")):
        print(f"error: no dcs package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import selfcheck
    from workloads import NPROC, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (one of {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    try:
        oracle_rows = selfcheck.run(ROOT)
    except (OSError, ValueError, AssertionError) as e:
        print(f"error: oracle self-check failed: {e}", file=sys.stderr)
        return 2
    for module in DCS_MODULES:
        __import__(module)

    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, ROOT, work_dir)
        with Runner(NPROC) as runner:
            warm = runner.run_pass([wl.warmup], 1)
            if warm.failures:
                raise RuntimeError(f"warm-up op failed: {warm.failures[0]}")
            if args.trace:
                metrics, table, tally = traced_run(runner, wl, args.seconds, args.seed)
                notes = {}
            else:
                setup_median, setup_values = setup_seconds(wl)
                metrics, notes, tally = timed_run(runner, wl, args.seconds)
                metrics = {"setup_s": (setup_median, "s"), **metrics,
                           "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                           / 1024.0, "MB")}
                notes["setup_s"] = ("median of " + ", ".join(f"{v:.4f}" for v in setup_values)
                                    + " s in fresh interpreters")
                notes["peak_rss_mb"] = "peak resident set of the benchmark process"
                table = []
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    print("host " + json.dumps(host_facts(args.seed, args.workload), sort_keys=True))
    for name, _clean, planted in oracle_rows:
        print(f"oracle self-check: {name}: rejected ({planted})")
    for line in table:
        print(line)
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"metric {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"error_rate = {rate:.4f} ratio ({tally.failed} failed of {tally.attempted} attempted)")
    for reason in tally.reasons:
        print(f"failure: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
