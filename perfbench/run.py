#!/usr/bin/env python3
"""torsflow benchmark: one closed-loop client driving the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from a source checkout: the package is imported from ./src next to
this directory, never from an installed copy. NAME is one of many-blocks,
wide-fiber, nonacyclic, oracle; "all" runs each in its own process and
prints one row per workload.

Each workload issues five operation kinds on its own generated inputs,
one at a time (the next starts when the previous returned), with each
kind getting a fixed share of the run time:

    solve    torsflow.total_torsion(model, mode="auto")
    fast     torsflow.total_torsion(model, mode="fast")   (all-circle models)
    cli      torsflow.cli.main(["compute", "--input", doc, "--format", "json"])
    generic  torsflow.filtered_pages(filtered complex)
    oracle   torsflow.cw_torsion(CW complex, representation)

Every result is checked against a reference from workloads.py; an
operation fails if it raises, returns a non-finite value, or misses its
reference by more than 1e-8 relative (compared in log space). Before the
timed loop, the cross-route cases are run through every legal route and
the routes must agree to 1e-8.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes (one operation of each kind on its first case) and
reports the per-layer metrics, writing the spans of the first traced pass
to .perfbench/ in the checkout. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

KINDS = ("solve", "cli", "generic", "fast", "oracle")
SETUP_REPEATS = 5
REL_TOL = 1e-8

END_TO_END = {
    "setup_s": "s",
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "blocks_per_s": "1/s",
    "fast_p50_s": "s",
    "cli_p50_s": "s",
    "generic_p50_s": "s",
    "oracle_p50_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "bott.validate_s": "s",
    "bott.validate_calls_per_model": "count",
    "bott.block_cohomology_s": "s",
    "bott.block_cohomology_calls_per_block": "count",
    "bott.assemble_d1_self_s": "s",
    "bott.warning_lines_per_model": "count",
    "bott.assemble_complex_s": "s",
    "bott.page_two_s": "s",
    "bott.assemble_d2_s": "s",
    "bott.total_torsion_self_s": "s",
    "complexes.based_complex_s": "s",
    "complexes.complex_torsion_s": "s",
    "complexes.complex_torsion_calls": "count",
    "complexes.cohomology_bases_s": "s",
    "spectral.filtered_pages_s": "s",
    "spectral.filtered_complex_s": "s",
    "linalg.rank_nullspace_s": "s",
    "linalg.rank_nullspace_calls": "count",
    "linalg.range_basis_calls": "count",
    "linalg.svd_calls": "count",
    "linalg.svd_s": "s",
    "linalg.svd_ops_computed": "flop",
    "linalg.svd_per_rank_decision": "ratio",
    "linalg.ambiguous_rank_warnings": "count",
    "representation.evaluate_s": "s",
    "representation.evaluate_calls": "count",
    "representation.word_letters": "count",
    "cw.twisted_cochain_s": "s",
    "cw.cw_torsion_s": "s",
    "documents.load_json_s": "s",
    "documents.parse_model_s": "s",
    "cli.render_s": "s",
    "cli.stdout_bytes_per_model": "B",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def blas_threads():
    """OpenBLAS thread count read from the loaded library, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------
# set-up: program objects from the generated data


def build_model(tf, data):
    rep = tf.Representation(data.dim, data.generators)
    blocks = [tf.CriticalBlock(**b) for b in data.blocks]
    conns = [
        tf.GradientConnection(src, dst, tuple(tf.Orbit(sign, word) for sign, word in orbits))
        for src, dst, orbits in data.connections
    ]
    return tf.BottModel(rep, blocks, conns)


def build(tf, work, docs):
    """Program inputs per (kind, index); cli inputs are document paths."""
    models = {}

    def model(data):
        if id(data) not in models:
            models[id(data)] = build_model(tf, data)
        return models[id(data)]

    inputs = {}
    for kind, cases in work.cases.items():
        for i, data in enumerate(cases):
            if kind in ("solve", "fast"):
                obj = model(data)
            elif kind == "cli":
                obj = docs[id(data)]
            elif kind == "generic":
                if hasattr(data, "blocks"):
                    obj = tf.assemble_complex(model(data))
                else:
                    base = tf.BasedComplex(data.dims, data.diffs)
                    obj = tf.FilteredComplex(base, data.levels, data.num_levels)
            else:
                obj = (tf.lens_space(data.p, data.q), tf.Representation(data.t.shape[0], {"t": data.t}))
            inputs[(kind, i)] = obj
    return inputs


def import_seconds() -> float:
    """Wall time of `import torsflow` in a fresh interpreter (numpy already
    imported, as the benchmark imports it before set-up too)."""
    code = ("import sys, time, numpy; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import torsflow.cli; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout.strip())


def fill_pattern_references(tf, work):
    """log_ref of merged pattern models: the sum over their copies, each
    copy by its closed form or by filtered_pages on its own Morse complex."""
    seen = set()
    for cases in work.cases.values():
        for data in cases:
            if not getattr(data, "copies", None) or id(data) in seen:
                continue
            seen.add(id(data))
            total = 0.0
            for copy in data.copies:
                if math.isnan(copy.log_ref):
                    res = tf.filtered_pages(tf.assemble_complex(build_model(tf, copy)))
                    copy.log_ref = math.log(res.product_check.direct)
                total += copy.log_ref
            data.log_ref = total


# ---------------------------------------------------------------------------
# operations and their checks


def run_op(tf, cli, kind, obj):
    """Run one operation; return what the check needs (not timed)."""
    if kind == "solve" or kind == "fast":
        report = tf.total_torsion(obj, mode="auto" if kind == "solve" else "fast")
        return {"value": report.total.modulus, "einf": dict(report.einf_dims),
                "warnings": len(report.warnings)}
    if kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["compute", "--input", obj, "--format", "json"])
        return {"code": code, "stdout": buf.getvalue()}
    if kind == "generic":
        res = tf.filtered_pages(obj)
        return {"value": res.total.modulus,
                "einf": {k: v for k, v in res.infinity_dims.items() if v}}
    dims, tau = tf.cw_torsion(*obj)
    return {"value": tau.modulus, "dims": tuple(dims)}


def log_close(value, log_ref) -> bool:
    """True when value is a positive finite number within REL_TOL of exp(log_ref)."""
    if not (isinstance(value, float) and math.isfinite(value) and value > 0.0):
        return False
    return abs(math.log(value) - log_ref) <= REL_TOL


def result_value(kind, out):
    """(value, einf) from an operation's output; cli output is parsed here."""
    if kind == "cli":
        if out["code"] != 0:
            return math.nan, None
        doc = json.loads(out["stdout"])
        einf = {tuple(int(x) for x in key.split(",")): v
                for key, v in doc["page_dims"]["Einf"].items()}
        value = doc["total"]
        return (float(value) if isinstance(value, (int, float)) else math.nan), einf
    return out["value"], out.get("einf")


def check(kind, data, out) -> bool:
    value, einf = result_value(kind, out)
    if not log_close(value, data.log_ref):
        return False
    if kind == "oracle":
        return out["dims"] == data.dims
    return einf == data.einf


class Tally:
    """Attempted and failed operations and checks; the first failure is
    printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed == 1:
                print(f"FAILED: {what}", file=sys.stderr)


def attempt(tf, cli, kind, obj, data, tally):
    """Run, time and check one operation; returns (seconds, out or None)."""
    start = time.perf_counter()
    try:
        out = run_op(tf, cli, kind, obj)
    except Exception as err:  # a failing operation is counted, the run goes on
        tally.record(False, f"{kind} on {data.name}: {type(err).__name__}: {err}")
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    ok = check(kind, data, out)
    tally.record(ok, f"{kind} on {data.name}: result does not match the reference")
    return elapsed, out if ok else None


def cross_route(tf, cli, work, inputs, tally):
    """Run each cross-route case through auto, fast (where legal) and the
    generic route; every route must match the reference and each other."""
    for kind, index in work.cross_route:
        data = work.cases[kind][index]
        model = build_model(tf, data) if kind == "generic" else inputs[(kind, index)]
        routes = {"auto": ("solve", model), "generic": ("generic", tf.assemble_complex(model))}
        if data.fast_legal:
            routes["fast"] = ("fast", model)
        values = {}
        for route, (route_kind, route_obj) in routes.items():
            _, out = attempt(tf, cli, route_kind, route_obj, data, tally)
            if out is not None:
                values[route] = result_value(route_kind, out)[0]
        names = sorted(routes)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                agree = a in values and b in values and abs(
                    math.log(values[a]) - math.log(values[b])) <= REL_TOL
                tally.record(agree, f"{a} and {b} disagree on {data.name}")


# ---------------------------------------------------------------------------
# measurement


def tail(samples):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it; the minimum when there are ten or fewer."""
    ordered = sorted(samples)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def timed_loop(tf, cli, work, inputs, seconds, tally):
    """Closed loop until the deadline; per kind and case, the seconds of
    each operation that passed its check."""
    by_case = {k: [[] for _ in work.cases[k]] for k in KINDS}
    used = {k: 0.0 for k in KINDS}
    cursor = {k: 0 for k in KINDS}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        kind = min(KINDS, key=lambda k: used[k] / work.shares[k])
        index = cursor[kind] % len(work.cases[kind])
        cursor[kind] += 1
        data = work.cases[kind][index]
        elapsed, out = attempt(tf, cli, kind, inputs[(kind, index)], data, tally)
        used[kind] += elapsed
        if out is not None:
            by_case[kind][index].append(elapsed)
    return by_case


def end_to_end(work, by_case, setup_s):
    samples = {k: [t for case in cases for t in case] for k, cases in by_case.items()}
    throughput = [work.cases["solve"][i].n_blocks / t
                  for i, case in enumerate(by_case["solve"]) for t in case]

    def median(kind):
        return statistics.median(samples[kind]) if samples[kind] else math.nan

    tail_value, tail_pct = tail(samples["solve"]) if samples["solve"] else (math.nan, 0.0)
    metrics = {
        "setup_s": setup_s,
        "solve_p50_s": median("solve"),
        "solve_tail_s": tail_value,
        "blocks_per_s": statistics.median(throughput) if throughput else math.nan,
        "fast_p50_s": median("fast"),
        "cli_p50_s": median("cli"),
        "generic_p50_s": median("generic"),
        "oracle_p50_s": median("oracle"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"solve_tail_percentile": round(tail_pct, 1),
            "samples": {k: len(v) for k, v in samples.items()},
            "case_p50_s": {k: [statistics.median(c) if c else None for c in cases]
                           for k, cases in by_case.items()}}
    return metrics, info


def traced_loop(tf, cli, work, inputs, seconds, tally, spans_path):
    """Alternate untraced and traced passes until the time is up (at least
    one of each); per-layer metrics from the traced ones."""
    from spans import Recorder

    plan = [(kind, 0) for kind in KINDS]
    untraced, traced, cpu, wall = [], [], 0.0, 0.0
    layer_runs = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced:
        c0, w0 = time.process_time(), time.perf_counter()
        for kind, index in plan:
            attempt(tf, cli, kind, inputs[(kind, index)], work.cases[kind][index], tally)
        w1 = time.perf_counter()
        untraced.append(w1 - w0)
        cpu += time.process_time() - c0
        wall += w1 - w0

        rec = Recorder()
        outs = {}
        start = time.perf_counter()
        with rec.patched(tf):
            for kind, index in plan:
                with rec.span(f"op.{kind}"):
                    _, outs[kind] = attempt(tf, cli, kind, inputs[(kind, index)],
                                            work.cases[kind][index], tally)
        traced.append(time.perf_counter() - start)
        layer_runs.append(layer_metrics(rec, work, outs))
        if len(layer_runs) == 1:
            rec.write(spans_path)
    metrics = {
        name: statistics.median(run[name] for run in layer_runs) if name.endswith("_s")
        else value
        for name, value in layer_runs[0].items()
    }
    metrics["process.cpu_per_wall"] = cpu / wall
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    counts_repeat = all(
        run[name] == layer_runs[0][name]
        for run in layer_runs for name in run if not name.endswith("_s"))
    return metrics, {"passes": len(traced), "counts_repeat": counts_repeat}


def layer_metrics(rec, work, outs):
    """Per-layer numbers of one traced pass (one operation per kind)."""
    inc, own, calls = rec.inclusive, rec.self_time, rec.calls
    solve = work.cases["solve"][0]
    rank_decisions = calls["linalg.rank_nullspace"] + calls["linalg.range_basis"]
    cli_out = outs.get("cli") or {}
    solve_out = outs.get("solve") or {}
    return {
        "bott.validate_s": inc["bott.validate_model"],
        # solve, cli and fast each process one model per pass
        "bott.validate_calls_per_model": calls["bott.validate_model"] / 3,
        "bott.block_cohomology_s": inc["bott.block_cohomology"],
        "bott.block_cohomology_calls_per_block":
            rec.calls_by_root[("op.solve", "bott.block_cohomology")] / solve.n_blocks,
        "bott.assemble_d1_self_s": own["bott.assemble_d1"],
        "bott.warning_lines_per_model": float(solve_out.get("warnings", 0)),
        "bott.assemble_complex_s": inc["bott.assemble_complex"],
        "bott.page_two_s": inc["bott.page_two"],
        "bott.assemble_d2_s": inc["bott.assemble_d2"],
        "bott.total_torsion_self_s": own["bott.total_torsion"],
        "complexes.based_complex_s": inc["complexes.BasedComplex"],
        "complexes.complex_torsion_s": inc["complexes.complex_torsion"],
        "complexes.complex_torsion_calls": float(calls["complexes.complex_torsion"]),
        "complexes.cohomology_bases_s": inc["complexes.cohomology_bases"],
        "spectral.filtered_pages_s": inc["spectral.filtered_pages"],
        "spectral.filtered_complex_s": inc["spectral.FilteredComplex"],
        "linalg.rank_nullspace_s": inc["linalg.rank_nullspace"],
        "linalg.rank_nullspace_calls": float(calls["linalg.rank_nullspace"]),
        "linalg.range_basis_calls": float(calls["linalg.range_basis"]),
        "linalg.svd_calls": float(calls["numpy.linalg.svd"]),
        "linalg.svd_s": inc["numpy.linalg.svd"],
        "linalg.svd_ops_computed": float(rec.counts["linalg.svd_flops"]),
        "linalg.svd_per_rank_decision": calls["numpy.linalg.svd"] / max(rank_decisions, 1),
        "linalg.ambiguous_rank_warnings": float(rec.counts["linalg.ambiguous_rank"]),
        "representation.evaluate_s": inc["representation.evaluate"],
        "representation.evaluate_calls": float(calls["representation.evaluate"]),
        "representation.word_letters": float(rec.counts["representation.word_letters"]),
        "cw.twisted_cochain_s": inc["cw.twisted_cochain"],
        "cw.cw_torsion_s": inc["cw.cw_torsion"],
        "documents.load_json_s": inc["documents.load_json"],
        "documents.parse_model_s": inc["documents.parse_model"],
        "cli.render_s": own["cli.main"],
        "cli.stdout_bytes_per_model": float(len(cli_out.get("stdout", "").encode())),
    }


# ---------------------------------------------------------------------------
# entry points


def run_workload(args) -> int:
    if not (SRC / "torsflow" / "__init__.py").is_file():
        print(f"error: no torsflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import numpy as np
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = workloads.generate(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"work-{os.getpid()}"
    scratch.mkdir()
    try:
        docs = {}
        for i, data in enumerate(work.cases["cli"]):
            path = scratch / f"model{i}.json"
            path.write_text(json.dumps(data.to_document()), encoding="utf-8")
            docs[id(data)] = str(path)

        imports = [import_seconds() for _ in range(SETUP_REPEATS)]
        sys.path.insert(0, str(SRC))
        import torsflow as tf
        import torsflow.cli as cli

        if Path(tf.__file__).resolve().parent != SRC / "torsflow":
            print(f"error: imported torsflow from {tf.__file__}", file=sys.stderr)
            return 2
        builds = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = build(tf, work, docs)
            builds.append(time.perf_counter() - start)
        setup_s = statistics.median(imports) + statistics.median(builds)

        fill_pattern_references(tf, work)
        tally = Tally()
        cross_route(tf, cli, work, inputs, tally)
        for kind in KINDS:  # warm-up: first case of each kind, checked, not timed
            attempt(tf, cli, kind, inputs[(kind, 0)], work.cases[kind][0], tally)

        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            metrics, info = traced_loop(tf, cli, work, inputs, args.seconds, tally, spans)
            units = PER_LAYER
            info["spans"] = str(spans.relative_to(ROOT))
        else:
            by_case = timed_loop(tf, cli, work, inputs, args.seconds, tally)
            metrics, info = end_to_end(work, by_case, setup_s)
            units = END_TO_END
        info["fail_ratio"] = tally.failed / max(tally.attempted, 1)
        info["environment"] = environment(np)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()  # only when no spans were written

    width = max(len(n) for n in units)
    for name, unit in units.items():
        print(f"{args.workload:<12} {name:<{width}} {metrics[name]:>14.6g} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    correct = tally.failed == 0 and all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one row per workload."""
    sys.path.insert(0, str(BENCH))
    import workloads

    rows = []
    status = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
        rows.append((name, result, info))
        status |= 0 if result["correct"] else 1
    units = PER_LAYER if args.trace else END_TO_END
    names = list(units) + ["fail_ratio"]
    print(f"{'metric':<38}" + "".join(f"{name:>14}" for name, _, _ in rows))
    for metric in names:
        cells = []
        for _, result, info in rows:
            if metric == "fail_ratio":
                cells.append(f"{info.get('fail_ratio', math.nan):>14.3g}")
            else:
                cells.append(f"{result['metrics'][metric]['value']:>14.5g}")
        unit = units.get(metric, "ratio")
        print(f"{metric + ' [' + unit + ']':<38}" + "".join(cells))
    if args.trace:
        print(f"{'counts repeat between passes':<38}" + "".join(
            f"{str(info['counts_repeat']):>14}" for _, _, info in rows))
    else:
        print(f"{'solve_tail_s percentile':<38}" + "".join(
            f"{'p%g of %d' % (info['solve_tail_percentile'], info['samples']['solve']):>14}"
            for _, _, info in rows))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
