"""kernelbridge benchmark: real CLI pipelines, checked outputs, traced layers.

Run from the root of a checkout:

    python3 bench/run.py --workload spectral-chain --seed 1 --seconds 15 --trace 0

One closed-loop client drives the ``kernelbridge`` CLI as subprocesses:
each command starts only after the previous one exits, and each child
keeps numpy's default BLAS threads.  Every output is checked; failures
count against ``attempted``.

``--trace 0`` reports the end-to-end metrics of one workload.  Set-up
(seeded inputs plus one untimed warm-up pipeline) is repeated three times
and its median reported; the timed loop then runs whole rounds of
pipelines until ``--seconds`` have passed.

``--trace 1`` reports the per-layer metrics.  It times the named workload's
CLI commands as subprocesses, then runs the same seeded pipelines in this
process through ``kernelbridge.cli.main``, alternating untraced and traced
passes, with timing wrappers around the calls between layers (see
``tracing.py``).  Both passes run whole rounds for half of ``--seconds``
each.  Each per-call metric is taken on the workload that exercises its
layer, so one companion round of each other workload is run, checked and
traced too.

The last line of stdout is one JSON object with the metrics BENCHMARK.json
names.  Its ``attempted``/``failed`` count every invocation the run checks,
a traced run's companion rounds included; the counts per workload are
printed and kept in the record.  A full record (environment, sample counts,
all metrics, checks per workload) is written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Failure, Result, digest

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUPS = 3
IMPORT_PROBES = 5
ENTRY = "from kernelbridge.cli import main; raise SystemExit(main())"


# -- running commands ---------------------------------------------------------

#: a small helper that starts each CLI child.  Linux carries the peak RSS of
#: the process that forks into the child's ru_maxrss across exec, so children
#: forked by this (large) process would all report at least its peak.
SPAWNER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, env, out, err = json.loads(line)
    with open(out, "wb") as fout, open(err, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fout, stderr=ferr,
                                env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    print(json.dumps([code, wall, usage.ru_maxrss, usage.ru_utime + usage.ru_stime]),
          flush=True)
"""


#: string hashing seed of every CLI child.  With random seeds the allocation
#: pattern changes from process to process, and an n=1600 command on the same
#: input peaks at one of three resident sizes 20 MB apart.
CHILD_HASH_SEED = "0"


class SubprocessRunner:
    """Runs one CLI command in a fresh interpreter and measures it."""

    def __init__(self, scratch: Path):
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                        PYTHONHASHSEED=CHILD_HASH_SEED)
        self.out, self.err = scratch / "child.out", scratch / "child.err"
        self.helper = subprocess.Popen([sys.executable, "-c", SPAWNER], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)

    def spawn(self, argv) -> Result:
        request = [[sys.executable, *argv], self.env, str(self.out), str(self.err)]
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        reply = self.helper.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with code {self.helper.wait()}")
        code, wall, rss_kb, cpu = json.loads(reply)
        return Result(code, self.out.read_text(), wall, rss_kb=rss_kb, cpu=cpu,
                      stderr=self.err.read_text()[-2000:])

    def __call__(self, step) -> Result:
        return self.spawn(["-c", ENTRY, *step.argv])

    def close(self) -> None:
        """Let the helper finish its current child and exit; wait for it."""
        self.helper.stdin.close()
        self.helper.wait()
        self.helper.stdout.close()


class InProcessRunner:
    """Runs one CLI command through ``kernelbridge.cli.main`` in this process."""

    def __init__(self, main):
        self.main = main

    def __call__(self, step) -> Result:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(list(step.argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        return Result(code, out.getvalue(), time.perf_counter() - start,
                      stderr=err.getvalue()[-2000:])


class PipelineRun:
    def __init__(self, pipeline, wall, results, failures):
        self.pipeline, self.wall = pipeline, wall
        self.results, self.failures = results, failures


def run_pipeline(workload, p, runner) -> PipelineRun:
    """Run one pipeline closed-loop, then check its outputs (untimed)."""
    results, failures = [], []
    start = time.perf_counter()
    for i, step in enumerate(workload.steps(p)):
        result = runner(step)
        results.append((step, result))
        if result.code != step.expect:
            failures.append(Failure(i, f"{step.command} exited {result.code}, expected "
                                       f"{step.expect}: {result.stderr.strip()[-300:]}"))
            break
    wall = time.perf_counter() - start
    if not failures:
        try:
            failures = workload.check(p, [r for _, r in results])
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            failures = [Failure(len(results) - 1, f"outputs unreadable: {exc!r}")]
    return PipelineRun(p, wall, results, failures)


class Tally:
    """Invocation counts, failures and per-command measurements of a run."""

    def __init__(self):
        self.attempted = self.failed = self.rejections = 0
        self.failures: list[str] = []
        self.walls = defaultdict(list)
        self.peak_rss_kb = 0
        self.cpu = []
        self.readings = defaultdict(list)
        #: per-pipeline detail of the timed loop, kept in the results file
        self.pipelines = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def invocation(self, step, result) -> Result:
        self.attempted += 1
        if result.code != step.expect:
            self.fail(f"set-up {step.command} exited {result.code}")
        return result

    def count(self, run: PipelineRun) -> None:
        """Count a pipeline's invocations, failures and accuracy readings."""
        self.attempted += len(run.results)
        for i in sorted({f.step for f in run.failures}):
            self.fail(f"pipeline {run.pipeline.index} step {i} "
                      f"({run.results[i][0].command}): "
                      + "; ".join(f.message for f in run.failures if f.step == i))
        for key, value in run.pipeline.readings.items():
            self.readings[key] += value if isinstance(value, list) else [value]

    def measure(self, run: PipelineRun) -> None:
        """Keep a pipeline's per-command wall, peak RSS, CPU and rejections."""
        for step, result in run.results:
            self.walls[step.command].append(result.wall)
            self.peak_rss_kb = max(self.peak_rss_kb, result.rss_kb)
            self.rejections += result.code == 3
        self.cpu.append(sum(result.cpu for _, result in run.results))


def loop(seconds, round_len, body) -> int:
    """Call ``body(i)`` for i = 0, 1, ... until ``seconds`` have passed,
    stopping only at round boundaries.  Returns the count."""
    start, i = time.perf_counter(), 0
    while True:
        body(i)
        i += 1
        if i % round_len == 0 and time.perf_counter() - start >= seconds:
            return i


# -- statistics ---------------------------------------------------------------

def tail(values):
    """Highest nearest-rank percentile with at least ten samples above it.

    Returns (value, percentile, samples beyond), or None below 11 samples.
    """
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def median_or_nan(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def round_means(walls, round_len):
    """Mean pipeline wall of each whole round.  A round mixes the workload's
    pipeline kinds (n = 200, 800 and 1600 on sample-calculus), so its mean is
    the unit that every kind counts in."""
    return [sum(walls[i:i + round_len]) / round_len
            for i in range(0, len(walls) - round_len + 1, round_len)]


# -- trace 0: end-to-end ------------------------------------------------------

def end_to_end(workload, seed, seconds, work, runner):
    tally = Tally()
    setups, reference = [], None
    for rep in range(SETUPS):
        start = time.perf_counter()
        inputs = work / f"inputs{rep}"
        workload.generate(seed, inputs, lambda step: tally.invocation(step, runner(step)))
        warm = run_pipeline(workload, workload.pipeline(0, inputs, work / f"warm{rep}"),
                            runner)
        setups.append(time.perf_counter() - start)
        tally.count(warm)
        workload.cleanup(warm.pipeline)
        # the same seed must give byte-identical inputs
        files = sorted(inputs.iterdir())
        tally.attempted += 1
        if reference is None:
            reference = digest(files)
        elif digest(files) != reference:
            tally.fail(f"set-up {rep} inputs differ from set-up 0 for the same seed")
        if rep:
            shutil.rmtree(inputs)

    runs = []

    def body(i):
        run = run_pipeline(workload, workload.pipeline(i, work / "inputs0", work / "timed"),
                           runner)
        tally.count(run)
        tally.measure(run)
        runs.append(run)
        workload.cleanup(run.pipeline)

    loop(seconds, workload.round_len, body)
    walls = [run.wall for run in runs]
    units = round_means(walls, workload.round_len)
    metrics = {
        "setup_s": (median_or_nan(setups), "s", len(setups)),
        "pipeline_p50_s": (median_or_nan(units), "s", len(units)),
        "pipelines_per_s": (len(walls) / sum(walls), "1/s", len(walls)),
        "error_rate": (tally.failed / max(tally.attempted, 1), "ratio", tally.attempted),
        "peak_rss_mb": (tally.peak_rss_kb * 1024 / 1e6, "MB",
                        sum(len(r.results) for r in runs)),
    }
    unit = "pipelines" if workload.round_len == 1 else f"rounds of {workload.round_len}"
    tail_stat = tail(units)
    notes = {"pipeline_tail_s": (
        f"p{tail_stat[1]:.1f}, {tail_stat[2]} {unit} beyond it" if tail_stat
        else f"n/a: {len(units)} {unit}, a percentile with 10 beyond needs at least 11")}
    if tail_stat:
        metrics["pipeline_tail_s"] = (tail_stat[0], "s", len(units))
    if workload.round_len > 1:
        notes["pipeline_p50_s"] = (f"median over {unit} of their mean pipeline wall: "
                                   + ", ".join(f"{u:.3f}" for u in units))
    notes["setup_s"] = f"median of {SETUPS} set-ups: " + ", ".join(f"{s:.3f}" for s in setups)
    notes["pipelines_per_s"] = f"{len(walls)} pipelines in {sum(walls):.3f} s of pipeline time"
    notes["error_rate"] = f"{tally.failed} failed of {tally.attempted} invocations"
    tally.pipelines = [{"index": r.pipeline.index, "wall": r.wall,
                        "commands": [[step.command, res.wall, res.rss_kb]
                                     for step, res in r.results]}
                       for r in runs]
    return metrics, notes, {workload.name: tally}


# -- trace 1: per layer -------------------------------------------------------

def import_kernelbridge():
    sys.path.insert(0, str(SRC))
    import kernelbridge
    import kernelbridge.cli
    if Path(kernelbridge.__file__).resolve().parent != (SRC / "kernelbridge").resolve():
        raise RuntimeError(f"imported kernelbridge from {kernelbridge.__file__}, not {SRC}")
    return kernelbridge


def per_layer(name, seed, seconds, work, runner):
    named = WORKLOADS[name]()
    companions = [cls() for key, cls in WORKLOADS.items() if key != name]
    #: checks are counted per workload, so the record shows whose output failed
    tallies = {wl.name: Tally() for wl in [named] + companions}
    inputs = {}
    for wl in [named] + companions:
        inputs[wl.name] = work / wl.name / "inputs"
        wl.generate(seed, inputs[wl.name],
                    lambda step, t=tallies[wl.name]: t.invocation(step, runner(step)))
    tally = tallies[name]
    warm = run_pipeline(named, named.pipeline(0, inputs[name], work / "warm"), runner)
    tally.count(warm)
    named.cleanup(warm.pipeline)

    # untraced subprocess pass: per-command wall, CPU and rejection counts
    sub, companion_sub = Tally(), Tally()

    def subprocess_pipeline(wl, i, target):
        run = run_pipeline(wl, wl.pipeline(i, inputs[wl.name], work / wl.name / "sub"), runner)
        tallies[wl.name].count(run)
        target.measure(run)
        wl.cleanup(run.pipeline)

    loop(seconds / 2, named.round_len, lambda i: subprocess_pipeline(named, i, sub))
    for wl in companions:
        for i in range(wl.round_len):
            subprocess_pipeline(wl, i, companion_sub)
    for command, walls in companion_sub.walls.items():
        sub.walls[command] += walls
    # the planted rejections run in sample-calculus, named or companion
    sub.rejections += companion_sub.rejections

    imports = [runner.spawn(["-c", "import kernelbridge"]).wall for _ in range(IMPORT_PROBES)]

    # in-process passes over the same seeded pipelines
    kb = import_kernelbridge()
    tracer = Tracer()
    plain = InProcessRunner(kb.cli.main)
    traced = InProcessRunner(tracer.wrap("cli.main", "cli", kb.cli.main,
                                         lambda args, result: {"command": args[0][0]}))
    pairs = []  # (untraced, traced) wall of the same pipeline

    def traced_pipeline(wl, i):
        p = wl.pipeline(i, inputs[wl.name], work / wl.name / "inproc")
        tracer.install(kb)
        try:
            with tracer.root(f"{wl.name}:{i}"):
                run = run_pipeline(wl, p, traced)
        finally:
            tracer.uninstall()
        tallies[wl.name].count(run)
        wl.cleanup(p)
        return run.wall

    def untraced_pipeline(i):
        p = named.pipeline(i, inputs[name], work / name / "inproc")
        run = run_pipeline(named, p, plain)
        tally.count(run)
        named.cleanup(p)
        return run.wall

    def pair(i):
        # alternate which runs first, so cache and writeback effects cancel
        if i % 2 == 0:
            pairs.append((untraced_pipeline(i), traced_pipeline(named, i)))
        else:
            traced_wall = traced_pipeline(named, i)
            pairs.append((untraced_pipeline(i), traced_wall))

    loop(seconds / 2, named.round_len, pair)
    for wl in companions:
        for i in range(wl.round_len):
            traced_pipeline(wl, i)

    metrics = layer_metrics(tracer, name, sub, imports, pairs, tallies)
    tally.pipelines = [{"index": i, "untraced": u, "traced": t}
                       for i, (u, t) in enumerate(pairs)]
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    tracer.dump(results_dir / f"{name}.seed{seed}.spans.jsonl")
    notes = {"trace.traced_over_untraced":
             f"median over {len(pairs)} pairs of in-process pipelines: " + ", ".join(
                 f"{t:.3f}/{u:.3f}" for u, t in pairs)}
    return metrics, notes, tallies


SIZES = (200, 800, 1600)
SUBCOMMANDS = ("invert", "gamma", "screw", "synth", "bound-check", "check-nd", "nd-to-psd",
               "check-psd", "embed", "rff", "product-synth")


def layer_metrics(tracer, name, sub, imports, pairs, tallies):
    """Per-layer metrics from the spans (see README.md for definitions)."""
    spans = tracer.spans
    by_workload = defaultdict(list)
    for span in spans:
        by_workload[span.pipeline.split(":")[0]].append(span)

    def calls(home, span_name, **match):
        return [s for s in by_workload[home] if s.name == span_name
                and all((s.attrs or {}).get(k) == v for k, v in match.items())]

    def per_call(home, span_name, field="dur_ns", **match):
        found = calls(home, span_name, **match)
        return (median_or_nan([getattr(s, field) for s in found]) / 1e9, "s", len(found))

    def ancestor(span, span_name):
        span = span.parent
        while span is not None and span.name != span_name:
            span = span.parent
        return span

    own = by_workload[name]
    roots = [s for s in own if s.name == "pipeline"]
    n_pipelines = len(roots)
    per_pipeline = lambda count: (count / n_pipelines, "count", n_pipelines)  # noqa: E731

    m = {"cli.import_s": (median_or_nan(imports), "s", len(imports))}
    for command in SUBCOMMANDS:
        m[f"cli.{command}_s"] = (median_or_nan(sub.walls[command]), "s",
                                 len(sub.walls[command]))
    m["cli.cpu_s"] = (median_or_nan(sub.cpu), "s", len(sub.cpu))
    m["cli.rejections"] = (sub.rejections, "count", len(sub.walls["embed"]))

    for n in SIZES:
        m[f"io.read_matrix_csv_n{n}_s"] = per_call("sample-calculus", "io.read_matrix_csv",
                                                   shape=[n, n])
        m[f"io.write_matrix_csv_n{n}_s"] = per_call("sample-calculus", "io.write_matrix_csv",
                                                    shape=[n, n])
        written = calls("sample-calculus", "io.write_matrix_csv", shape=[n, n])
        m[f"io.matrix_csv_bytes_n{n}"] = (median_or_nan([s.attrs["bytes"] for s in written]),
                                          "bytes", len(written))
    m["io.read_json_s"] = per_call("spectral-chain", "io.read_json", file="gamma.json")
    m["io.write_json_s"] = per_call("spectral-chain", "io.write_json", file="gamma.json")
    written = calls("spectral-chain", "io.write_json", file="gamma.json")
    m["io.json_bytes"] = (median_or_nan([s.attrs["bytes"] for s in written]), "bytes",
                          len(written))
    m["io.write_profile_csv_s"] = per_call("spectral-chain", "io.write_profile_csv")

    evals = defaultdict(lambda: [0, 0])
    for s in calls("spectral-chain", "profiles.kernel_eval"):
        command = ancestor(s, "cli.main")
        if command is not None and command.attrs["command"] == "invert":
            evals[command.id][0] += s.self_ns
            evals[command.id][1] += s.attrs["points"]
    m["profiles.kernel_eval_s"] = (median_or_nan([v[0] for v in evals.values()]) / 1e9, "s",
                                   len(evals))
    m["profiles.points_evaluated"] = (median_or_nan([v[1] for v in evals.values()]), "count",
                                      len(evals))

    for n in SIZES:
        for fn in ("is_negative_definite", "is_positive_definite", "nd_to_psd",
                   "euclidean_embedding"):
            m[f"gram.{fn}_n{n}_s"] = per_call("sample-calculus", f"gram.{fn}", n=n)
    calculus = by_workload["sample-calculus"]
    nested = [s for s in calculus if s.name == "gram.is_negative_definite"
              and ancestor(s, "gram.euclidean_embedding") is not None]
    calculus_roots = sum(s.name == "pipeline" for s in calculus)
    m["gram.nested_nd_calls"] = (len(nested) / calculus_roots, "count", calculus_roots)

    m["measures.from_dict_s"] = per_call("spectral-chain", "measures.from_dict",
                                         kind="GammaMeasure")
    m["measures.to_dict_s"] = per_call("spectral-chain", "measures.to_dict",
                                       kind="GammaMeasure")
    converted = calls("spectral-chain", "measures.to_dict", kind="GammaMeasure")
    m["measures.gamma_bins"] = (median_or_nan([s.attrs["bins"] for s in converted]), "count",
                                len(converted))

    for fn in ("bochner_inversion", "atom_at_zero", "bochner_synthesis", "gamma_from_spectral",
               "spectral_from_gamma", "screw_synthesis", "int_bound_integral"):
        m[f"spectral.{fn}_s"] = per_call("spectral-chain", f"spectral.{fn}")
    m["spectral.bochner_inversion_self_s"] = per_call("spectral-chain",
                                                      "spectral.bochner_inversion", "self_ns")
    m["spectral.bochner_synthesis_calls"] = per_pipeline(
        sum(s.name == "spectral.bochner_synthesis" for s in own))
    residuals = tallies["spectral-chain"].readings["inversion_residual"]
    m["spectral.inversion_residual"] = (max(residuals, default=float("nan")), "abs",
                                        len(residuals))
    gaps = tallies["spectral-chain"].readings["identity_gap"]
    m["spectral.identity_gap"] = (max(gaps, default=float("nan")), "abs", len(gaps))

    m["product.product_synthesis_s"] = per_call("feature-map", "product.product_synthesis")
    m["product.product_synthesis_calls"] = per_pipeline(
        sum(s.name == "product.product_synthesis" for s in own))
    for fn in ("sample_frequencies", "sample_product_frequencies", "approximate_kernel"):
        m[f"features.{fn}_s"] = per_call("feature-map", f"features.{fn}")
    m["features.approximate_kernel_calls"] = per_pipeline(
        sum(s.name == "features.approximate_kernel" for s in own))
    errors = tallies["feature-map"].readings["rff_max_abs_error"]
    m["features.rff_max_abs_error"] = (max(errors, default=float("nan")), "abs", len(errors))

    # bookkeeping: tracing overhead, coverage and each layer's share of self time
    m["trace.traced_over_untraced"] = (median_or_nan([t / u for u, t in pairs]), "ratio",
                                       len(pairs))
    total = sum(r.dur_ns for r in roots)
    self_by_layer = defaultdict(int)
    for s in own:
        self_by_layer[s.layer] += s.self_ns
    # time inside the spans of the seven layers below cli; cli's own code,
    # its calls that no wrapper sees and the client between commands are not
    m["trace.coverage"] = (sum(v for layer, v in self_by_layer.items()
                               if layer not in ("cli", "pipeline")) / total,
                           "ratio", n_pipelines)
    for layer in LAYERS:
        m[f"share.{layer}"] = (self_by_layer[layer] / total, "ratio", n_pipelines)
    return m


# -- environment and output ---------------------------------------------------

def blas_threads():
    """OpenBLAS thread count from numpy's bundled library, if it can be found."""
    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs",
                           "*openblas*")
    for lib in glob.glob(pattern):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = sorted((SRC / "kernelbridge").glob("*.py"))
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor()) \
        if Path("/proc/cpuinfo").exists() else platform.processor()
    return {
        "commit": commit,
        "source_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                            if k in os.environ},
        "child_hash_seed": CHILD_HASH_SEED,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "kernelbridge" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from a kernelbridge checkout; {SRC / 'kernelbridge'} or "
              f"{spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = SubprocessRunner(work)
    try:
        if args.trace:
            metrics, notes, tallies = per_layer(args.workload, args.seed, args.seconds, work,
                                                runner)
        else:
            metrics, notes, tallies = end_to_end(WORKLOADS[args.workload](), args.seed,
                                                 args.seconds, work, runner)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args)
    tally = tallies[args.workload]
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.failed for t in tallies.values())
    record = {"environment": env, "attempted": attempted, "failed": failed,
              "checks": {key: {"attempted": t.attempted, "failed": t.failed,
                               "failures": t.failures} for key, t in tallies.items()},
              "pipelines": tally.pipelines,
              "metrics": {k: {"value": v, "unit": u, "samples": n, "note": notes.get(k)}
                          for k, (v, u, n) in metrics.items()}}
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()
                     if k not in ("workload", "seed", "trace")))
    for key, (value, unit, samples) in metrics.items():
        note = notes.get(key, "")
        print(f"{key:40s} {value:>14.6g} {unit:6s} n={samples:<5d} {note}")
    for key, note in notes.items():
        if key not in metrics:
            print(f"{key:40s} {'n/a':>14s} {'':6s} {'':7s} {note}")
    for key, t in tallies.items():
        role = "" if key == args.workload else " (companion round)"
        print(f"checked {key}: {t.failed} failed of {t.attempted} invocations{role}")
        for failure in t.failures:
            print(f"FAILED [{key}]: {failure}")

    missing = [m["name"] for m in wanted
               if m["name"] not in metrics or not np.isfinite(metrics[m["name"]][0])]
    if missing:
        print(f"error: metrics {missing} were not measured", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
