"""Tests of the benchmark itself (not part of the library suite).

    python3 -m pytest -q bench/test_bench.py

They check that the seeded input generator is deterministic and that the
output checker counts a corrupted output of every kind as a failure.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import kernelbridge.cli  # noqa: E402
from run import InProcessRunner, round_means, run_pipeline  # noqa: E402
from workloads import (FeatureMap, Pipeline, SampleCalculus, SpectralChain,  # noqa: E402
                       WORKLOADS, squared_distances, write_matrix)

RUNNER = InProcessRunner(kernelbridge.cli.main)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    workload = WORKLOADS[name]()
    for copy in ("a", "b"):
        workload.generate(7, tmp_path / copy, RUNNER)
    files_a = sorted((tmp_path / "a").iterdir())
    assert [f.name for f in files_a] == [f.name for f in sorted((tmp_path / "b").iterdir())]
    for f in files_a:
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name
    assert workload.plan(7) != workload.plan(8)


def with_stdout(result, **changes):
    summary = result.summary()
    summary.update(changes)
    return dataclasses.replace(result, stdout=json.dumps(summary))


def edit_csv(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def bump_last_cell(lines, amount=1e-5, row=-1):
    cells = lines[row].split(",")
    cells[-1] = repr(float(cells[-1]) + amount)
    lines[row] = ",".join(cells)
    return lines


def scale_density(path, factor):
    data = json.loads(path.read_text())
    data["density"]["values"] = [v * factor for v in data["density"]["values"]]
    path.write_text(json.dumps(data))


def failing_steps(workload, run, corrupt):
    """Apply ``corrupt(dir, results) -> results`` to a copy of a clean run's
    outputs and return the steps the checker fails."""
    p = run.pipeline
    saved = {f: f.read_bytes() for f in p.dir.iterdir()}
    try:
        results = corrupt(p.dir, [r for _, r in run.results])
        return {f.step for f in workload.check(p, results)}
    finally:
        for f, data in saved.items():
            f.write_bytes(data)


def clean_run(workload, p, runner=RUNNER):
    run = run_pipeline(workload, p, runner)
    assert run.failures == [], [f.message for f in run.failures]
    return run


def test_spectral_chain_corruptions_fail(tmp_path):
    workload = SpectralChain()
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "plan.json").write_text(json.dumps([{"kernel": "laplacian"}]))
    run = clean_run(workload, workload.pipeline(0, tmp_path / "in", tmp_path / "work"))

    def invert(d, r):
        scale_density(d / "mu.json", 1.5)
        return r

    def round_trip(d, r):
        scale_density(d / "mu_back.json", 1.0 + 1e-6)
        return r

    def screw(d, r):
        edit_csv(d / "d2.csv", lambda lines: bump_last_cell(lines, row=50))
        return r

    def synth(d, r):
        edit_csv(d / "k.csv", lambda lines: bump_last_cell(lines, row=50))
        return r

    def bound_not_ok(d, r):
        return r[:5] + [with_stdout(r[5], ok=False)]

    def bound_integral(d, r):
        return r[:5] + [with_stdout(r[5], integral=r[5].summary()["integral"] * 0.99)]

    assert 0 in failing_steps(workload, run, invert)  # k(0) moves too
    assert failing_steps(workload, run, round_trip) == {2}
    assert failing_steps(workload, run, screw) == {3}
    assert failing_steps(workload, run, synth) == {3}
    assert failing_steps(workload, run, bound_not_ok) == {5}
    assert failing_steps(workload, run, bound_integral) == {5}


def test_sample_calculus_corruptions_fail(tmp_path):
    workload = SampleCalculus()
    inputs = tmp_path / "in"
    inputs.mkdir()
    rng = np.random.default_rng(0)
    plan = [{"n": 40, "metric": metric, "points": rng.uniform(-20.0, 20.0, 40).tolist()}
            for metric in ("laplacian", "planted")]
    (inputs / "plan.json").write_text(json.dumps(plan))
    for i, entry in enumerate(plan):
        write_matrix(inputs / f"d2_{i}.csv", squared_distances(entry["points"], entry["metric"]))
    accepted = clean_run(workload, workload.pipeline(0, inputs, tmp_path / "work"))
    rejected = clean_run(workload, workload.pipeline(1, inputs, tmp_path / "work"))

    def nd(d, r):
        return [with_stdout(r[0], nd=False)] + r[1:]

    def psd(d, r):
        return r[:2] + [with_stdout(r[2], psd=False)] + r[3:]

    def residual(d, r):
        return r[:3] + [with_stdout(r[3], residual=1.0)]

    def coordinates(d, r):
        edit_csv(d / "coords.csv", lambda lines: lines[:-1])
        return r

    def witness(d, r):
        vector = r[3].summary()["witness_vector"]
        return r[:3] + [with_stdout(r[3], witness_vector=vector[1:] + vector[:1])]

    assert failing_steps(workload, accepted, nd) == {0}
    assert failing_steps(workload, accepted, psd) == {2}
    assert failing_steps(workload, accepted, residual) == {3}
    assert failing_steps(workload, accepted, coordinates) == {3}
    assert failing_steps(workload, rejected, witness) == {3}

    def accepting_runner(step):
        result = RUNNER(step)
        return dataclasses.replace(result, code=0) if step.command == "embed" else result

    run = run_pipeline(workload, workload.pipeline(1, inputs, tmp_path / "again"),
                       accepting_runner)
    assert [f.step for f in run.failures] == [3]


def test_embed_truncation_threshold_stays_at_criterion_2s(tmp_path):
    # criterion 2 was pinned for n <= 8 at tol 1e-10: n * tol <= 8e-10
    workload = SampleCalculus()
    for n in (200, 800, 1600):
        p = Pipeline(index=0, dir=tmp_path, params={"n": n, "metric": "cauchy",
                                                    "source": "d2.csv"}, inputs=tmp_path)
        embed = list(workload.steps(p))[-1].argv
        assert embed[0] == "embed"
        assert float(embed[embed.index("--tol") + 1]) * n == pytest.approx(8e-10)


def test_feature_map_corruptions_fail(tmp_path):
    workload = FeatureMap()
    workload.generate(3, tmp_path / "in", RUNNER)
    run = clean_run(workload, workload.pipeline(0, tmp_path / "in", tmp_path / "work"))
    assert run.pipeline.params["kernel"] == "gaussian"

    def max_error(d, r):
        return [with_stdout(r[0], max_abs_error=10.0)] + r[1:]

    def errors_file(d, r):
        edit_csv(d / "errors1.csv", lambda lines: lines[:-1])
        return r

    def sample_file(d, r):
        data = json.loads((d / "sample1.json").read_text())
        data["phases"][0] += 1e-12
        (d / "sample1.json").write_text(json.dumps(data))
        return r

    def values(d, r):
        edit_csv(d / "values.csv", lambda lines: bump_last_cell(lines))
        return r

    assert failing_steps(workload, run, max_error) == {0}
    assert failing_steps(workload, run, errors_file) == {0}
    assert failing_steps(workload, run, sample_file) == {0}
    assert failing_steps(workload, run, values) == {2}
    # the same (measure, m, seed) run again matches byte for byte
    clean_run(workload, workload.pipeline(0, tmp_path / "in", tmp_path / "again"))


def test_tracer_nests_spans_and_restores_the_package(capsys):
    import kernelbridge as kb
    from tracing import Tracer

    def call_points():
        return (kb.cli.atom_at_zero, kb.spectral.bochner_synthesis, kb.io.dumps_json,
                kb.profiles.KernelProfile.__dict__["__call__"],
                "from_dict" in kb.measures.GammaMeasure.__dict__)

    before = call_points()
    tracer = Tracer()
    tracer.install(kb)
    try:
        with tracer.root("t:0"):
            assert kb.cli.main(["atom0", "--kernel", "gaussian", "--window", "10"]) == 0
    finally:
        tracer.uninstall()
    assert call_points() == before
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["profiles.kernel_eval"].parent is by_name["spectral.atom_at_zero"]
    assert by_name["io.dumps_json"].parent is by_name["pipeline"]
    assert by_name["profiles.kernel_eval"].attrs == {"points": 1001}
    assert all(0 <= s.self_ns <= s.dur_ns for s in tracer.spans)
    assert "atom0" in capsys.readouterr().out


def test_round_means_count_every_pipeline_kind_of_a_round():
    # a sample-calculus round is n=200, 800, 1600 and planted 200: the median
    # of single pipelines would never see the n=1600 one
    walls = [1.0, 3.0, 10.0, 1.0, 1.2, 2.8, 11.0, 1.0]
    assert round_means(walls, 4) == [3.75, 4.0]
    assert round_means(walls[:6], 4) == [3.75]
    assert round_means(walls[:3], 1) == walls[:3]
