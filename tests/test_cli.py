"""CLI: thin-adapter equality with library calls, exit codes, file formats."""

import argparse
import dataclasses
import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

import kernelbridge as kb
from conftest import gamma_measures, near_boundary_squared_distances
from kernelbridge import cli, io
from kernelbridge.cli import main

QUARTIC = np.array([[0.0, 1.0, 16.0], [1.0, 0.0, 1.0], [16.0, 1.0, 0.0]])
COLLINEAR = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
#: two samples of the near-boundary generator that embed accepted and
#: check-nd rejected (17), and the other way round (46), under two eigensolves
NEAR_BOUNDARY = list(near_boundary_squared_distances(47))
#: gamma atoms whose s^2 underflows; the first has the finite integral 1e40
TINY_ATOM = {"atoms": [{"loc": 1e-170, "mass": 1e-300}]}
TINIER_ATOM = {"atoms": [{"loc": 1e-200, "mass": 1.0}]}
COLLINEAR_CSV = "0,1,4\n1,0,1\n4,1,0\n"
#: --tol values past its domain, each of which gave a verdict or a wrong error
BAD_TOLS = [("check-nd C --tol nan", COLLINEAR_CSV), ("check-psd C --tol inf", COLLINEAR_CSV),
            ("embed C --tol -1 -o O", COLLINEAR_CSV)]
#: two points 1e154 apart: (n + 1) max|N| overflowed to a NaN witness
FLOAT_MAX_PAIR = "0,1e308\n1e308,0\n"
#: a finite matrix whose centred matrix is past the float range
OVERFLOWING_CENTRE = "1e308,-1e308\n-1e308,1e308\n"
#: a non-zero diagonal and a negative entry, each at scale 1 and 1e-20
SCALED_EMBED = ["1,1\n1,1\n", "1e-20,1e-20\n1e-20,1e-20\n",
                "0,1,-0.5\n1,0,1\n-0.5,1,0\n",
                "0,1e-20,-5e-21\n1e-20,0,1e-20\n-5e-21,1e-20,0\n"]


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out.strip()
    payload = json.loads(out.splitlines()[-1]) if out else {}
    return code, payload


def exit_code(argv):
    """main's return value, or the code of argparse's SystemExit."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def read_sample(path):
    data = io.read_json(path)
    return kb.FrequencySample(frequencies=np.asarray(data["freqs"]),
                              phases=np.asarray(data["phases"]),
                              total_mass=data["total_mass"], seed=data["seed"])


class TestZoo:
    def test_list(self, capsys):
        code, payload = run(capsys, "zoo", "list")
        assert code == 0
        names = {k["name"] for k in payload["kernels"]}
        assert names == {"gaussian", "laplacian", "cauchy", "cosine", "constant"}

    def test_sample_matches_library(self, tmp_path, capsys):
        out = tmp_path / "gauss.csv"
        code, _ = run(capsys, "zoo", "sample", "--kernel", "gaussian",
                      "--grid", "-2", "2", "41", "-o", out)
        assert code == 0
        t, v = io.read_profile_csv(out)
        assert_array_equal(v, kb.zoo("gaussian")(t))

    def test_sample_requires_output(self, capsys):
        assert main(["zoo", "sample", "--kernel", "gaussian"]) == 2

    def test_sample_requires_one_kernel_source(self, tmp_path, capsys):
        out = str(tmp_path / "z.csv")
        code, err = exit_and_stderr(capsys, ["zoo", "sample", "-o", out])
        assert code == 2 and "requires a kernel source" in err
        assert exit_code(["zoo", "sample", "--kernel", "gaussian", "--samples", out,
                          "-o", out]) == 2


class TestMatrixCommands:
    def test_gram_golden(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        io.write_points_csv(pts, [0.0, 1.0, 2.5])
        out = tmp_path / "gram.csv"
        code, _ = run(capsys, "gram", "--points", pts, "--kernel", "gaussian",
                      "-o", out)
        assert code == 0
        expected = kb.build_gram(kb.zoo("gaussian"), [0.0, 1.0, 2.5]).entries
        assert_array_equal(io.read_matrix_csv(out), expected)

    def test_check_psd_all_ones(self, tmp_path, capsys):
        m = tmp_path / "ones.csv"
        io.write_matrix_csv(m, np.ones((3, 3)))
        code, payload = run(capsys, "check-psd", m)
        assert code == 0
        assert payload["psd"] is True

    def test_check_psd_failing_with_witness(self, tmp_path, capsys):
        m = tmp_path / "bad.csv"
        io.write_matrix_csv(m, [[0.7, -1.3, 0.7], [-1.3, 0.7, -1.3], [0.7, -1.3, 0.7]])
        code, payload = run(capsys, "check-psd", m)
        assert code == 0
        assert payload["psd"] is False
        assert payload["witness_eigenvalue"] == pytest.approx(-0.8215, abs=1e-3)

    def test_check_nd(self, tmp_path, capsys):
        m = tmp_path / "quartic.csv"
        io.write_matrix_csv(m, [[0, 1, 16], [1, 0, 1], [16, 1, 0]])
        code, payload = run(capsys, "check-nd", m)
        assert code == 0
        assert payload["nd"] is False

    def test_an_eigensolver_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(entries):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        m = tmp_path / "ones.csv"
        io.write_matrix_csv(m, np.ones((3, 3)))
        code = exit_code(["check-psd", m])
        assert (code, *capsys.readouterr()) == (
            2, "", "error: eigensolver failed to converge: Eigenvalues did not converge\n")

    def test_nd_to_psd_rejects_an_overflowing_result(self, tmp_path, capsys):
        # used to write -inf and exit 0, with a RuntimeWarning
        m, out = tmp_path / "n.csv", tmp_path / "centered.csv"
        m.write_text(OVERFLOWING_CENTRE)
        code, err = exit_and_stderr(capsys, ["nd-to-psd", m, "-o", out])
        assert code == 2
        assert "centred matrix overflows the float range" in err
        assert not out.exists()

    def test_nd_to_psd_golden(self, tmp_path, capsys):
        m = tmp_path / "d2.csv"
        matrix = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
        io.write_matrix_csv(m, matrix)
        out = tmp_path / "centered.csv"
        code, _ = run(capsys, "nd-to-psd", m, "-o", out)
        assert code == 0
        assert_array_equal(io.read_matrix_csv(out), kb.nd_to_psd(matrix, 0))

    def test_embed_accepts(self, tmp_path, capsys):
        m = tmp_path / "d2.csv"
        io.write_matrix_csv(m, [[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
        out = tmp_path / "coords.csv"
        code, payload = run(capsys, "embed", m, "-o", out)
        assert code == 0
        assert payload["rank"] == 1
        assert payload["residual"] <= 1e-10
        assert io.read_matrix_csv(out).shape == (3, 1)

    @pytest.mark.parametrize("command", ["check-psd", "check-nd", "embed"])
    def test_nonfinite_matrix_is_validation_error(self, tmp_path, capsys, command):
        m = tmp_path / "nan.csv"
        m.write_text("0,nan\nnan,0\n")  # each command used to exit 0 on it
        argv = [command, str(m)]
        if command == "embed":
            argv += ["-o", str(tmp_path / "c.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["check-psd", "check-nd", "embed"])
    def test_empty_matrix_is_validation_error(self, tmp_path, capsys, command):
        m = tmp_path / "empty.csv"
        m.write_text("\n")
        assert main([command, str(m), "-o", str(tmp_path / "c.csv")]
                    if command == "embed" else [command, str(m)]) == 2

    def test_one_by_one_matrix(self, tmp_path, capsys):
        m = tmp_path / "one.csv"
        io.write_matrix_csv(m, [[0.0]])
        assert main(["check-nd", str(m)]) == 2  # no direction to test
        code, payload = run(capsys, "check-psd", m)
        assert code == 0 and payload["psd"] is True
        code, payload = run(capsys, "embed", m, "-o", tmp_path / "c.csv")
        assert code == 0 and payload["rank"] == 0

    def test_embed_rejects_with_exit_3(self, tmp_path, capsys):
        m = tmp_path / "d2.csv"
        io.write_matrix_csv(m, [[0, 1, 16], [1, 0, 1], [16, 1, 0]])
        code, payload = run(capsys, "embed", m, "-o", tmp_path / "c.csv")
        assert code == 3
        assert payload["error"] == "NotHilbertian"
        assert payload["witness_eigenvalue"] == pytest.approx(4.0)
        assert list(payload)[2:] == ["witness_eigenvalue", "witness_vector", "threshold",
                                     "margin"]

    @pytest.mark.parametrize("table", SCALED_EMBED)
    def test_embed_input_checks_do_not_depend_on_scale(self, tmp_path, capsys, table):
        # at 1e-20 these exited 0 (rank 0) and 3 under an absolute floor of tol
        m = tmp_path / "d2.csv"
        m.write_text(table)
        code, err = exit_and_stderr(capsys, ["embed", str(m), "-o", str(tmp_path / "c.csv")])
        assert code == 2 and "squared-distance matrix must" in err

    def test_entries_near_the_float_maximum(self, tmp_path, capsys):
        m = tmp_path / "d2.csv"
        m.write_text(FLOAT_MAX_PAIR)
        code, nd = run(capsys, "check-nd", m)
        assert code == 0 and nd["nd"] is True and nd["witness_eigenvalue"] == -1e308
        code, payload = run(capsys, "embed", m, "-o", tmp_path / "c.csv")
        assert code == 0 and payload["rank"] == 1
        assert_allclose(np.abs(io.read_matrix_csv(tmp_path / "c.csv")), 5e153, rtol=1e-15)
        # the Gram matrix of a constant kernel of 1e308: its greater eigenvalue,
        # 2e308, is past the float range, and the verdict reads only the least
        m.write_text("1e308,1e308\n1e308,1e308\n")
        code, psd = run(capsys, "check-psd", m)
        assert code == 0 and psd["psd"] is True and psd["margin"] > 0.0

    def test_a_squared_distance_matrix_near_the_float_maximum(self, tmp_path, capsys):
        # every eigenvalue of the projected matrix was read: check-nd and embed
        # exited 2 though the witness (~0) and the coordinates (~1e154) are finite
        m, out = tmp_path / "d2.csv", tmp_path / "c.csv"
        m.write_text(_D2_PAST_RANGE)
        code, nd = run(capsys, "check-nd", m)
        assert code == 0 and nd["nd"] is True and np.isfinite(nd["witness_eigenvalue"])
        code, payload = run(capsys, "embed", m, "-o", out)
        assert code == 0 and payload["rank"] == 1 and np.isfinite(payload["residual"])
        points = np.sort(io.read_matrix_csv(out).ravel())
        assert_allclose(np.diff(points), np.sqrt(1.7e308 / 9), rtol=1e-14)

    @pytest.mark.parametrize("command, key, matrix, verdict", [
        ("check-nd", "nd", COLLINEAR, True), ("check-nd", "nd", QUARTIC, False),
        ("check-psd", "psd", np.ones((3, 3)), True), ("check-psd", "psd", QUARTIC, False)])
    def test_verdicts_end_with_threshold_and_margin(self, tmp_path, capsys, command, key,
                                                    matrix, verdict):
        m = tmp_path / "m.csv"
        io.write_matrix_csv(m, matrix)
        assert main([command, str(m)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        payload = json.loads(out)
        assert list(payload) == [key, "witness_eigenvalue", "witness_vector", "threshold",
                                 "margin"]
        assert payload[key] is verdict
        assert (payload["margin"] >= 0.0) is verdict

    @pytest.mark.parametrize("argv, record, payload, first", [
        (["check-psd", "K"], kb.DefinitenessVerdict, (), "psd"),
        (["check-nd", "D"], kb.DefinitenessVerdict, (), "nd"),
        (["embed", "D", "-o", "O"], kb.EmbeddingResult, ("coordinates",), "written"),
        (["embed", "Q", "-o", "O"], kb.DefinitenessVerdict, (), "message"),  # NotHilbertian
        (["invert", "--kernel", "cauchy", "-o", "O"], kb.InversionResult, ("measure",),
         "written")])
    def test_summaries_are_the_record_fields(self, tmp_path, capsys, argv, record, payload,
                                             first):
        # the keys after the first follow the record, less its payload fields
        files = {"D": tmp_path / "d2.csv", "K": tmp_path / "k.csv", "Q": tmp_path / "q.csv",
                 "O": tmp_path / "out"}
        io.write_matrix_csv(files["D"], COLLINEAR)
        io.write_matrix_csv(files["K"], np.ones((3, 3)))
        io.write_matrix_csv(files["Q"], QUARTIC)
        code, summary = run(capsys, *[files.get(word, word) for word in argv])
        assert code in (0, 3)
        keys = list(summary)
        assert keys[keys.index(first) + 1:] == [
            field.name for field in dataclasses.fields(record) if field.name not in payload]

    def test_check_psd_and_check_nd_agree_at_zero_tol(self, tmp_path, capsys):
        # check-psd said false on the centred matrix, for a rounding-noise witness
        # (-8.3e-15) under the threshold -0.0: its test had no rounding floor
        x = np.random.default_rng(1).uniform(-20, 20, 200)
        d2, k = tmp_path / "d2.csv", tmp_path / "k.csv"
        io.write_matrix_csv(d2, kb.metric_from_kernel(kb.zoo("gaussian"))(x[:, None] - x[None, :]))
        code, nd = run(capsys, "check-nd", d2, "--tol", "0")
        assert code == 0 and nd["nd"] is True
        assert main(["nd-to-psd", str(d2), "-o", str(k)]) == 0
        code, psd = run(capsys, "check-psd", k, "--tol", "0")
        assert code == 0 and psd["psd"] is True and psd["threshold"] < 0.0

    @pytest.mark.parametrize("matrix", [COLLINEAR, QUARTIC, 1e-20 * QUARTIC,
                                        1e100 * QUARTIC, NEAR_BOUNDARY[17],
                                        NEAR_BOUNDARY[46]],
                             ids=["collinear", "quartic", "quartic-1e-20", "quartic-1e100",
                                  "near-boundary-17", "near-boundary-46"])
    def test_embed_rejects_exactly_when_check_nd_says_false(self, tmp_path, capsys, matrix):
        m = tmp_path / "d2.csv"
        io.write_matrix_csv(m, matrix)
        _, nd = run(capsys, "check-nd", m)
        code, payload = run(capsys, "embed", m, "-o", tmp_path / "c.csv")
        if nd["nd"]:
            assert code == 0
        else:
            assert code == 3
            assert {key: payload[key] for key in list(nd)[1:]} == \
                {key: nd[key] for key in list(nd)[1:]}


class TestProfileCommands:
    def test_to_metric(self, tmp_path, capsys):
        out = tmp_path / "d2.csv"
        code, payload = run(capsys, "to-metric", "--kernel", "cosine",
                            "--grid", "0", str(np.pi), "2", "-o", out)
        assert code == 0
        t, v = io.read_profile_csv(out)
        assert_allclose(v[-1], 4.0, rtol=1e-12)
        assert list(payload) == ["written", "min_d2"] and payload["min_d2"] == v.min() == 0.0

    def test_atom0(self, capsys):
        code, payload = run(capsys, "atom0", "--kernel", "constant",
                            "--window", "50")
        assert code == 0
        assert payload["atom0"] == pytest.approx(1.0, rel=1e-12)
        assert list(payload) == ["atom0", "window", "atom_window_gap"]

    def test_atom0_is_the_estimate_of_invert(self, tmp_path, capsys):
        # atom0 averaged over one window and read 0.0157 for cauchy, whose zero atom is 0
        code, payload = run(capsys, "atom0", "--kernel", "cauchy")
        assert code == 0 and 0.0 <= payload["atom0"] <= 2e-4
        code, inverted = run(capsys, "invert", "--kernel", "cauchy", "-o", tmp_path / "m.json")
        assert code == 0 and payload["atom_window_gap"] == inverted["atom_window_gap"]

    @pytest.mark.parametrize("flags", [("--window", "inf"), ("--window", "nan"),
                                       ("--step", "0")])
    def test_atom0_rejects_bad_window(self, capsys, flags):
        assert main(["atom0", "--kernel", "constant", *flags]) == 2

    def test_atom0_over_the_element_budget(self, capsys):
        # 1e10 samples (80 GB) must be refused from the estimate alone
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(["atom0", "--kernel", "gaussian", "--window", "1e7",
                         "--step", "1e-3"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2 ** 20
        assert time.perf_counter() - start < 5.0
        assert "budget" in capsys.readouterr().err

    def test_profile_descriptor_input(self, tmp_path, capsys):
        descriptor = tmp_path / "kernel.json"
        io.write_json(descriptor, kb.zoo("gaussian", scale=2.0).descriptor())
        out = tmp_path / "d2.csv"
        code, _ = run(capsys, "to-metric", "--profile", descriptor,
                      "--grid", "0", "2", "3", "-o", out)
        assert code == 0
        t, v = io.read_profile_csv(out)
        expected = 2.0 - 2.0 * np.exp(-(t / 2.0) ** 2 / 2.0)
        assert_allclose(v, expected, rtol=1e-12, atol=1e-15)

    def test_kernel_params_flag(self, tmp_path, capsys):
        out = tmp_path / "cos.csv"
        code, _ = run(capsys, "zoo", "sample", "--kernel", "cosine",
                      "--params", '{"omega": 2.0}', "--grid", "0", "3.14159", "5",
                      "-o", out)
        assert code == 0
        t, v = io.read_profile_csv(out)
        assert_allclose(v, np.cos(2.0 * t), rtol=1e-12, atol=1e-15)


class TestSpectralCommands:
    def test_invert_synth_round_trip(self, tmp_path, capsys):
        measure_path = tmp_path / "measure.json"
        code, payload = run(capsys, "invert", "--kernel", "gaussian",
                            "-o", measure_path)
        assert code == 0
        assert payload["residual"] <= 1e-3
        synth_path = tmp_path / "synth.csv"
        code, _ = run(capsys, "synth", measure_path, "--grid", "-5", "5", "101",
                      "-o", synth_path)
        assert code == 0
        t, v = io.read_profile_csv(synth_path)
        assert np.max(np.abs(v - np.exp(-t ** 2 / 2.0))) <= 1e-3

    def test_invert_reports_health_readings(self, tmp_path, capsys):
        code, payload = run(capsys, "invert", "--kernel", "laplacian",
                            "-o", tmp_path / "m.json")
        assert code == 0
        # the residual is the spectral tail above freq_max = 8, now named
        tail = 1.0 - (2.0 / np.pi) * np.arctan(8.0)
        assert payload["mass_gap"] == pytest.approx(tail, abs=1e-4)
        assert payload["residual"] == pytest.approx(payload["mass_gap"], rel=1e-12)
        assert payload["nyquist_margin"] == pytest.approx(np.pi / (40.0 / 16000) - 8.0)
        assert 0.0 < payload["atom_window_gap"] < 0.05
        assert {"atom0", "clamped_mass", "min_density"} <= payload.keys()
        assert list(payload)[-1] == "tail_gap"
        assert payload["tail_gap"] == pytest.approx(np.exp(-40.0), rel=1e-12)

    @pytest.mark.parametrize("grid", [("0", "inf", "5"), ("nan", "1", "5"),
                                      ("0", "1", "inf"), ("0", "1", "2.5"),
                                      ("-inf", "1", "5"), ("-1e308", "1e308", "5")])
    def test_synth_rejects_bad_grid(self, tmp_path, capsys, grid):
        # N = inf used to escape as an OverflowError traceback; a span past
        # the float range would give NaN lags
        mu = tmp_path / "mu.json"
        io.write_json(mu, kb.gaussian_measure(n_bins=8).to_dict())
        assert main(["synth", str(mu), "--grid", *grid,
                     "-o", str(tmp_path / "k.csv")]) == 2

    @pytest.mark.parametrize("low", ["-1e3", "-1E3", "-1.0e+3", "-.1e4", "-1_000"])
    def test_grid_takes_negative_bounds_in_every_float_form(self, tmp_path, capsys, low):
        # argparse read -1e3 as an unknown option: "expected 3 arguments"
        mu = tmp_path / "mu.json"
        io.write_json(mu, kb.gaussian_measure(n_bins=8).to_dict())
        assert main(["synth", str(mu), "--grid", low, "1e3", "5",
                     "-o", str(tmp_path / "k.csv")]) == 0
        assert main(["synth", str(mu), "--grid", "-1000", "1000", "5",
                     "-o", str(tmp_path / "plain.csv")]) == 0
        assert (tmp_path / "k.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_invert_reads_the_residual_where_the_kernel_was_sampled(self, tmp_path, capsys):
        # the residual was read on [-5, 5], past samples up to t = 3: exit 2
        t = np.linspace(0.0, 3.0, 301)
        samples, out = tmp_path / "samples.csv", tmp_path / "m.json"
        io.write_profile_csv(samples, t, np.exp(-t ** 2 / 2.0))
        code, payload = run(capsys, "invert", "--samples", samples, "--t-max", "3",
                            "--n-samples", "1201", "--window", "3", "-o", out)
        assert code == 0 and np.isfinite(payload["residual"])
        grid = kb.probe_grid(3.0 / 8)  # lags proportional to t_max
        measure = kb.SpectralMeasure.from_dict(io.read_json(out))
        kernel = kb.profile_from_samples(*io.read_profile_csv(samples))
        assert payload["residual"] == np.max(np.abs(kb.bochner_synthesis(measure, grid)
                                                    - kernel(grid)))

    def test_invert_rejects_shifted_cosine_from_samples(self, tmp_path, capsys):
        t = np.arange(0.0, 200.0 + 1e-9, 0.005)
        samples = tmp_path / "samples.csv"
        io.write_profile_csv(samples, t, np.cos(t) - 0.3)
        code, payload = run(capsys, "invert", "--samples", samples,
                            "-o", tmp_path / "m.json")
        assert code == 3
        assert payload["error"] == "NotPositiveDefinite"
        assert payload["atom0"] == pytest.approx(-0.3, abs=5e-3)

    def test_synth_golden_equality_with_library(self, tmp_path, capsys):
        mu = kb.SpectralMeasure(atoms=[(0.0, 0.2), (1.3, 0.4)],
                                edges=[0.0, 0.7, 2.2], values=[0.15, 0.05])
        measure_path = tmp_path / "mu.json"
        io.write_json(measure_path, mu.to_dict())
        out = tmp_path / "k.csv"
        code, _ = run(capsys, "synth", measure_path, "-o", out)
        assert code == 0
        t, v = io.read_profile_csv(out)
        assert_array_equal(t, kb.probe_grid())
        assert_array_equal(v, kb.bochner_synthesis(mu, kb.probe_grid()))

    def test_gamma_forward_and_inverse(self, tmp_path, capsys):
        measure_path = tmp_path / "mu.json"
        io.write_json(measure_path, kb.cosine_measure().to_dict())
        gamma_path = tmp_path / "gamma.json"
        code, payload = run(capsys, "gamma", measure_path, "-o", gamma_path)
        assert code == 0
        assert payload["atom0"] == 0.0
        gamma = kb.GammaMeasure.from_dict(io.read_json(gamma_path))
        assert_allclose(gamma.atom_locations, [0.5])
        assert_allclose(gamma.atom_masses, [1.0])

        back_path = tmp_path / "back.json"
        code, payload = run(capsys, "gamma", gamma_path, "--k0", "1.3",
                            "-o", back_path)
        assert code == 0
        assert payload["atom0"] == pytest.approx(0.3)
        back = kb.SpectralMeasure.from_dict(io.read_json(back_path))
        assert_allclose(back.zero_atom, 0.3)

    def test_gamma_writes_s2_law_bins(self, tmp_path, capsys):
        mu = kb.gaussian_measure(n_bins=64)
        measure_path = tmp_path / "mu.json"
        io.write_json(measure_path, mu.to_dict())
        gamma_path = tmp_path / "gamma.json"
        assert run(capsys, "gamma", measure_path, "-o", gamma_path)[0] == 0
        density = io.read_json(gamma_path)["density"]
        assert density["law"] == "s2"
        assert len(density["values"]) == 64
        back_path = tmp_path / "back.json"
        k0 = mu.total_mass()
        assert run(capsys, "gamma", gamma_path, "--k0", k0, "-o", back_path)[0] == 0
        back = kb.SpectralMeasure.from_dict(io.read_json(back_path))
        assert_array_equal(back.bin_edges, mu.bin_edges)
        assert_array_equal(back.bin_values, mu.bin_values)

    @pytest.mark.parametrize("name", ["gaussian", "laplacian", "cauchy"])
    def test_gamma_reports_identity_gap_and_margin(self, tmp_path, capsys, name):
        mu = kb.bochner_inversion(kb.zoo(name)).measure
        measure_path, gamma_path = tmp_path / "mu.json", tmp_path / "gamma.json"
        io.write_json(measure_path, mu.to_dict())
        code, payload = run(capsys, "gamma", measure_path, "-o", gamma_path)
        assert code == 0 and list(payload) == ["written", "atom0", "identity_gap"]
        gamma, atom0 = kb.gamma_from_spectral(mu)
        gap = abs(kb.int_bound_integral(gamma) - 4.0 * (mu.total_mass() - atom0))
        assert payload["identity_gap"] == gap <= 1e-13 * mu.total_mass()
        k0 = 1.5 * mu.total_mass()
        code, payload = run(capsys, "gamma", gamma_path, "--k0", k0, "-o", tmp_path / "m.json")
        assert code == 0 and list(payload) == ["written", "atom0", "margin",
                                               "approximated_bins"]
        report = kb.bound_report(kb.int_bound_integral(gamma), k0)
        assert payload["margin"] == report["margin"] > 0.0
        assert payload["approximated_bins"] == 0  # gamma writes the s^2 law

    @pytest.mark.parametrize("law, approximated", [("constant", 2), ("s2", 0)])
    def test_gamma_inverse_counts_the_approximated_bins(self, tmp_path, capsys, law,
                                                        approximated):
        # a constant-law bin of value > 0 becomes its s^2 law read at the geometric mean
        gamma_path, out = tmp_path / "gamma.json", tmp_path / "mu.json"
        gamma_path.write_text(json.dumps({"density": {
            "edges": [0.5, 1.0, 2.0, 4.0], "values": [0.3, 0.0, 0.1], "law": law}}))
        code, payload = run(capsys, "gamma", gamma_path, "--k0", 10, "-o", out)
        assert code == 0 and payload["approximated_bins"] == approximated
        written = kb.SpectralMeasure.from_dict(io.read_json(out)).bin_values
        assert np.count_nonzero(written > 0.0) == 2

    @pytest.mark.parametrize("name", ["gaussian", "laplacian", "cauchy"])
    def test_synth_and_screw_report_what_the_paper_guarantees(self, tmp_path, capsys, name):
        # Bochner: |k(t)| <= k(0) = mu(R); a squared metric is >= 0 and 0 at t = 0
        mu, gamma = tmp_path / "mu.json", tmp_path / "gamma.json"
        k_path, d2_path = tmp_path / "k.csv", tmp_path / "d2.csv"
        assert run(capsys, "invert", "--kernel", name, "-o", mu)[0] == 0
        code, payload = run(capsys, "synth", mu, "-o", k_path)
        assert code == 0 and list(payload) == ["written", "total_mass", "max_excess"]
        k = io.read_profile_csv(k_path)[1]
        assert payload["max_excess"] == np.max(np.abs(k)) - payload["total_mass"]
        assert abs(payload["max_excess"]) <= 1e-15 * payload["total_mass"]
        assert run(capsys, "gamma", mu, "-o", gamma)[0] == 0
        code, payload = run(capsys, "screw", gamma, "-o", d2_path)
        assert code == 0 and list(payload) == ["written", "min_d2"]
        assert payload["min_d2"] == np.min(io.read_profile_csv(d2_path)[1]) == 0.0

    def test_identity_gap_past_the_float_range_is_zero(self, tmp_path, capsys):
        # mass 8e307: both sides of the identity read inf, and inf - inf gave nan
        measure_path = tmp_path / "mu.json"
        io.write_json(measure_path, kb.SpectralMeasure(edges=[0.0, 4.0],
                                                       values=[1e307]).to_dict())
        code, payload = run(capsys, "gamma", measure_path, "-o", tmp_path / "gamma.json")
        assert code == 0 and payload["identity_gap"] == 0.0

    def test_gamma_inverse_rejects_unbounded(self, tmp_path, capsys):
        gamma_path = tmp_path / "gamma.json"
        io.write_json(gamma_path, kb.GammaMeasure(edges=[0.0, 1e4],
                                                  values=[2.0 / np.pi]).to_dict())
        code, payload = run(capsys, "gamma", gamma_path, "--k0", "1.0",
                            "-o", tmp_path / "m.json")
        assert code == 3
        assert payload["error"] == "UnboundedMetric"

    def test_screw(self, tmp_path, capsys):
        gamma_path = tmp_path / "gamma.json"
        io.write_json(gamma_path, kb.GammaMeasure(atoms=[(0.5, 1.0)]).to_dict())
        out = tmp_path / "d2.csv"
        code, _ = run(capsys, "screw", gamma_path, "--grid", "-5", "5", "21",
                      "-o", out)
        assert code == 0
        t, v = io.read_profile_csv(out)
        assert_allclose(v, 2.0 - 2.0 * np.cos(t), atol=1e-12)

    def test_screw_of_the_inverted_gaussian_is_never_negative(self, tmp_path, capsys):
        # wrote 34 values of -2.2e-16 on this grid, at t = +-1.6e-8 and +-1.7e-8
        mu, gamma, out = tmp_path / "mu.json", tmp_path / "gamma.json", tmp_path / "d2.csv"
        assert run(capsys, "invert", "--kernel", "gaussian", "-o", mu)[0] == 0
        assert run(capsys, "gamma", mu, "-o", gamma)[0] == 0
        assert run(capsys, "screw", gamma, "--grid", "-1e-6", "1e-6", "2001", "-o", out)[0] == 0
        t, d2 = io.read_profile_csv(out)
        assert t.size == 2001 and (d2 >= 0.0).all() and (d2[t != 0.0] > 0.0).all()

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(gamma=gamma_measures(), low=st.floats(-12.0, 4.0), high=st.floats(-12.0, 4.0),
           n=st.integers(1, 64))
    def test_screw_is_never_negative_where_it_exits_0(self, tmp_path, capsys, gamma, low,
                                                       high, n):
        gamma_path, out = tmp_path / "gamma.json", tmp_path / "d2.csv"
        io.write_json(gamma_path, gamma.to_dict())
        code, _ = run(capsys, "screw", gamma_path, "--grid", -10.0 ** low, 10.0 ** high, n,
                      "-o", out)
        assert code in (0, 2)
        if code == 0:
            assert (io.read_profile_csv(out)[1] >= 0.0).all()

    def test_screw_reads_constant_law_file_without_law_key(self, tmp_path, capsys):
        gamma_path = tmp_path / "gamma.json"
        gamma_path.write_text(json.dumps(
            {"atoms": [], "density": {"edges": [0.2, 1.0], "values": [0.3]}}))
        out = tmp_path / "d2.csv"
        code, _ = run(capsys, "screw", gamma_path, "--grid", "0.5", "3", "3",
                      "-o", out)
        assert code == 0
        t, v = io.read_profile_csv(out)
        oracle = [0.3 * quad(lambda s: np.sin(ti * s) ** 2 / s ** 2, 0.2, 1.0)[0]
                  for ti in t]
        assert_allclose(v, oracle, rtol=1e-10)

    def test_bound_check_tight(self, tmp_path, capsys):
        gamma_path = tmp_path / "gamma.json"
        io.write_json(gamma_path, kb.GammaMeasure(atoms=[(0.5, 1.0)]).to_dict())
        code, payload = run(capsys, "bound-check", gamma_path, "--k0", "1.0")
        assert code == 0
        assert payload == {"integral": 4.0, "bound": 4.0, "ok": True, "tight": True,
                           "margin": 4.0 * (1.0 + kb.spectral.BOUND_RTOL) - 4.0}

    def test_bound_check_unbounded_reports_inf(self, tmp_path, capsys):
        gamma_path = tmp_path / "gamma.json"
        io.write_json(gamma_path, kb.GammaMeasure(edges=[0.0, 10.0],
                                                  values=[1.0]).to_dict())
        code, payload = run(capsys, "bound-check", gamma_path, "--k0", "1.0")
        assert code == 0
        assert payload["ok"] is False
        assert payload["integral"] == "inf"

    def test_tiny_atoms_never_form_s_squared(self, tmp_path, capsys):
        # m / s^2 used to be formed through s^2, which underflows to 0 here:
        # bound-check read inf, gamma --k0 exited 3 and screw exited 2
        gamma_path, back = tmp_path / "gamma.json", tmp_path / "mu.json"
        gamma_path.write_text(json.dumps(TINY_ATOM))
        code, payload = run(capsys, "bound-check", gamma_path, "--k0", "1e50")
        assert code == 0 and payload["ok"] is True
        assert payload["integral"] == pytest.approx(1e40, rel=1e-15)
        code, _ = run(capsys, "gamma", gamma_path, "--k0", "1e50", "-o", back)
        assert code == 0
        measure = kb.SpectralMeasure.from_dict(io.read_json(back))
        locs, masses = measure.atom_locations, measure.atom_masses
        assert locs[locs > 0].tolist() == [2e-170]
        assert_allclose(masses[locs > 0], [1.25e39], rtol=1e-15)
        # and the forward conversion takes the atom back to mass 1e-300
        assert_allclose(kb.gamma_from_spectral(measure)[0].atom_masses, [1e-300], rtol=1e-15)
        out = tmp_path / "d2.csv"
        code, _ = run(capsys, "screw", gamma_path, "--grid", "-3", "3", "13", "-o", out)
        assert code == 0
        t, d2 = io.read_profile_csv(out)
        assert_allclose(d2, 1e-300 * t ** 2 * np.sinc(t * 1e-170 / np.pi) ** 2,
                        rtol=1e-15)

    def test_atom_past_the_float_range_reads_inf_without_warning(self, tmp_path, capsys):
        gamma_path = tmp_path / "gamma.json"
        gamma_path.write_text(json.dumps(TINIER_ATOM))
        code, payload = run(capsys, "bound-check", gamma_path, "--k0", "1.0")
        assert code == 0
        assert payload["ok"] is False and payload["integral"] == "inf"

    @pytest.mark.parametrize("gamma", [
        {"density": {"edges": [0, 1e4], "values": [0.6366]}},  # the |t| metric
        {"atoms": [{"loc": 1e-160, "mass": 1.0}]}])  # integral 1e320
    @pytest.mark.parametrize("k0", ["4.4e307", "4.5e307", "1e308"])
    def test_an_infinite_integral_is_never_ok(self, tmp_path, capsys, gamma, k0):
        # from 4.5e307 on bound-check said ok with 4 k0 = inf, and gamma --k0 warned of
        # a division by zero and exited 2 with "density must be finite"
        gamma_path, out = tmp_path / "gamma.json", tmp_path / "mu.json"
        gamma_path.write_text(json.dumps(gamma))
        code, payload = run(capsys, "bound-check", gamma_path, "--k0", k0)
        assert code == 0
        assert payload["integral"] == "inf" and payload["ok"] is False
        assert payload["margin"] == "-inf"  # not inf - inf = nan under the bound 4e308
        code, payload = run(capsys, "gamma", gamma_path, "--k0", k0, "-o", out)
        assert code == 3 and payload["error"] == "UnboundedMetric"
        assert not out.exists()

    def test_bound_check_rejects_nonfinite_k0(self, tmp_path, capsys):
        gamma_path = tmp_path / "gamma.json"
        io.write_json(gamma_path, kb.GammaMeasure(atoms=[(0.5, 1.0)]).to_dict())
        assert main(["bound-check", str(gamma_path), "--k0", "nan"]) == 2


class TestFeatureCommands:
    def test_rff_sample_and_errors(self, tmp_path, capsys):
        measure_path = tmp_path / "mu.json"
        io.write_json(measure_path, kb.cosine_measure().to_dict())
        pairs_path = tmp_path / "pairs.csv"
        rng = np.random.default_rng(0)
        io.write_matrix_csv(pairs_path, rng.uniform(-3, 3, (20, 2)))
        sample_path = tmp_path / "sample.json"
        errors_path = tmp_path / "errors.csv"
        code, payload = run(capsys, "rff", measure_path, "-m", "2048",
                            "--seed", "42", "--pairs", pairs_path,
                            "--errors-out", errors_path, "-o", sample_path)
        assert code == 0
        assert payload["max_abs_error"] <= 0.08
        sample = read_sample(sample_path)
        library = kb.sample_frequencies(kb.cosine_measure(), m=2048, seed=42)
        assert_array_equal(sample.frequencies, library.frequencies)
        header, *rows = (tmp_path / "errors.csv").read_text().strip().splitlines()
        assert header == "exact,approx,abs_error"
        assert len(rows) == 20

    def test_product_synth(self, tmp_path, capsys):
        measure_path = tmp_path / "prod.json"
        product = kb.ProductSpectralMeasure(factors=(kb.cosine_measure(),
                                                     kb.cosine_measure()))
        io.write_json(measure_path, product.to_dict())
        pairs_path = tmp_path / "pairs.csv"
        io.write_matrix_csv(pairs_path, [[0.0, 0.0, 1.0, 2.0]])
        out = tmp_path / "values.csv"
        code, _ = run(capsys, "product-synth", measure_path, "--pairs", pairs_path,
                      "-o", out)
        assert code == 0
        values = io.read_points_csv(out)
        assert_allclose(values, [np.cos(1.0) * np.cos(2.0)], rtol=1e-12)

    def test_rff_product_measure(self, tmp_path, capsys):
        measure_path = tmp_path / "prod.json"
        product = kb.ProductSpectralMeasure(factors=(kb.cosine_measure(),
                                                     kb.cosine_measure()))
        io.write_json(measure_path, product.to_dict())
        code, payload = run(capsys, "rff", measure_path, "-m", "64", "--seed", "1",
                            "-o", tmp_path / "s.json")
        assert code == 0
        sample = read_sample(tmp_path / "s.json")
        assert sample.frequencies.shape == (64, 2)


    def test_rff_exact_column_is_product_synth_output(self, tmp_path, capsys):
        factor = kb.bochner_inversion(kb.zoo("cauchy")).measure
        measure_path = tmp_path / "prod.json"
        io.write_json(measure_path, kb.ProductSpectralMeasure(factors=(factor,) * 3).to_dict())
        pairs_path = tmp_path / "pairs.csv"
        io.write_matrix_csv(pairs_path, np.random.default_rng(4).uniform(-3, 3, (200, 6)))
        errors_path, values_path = tmp_path / "errors.csv", tmp_path / "values.csv"
        assert main(["rff", str(measure_path), "-m", "256", "--seed", "3", "--pairs",
                     str(pairs_path), "--errors-out", str(errors_path),
                     "-o", str(tmp_path / "s.json")]) == 0
        assert main(["product-synth", str(measure_path), "--pairs", str(pairs_path),
                     "-o", str(values_path)]) == 0
        exact = [row.split(",")[0] for row in errors_path.read_text().splitlines()[1:]]
        assert len(exact) == 200
        assert exact == values_path.read_text().splitlines()

    def test_pairs_of_the_wrong_width_exit_2(self, tmp_path, capsys):
        measure_path, pairs_path = tmp_path / "mu.json", tmp_path / "pairs.csv"
        io.write_json(measure_path, kb.cosine_measure().to_dict())
        io.write_matrix_csv(pairs_path, [[0.0, 1.0, 2.0]])
        code, err = exit_and_stderr(capsys, ["rff", measure_path, "-m", "16", "--seed", "1",
                                             "--pairs", pairs_path, "-o", tmp_path / "s.json"])
        assert (code, err) == (2, "error: --pairs rows must have 2 columns (x then y)\n")
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_pairs_are_validation_errors(self, tmp_path, capsys, bad):
        measure_path = tmp_path / "prod.json"
        io.write_json(measure_path, kb.ProductSpectralMeasure(
            factors=(kb.cosine_measure(),) * 2).to_dict())
        pairs_path = tmp_path / "pairs.csv"
        io.write_matrix_csv(pairs_path, [[0.0, 1.0, 2.0, 3.0], [0.5, bad, 0.0, 0.0]])
        assert main(["product-synth", str(measure_path), "--pairs", str(pairs_path),
                     "-o", str(tmp_path / "values.csv")]) == 2
        assert main(["rff", str(measure_path), "-m", "16", "--seed", "1", "--pairs",
                     str(pairs_path), "--errors-out", str(tmp_path / "errors.csv"),
                     "-o", str(tmp_path / "s.json")]) == 2
        assert not (tmp_path / "values.csv").exists()
        assert not (tmp_path / "errors.csv").exists()


class TestElementBudget:
    """Every size flag is checked against MAX_ELEMENTS before allocating."""

    @pytest.mark.parametrize("argv", [
        ["invert", "--kernel", "gaussian", "--n-samples", "100000000"],
        ["invert", "--kernel", "gaussian", "--bins", "100000000"],
        ["invert", "--kernel", "gaussian", "--window", "1e7", "--step", "1e-3"],
        ["zoo", "sample", "--kernel", "gaussian", "--grid", "0", "1", "1e9"],
        ["to-metric", "--kernel", "gaussian", "--grid", "0", "1", "1e12"],
    ])
    def test_oversized_flags_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(argv + ["-o", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2 ** 20
        assert not out.exists()
        assert "budget" in capsys.readouterr().err

    def test_oversized_gram_exits_2(self, tmp_path, capsys):
        # 4,097 points need 16.8M Gram entries, just over the 2**24 budget
        points, out = tmp_path / "points.csv", tmp_path / "gram.csv"
        io.write_points_csv(points, np.arange(4097.0))
        tracemalloc.start()
        try:
            code = main(["gram", "--points", str(points), "--kernel", "gaussian",
                         "-o", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2 ** 20
        assert not out.exists()
        assert "budget" in capsys.readouterr().err

    def test_oversized_m_exits_2(self, tmp_path, capsys):
        measure_path = tmp_path / "mu.json"
        io.write_json(measure_path, kb.cosine_measure().to_dict())
        assert main(["rff", str(measure_path), "-m", str(kb.spectral.MAX_ELEMENTS + 1),
                     "--seed", "1", "-o", str(tmp_path / "s.json")]) == 2
        assert not (tmp_path / "s.json").exists()


class TestExitCodes:
    def test_missing_file_is_validation_error(self, capsys):
        assert main(["check-psd", "/nonexistent/matrix.csv"]) == 2

    def test_unknown_kernel_is_validation_error(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        io.write_points_csv(pts, [0.0, 1.0])
        assert main(["gram", "--points", str(pts), "--kernel", "sinc",
                     "-o", str(tmp_path / "g.csv")]) == 2

    def test_malformed_json_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["synth", str(bad), "-o", str(tmp_path / "out.csv")]) == 2

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2


class TestProcessEntry:
    """main() without argv is the process entry: it freezes the collector once."""

    def test_only_the_process_entry_freezes(self, monkeypatch, capsys):
        frozen = []
        monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
        monkeypatch.setattr(sys, "argv", ["kernelbridge", "zoo", "list"])
        assert main() == 0
        assert frozen == [True]
        assert main(["zoo", "list"]) == 0
        assert exit_code(["no-such-command"]) == 2
        assert frozen == [True]
        monkeypatch.setattr(sys, "argv", ["kernelbridge", "no-such-command"])
        with pytest.raises(SystemExit):
            main()
        assert frozen == [True, True]

    def test_subprocess_writes_the_in_process_bytes(self, tmp_path, capsys):
        src = str(Path(kb.__file__).resolve().parents[1])
        measure = kb.bochner_inversion(kb.zoo("cauchy")).measure
        io.write_json(tmp_path / "mu.json", measure.to_dict())
        child = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "kernelbridge.cli", "synth",
             str(tmp_path / "mu.json"), "-o", str(tmp_path / "child.csv")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            timeout=120)
        assert (child.returncode, child.stderr) == (0, "")
        assert main(["synth", str(tmp_path / "mu.json"), "-o", str(tmp_path / "own.csv")]) == 0
        assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "own.csv").read_bytes()


FUZZ_SCALARS = (st.none() | st.booleans() | st.integers(-2, 3) | st.just(10 ** 400)
                | st.sampled_from([0.0, 0.5, 1.0, 2.5, -1.0, 1e300, float("nan"),
                                   float("inf")])
                | st.sampled_from(["", "x", "1.5", "s2", "constant", "gaussian"]))
FUZZ_KEYS = st.sampled_from(["atoms", "density", "edges", "values", "law", "loc",
                             "mass", "factors", "name", "params", "scale"])
FUZZ_ANY = st.recursive(FUZZ_SCALARS, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(FUZZ_KEYS, inner, max_size=3), max_leaves=10)
FUZZ_NUMBERS = st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0, 1e300]), max_size=4)
#: measure files that are right in layout but for a few fields, so that the
#: readers get past the top level and the computation runs
FUZZ_MEASURE = st.fixed_dictionaries({}, optional={
    "atoms": st.lists(st.fixed_dictionaries({}, optional={
        "loc": FUZZ_SCALARS, "mass": FUZZ_SCALARS}) | FUZZ_SCALARS, max_size=3) | FUZZ_ANY,
    "density": st.fixed_dictionaries({}, optional={
        "edges": FUZZ_NUMBERS | FUZZ_ANY, "values": FUZZ_NUMBERS | FUZZ_ANY,
        "law": st.sampled_from(["constant", "s2"]) | FUZZ_ANY}) | FUZZ_ANY})
FUZZ_DESCRIPTOR = st.fixed_dictionaries({}, optional={
    "name": st.sampled_from(kb.zoo_names()) | FUZZ_SCALARS,
    "params": st.dictionaries(st.sampled_from(["scale", "omega", "value", "x"]),
                              FUZZ_SCALARS, max_size=2) | FUZZ_ANY})
#: tiny JSON documents, biased towards the layouts the readers look for
FUZZ_JSON = (FUZZ_ANY | FUZZ_MEASURE | FUZZ_DESCRIPTOR
             | st.fixed_dictionaries({"factors": st.lists(FUZZ_MEASURE, max_size=3)
                                      | FUZZ_ANY}))
FUZZ_CELLS = st.sampled_from(["0", "1", "-1", "0.5", "2", "1e300", "nan", "inf", "", "x", " "])
FUZZ_CSV = st.lists(st.lists(FUZZ_CELLS, max_size=4).map(",".join),
                    max_size=4).map(lambda rows: "\n".join(rows) + "\n")
#: every subcommand that reads a file; J is the JSON file, C the CSV file
FILE_COMMANDS = [
    "zoo sample --profile J --grid 0 1 3 -o O",
    "zoo sample --samples C --grid 0 1 3 -o O",
    "gram --points C --kernel gaussian -o O",
    "gram --points C --profile J -o O",
    "check-psd C", "check-nd C", "nd-to-psd C -o O", "embed C -o O",
    "to-metric --profile J --grid 0 1 3 -o O",
    "to-metric --samples C --grid 0 1 3 -o O",
    "invert --profile J --n-samples 65 --bins 8 --window 2 --step 0.1 -o O",
    "invert --samples C --t-max 1 --n-samples 65 --bins 8 --window 2 --step 0.1 -o O",
    "invert --kernel gaussian --params P --n-samples 65 --bins 8 --window 2 --step 0.1 "
    "-o O",
    "synth J --grid -1 1 5 -o O", "screw J --grid -1 1 5 -o O",
    "gamma J -o O", "gamma J --k0 1 -o O", "bound-check J --k0 1",
    "atom0 --profile J --window 2 --step 0.1",
    "atom0 --samples C --window 2 --step 0.1",
    "rff J -m 4 --seed 1 --pairs C --errors-out E -o O",
    "product-synth J --pairs C -o O",
]

#: every subcommand with inputs on which it exits 0; M is a measure (read as a gamma
#: measure too), G a gamma measure, F a factored measure, C a matrix, P points,
#: R1 and R2 pairs of dimension 1 and 2, and O and E the files written
FLAG_COMMANDS = {
    "zoo": "zoo sample --kernel gaussian -o O", "gram": "gram --points P --kernel gaussian -o O",
    "check-psd": "check-psd C", "check-nd": "check-nd C", "nd-to-psd": "nd-to-psd C -o O",
    "embed": "embed C -o O", "to-metric": "to-metric --kernel gaussian -o O",
    "invert": "invert --kernel gaussian -o O", "synth": "synth M -o O", "screw": "screw G -o O",
    "gamma": "gamma M -o O", "bound-check": "bound-check G --k0 1",
    "atom0": "atom0 --kernel gaussian",
    "rff": "rff M -m 4 --seed 1 --pairs R1 --errors-out E -o O",
    "product-synth": "product-synth F --pairs R2 -o O"}
#: every value a numeric flag is fuzzed with: non-numbers, non-finite numbers, the
#: edges of the float range, and small sizes (so nothing large is allocated)
FLAG_VALUES = ["nan", "inf", "-inf", "1e400", "2.5", "true", "0", "-1", "2", "3", "5e-324",
               "2.2250738585072014e-308", "-0.0", "1.7976931348623157e308"]


def numeric_flags(command: str) -> dict:
    """The numeric options of a subcommand of the parser: option -> (type, nargs)."""
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {action.option_strings[-1]: (action.type, action.nargs or 1)
            for action in subparsers.choices[command]._actions
            if action.option_strings and action.type in (int, float)}


@st.composite
def flag_cases(draw):
    """A subcommand, and values from FLAG_VALUES for some of its numeric options."""
    command = draw(st.sampled_from(sorted(FLAG_COMMANDS)))
    options = numeric_flags(command)
    chosen = draw(st.lists(st.sampled_from(sorted(options) or [None]), unique=True,
                           min_size=1).map(lambda names: [n for n in names if n]))
    return command, {option: draw(st.lists(st.sampled_from(FLAG_VALUES),
                                           min_size=options[option][1],
                                           max_size=options[option][1]))
                     for option in chosen}


class TestFuzzedFlags:
    def test_every_subcommand_is_fuzzed(self):
        subparsers = next(action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert sorted(subparsers.choices) == sorted(FLAG_COMMANDS)

    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=flag_cases())
    @example(case=("invert", {"--t-max": ["nan"]}))  # accepted before InversionConfig checked it
    @example(case=("invert", {"--freq-max": ["inf"]}))
    @example(case=("invert", {"--window": ["1e400"]}))
    @example(case=("invert", {"--bins": ["2.5"]}))
    @example(case=("invert", {"--n-samples": ["1e3"]}))
    # a step t_max / (n_samples - 1) of 0: a ZeroDivisionError traceback
    @example(case=("invert", {"--t-max": ["5e-324"], "--n-samples": ["3"], "--bins": ["2"]}))
    # the step times the bin width passes the float range: a RuntimeWarning
    @example(case=("invert", {"--t-max": ["1.7976931348623157e308"], "--n-samples": ["2"],
                              "--bins": ["2"]}))
    def test_fuzzed_flags_keep_the_exit_code_contract(self, tmp_path, capsys, case):
        command, flags = case
        files = {"O": tmp_path / "out", "E": tmp_path / "errors.csv",
                 "C": tmp_path / "d2.csv", "P": tmp_path / "points.csv",
                 "M": tmp_path / "mu.json", "G": tmp_path / "gamma.json",
                 "F": tmp_path / "factors.json", "R1": tmp_path / "pairs1.csv",
                 "R2": tmp_path / "pairs2.csv"}
        files["O"].unlink(missing_ok=True)
        files["E"].unlink(missing_ok=True)
        measure = kb.gaussian_measure(n_bins=8)
        io.write_json(files["M"], measure.to_dict())
        io.write_json(files["G"], kb.gamma_from_spectral(measure)[0].to_dict())
        io.write_json(files["F"], {"factors": [measure.to_dict()] * 2})
        files["C"].write_text(COLLINEAR_CSV)
        files["P"].write_text("0\n1\n2.5\n")
        files["R1"].write_text("0.5,0.25\n")
        files["R2"].write_text("0,0.5,1,0.25\n")
        argv = [str(files.get(word, word)) for word in FLAG_COMMANDS[command].split()]
        for option, values in flags.items():
            argv += [option, *values]
        code, err = exit_and_stderr(capsys, argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err and "Warning" not in err
        assert files["O"].exists() == (code == 0) or "-o" not in argv
        assert files["E"].exists() == (code == 0) or command != "rff"
        types = numeric_flags(command)
        if any(value in ("nan", "inf", "-inf", "1e400", "true")
               or (types[option][0] is int and not value.lstrip("-").isdigit())
               for option, values in flags.items() for value in values):
            assert code == 2


_HUGE = {"density": {"edges": [0, 1e300], "values": [1e300]}}  # mass 2e600
_LARGE = {"density": {"edges": [0, 1e100], "values": [1e100]}}  # mass 2e200
_CONSTANT = {"name": "constant", "params": {"value": 1e308}}
_DENSE = {"density": {"edges": [0, 1], "values": [5e307]}}  # mass 1e308; 16 v overflows
#: k = -9e307 up to t = 40 and 9e307 past t = 110: atom0 reads 8.55e307, so k - atom0
#: is finite and its cosine transform, ~40 (k - atom0) / pi at low frequencies, is not
_STEP = "0,-9e307\n40,-9e307\n50,0\n100,0\n110,9e307\n200,9e307\n"
#: samples 2.5e308 apart: np.interp's slope between them passes the float range, the
#: slope between their halves does not; invert's trapezoid term k - atom0 does
_STEEP = "0,-1.5e308\n5,1e308\n200,1e308\n"
#: halves 9e307 apart over 0.5: the slope between them passes the float range too
_STEEPER = "0,-9e307\n0.5,9e307\n1.2,0\n200,0\n"
#: computed values past the float range: command, JSON, CSV.  The first five are a
#: measure's mass or metric, the sixth an inverted density; of the rest, rff exited 0
#: with inf, and every other printed a RuntimeWarning before its error (g / (16 c d)
#: was called a density value that is not finite)
OVERFLOWS = [
    ("synth J --grid -1 1 5 -o O", _HUGE, ""),
    ("rff J -m 4 --seed 1 --pairs C --errors-out E -o O", _HUGE, "0,0\n"),
    ("product-synth J --pairs C -o O", {"factors": [_LARGE] * 4}, "0,0,0,0,1,1,1,1\n"),
    ("rff J -m 4 --seed 1 --pairs C --errors-out E -o O", {"factors": [_LARGE] * 4},
     "0,0,0,0,1,1,1,1\n"),
    ("screw J --grid -1 1 5 -o O", {"density": {**_HUGE["density"], "law": "s2"}}, ""),
    ("invert --samples C -o O", {}, _STEP),
    ("invert --samples C -o O", {}, _STEEP),
    ("rff J -m 4 --seed 1 --pairs C --errors-out E -o O",
     {"atoms": [{"loc": 0, "mass": 1e308}]}, "0.5,0.25\n"),
    ("rff J -m 4 --seed 1 --pairs C --errors-out E -o O", _DENSE, "0.5,0.25\n"),
    ("gamma J -o O", _DENSE, ""),
    ("gamma J -o O", {"atoms": [{"loc": 1e200, "mass": 1e200}]}, ""),
    ("gamma J --k0 1e200 -o O", {"density": {"edges": [1e-200, 2e-200], "values": [1]}}, ""),
    ("gamma J --k0 1 -o O", {"atoms": [{"loc": 1e308, "mass": 1}]}, ""),
    ("gamma J --k0 1 -o O", {"density": {"edges": [1, 1e308], "values": [1e-300]}}, ""),
]

#: bins of value 1e308 and width 1e-10: mass 4e298
_TALL = {"density": {"edges": [0, 1e-10, 2e-10], "values": [1e308, 1e308]}}
#: a constant-law gamma bin whose spectral value g / (16 c d) is 3.125e98
_TINY_EDGES = {"density": {"edges": [1e-200, 2e-200], "values": [1e-300]}}
_FLOAT_MAX = {"name": "constant", "params": {"value": np.finfo(float).max}}
#: finite answers with a step past the float range on the way: command, JSON, CSV,
#: and the summary's key and value.  Each exited 2 with "... overflows the float
#: range": the sum of the trapezoids of a constant kernel (at the float maximum, its
#: mean rounded past the values), the mass 2 v of a bin and the sum of its values,
#: and c d of the bin; the sampled kernels exited 2 with a non-finite value at t=0.01,
#: and the metric 2 k(0) - 2 k(t) of the constant kernel at t=-10.0
FINITE_EXTREMES = [
    ("atom0 --profile J", {"name": "constant", "params": {"value": 1e306}}, "", "atom0",
     1e306),
    ("atom0 --profile J", _CONSTANT, "", "atom0", 1e308),
    ("atom0 --profile J", _FLOAT_MAX, "", "atom0", np.finfo(float).max),
    ("atom0 --samples C", {}, _STEEP, "atom0", 1e308),
    ("atom0 --samples C", {}, _STEEPER, "atom0", 0.0),
    ("invert --profile J -o O", _CONSTANT, "", "atom0", 1e308),
    ("to-metric --profile J -o O", _CONSTANT, "", "min_d2", 0.0),
    ("synth J -o O", _TALL, "", "total_mass", 4e298),
    ("gamma J --k0 1 -o O", _TINY_EDGES, "", "atom0", 1.0),
]


#: bins [0, 2] and [2, 4]: a lag of 1e308 times their centre 3 is past the float range
_WIDE = {"density": {"edges": [0, 2, 4], "values": [1, 1]}}
_PAIR_ROW = "0,0,0,1e308,-1e308,1\n"
#: finite inputs at the extreme of the float range whose lag times a frequency
#: overflows: command, JSON, CSV
LAG_OVERFLOWS = [
    ("synth J --grid 1e308 1.5e308 3 -o O", _WIDE, ""),
    ("screw J --grid 1e308 1.5e308 3 -o O", {"density": {**_WIDE["density"], "law": "s2"}},
     ""),
    ("product-synth J --pairs C -o O", {"factors": [_WIDE] * 3}, _PAIR_ROW),
    ("rff J -m 4 --seed 1 --pairs C --errors-out E -o O", {"factors": [_WIDE] * 3},
     _PAIR_ROW),
]
#: pairs and points whose lag is past the float range: command, JSON, CSV, the lag
LAG_SPANS = [("product-synth J --pairs C -o O", {"factors": [_WIDE]}, "1e308,-1e308\n",
              "a --pairs lag x - y"),
             ("rff J -m 4 --seed 1 --pairs C --errors-out E -o O", _WIDE, "-1e308,1e308\n",
              "a --pairs lag x - y"),
             ("gram --points C --kernel gaussian -o O", {}, "1e308\n-1e308\n0\n",
              "a lag x_i - x_j of the points")]

#: the squared distances of the points 0, 1, 2, 3, scaled to a largest entry of
#: 1.7e308: every entry is finite, the least eigenvalue (~-1.9e308) is not
_D2_PAST_RANGE = "".join(",".join(map(str, row)) + "\n" for row in (
    np.subtract.outer(np.arange(4.0), np.arange(4.0)) ** 2 * (1.7e308 / 9)).tolist())
#: matrices with a reading past the float range: command, CSV, message.  check-psd
#: exited 0 with a witness eigenvalue of -inf; the symmetry check of every matrix
#: command printed a RuntimeWarning from A - A^T before it rejected
MATRIX_OVERFLOWS = [("check-psd C", _D2_PAST_RANGE,
                     "an eigenvalue of the matrix overflows the float range")] + [
    (command, "0,1e308\n-1e308,0\n", "matrix is not symmetric: max |A - A^T| = inf")
    for command in ("check-psd C", "check-nd C", "embed C -o O", "nd-to-psd C -o O")]


#: a JSON document nested far past the parser's recursion limit
DEEP_JSON = "[" * 10_000 + "]" * 10_000
#: every command that parses JSON: the file J, or the --params text P
JSON_COMMANDS = [
    "synth J -o O", "screw J -o O", "gamma J -o O", "gamma J --k0 1 -o O",
    "bound-check J --k0 1", "rff J -m 4 --seed 1 -o O", "product-synth J --pairs C -o O",
    "zoo sample --profile J -o O", "gram --points C --profile J -o O",
    "to-metric --profile J -o O", "invert --profile J -o O", "atom0 --profile J",
    "zoo sample --kernel gaussian --params P -o O", "gram --points C --kernel gaussian "
    "--params P -o O", "invert --kernel gaussian --params P -o O",
    "atom0 --kernel gaussian --params P",
]


def with_examples(cases):
    """Add each (command, document, table) case as a hypothesis @example."""
    def add(test):
        for command, document, table in cases:
            test = example(command=command, document=document, table=table)(test)
        return test
    return add


def exit_and_stderr(capsys, argv):
    code = exit_code(argv)
    return code, capsys.readouterr().err


class TestMalformedInputs:
    """Every file and flag boundary exits 2 with a message, never a traceback."""

    @pytest.mark.parametrize("command, text", [
        ("synth {} -o {}", "[1, 2]"),
        ("gamma {} -o {}", "[1, 2]"),
        ("bound-check {} --k0 1", "[1, 2]"),
        ("synth {} -o {}", '{"atoms": [1, 2]}'),
        ("screw {} -o {}", '{"atoms": [1, 2]}'),
        ("rff {} -m 4 --seed 1 -o {}", '{"factors": 3}'),
        ("product-synth {} --pairs PAIRS -o {}", '{"factors": 3}'),
        ("rff {} -m 4 --seed 1 -o {}", "3"),
        ("zoo sample --profile {} -o {}", '["gaussian"]'),
        ("zoo sample --profile {} -o {}", '{"name": ["gaussian"]}'),
        ("zoo sample --profile {} -o {}", '{"name": "gaussian", "params": [1]}'),
    ])
    def test_malformed_files_exit_2(self, tmp_path, capsys, command, text):
        path, out = tmp_path / "in.json", tmp_path / "out"
        path.write_text(text)
        (tmp_path / "pairs.csv").write_text("0,0\n")
        argv = command.format(path, out).replace("PAIRS", str(tmp_path / "pairs.csv"))
        code, err = exit_and_stderr(capsys, argv.split())
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth {} -o {}", "gamma {} -o {}"])
    @pytest.mark.parametrize("density", ['{"edges": [0.0, true], "values": [0.5]}',
                                         '{"edges": [0.0, 1.0], "values": [true]}',
                                         '{"edges": [0.0, "1"], "values": [0.5]}'])
    def test_a_measure_file_holds_only_numbers(self, tmp_path, capsys, command, density):
        # true was read as 1.0 among floats
        path, out = tmp_path / "in.json", tmp_path / "out"
        path.write_text(f'{{"density": {density}}}')
        code, err = exit_and_stderr(capsys, command.format(path, out).split())
        assert code == 2
        assert err.endswith(" must be real numbers\n")
        assert not out.exists()

    @pytest.mark.parametrize("params", ["[1]", '{"scale": null}', '{"scale": "2"}',
                                        '{"scale": true}', '{"scale": 1e400}', '"x"',
                                        '{"scale": 1' + "0" * 400 + "}"])
    def test_params_must_be_an_object_of_finite_numbers(self, tmp_path, capsys, params):
        out = tmp_path / "m.json"
        code, err = exit_and_stderr(capsys, ["invert", "--kernel", "gaussian", "--params",
                                             params, "-o", out])
        assert code == 2
        assert "finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", JSON_COMMANDS)
    def test_deeply_nested_json_exits_2(self, tmp_path, capsys, command):
        # ended in a RecursionError traceback with exit 1
        files = {"J": tmp_path / "in.json", "C": tmp_path / "in.csv", "O": tmp_path / "out",
                 "P": DEEP_JSON}
        files["J"].write_text(DEEP_JSON)
        files["C"].write_text("0,0\n")
        code, err = exit_and_stderr(capsys, [files.get(w, w) for w in command.split()])
        assert code == 2
        source = "--params" if "P" in command.split() else files["J"]
        assert err == f"error: {source}: JSON nested too deeply\n"
        assert not files["O"].exists()

    # inf in t exited 0: atom0 read 0.5055, zoo sample wrote a flat tail made up between
    # t = 1 and inf; nan in t failed later, at a t the file does not hold
    @pytest.mark.parametrize("command", ["atom0 --samples C --window 50",
                                         "zoo sample --samples C --grid 0 3 4 -o O"])
    @pytest.mark.parametrize("row", ["inf,0.2", "nan,0.2", "2,inf", "2,nan"])
    def test_non_finite_samples_exit_2(self, tmp_path, capsys, command, row):
        files = {"C": tmp_path / "f.csv", "O": tmp_path / "out.csv"}
        files["C"].write_text(f"0,1\n0.5,0.8\n1,0.5\n{row}\n")
        code, err = exit_and_stderr(capsys, [files.get(w, w) for w in command.split()])
        assert code == 2
        assert err == "error: samples must be finite\n"
        assert not files["O"].exists()

    @pytest.mark.parametrize("command, table", BAD_TOLS)
    def test_tol_must_be_finite_and_non_negative(self, tmp_path, capsys, command, table):
        files = {"C": tmp_path / "d2.csv", "O": tmp_path / "out.csv"}
        files["C"].write_text(table)
        code, err = exit_and_stderr(capsys, [files.get(w, w) for w in command.split()])
        assert code == 2
        assert "tol must be a finite number >= 0" in err
        assert not files["O"].exists()

    @pytest.mark.parametrize("index", ["-1", "3", "-4"])
    def test_nd_to_psd_base_index_out_of_range(self, tmp_path, capsys, index):
        matrix, out = tmp_path / "d2.csv", tmp_path / "c.csv"
        io.write_matrix_csv(matrix, [[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
        code, err = exit_and_stderr(capsys, ["nd-to-psd", matrix, "--base-index", index,
                                             "-o", out])
        assert code == 2
        assert "out of range" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, document, table, message",
        [(*case, "a lag times a frequency overflows the float range") for case in LAG_OVERFLOWS]
        + [(*case[:3], f"{case[3]} overflows the float range") for case in LAG_SPANS]
        # constant-law bins: called a squared-metric overflow
        + [("screw J --grid 1e308 1.5e308 3 -o O", _WIDE, "",
            "a lag times a frequency overflows the float range")])
    def test_overflowing_lags_exit_2(self, tmp_path, capsys, command, document, table,
                                     message):
        # synth, product-synth and rff wrote nan and exited 0, and x - y past the
        # float range gave inf, each with a RuntimeWarning; screw called the
        # lag a squared-metric overflow
        files = {"J": tmp_path / "in.json", "C": tmp_path / "in.csv",
                 "O": tmp_path / "out", "E": tmp_path / "errors.csv"}
        files["J"].write_text(json.dumps(document))
        files["C"].write_text(table)
        code, err = exit_and_stderr(capsys, [files.get(w, w) for w in command.split()])
        assert code == 2
        assert err == f"error: {message}\n"
        assert not files["O"].exists() and not files["E"].exists()

    @pytest.mark.parametrize("command, document, table", OVERFLOWS)
    def test_overflowing_measures_exit_2(self, tmp_path, capsys, command, document, table):
        # each used to exit 0 with inf or nan in its output, or print a RuntimeWarning
        # (an error under this suite's warning filter)
        files = {"J": tmp_path / "in.json", "C": tmp_path / "in.csv",
                 "O": tmp_path / "out", "E": tmp_path / "errors.csv"}
        files["J"].write_text(json.dumps(document))
        files["C"].write_text(table)
        code, err = exit_and_stderr(capsys, [files.get(w, w) for w in command.split()])
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith(" overflows the float range\n") and "Warning" not in err
        assert not files["O"].exists() and not files["E"].exists()

    @pytest.mark.parametrize("command, table, message", MATRIX_OVERFLOWS)
    def test_matrices_past_the_float_range_exit_2(self, tmp_path, capsys, command, table,
                                                  message):
        files = {"C": tmp_path / "in.csv", "O": tmp_path / "out.csv"}
        files["C"].write_text(table)
        code = exit_code([files.get(w, w) for w in command.split()])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")
        assert not files["O"].exists()

    def test_steep_samples_invert_to_a_negativity_certificate(self, tmp_path, capsys):
        # the transform passed the float range before the density did: the inversion
        # exited 2 with "the recovered density overflows the float range"
        samples, out = tmp_path / "in.csv", tmp_path / "m.json"
        samples.write_text(_STEEPER)
        code, payload = run(capsys, "invert", "--samples", samples, "-o", out)
        assert code == 3 and payload["error"] == "NotPositiveDefinite"
        assert payload["worst_density"] == pytest.approx(-1.1783e307, rel=1e-4)
        assert not out.exists()

    @pytest.mark.parametrize("command, document, table, key, value", FINITE_EXTREMES)
    def test_finite_answers_near_the_float_maximum_exit_0(self, tmp_path, capsys, command,
                                                          document, table, key, value):
        files = {"J": tmp_path / "in.json", "C": tmp_path / "in.csv", "O": tmp_path / "out"}
        files["J"].write_text(json.dumps(document))
        files["C"].write_text(table)
        code = exit_code([files.get(w, w) for w in command.split()])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        summary = json.loads(out)
        assert summary[key] == pytest.approx(value, rel=1e-12)
        assert all(np.isfinite(v) for k, v in summary.items() if k != "written")
        if files["O"].exists():
            text = files["O"].read_text().lower()
            assert "inf" not in text and "nan" not in text

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(FILE_COMMANDS), document=FUZZ_JSON, table=FUZZ_CSV)
    @example(command="synth J -o O", document={"atoms": [1, 2]}, table="")
    @example(command="rff J -m 4 --seed 1 -o O", document={"factors": 3}, table="")
    @example(command="gamma J -o O", document=[1, 2], table="")
    @example(command="gram --points C --kernel gaussian -o O", document={},
             table="0,1e300\n")  # exit 0, with a RuntimeWarning from the kernel
    @example(command="gamma J --k0 1 -o O", document=TINY_ATOM, table="")
    @example(command="bound-check J --k0 1", document=TINIER_ATOM, table="")
    @example(command="check-nd C", document={}, table=FLOAT_MAX_PAIR)
    @example(command="embed C -o O", document={}, table=FLOAT_MAX_PAIR)
    @with_examples(OVERFLOWS)
    @with_examples([case[:3] for case in FINITE_EXTREMES])
    @with_examples(LAG_OVERFLOWS + [case[:3] for case in LAG_SPANS])
    @with_examples([(command, {}, table) for command, table, _ in MATRIX_OVERFLOWS])
    @example(command="nd-to-psd C -o O", document={}, table=OVERFLOWING_CENTRE)
    @with_examples([("embed C -o O", {}, table) for table in SCALED_EMBED])
    @with_examples([(command, {}, table) for command, table in BAD_TOLS])
    def test_fuzzed_files_keep_the_exit_code_contract(self, tmp_path, capsys, command,
                                                     document, table):
        # every size stays tiny: lists of at most three, m = 4, 65 samples
        files = {"J": tmp_path / "in.json", "C": tmp_path / "in.csv",
                 "O": tmp_path / "out", "E": tmp_path / "errors.csv"}
        files["J"].write_text(json.dumps(document))
        files["C"].write_text(table)
        argv = [str(files.get(word, word)) for word in command.split()]
        if "P" in argv:
            argv[argv.index("P")] = json.dumps(document)
        code, err = exit_and_stderr(capsys, argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err


#: log-uniform over 1e-300 .. 1e308: masses, locations and edges the float range holds
EXTREME = st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e)


@st.composite
def extreme_gammas(draw):
    """A gamma measure file of either law: up to 2 atoms and 3 bins, every
    location, mass, edge and value log-uniform over 1e-300 .. 1e308, some
    values 0 and some first edges 0."""
    edges = sorted(set(draw(st.lists(EXTREME, max_size=4))))
    if edges and draw(st.booleans()):
        edges[0] = 0.0
    values = draw(st.lists(st.just(0.0) | EXTREME, min_size=max(len(edges) - 1, 0),
                           max_size=max(len(edges) - 1, 0)))
    atoms = draw(st.lists(st.tuples(EXTREME, EXTREME), max_size=2))
    return {"atoms": [{"loc": loc, "mass": mass} for loc, mass in atoms],
            "density": {"edges": edges if values else [], "values": values,
                        "law": draw(st.sampled_from(["s2", "constant"]))}}


def finite_summary(command, summary, k0):
    """Whether every number of a summary line is finite, but for the documented
    non-finite readings of the bound: a bound 4 k0 past the float range reads
    inf, an integral inf (a constant-law bin at 0, or past the range), and
    the margin -inf for an infinite integral, else inf under an infinite bound."""
    readings = {key: float(value) for key, value in summary.items()
                if key not in ("written", "errors_written")}
    bound_inf = not np.isfinite(4.0 * k0)
    if command.startswith("bound-check"):
        integral = readings.pop("integral")
        assert integral == np.inf or np.isfinite(integral)
        assert readings.pop("bound") == (np.inf if bound_inf else 4.0 * k0)
        margin = readings.pop("margin")
        assert margin == (-np.inf if integral == np.inf else np.inf if bound_inf else margin)
    elif "--k0" in command:
        margin = readings.pop("margin")
        assert margin == (np.inf if bound_inf else margin)
    return all(np.isfinite(value) for value in readings.values())


class TestOverflowRule:
    """Measures across the float range: a value past it exits 2, never 0 with inf or
    with a RuntimeWarning (an error under this suite's warning filter)."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(document=extreme_gammas(), k0=EXTREME)
    @example(document={"atoms": [{"loc": 1e-8, "mass": 1e308}]}, k0=1.0)
    @example(document={"density": {"edges": [0.0, 1.0], "values": [8e307]}}, k0=1e308)
    @example(document={"density": {"edges": [1.0, 2.0], "values": [1.0], "law": "s2"}},
             k0=1e308)  # margin inf under the bound inf
    @example(document=_TALL, k0=1.0)
    @example(document=_TINY_EDGES, k0=1.0)
    def test_extreme_measures_exit_0_with_finite_numbers_or_2_or_3(self, tmp_path, capsys,
                                                                   document, k0):
        spectral = {"atoms": document.get("atoms", []),
                    "density": {key: value for key, value in document.get("density", {}).items()
                                if key != "law"}}
        files = {"G": tmp_path / "gamma.json", "M": tmp_path / "mu.json",
                 "C": tmp_path / "pairs.csv", "O": tmp_path / "out", "E": tmp_path / "e.csv",
                 "K": repr(k0)}
        files["G"].write_text(json.dumps(document))
        files["M"].write_text(json.dumps(spectral))
        files["C"].write_text("0.5,0.25\n-1e-3,2\n")
        for command in ("gamma M -o O", "gamma G --k0 K -o O", "screw G --grid -2 2 9 -o O",
                        "synth M --grid -2 2 9 -o O", "bound-check G --k0 K",
                        "rff M -m 4 --seed 1 --pairs C --errors-out E -o O"):
            for path in (files["O"], files["E"]):
                path.unlink(missing_ok=True)
            code = exit_code([files.get(w, w) for w in command.split()])
            out, err = capsys.readouterr()
            assert code in (0, 2, 3), (command, err)
            assert "Warning" not in err
            if code == 0:
                assert finite_summary(command, json.loads(out), k0), (command, out)
                for path in (files["O"], files["E"]):
                    if path.exists():
                        text = path.read_text().lower()
                        assert "inf" not in text and "nan" not in text, (command, text)


def test_commands_leave_heavy_modules_unloaded(tmp_path):
    # no command needs scipy, constant-law screw synthesis included (Si's
    # pieces come from numpy); its import would dominate the start-up of any
    # command that loaded it.  No command needs concurrent.futures (5-8 ms to
    # import), and a CSV read or write must not load gzip, which numpy's
    # loadtxt imports when given a path.  rff draws from the package's own
    # PCG64 stream: numpy.random's import (~6 MB of peak memory) also loads
    # secrets, hashlib and OpenSSL.
    src = str(Path(kb.__file__).resolve().parents[1])
    measure = kb.gaussian_measure(n_bins=16)
    io.write_json(tmp_path / "mu.json", measure.to_dict())
    io.write_json(tmp_path / "prod.json", {"factors": [measure.to_dict()] * 3})
    io.write_json(tmp_path / "gamma.json", kb.gamma_from_spectral(measure)[0].to_dict())
    # the |t| metric: constant-law bins on both sides of the series crossover
    io.write_json(tmp_path / "abs.json",
                  kb.GammaMeasure(edges=[0.0, 1e4], values=[2.0 / np.pi]).to_dict())
    for d in (1, 3):
        io.write_matrix_csv(tmp_path / f"pairs{d}.csv", np.linspace(-1.0, 1.0, 8 * d)
                            .reshape(4, 2 * d))
    commands = [["screw", str(tmp_path / "gamma.json"), "-o", str(tmp_path / "d2.csv")],
                ["screw", str(tmp_path / "abs.json"), "-o", str(tmp_path / "abs.csv")],
                ["synth", str(tmp_path / "mu.json"), "-o", str(tmp_path / "k.csv")]]
    commands += [["rff", str(tmp_path / measure_file), "-m", "300", "--seed", "2",
                  "--pairs", str(tmp_path / f"pairs{d}.csv"),
                  "--errors-out", str(tmp_path / f"errors{d}.csv"),
                  "-o", str(tmp_path / f"sample{d}.json")]
                 for d, measure_file in ((1, "mu.json"), (3, "prod.json"))]
    heavy = ("scipy", "concurrent", "gzip", "numpy.random", "secrets", "hashlib", "_hashlib")
    code = ("import sys, kernelbridge.cli; from kernelbridge import io; "
            f"io.write_matrix_csv({str(tmp_path / 'm.csv')!r}, [[1.0]]); "
            f"io.read_matrix_csv({str(tmp_path / 'm.csv')!r}); "
            f"assert not any(kernelbridge.cli.main(argv) for argv in {commands!r}); "
            "print(sorted(m for m in sys.modules "
            f"if any(m == name or m.startswith(name + '.') for name in {heavy!r})))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120).stdout
    assert out.strip().splitlines()[-1] == "[]"
    assert all((tmp_path / name).exists() for name in (
        "d2.csv", "abs.csv", "k.csv", "errors1.csv", "sample1.json", "errors3.csv",
        "sample3.json"))
