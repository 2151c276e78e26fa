"""CLI: thin-adapter equality with library calls, exit codes, file formats."""

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
from kernelbridge import io
from kernelbridge.cli import main


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


class TestProfileCommands:
    def test_to_metric(self, tmp_path, capsys):
        out = tmp_path / "d2.csv"
        code, _ = run(capsys, "to-metric", "--kernel", "cosine",
                      "--grid", "0", str(np.pi), "2", "-o", out)
        assert code == 0
        t, v = io.read_profile_csv(out)
        assert_allclose(v[-1], 4.0, rtol=1e-12)

    def test_atom0(self, capsys):
        code, payload = run(capsys, "atom0", "--kernel", "constant",
                            "--window", "50")
        assert code == 0
        assert payload["atom0"] == pytest.approx(1.0, rel=1e-12)

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

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(flags=st.dictionaries(
        st.sampled_from(["--t-max", "--n-samples", "--bins", "--freq-max",
                         "--window", "--step"]),
        st.sampled_from(["nan", "inf", "-inf", "1e400", "2.5", "true", "0", "-1",
                         "2", "3"]),
        min_size=1))
    @example(flags={"--t-max": "nan"})  # accepted before InversionConfig checked it
    @example(flags={"--freq-max": "inf"})
    @example(flags={"--window": "1e400"})
    @example(flags={"--bins": "2.5"})
    @example(flags={"--n-samples": "1e3"})
    def test_invert_fuzzed_flags(self, tmp_path, capsys, flags):
        # sizes stay at most 3 (or the defaults), so nothing large is allocated
        out = tmp_path / "m.json"
        out.unlink(missing_ok=True)
        argv = ["invert", "--kernel", "gaussian", "-o", out]
        for flag, value in flags.items():
            argv += [flag, value]
        code = exit_code(argv)
        capsys.readouterr()
        assert code in (0, 2, 3)
        assert out.exists() == (code == 0)
        integer_flags = {"--n-samples", "--bins"}
        if any(value in ("nan", "inf", "-inf", "1e400")
               or (flag in integer_flags and not value.lstrip("-").isdigit())
               for flag, value in flags.items()):
            assert code == 2

    @pytest.mark.parametrize("grid", [("0", "inf", "5"), ("nan", "1", "5"),
                                      ("0", "1", "inf"), ("0", "1", "2.5")])
    def test_synth_rejects_bad_grid(self, tmp_path, capsys, grid):
        # N = inf used to escape as an OverflowError traceback
        mu = tmp_path / "mu.json"
        io.write_json(mu, kb.gaussian_measure(n_bins=8).to_dict())
        assert main(["synth", str(mu), "--grid", *grid,
                     "-o", str(tmp_path / "k.csv")]) == 2

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
        assert payload == {"integral": 4.0, "bound": 4.0, "ok": True, "tight": True}

    def test_bound_check_unbounded_reports_inf(self, tmp_path, capsys):
        gamma_path = tmp_path / "gamma.json"
        io.write_json(gamma_path, kb.GammaMeasure(edges=[0.0, 10.0],
                                                  values=[1.0]).to_dict())
        code, payload = run(capsys, "bound-check", gamma_path, "--k0", "1.0")
        assert code == 0
        assert payload["ok"] is False
        assert payload["integral"] == "inf"

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

_HUGE = {"density": {"edges": [0, 1e300], "values": [1e300]}}  # mass 2e600
_LARGE = {"density": {"edges": [0, 1e100], "values": [1e100]}}  # mass 2e200
#: measures whose mass, or metric, is past the float range: command, JSON, CSV
OVERFLOWS = [
    ("synth J --grid -1 1 5 -o O", _HUGE, ""),
    ("rff J -m 4 --seed 1 --pairs C --errors-out E -o O", _HUGE, "0,0\n"),
    ("product-synth J --pairs C -o O", {"factors": [_LARGE] * 4}, "0,0,0,0,1,1,1,1\n"),
    ("rff J -m 4 --seed 1 --pairs C --errors-out E -o O", {"factors": [_LARGE] * 4},
     "0,0,0,0,1,1,1,1\n"),
    ("screw J --grid -1 1 5 -o O", {"density": {**_HUGE["density"], "law": "s2"}}, ""),
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

    @pytest.mark.parametrize("index", ["-1", "3", "-4"])
    def test_nd_to_psd_base_index_out_of_range(self, tmp_path, capsys, index):
        matrix, out = tmp_path / "d2.csv", tmp_path / "c.csv"
        io.write_matrix_csv(matrix, [[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
        code, err = exit_and_stderr(capsys, ["nd-to-psd", matrix, "--base-index", index,
                                             "-o", out])
        assert code == 2
        assert "out of range" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, document, table", OVERFLOWS)
    def test_overflowing_measures_exit_2(self, tmp_path, capsys, command, document, table):
        # each used to exit 0 with inf or nan in its output and a RuntimeWarning
        files = {"J": tmp_path / "in.json", "C": tmp_path / "in.csv",
                 "O": tmp_path / "out", "E": tmp_path / "errors.csv"}
        files["J"].write_text(json.dumps(document))
        files["C"].write_text(table)
        code, err = exit_and_stderr(capsys, [files.get(w, w) for w in command.split()])
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "overflows" in err
        assert not files["O"].exists() and not files["E"].exists()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(FILE_COMMANDS), document=FUZZ_JSON, table=FUZZ_CSV)
    @example(command="synth J -o O", document={"atoms": [1, 2]}, table="")
    @example(command="rff J -m 4 --seed 1 -o O", document={"factors": 3}, table="")
    @example(command="gamma J -o O", document=[1, 2], table="")
    @example(command="gram --points C --kernel gaussian -o O", document={},
             table="0,1e300\n")  # exit 0, with a RuntimeWarning from the kernel
    @with_examples(OVERFLOWS)
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


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # scipy.special is only needed for constant-law screw synthesis; its
    # import would dominate the start-up of every command.  No command
    # needs concurrent.futures (5-8 ms to import), and a CSV read or write
    # must not load gzip, which numpy's loadtxt imports when given a path.
    src = str(Path(kb.__file__).resolve().parents[1])
    code = ("import sys, kernelbridge.cli; from kernelbridge import io; "
            f"io.write_matrix_csv({str(tmp_path / 'm.csv')!r}, [[1.0]]); "
            f"io.read_matrix_csv({str(tmp_path / 'm.csv')!r}); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'concurrent', 'gzip')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120).stdout
    assert out.strip() == "[]"
