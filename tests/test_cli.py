"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest

import oddpu
from oddpu import (FrequencySpectrum, GammaWeights, PotentialSpec, cli, degeneracy_scalar,
                   dirac_structure, invariant_directions, verify)
from oddpu.canonical import (alt_hamiltonian_observable, canonical_map,
                             energy_observable, mode_integrals)
from oddpu.cli import MAX_GRID_ROWS, build_parser, main

from conftest import exact_coordinates, exact_deformed_rk4

DATA = pathlib.Path(__file__).parent / "data"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_strict(argv, capsys):
    """``run`` with numpy warnings raised as errors, so none can reach stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(argv, capsys)


def assert_one_error_line(err, *fragments):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for fragment in fragments:
        assert fragment in lines[0]


class TestSpectrumCommand:
    def test_basic_output(self, capsys):
        code, out, _ = run(["spectrum", "--omegas", "1", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2
        assert payload["sigma"] == [4.0, 5.0, 1.0]
        assert payload["rho"] == pytest.approx([1 / 3, 1 / 3])
        assert payload["P"]["2"] == pytest.approx(21.0)
        assert all(v["pass"] for v in payload["identities"].values())

    def test_repeated_frequency_is_bad_input(self, capsys):
        code, _, err = run(["spectrum", "--omegas", "1", "1"], capsys)
        assert code == 2
        assert "error" in err

    def test_missing_omegas(self, capsys):
        code, _, _ = run(["spectrum"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--omegas", "1e100"],          # w^12 overflows
        ["simulate", "--omegas", "1e160", "--state", "0", "0", "1", "0", "0", "0",
         "--t-end", "1", "--dt", "0.5"],            # w^2 overflows
        ["structure", "--omegas", "1e100"],
        ["structure", "--omegas", "1e-170"],        # w^2 subnormal
        ["spectrum", "--omegas", "1e-200"],         # w^2 underflows to 0
    ])
    def test_frequency_out_of_float_range(self, argv, capsys):
        code, out, err = run_strict(argv, capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "out of float64 range")

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        code, out, _ = run(["spectrum", "--omegas", "1", "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["n"] == 1


class TestStructureCommand:
    def test_dirac_default(self, capsys):
        code, out, _ = run(["structure", "--omegas", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["provenance"] == "dirac"
        assert payload["rank"] == 6
        assert payload["degenerate"] is False
        assert np.array(payload["matrix"]) == pytest.approx(
            dirac_structure(FrequencySpectrum((1.0,))))

    def test_dirac_equivalent_gamma_matches(self, capsys):
        code, out_d, _ = run(["structure", "--omegas", "1", "2"], capsys)
        code2, out_a, _ = run(["structure", "--omegas", "1", "2",
                               "--gamma", "1", "-1", "-1", "1"], capsys)
        assert code == code2 == 0
        md = np.array(json.loads(out_d)["matrix"])
        ma = np.array(json.loads(out_a)["matrix"])
        assert np.abs(md - ma).max() <= 1e-9 * np.abs(md).max()

    def test_degenerate_gamma_reported_not_refused(self, capsys):
        code, out, _ = run(["structure", "--omegas", "1",
                            "--gamma", "1", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["degenerate"] is True
        assert payload["rank"] == 4
        assert payload["degeneracy_scalar"] == pytest.approx(0.0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rank_agrees_with_degenerate(self, capsys, n):
        # read off the raw matrix, the rank undercounted on these draws from n = 4 up
        rng = np.random.default_rng(700 + n)
        spec = verify.random_spectrum(rng, n)
        omegas = ["--omegas", *map(repr, spec.omegas)]
        drawn = [repr(v) for pair in verify.random_gamma(rng, spec).gamma for v in pair]
        for gamma, degenerate in (([], False), (drawn, False), (["1"] * (2 * n), True)):
            code, out, _ = run(["structure", *omegas] + (["--gamma", *gamma] if gamma else []),
                               capsys)
            payload = json.loads(out)
            assert code == 0
            assert payload["degenerate"] is degenerate
            assert payload["rank"] == 4 * n + 2 - 2 * degenerate, gamma

    @pytest.mark.parametrize("argv", [
        # s = 5e-10 at unit scale: nondegenerate, but the block form's
        # z-block fell under its absolute rank tolerance (rank 4)
        ["--omegas", "1", "--gamma", "1", "1.000000001"],
        # T Omega T^T loses its accuracy below about 1e-40 (rank 2)
        ["--omegas", "1e-50"],
    ])
    def test_rank_follows_degenerate_where_block_form_rank_fails(self, capsys, argv):
        code, out, _ = run(["structure", *argv], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["degenerate"] is False
        assert payload["rank"] == 6

    def test_wrong_gamma_count(self, capsys):
        code, _, _ = run(["structure", "--omegas", "1", "--gamma", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("gamma", [("inf", "-1"), ("nan", "1"), ("1", "inf"),
                                       ("1", "-inf"), ("-Infinity", "1"), ("1", "-NAN")])
    def test_non_finite_gamma_refused(self, capsys, gamma):
        # inf and nan both slip past a bare |gamma| >= floor comparison; a
        # negative one is a value, not an unrecognized flag
        code, out, err = run_strict(["structure", "--omegas", "1", "--gamma", *gamma], capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "gamma weight must be finite")

    @pytest.mark.parametrize("argv", [
        ["structure", "--omegas", "1e-152", "1e-3"],
        # the overflow must not read as a degenerate structure (exit 3)
        ["deform", "--omegas", "1e-152", "1e-3", "--gamma", "1", "-1", "-1", "1",
         "--state", *["0"] * 10, "--t-end", "1", "--dt", "0.5"],
    ])
    def test_degeneracy_scalar_out_of_range(self, argv, capsys):
        # rho_0 / w_0^2 is about 1e6 / 1e-304: every power of w is in range,
        # the degeneracy term is not
        code, out, err = run_strict(argv, capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "degeneracy scalar out of float64 range")


class TestSerialization:
    """The ``structure`` JSON: its keys in order, and the degeneracy fields
    of the Dirac structure taken at ``dirac_equivalent_gamma(n)``."""

    KEYS = ["n", "omegas", "gamma", "matrix", "degeneracy_scalar", "provenance", "rank",
            "degenerate"]

    def test_json_dict_fields(self, capsys):
        code, out, _ = run(["structure", "--omegas", "1", "--gamma", "2", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == self.KEYS
        assert payload["n"] == 1
        assert payload["omegas"] == [1.0]
        assert payload["gamma"] == [[2.0, 1.0]]
        assert len(payload["matrix"]) == 6
        assert payload["provenance"] == "alternative"
        assert payload["degeneracy_scalar"] == pytest.approx(
            degeneracy_scalar(FrequencySpectrum((1.0,)), GammaWeights(((2.0, 1.0),))))

    def test_dirac_json_has_null_gamma(self, capsys):
        code, out, _ = run(["structure", "--omegas", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == self.KEYS
        assert payload["gamma"] is None
        assert payload["degeneracy_scalar"] == pytest.approx(1.0)


class TestSimulateCommand:
    ARGS = ["simulate", "--omegas", "1",
            "--state", "0", "0", "1", "0", "0", "0",
            "--t-end", "1", "--dt", "0.25"]

    def test_header_and_shape(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "x1", "x2", "d1_x1", "d1_x2", "d2_x1", "d2_x2",
                           "H", "J_0_1", "J_0_2"]
        assert len(rows) == 1 + 5  # t = 0, 0.25, ..., 1.0

    def test_zero_state_gives_zero_columns(self, capsys):
        argv = ["simulate", "--omegas", "1",
                "--state", "0", "0", "0", "0", "0", "0",
                "--t-end", "1", "--dt", "0.5"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        data = np.genfromtxt(io.StringIO(out), delimiter=",", skip_header=1)
        assert np.abs(data[:, 1:]).max() == 0.0

    def test_conserved_columns(self, capsys):
        argv = ["simulate", "--omegas", "1", "2",
                "--state", "0.3", "-0.2", "0.5", "0.1", "-0.4", "0.25",
                "0.7", "-0.1", "0.2", "0.6",
                "--t-end", "20", "--dt", "0.1"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        data = np.genfromtxt(io.StringIO(out), delimiter=",", skip_header=1)
        for col in range(11, 16):  # H and the four J columns
            vals = data[:, col]
            assert np.abs(vals - vals[0]).max() <= 1e-9 * (1 + abs(vals[0]))

    def test_gamma_adds_hcal_column(self, capsys):
        argv = self.ARGS + ["--gamma", "1", "-1"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert "Hcal" in header

    def test_deterministic_output(self, capsys):
        _, first, _ = run(self.ARGS, capsys)
        _, second, _ = run(self.ARGS, capsys)
        assert first == second

    def test_state_length_checked(self, capsys):
        argv = ["simulate", "--omegas", "1", "--state", "1", "0",
                "--t-end", "1", "--dt", "0.5"]
        code, _, _ = run(argv, capsys)
        assert code == 2

    def test_bad_grid(self, capsys):
        argv = ["simulate", "--omegas", "1",
                "--state", "0", "0", "1", "0", "0", "0",
                "--t-end", "-1", "--dt", "0.5"]
        code, _, _ = run(argv, capsys)
        assert code == 2

    @pytest.mark.parametrize("flag", ["--t-end", "--dt"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-INF", "-infinity", "-nan"])
    def test_nonfinite_grid(self, capsys, flag, value):
        argv = list(self.ARGS)
        argv[argv.index(flag) + 1] = value
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "t_end and dt must be finite")

    @pytest.mark.parametrize("value", ["inf", "-inf", "-Infinity", "-NaN"])
    def test_nonfinite_state(self, capsys, value):
        argv = list(self.ARGS)
        argv[argv.index("--state") + 3] = value
        code, out, err = run_strict(argv, capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "jet vector entries must be finite")

    def test_nonfinite_modal_state(self, capsys):
        # w t overflows from t = 9e307 on: the first such grid time is named
        argv = ["simulate", "--omegas", "2", "--state", "0", "0", "1", "0", "0", "0",
                "--t-end", "1.7e308", "--dt", "1e307"]
        with np.errstate(all="ignore"):
            code, out, err = run(argv, capsys)
        assert code == 4
        assert out == ""
        assert_one_error_line(err, "non-finite state at t=9e+307")

    @pytest.mark.parametrize("t_end, dt", [
        ("1e300", "1e-300"),                    # t_end/dt overflows
        (str(MAX_GRID_ROWS), "1"),              # one row over the cap
    ])
    def test_grid_row_cap(self, capsys, t_end, dt):
        argv = list(self.ARGS)
        argv[argv.index("--t-end") + 1] = t_end
        argv[argv.index("--dt") + 1] = dt
        code, out, err = run_strict(argv, capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "grid rows", str(MAX_GRID_ROWS))

    def test_overflowing_observable_exit_code(self, capsys):
        # finite states whose mode integrals overflow
        argv = ["simulate", "--omegas", "1", "--state", "0", "0", "1e160", "0", "0", "0",
                "--t-end", "1", "--dt", "0.5"]
        code, out, err = run_strict(argv, capsys)
        assert code == 4
        assert out == ""
        assert_one_error_line(err, "non-finite observable J_0_1", "t=0")

    def test_overflowing_basis_prints_no_warning(self, capsys):
        argv = ["simulate", "--omegas", "2", "--state", "0", "0", "1", "0", "0", "0",
                "--t-end", "1.7e308", "--dt", "1e307"]
        code, out, err = run_strict(argv, capsys)
        assert code == 4
        assert out == ""
        assert_one_error_line(err, "non-finite state at t=9e+307")

    def test_overflowing_amplitudes_print_no_warning(self, capsys):
        # the mode-0 amplitude is about rho_0 x2'''' / w_0^2 = 1e310: the fit
        # overflows
        argv = ["simulate", "--omegas", "1e-152", "1e-3", "--state", *["0"] * 9, "1",
                "--t-end", "1", "--dt", "0.5"]
        code, out, err = run_strict(argv, capsys)
        assert code == 4
        assert out == ""
        assert_one_error_line(err, "non-finite state at t=0.5")


class TestFloatOptions:
    @pytest.mark.parametrize("flag", ["--omegas", "--gamma", "--state", "--t-end", "--dt"])
    @pytest.mark.parametrize("text", ["-1e-05", "-2.5E+3", "-.5e1", "-3"])
    def test_negative_values_in_any_notation(self, flag, text):
        args = build_parser().parse_args(["simulate", flag, text])
        value = getattr(args, flag[2:].replace("-", "_"))
        assert value == float(text) or value == [float(text)]

    def test_negative_exponent_state(self, capsys):
        argv = ["simulate", "--omegas", "1", "--state", "0", "-1e-05", "1", "0", "0", "0",
                "--t-end", "1", "--dt", "0.5"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][2] == "-1e-05"


NAMESPACE_DEFAULTS = dict(config=None, omegas=None, gamma=None, state=None, t_end=None,
                          dt=None, potential=None, seed=None, n_max=None, trials=None,
                          out=None)


class TestParser:
    @pytest.mark.parametrize("argv, expected", [
        (["spectrum", "--omegas", "1", "2", "--out", "s.json"],
         dict(command="spectrum", omegas=[1.0, 2.0], out="s.json")),
        (["structure", "--omegas", "1", "2", "--gamma", "1", "-1", "-1e-05", "1E+1"],
         dict(command="structure", omegas=[1.0, 2.0], gamma=[1.0, -1.0, -1e-05, 10.0])),
        (["simulate", "--config", "c.json", "--state", "0", "-2.5E+3", "1", "0", "0", "0",
          "--t-end", "10", "--dt", "-.5e1"],
         dict(command="simulate", config="c.json", state=[0.0, -2500.0, 1.0, 0.0, 0.0, 0.0],
              t_end=10.0, dt=-5.0)),
        (["deform", "--omegas", "1", "--gamma", "1", "-1", "--potential",
          '{"degree": 4, "coeffs": [{"i": 4, "j": 0, "value": 0.05}]}'],
         dict(command="deform", omegas=[1.0], gamma=[1.0, -1.0],
              potential={"degree": 4, "coeffs": [{"i": 4, "j": 0, "value": 0.05}]})),
        (["verify", "--n-max", "3", "--trials", "4", "--seed", "-7"],
         dict(command="verify", n_max=3, trials=4, seed=-7)),
        # options may come before the command; -- ends a list option
        (["--seed", "7", "verify"], dict(command="verify", seed=7)),
        (["--omegas", "1", "-2e-1", "--", "spectrum"],
         dict(command="spectrum", omegas=[1.0, -0.2])),
    ])
    def test_namespace(self, argv, expected):
        assert vars(build_parser().parse_args(argv)) == dict(NAMESPACE_DEFAULTS, **expected)

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name, description in (
                ("spectrum", "symmetric-polynomial tables and identity report (JSON)"),
                ("structure", "Poisson structure matrix (JSON)"),
                ("simulate", "exact trajectory with conserved columns (CSV)"),
                ("deform", "RK4 trajectory of a deformed system (CSV)"),
                ("verify", "run the full property suite (JSON summary)")):
            assert any(line.split() == [name] + description.split()
                       for line in out.splitlines()), name
        for flag in ("--config", "--omegas", "--gamma", "--state", "--t-end", "--dt",
                     "--potential", "--seed", "--n-max", "--trials", "--out"):
            assert flag in out

    @pytest.mark.parametrize("argv, fragment", [
        ([], "required: command"),
        (["frob"], "invalid choice: 'frob'"),
        (["simulate", "--bogus"], "unrecognized arguments: --bogus"),
        (["simulate", "deform"], "unrecognized arguments: deform"),
        (["verify", "--seed", "1.5"], "argument --seed"),
        (["deform", "--potential", "{bad"], "argument --potential"),
        # a list option before the command takes the command as a value
        (["--omegas", "1", "spectrum"], "invalid float value: 'spectrum'"),
    ])
    def test_argument_errors_exit_2_with_one_line(self, capsys, argv, fragment):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err, fragment)


class TestSharedParser:
    """``main`` parses with ``cli.PARSER``, built once at import; nothing
    one call parses reaches the next."""

    SIMULATE = ["simulate", "--omegas", "1", "2", "--state", "1", "0", "0", "1", "0", "0",
                "0", "0", "0", "0", "--t-end", "1", "--dt", "0.25"]
    GAMMA = ["--gamma", "1", "-1", "-1", "1"]

    def test_main_builds_no_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        code, out, _ = run(["spectrum", "--omegas", "1"], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 1

    def test_no_state_crosses_calls(self, capsys, tmp_path):
        # the call run alone, in a fresh interpreter
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(oddpu.__file__).parents[1]))
        alone = subprocess.run([sys.executable, "-m", "oddpu.cli", *self.SIMULATE],
                               capture_output=True, text=True, env=env, timeout=60)
        assert alone.returncode == 0
        assert "Hcal" not in alone.stdout.splitlines()[0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": [2.0, -1.0, -1.0, 2.0], "dt": 0.5}))
        for before, before_code in ((self.SIMULATE + self.GAMMA, 0),
                                    (self.SIMULATE + ["--bogus"], 2),
                                    (self.SIMULATE + ["--config", str(cfg)], 0)):
            assert run(before, capsys)[0] == before_code
            assert run(self.SIMULATE, capsys) == (0, alone.stdout, "")

    def test_help_twice(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["-h"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: oddpu ")


class TestDeformCommand:
    POT = json.dumps({"degree": 4, "coeffs": [
        {"i": 4, "j": 0, "value": 0.05},
        {"i": 2, "j": 2, "value": 0.1},
        {"i": 0, "j": 4, "value": 0.05}]})
    ARGS = ["deform", "--omegas", "1", "--gamma", "1", "-1",
            "--state", "0.4", "0.2", "-0.12", "0.32", "0.08", "-0.24",
            "--t-end", "2", "--dt", "0.01"]

    def test_energy_columns_consistent(self, capsys):
        code, out, _ = run(self.ARGS + ["--potential", self.POT], capsys)
        assert code == 0
        data = np.genfromtxt(io.StringIO(out), delimiter=",", skip_header=1)
        hcal, u, htot = data[:, 7], data[:, 8], data[:, 9]
        assert np.abs(hcal + u - htot).max() <= 1e-12
        assert np.abs(htot - htot[0]).max() <= 1e-8 * (1 + abs(htot[0]))

    def test_no_potential_is_linear_flow(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        data = np.genfromtxt(io.StringIO(out), delimiter=",", skip_header=1)
        assert np.abs(data[:, 8]).max() == 0.0  # U column
        htot = data[:, 9]
        assert np.abs(htot - htot[0]).max() <= 1e-8 * (1 + abs(htot[0]))

    def test_degenerate_gamma_exit_code(self, capsys):
        argv = list(self.ARGS)
        argv[argv.index("-1")] = "1"
        code, out, err = run(argv, capsys)
        assert code == 3
        assert out == ""
        assert err == "error: degenerate structure: deformation needs |s| > 0\n"

    def test_dirac_weights_n6(self, capsys):
        # the Dirac-equivalent weights at n = 6, where C has sigma_min /
        # sigma_max ~ 1e-16 and a pivoted rank decision fails
        n, h = 6, 0.01
        argv = ["deform", "--omegas", "1", "1.5", "2", "2.5", "3", "3.5",
                "--gamma", *["1", "-1", "-1", "1"] * 3, "--state", *["0.1"] * (4 * n + 2),
                "--t-end", "1", "--dt", str(h), "--potential",
                json.dumps({"degree": 4, "coeffs": [{"i": 4, "j": 0, "value": 0.05}]})]
        code, out, err = run(argv, capsys)
        assert code == 0, err
        data = np.genfromtxt(io.StringIO(out), delimiter=",", skip_header=1)
        assert data.shape == (101, 1 + 4 * n + 2 + 3)
        u = data[:, 1:4 * n + 3]
        # lower jet chain d/dt x_i^(s) = x_i^(s+1), s < 2n, by central
        # differences: error h^2/6 |x^(s+3)| plus rounding
        eps = np.finfo(float).eps
        for s in range(2 * n):
            for i in (0, 1):
                x, dx = u[:, 2 * s + i], u[:, 2 * (s + 1) + i]
                central = (x[2:] - x[:-2]) / (2 * h)
                third = np.abs(dx[2:] - 2 * dx[1:-1] + dx[:-2]).max() / h ** 2
                tol = h * h / 3 * third + 64 * eps * np.abs(x).max() / h
                assert np.abs(central - dx[1:-1]).max() <= tol, (s, i)

    def test_readme_call_at_small_frequency(self, capsys):
        # the README call at w = 1e-12: w_a = x_a still, so U(0) is
        # 0.05 * 0.4^4, and the force bends x2 off the free flow's
        # x2(1) = 0.2 + 0.32 - 0.24 / 2 = 0.4
        argv = ["deform", "--omegas", "1e-12", "--gamma", "1", "-1",
                "--state", "0.4", "0.2", "-0.12", "0.32", "0.08", "-0.24",
                "--t-end", "10", "--dt", "0.01", "--potential",
                json.dumps({"degree": 4, "coeffs": [{"i": 4, "j": 0, "value": 0.05}]})]
        code, out, _ = run(argv, capsys)
        assert code == 0
        data = np.genfromtxt(io.StringIO(out), delimiter=",", skip_header=1)
        assert abs(data[0, 8] - 0.00128) <= 4 * np.spacing(0.00128)
        assert data[100, 0] == 1.0 and abs(data[100, 2] - 0.4) > 1e-3

    def test_gamma_required(self, capsys):
        argv = [a for a in self.ARGS if a not in ("--gamma", "1", "-1")]
        argv = ["deform", "--omegas", "1",
                "--state", "0.4", "0.2", "-0.12", "0.32", "0.08", "-0.24",
                "--t-end", "1", "--dt", "0.01"]
        code, _, _ = run(argv, capsys)
        assert code == 2

    @pytest.mark.parametrize("coeff, fragment", [
        # each was truncated or coerced and ran: 1.5 as 1, true as 1, "4" as 4
        ({"i": 1.5, "j": 0, "value": 1}, "i=1.5"),
        ({"i": True, "j": 0, "value": 1}, "i=True"),
        ({"i": 1, "j": "4", "value": 1}, "j='4'"),
        ({"i": 1, "j": 0, "value": True}, "value=True"),
        ({"i": 1, "j": 0, "value": "0.5"}, "value='0.5'"),
        ({"i": 1, "j": 0, "value": 10 ** 400}, "value=1000"),
        ({"i": -1, "j": 2, "value": 1}, "i=-1"),
        # each ended in an error naming only the key or the index type
        ({"i": 4, "value": 0.05}, "missing key 'j'"),
        ([4, 0, 0.05], "[4, 0, 0.05]: not an object"),
        # a misspelt key was ignored and the call exited 0
        ({"i": 1, "j": 0, "value": 1, "k": 2}, "unknown key 'k'"),
    ])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_bad_potential_term_refused(self, capsys, tmp_path, coeff, fragment, via_config):
        potential = {"coeffs": [{"i": 2, "j": 0, "value": 0.1}, coeff]}
        argv = self.ARGS
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"potential": potential}))
            argv = argv + ["--config", str(cfg)]
        else:
            argv = argv + ["--potential", json.dumps(potential)]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "bad potential term", fragment)

    @pytest.mark.parametrize("potential, fragment", [
        ({"degree": 4}, "missing key 'coeffs'"),
        ({"degre": 4, "coeffs": [{"i": 4, "j": 0, "value": 0.05}]}, "unknown key 'degre'"),
        ({"coeffs": {"i": 4, "j": 0, "value": 0.05}}, "coeffs must be an array"),
    ])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_malformed_potential_refused(self, capsys, tmp_path, potential, fragment,
                                         via_config):
        argv = self.ARGS
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"potential": potential}))
            argv = argv + ["--config", str(cfg)]
        else:
            argv = argv + ["--potential", json.dumps(potential)]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "bad potential", fragment)

    @pytest.mark.parametrize("degree", [4.7, 4.0, True, "4", None])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_non_integer_degree_refused(self, capsys, tmp_path, degree, via_config):
        potential = {"degree": degree, "coeffs": [{"i": 4, "j": 0, "value": 0.05}]}
        argv = self.ARGS
        if via_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"potential": potential}))
            argv = argv + ["--config", str(cfg)]
        else:
            argv = argv + ["--potential", json.dumps(potential)]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "potential degree must be an integer", repr(degree))

    def test_non_finite_gamma_refused(self, capsys):
        code, out, err = run_strict(["deform", "--omegas", "1", "--gamma", "inf", "-1",
                                     "--state", "0", "0", "1", "0", "0", "0",
                                     "--t-end", "1", "--dt", "0.5"], capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "gamma weight must be finite")

    def test_bad_potential_json(self, capsys):
        code, _, _ = run(self.ARGS + ["--potential",
                                      '{"degree": 0, "coeffs": []}'], capsys)
        assert code == 2

    @pytest.mark.parametrize("state, potential", [
        # a force of 1e308 overflows in the first RK4 update
        (["0.4", "0.2", "-0.12", "0.32", "0.08", "-0.24"],
         {"degree": 1, "coeffs": [{"i": 1, "j": 0, "value": 1e308}]}),
        # a degree-8 potential at a large amplitude overflows float **
        (["4000", "2000", "-1200", "3200", "800", "-2400"],
         {"degree": 8, "coeffs": [{"i": 8, "j": 0, "value": 1}, {"i": 0, "j": 8, "value": 1}]}),
    ])
    def test_blow_up_exit_code(self, capsys, state, potential):
        argv = ["deform", "--omegas", "1", "--gamma", "1", "-1", "--state", *state,
                "--t-end", "10", "--dt", "0.01", "--potential", json.dumps(potential)]
        code, out, err = run(argv, capsys)
        assert code == 4
        assert out == ""
        assert_one_error_line(err, "non-finite", "t=")


class TestOutputIdentity:
    """Outputs against CSV fixtures written by earlier implementations: the
    per-sample modal evaluation and the per-step RK4 loop.

    The t and state columns must match byte for byte.  The observable
    columns H, Hcal and J_{k,i} are now computed in factored form,
    (1/2) sum_j D_j (T u)_j^2, so each is held to that formula's own
    forward-error bound against its exact value on the fixture's states;
    the fixtures' values came from the earlier jet-space forms u.A.u/2.
    """

    SIMULATE_N2 = ["simulate", "--omegas", "1", "2",
                   "--state", "0.3", "-0.2", "0.5", "0.1", "-0.4", "0.25",
                   "0.7", "-0.1", "0.2", "0.6",
                   "--t-end", "20", "--dt", "0.1", "--gamma", "1", "-1", "-1", "1"]

    @staticmethod
    def compare(out, fixture, dim):
        new = list(csv.reader(io.StringIO(out)))
        old = list(csv.reader(io.StringIO((DATA / fixture).read_text())))
        assert new[0] == old[0]
        assert len(new) == len(old)
        assert [r[:1 + dim] for r in new] == [r[:1 + dim] for r in old]
        states = np.array([r[1:1 + dim] for r in old[1:]], dtype=float)
        values = {name: (np.array([r[c] for r in new[1:]], dtype=float),
                         np.array([r[c] for r in old[1:]], dtype=float))
                  for c, name in enumerate(old[0]) if c > dim}
        return states, values

    @pytest.mark.parametrize("argv, fixture, omegas, gamma", [
        (TestSimulateCommand.ARGS + ["--gamma", "1", "-1"], "simulate_n1_gamma.csv",
         (1.0,), (1.0, -1.0)),
        (SIMULATE_N2, "simulate_n2_gamma.csv", (1.0, 2.0), (1.0, -1.0, -1.0, 1.0)),
    ])
    def test_simulate(self, capsys, factored_bound_check, argv, fixture, omegas, gamma):
        code, out, _ = run(argv, capsys)
        assert code == 0
        spec = FrequencySpectrum(omegas)
        observables = {"H": energy_observable(spec),
                       "Hcal": alt_hamiltonian_observable(spec, GammaWeights.from_flat(gamma))}
        observables.update(("J_%d_%d" % ki, obs) for ki, obs in mode_integrals(spec))
        states, values = self.compare(out, fixture, spec.jet_dim)
        assert set(values) == set(observables)
        coords = exact_coordinates(canonical_map(spec), states)
        for name, (new, _) in values.items():
            assert factored_bound_check(observables[name], states, new,
                                        coords=coords).all(), name

    @pytest.mark.parametrize("argv, fixture, omegas, gamma", [
        (TestDeformCommand.ARGS, "deform_linear_n1.csv", (1.0,), (1.0, -1.0)),
        (["deform", "--omegas", "1", "2", "--gamma", "1", "-1", "-1", "1",
          "--state", "0.3", "-0.2", "0.5", "0.1", "-0.4", "0.25", "0.7", "-0.1", "0.2", "0.6",
          "--t-end", "2", "--dt", "0.01"], "deform_linear_n2.csv", (1.0, 2.0),
         (1.0, -1.0, -1.0, 1.0)),
    ])
    def test_deform_without_potential(self, capsys, factored_bound_check, argv, fixture,
                                      omegas, gamma):
        code, out, _ = run(argv, capsys)
        assert code == 0
        spec = FrequencySpectrum(omegas)
        hcal = alt_hamiltonian_observable(spec, GammaWeights.from_flat(gamma))
        states, values = self.compare(out, fixture, spec.jet_dim)
        coords = exact_coordinates(hcal.T, states)
        assert factored_bound_check(hcal, states, values["Hcal"][0], coords=coords).all()
        assert np.all(values["U"][0] == 0.0)
        assert factored_bound_check(hcal, states, values["Htot"][0], coords=coords).all()

    @staticmethod
    def within_exact_rk4(csv_text, omegas, gamma, potential):
        """True if the state columns of a ``deform`` table are within
        64 eps max|u| of the same RK4 steps taken in 50-digit arithmetic on
        the exact-model field (``conftest.exact_deformed_rk4``)."""
        rows = list(csv.reader(io.StringIO(csv_text)))[1:]
        dim = 4 * len(omegas) + 2
        states = [[float(x) for x in r[1:1 + dim]] for r in rows]
        terms = (PotentialSpec.from_json_dict(json.loads(potential)).terms
                 if potential is not None else ())
        reference = exact_deformed_rk4(omegas, gamma, terms, states[0],
                                       [float(r[0]) for r in rows])
        error = max(abs(Decimal(x) - y) for row, ref in zip(states, reference)
                    for x, y in zip(row, ref))
        scale = max(abs(y) for ref in reference for y in ref)
        return error <= 64 * Decimal(np.finfo(float).eps) * scale

    @pytest.mark.parametrize("fixture, omegas, gamma, potential", [
        ("deform_quartic.csv", (1.0,), (1.0, -1.0), TestDeformCommand.POT),
        ("deform_linear_n1.csv", (1.0,), (1.0, -1.0), None),
        ("deform_linear_n2.csv", (1.0, 2.0), (1.0, -1.0, -1.0, 1.0), None),
    ], ids=["quartic", "linear_n1", "linear_n2"])
    def test_deform_states_near_exact_rk4(self, fixture, omegas, gamma, potential):
        # the pinned states; sigma, Omega_alt and the invariant directions
        # are rational at these inputs
        assert self.within_exact_rk4((DATA / fixture).read_text(), omegas, gamma, potential)

    def test_deform_n6_states_near_exact_rk4(self, capsys):
        # n = 6 at the Dirac-equivalent weights, the deform call of CI, where
        # |Omega_alt| |A_H| is large enough that rounding in the lower rows
        # of the field would show
        omegas = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
        gamma = (1.0, -1.0, -1.0, 1.0) * 3
        potential = '{"degree": 4, "coeffs": [{"i": 4, "j": 0, "value": 0.05}]}'
        code, out, _ = run(["deform", "--omegas", *map(str, omegas), "--gamma", *map(str, gamma),
                            "--state", *["0.1"] * 26, "--t-end", "1", "--dt", "0.01",
                            "--potential", potential], capsys)
        assert code == 0
        assert self.within_exact_rk4(out, omegas, gamma, potential)

    def test_deform(self, capsys, factored_bound_check):
        code, out, _ = run(TestDeformCommand.ARGS
                           + ["--potential", TestDeformCommand.POT], capsys)
        assert code == 0
        spec, gamma = FrequencySpectrum((1.0,)), GammaWeights(((1.0, -1.0),))
        states, values = self.compare(out, "deform_quartic.csv", spec.jet_dim)
        eps = np.finfo(float).eps
        hcal = alt_hamiltonian_observable(spec, gamma)
        coords = exact_coordinates(hcal.T, states)
        # U = sum c w1^i w2^j with w_a = v_a . u: each w_a is good to
        # dim eps |v_a|.|u|, so U to degree-weighted products of those
        pot = PotentialSpec.from_json_dict(json.loads(TestDeformCommand.POT))
        W1, W2 = (np.abs(states) @ np.abs(v) for v in invariant_directions(spec, gamma)[:2])
        u_scale = sum(abs(c) * W1 ** i * W2 ** j for i, j, c in pot.terms)
        u_bound = 4 * (spec.jet_dim + 2 + pot.degree) * eps * u_scale
        assert factored_bound_check(hcal, states, values["Hcal"][0], coords=coords).all()
        new, old = values["U"]
        assert np.all(np.abs(new - old) <= u_bound)
        # Htot = Hcal + U, rounded once: against the exact Hcal plus the U column
        new_htot = values["Htot"][0]
        assert factored_bound_check(hcal, states, new_htot, offsets=new,
                                    slack=eps * np.abs(new_htot), coords=coords).all()


class TestConfigHandling:
    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omegas": [1.0, 2.0]}))
        code, out, _ = run(["spectrum", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["n"] == 2

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omegas": [1.0, 2.0]}))
        code, out, _ = run(["spectrum", "--config", str(cfg),
                            "--omegas", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 1
        assert payload["omegas"] == [3.0]

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(["spectrum", "--config",
                          str(tmp_path / "nope.json")], capsys)
        assert code == 2

    @pytest.mark.parametrize("key, value", [
        ("omegas", "12"), ("omegas", [1, "2"]), ("omegas", [True]), ("omegas", 1.0),
        ("gamma", "1 -1"), ("gamma", [[1, -1]]), ("state", {"x": 1}), ("state", [0, None]),
        ("t_end", True), ("t_end", "1"), ("dt", [0.1]),
        ("seed", 1.0), ("seed", "7"), ("n_max", 1.9), ("n_max", False), ("trials", [3]),
        ("potential", [1]), ("potential", '{"degree": 1}'),
    ])
    def test_config_value_types_checked(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict({"omegas": [1, 2]}, **{key: value})))
        code, out, err = run(["spectrum", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "config value %s must be" % key)

    def test_config_integers_and_null_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omegas": [1, 2], "gamma": None, "seed": 3}))
        code, out, _ = run(["structure", "--config", str(cfg)], capsys)
        assert code == 0
        assert out == run(["structure", "--omegas", "1", "2"], capsys)[1]

    @pytest.mark.parametrize("key", ["n_max", "trials", "seed"])
    def test_verify_null_counts_as_absent(self, capsys, tmp_path, key):
        # null took the place of the default and exited 2 from int(None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_max": 1, "trials": 1, "seed": 7, key: None}))
        code, out, err = run(["verify", "--config", str(cfg)], capsys)
        assert code == 0, err
        payload = json.loads(out)
        expected = {"n_max": 1, "trials": 1, "seed": 7}
        expected[key] = {"n_max": 6, "trials": 20, "seed": 42}[key]
        assert {k: payload[k] for k in expected} == expected

    def test_unknown_config_key_refused(self, capsys, tmp_path):
        # a misspelt "gamma" must not run simulate without its Hcal column
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omegas": [1], "state": [0, 0, 1, 0, 0, 0],
                                   "t_end": 1, "dt": 0.5, "gama": [1, -1]}))
        code, out, err = run(["simulate", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "unknown config key", "'gama'")

    def test_malformed_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, _ = run(["spectrum", "--config", str(cfg)], capsys)
        assert code == 2

    def test_undecodable_config(self, capsys, tmp_path):
        # json.JSONDecodeError is a ValueError: bad input, one error line
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{bad")
        code, out, err = run(["spectrum", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err)


class TestVerifyCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(["verify", "--n-max", "2", "--trials", "3",
                            "--seed", "7"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["seed"] == 7
        assert all(c["pass"] for c in payload["checks"].values())

    def test_bad_arguments(self, capsys):
        code, _, _ = run(["verify", "--n-max", "0"], capsys)
        assert code == 2

    def test_negative_seed_refused_by_name(self, capsys):
        # numpy's own refusal did not name the option
        code, out, err = run(["verify", "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert_one_error_line(err, "seed must be >= 0")


class TestVerificationFailure:
    def test_failing_entry_exits_1_and_still_reports(self, capsys, monkeypatch):
        real_identities = cli.verify_identities

        def identities_with_id2_failing(spec):
            report = real_identities(spec)
            report["id2"]["pass"] = False
            return report

        failing_summary = {"seed": 42, "n_max": 6, "trials": 20,
                           "checks": {"identities": {"worst_residual": 1.0,
                                                     "tolerance": 1e-8, "pass": False}},
                           "pass": False}
        monkeypatch.setattr(cli, "verify_identities", identities_with_id2_failing)
        monkeypatch.setattr(verify, "run_all", lambda **kwargs: failing_summary)

        code, out, err = run(["spectrum", "--omegas", "1", "2"], capsys)
        assert (code, err) == (1, "")
        identities = json.loads(out)["identities"]
        assert identities["id2"]["pass"] is False
        assert all(identities[name]["pass"] for name in identities if name != "id2")

        code, out, err = run(["verify"], capsys)
        assert (code, err) == (1, "")
        assert json.loads(out) == failing_summary


class TestClosedStdout:
    def test_reader_closing_early_is_not_an_error(self):
        # ~1 MB of CSV: far more than a pipe buffers, so the writer meets
        # the closed pipe
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(oddpu.__file__).parents[1]))
        argv = [sys.executable, "-m", "oddpu.cli", "simulate", "--omegas", "1",
                "--state", "0", "0", "1", "0", "0", "0", "--t-end", "50", "--dt", "0.01"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env)
        assert proc.stdout.readline().startswith(b"t,x1,x2,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""
