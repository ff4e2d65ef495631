"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import contextlib
import csv
import io
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import oddpu
from oddpu import (FrequencySpectrum, GammaWeights, PotentialSpec, canonical, cli,
                   deformation, degeneracy_scalar, dirac_structure, dynamics,
                   invariant_directions, verify, worker)
from oddpu.canonical import (alt_hamiltonian_observable, canonical_map,
                             energy_observable, mode_integrals)
from oddpu.cli import CSV_BLOCK_ROWS, MAX_GRID_ROWS, build_parser, main

from conftest import (assert_no_child_left, exact_alt_structure, exact_coordinates,
                      exact_deformed_rk4, exact_hamiltonians, exact_invariant_plane,
                      exact_mode_integrals)

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


def assert_hcal_near_exact(hcal, omegas, gamma, state):
    """Hcal within 16 eps max |gamma| sum_k,i J_{k,i} of the exact
    (1/2) sum gamma_{k,i} J_{k,i} of the jet vector ``state``: the bound of
    the n = 12 column test, scaled by the largest weight."""
    J = exact_mode_integrals(omegas, state)
    _, exact = exact_hamiltonians(J, gamma)
    bound = 16 * Fraction(np.finfo(float).eps) * Fraction(max(map(abs, gamma))) * sum(J)
    assert abs(Fraction(hcal) - exact) <= bound


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

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_non_finite_value_is_refused_not_printed(self, capsys, tmp_path, to_file):
        # at w^2 = 2.5e4 + 1.01e-6 j, n = 34, the id1_second terms pass the
        # float64 range, so the first check's residual is inf - inf = nan:
        # strict JSON cannot hold it, and an --out target is left untouched
        omegas = np.sqrt(2.5e4 + 1.01e-6 * np.arange(34)).tolist()
        path = tmp_path / "spec.json"
        path.write_text("kept\n")
        out_args = ["--out", str(path)] if to_file else []
        code, out, err = run(["spectrum", "--omegas", *map(repr, omegas), *out_args], capsys)
        assert (code, out) == (2, "")
        assert_one_error_line(err, "outside the float64 range")
        assert path.read_text() == "kept\n"

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

    @staticmethod
    def constant_columns(out, dim):
        """The conserved columns of a ``simulate`` table, name -> value,
        each required to hold one value on every row."""
        rows = list(csv.reader(io.StringIO(out)))
        columns = {}
        for c, name in enumerate(rows[0][1 + dim:], start=1 + dim):
            values = {r[c] for r in rows[1:]}
            assert len(values) == 1, name
            columns[name] = Fraction(values.pop())
        return columns

    @pytest.mark.parametrize("gamma", [None, np.linspace(0.5, 2, 24) * np.tile([1, -1], 12)],
                             ids=["dirac", "gamma"])
    def test_columns_at_n12_near_exact_invariants(self, capsys, gamma):
        # the n = 12 input whose columns, evaluated at each printed state,
        # drifted by 1.35e-3 (1 + |H|): each is now one run constant within
        # 16 eps sum_k,i J_{k,i} (times max |gamma| for Hcal) of the exact
        # invariant of the initial jet; measured 0.3 eps there
        omegas = np.linspace(1, 3, 12).tolist()
        state = np.linspace(-0.5, 0.5, 50).tolist()
        argv = ["simulate", "--omegas", *map(repr, omegas), "--state", *map(repr, state),
                "--t-end", "100", "--dt", "0.1"]
        flat = None if gamma is None else gamma.tolist()
        if flat is not None:
            argv += ["--gamma", *map(repr, flat)]
        code, out, err = run_strict(argv, capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + 1001
        J = exact_mode_integrals(omegas, state)
        H, Hcal = exact_hamiltonians(J, flat)
        exact = {"H": H, "Hcal": Hcal}
        exact.update(("J_%d_%d" % (j // 2, j % 2 + 1), x) for j, x in enumerate(J))
        columns = self.constant_columns(out, 50)
        assert set(columns) == {name for name, x in exact.items() if x is not None}
        bound = 16 * Fraction(np.finfo(float).eps) * sum(J)
        for name, value in columns.items():
            weight = Fraction(np.abs(gamma).max()) if name == "Hcal" else 1
            assert abs(value - exact[name]) <= weight * bound, name

    def test_columns_at_small_frequency(self, capsys):
        # at n = 1, H = Hcal = x1'' x2' - x2'' x1' at every w, about -0.0032
        # here; at w = 1e-12 the sum of the two J ~ 3.2e10 gave -0.0031967,
        # the per-row form -0.0032014846801757812.  Each product is now
        # rounded a few times, so H is held to 4 eps of the two products'
        # sizes (measured 0.3 eps).  The states here stay wrong (ROADMAP
        # item 8)
        state = (0.4, 0.2, -0.12, 0.32, 0.08, -0.24)
        argv = ["simulate", "--omegas", "1e-12", "--gamma", "1", "-1",
                "--state", *map(repr, state), "--t-end", "1", "--dt", "0.5"]
        code, out, _ = run_strict(argv, capsys)
        assert code == 0
        columns = self.constant_columns(out, 6)
        x = [Fraction(v) for v in state]
        exact = x[4] * x[3] - x[5] * x[2]
        size = abs(x[4] * x[3]) + abs(x[5] * x[2])
        assert columns["H"] == columns["Hcal"]
        assert abs(columns["H"] - exact) <= 4 * Fraction(np.finfo(float).eps) * size

    @pytest.mark.parametrize("omega, gamma, state", [
        # Hcal is about 5e307 and -2e307 here, but gamma_1 + gamma_2 and
        # 2 (gamma_1 - gamma_2) overflow: they are summed at gamma / 2^e
        pytest.param(1.0, (1e308, 1e308), (0, 0, 1, 0, 0, 0), id="gamma0-state0"),
        pytest.param(1.0, (1e308, -1e308), (0.3, 0, 1, 0, 0, 0.2), id="gamma1-state1"),
        # Hcal is about 5e305 here, but gamma (a_1^2 + ...) overflows before
        # f_0 = w^3 / (2 rho_0) shrinks it: it is summed at gamma / 2^e
        pytest.param(0.01, (1e308, 1e308), (0, 0, 1, 0, 0, 0), id="small-frequency"),
    ])
    def test_hcal_at_weights_near_float_range(self, capsys, omega, gamma, state):
        argv = ["simulate", "--omegas", repr(omega), "--gamma", *map(repr, gamma),
                "--state", *map(repr, state), "--t-end", "1", "--dt", "0.5"]
        code, out, err = run_strict(argv, capsys)
        assert (code, err) == (0, "")
        assert_hcal_near_exact(self.constant_columns(out, 6)["Hcal"], (omega,), gamma, state)

    def test_builds_no_map_or_observable(self, capsys, monkeypatch):
        # the columns come off the modal amplitudes: no canonical or
        # oscillator map is built and no state is evaluated per call
        def refuse(*args, **kwargs):
            raise AssertionError("built per simulate call")

        for name in ("canonical_map", "oscillator_map", "oscillator_sums"):
            monkeypatch.setattr(canonical, name, refuse)
        code, out, err = run(self.ARGS + ["--gamma", "1", "-1"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[0].endswith(",H,Hcal,J_0_1,J_0_2")


class TestCsvConstants:
    """``cli._emit_csv`` writes run constants as one formatted suffix: the
    bytes of the same values as full table columns."""

    CONSTANTS = (-0.0, 0.1, -2.5e-300, 5e-324, 1.7976931348623157e308, 1 / 3,
                 np.float64(-0.0032000000000000006))

    def test_suffix_bytes_equal_columns(self, tmp_path):
        rows = CSV_BLOCK_ROWS + 37
        table = np.random.default_rng(3).normal(size=(rows, 4)) * 10.0 ** np.arange(-3, 5, 2)
        header = ["t", "a", "b", "c"] + ["k%d" % j for j in range(len(self.CONSTANTS))]
        cli._emit_csv(header, (table,), tmp_path / "suffix.csv", self.CONSTANTS)
        full = np.column_stack((table, np.tile(np.array(self.CONSTANTS, dtype=float), (rows, 1))))
        cli._emit_csv(header, (full,), tmp_path / "columns.csv")
        written = (tmp_path / "suffix.csv").read_bytes()
        assert written == (tmp_path / "columns.csv").read_bytes()
        assert len(written.splitlines()) == 1 + rows

    def test_no_constants_leaves_rows_unchanged(self, tmp_path):
        # the deform call: every column from the table, each cell its repr
        table = np.array([[0.0, -1e-05, 0.1], [0.5, 2.0, -0.0]] * (CSV_BLOCK_ROWS // 2 + 1))
        cli._emit_csv(["t", "x", "y"], (table,), tmp_path / "plain.csv")
        expected = "t,x,y\n" + "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())
        assert (tmp_path / "plain.csv").read_text() == expected


def serial_csv(header, table, constants=()) -> str:
    """The CSV of one process formatting every row of ``table`` in turn."""
    suffix = "".join("," + repr(float(v)) for v in constants) + "\n"
    return ",".join(header) + "\n" + "".join(",".join(map(repr, row)) + suffix
                                             for row in table.tolist())


class TestCsvFormatter:
    """``_emit_csv`` with its formatter on (two usable CPUs) and off (one)
    writes the bytes of one process formatting every row."""

    CONSTANTS = (-0.0, 1 / 3, -2.5e-300, np.float64(5e-324))

    @staticmethod
    def columns(rows):
        """A time column and a (rows, 10) stack over ten decades: about
        200 KB of text a block, more than a pipe holds."""
        rng = np.random.default_rng(rows)
        return np.arange(rows) * 0.01, rng.normal(size=(rows, 10)) * 10.0 ** np.arange(-5, 5)

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "formatter"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    @pytest.mark.parametrize("constants", [(), CONSTANTS], ids=["plain", "constants"])
    @pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                      3 * CSV_BLOCK_ROWS + 5])
    def test_bytes_equal_serial_rows(self, capsys, tmp_path, monkeypatch, forks, rows,
                                     constants, to_file, cpus):
        monkeypatch.setattr(worker, "_usable_cpus", lambda: cpus)
        times, states = self.columns(rows)
        header = ["t"] + ["x%d" % j for j in range(10)] + ["k%d" % j for j in range(len(constants))]
        out = tmp_path / "table.csv" if to_file else None
        cli._emit_csv(header, (times, states), out, constants)
        written = out.read_bytes() if to_file else capsys.readouterr().out.encode()
        assert written == serial_csv(header, np.column_stack((times, states)), constants).encode()
        assert len(forks) == (cpus > 1 and rows > CSV_BLOCK_ROWS)
        assert_no_child_left()

    def test_refused_fork_formats_every_block_here(self, tmp_path, monkeypatch):
        def refuse():
            raise BlockingIOError("fork refused")

        monkeypatch.setattr(worker, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", refuse)
        times, states = self.columns(3 * CSV_BLOCK_ROWS + 5)
        cli._emit_csv(["t"] + ["x"] * 10, (times, states), tmp_path / "table.csv")
        expected = serial_csv(["t"] + ["x"] * 10, np.column_stack((times, states)))
        assert (tmp_path / "table.csv").read_text() == expected


class TestFormatterHygiene:
    """The formatter is reaped on every path, and killed first where the
    caller leaves before it has finished.  Without the wait a zombie is
    left (``os.waitpid`` returns it); without the kill the caller waits
    on a formatter blocked on its full pipe (the watchdog ends it)."""

    # 5001 rows: five blocks of about 145 KB of text, the odd two formatted
    # by the formatter
    ARGS = ["simulate", "--omegas", "1", "--state", "0.3", "-0.2", "0.1", "0.4", "-0.5", "0.6",
            "--t-end", "50", "--dt", "0.01"]

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(worker, "_usable_cpus", lambda: 2)

    def test_multi_block_call_reaps_the_formatter(self, capsys, forks, watchdog):
        code, out, err = run(self.ARGS, capsys)
        assert (code, err, len(out.splitlines()), len(forks)) == (0, "", 5002, 1)
        assert_no_child_left()

    def test_reader_closing_early_leaves_no_process(self, monkeypatch, forks, watchdog):
        # the reader is a thread of this process, so the formatter forked
        # from it must not keep the read end open
        def read_then_close(fd):
            with os.fdopen(fd, "rb") as pipe:
                # block 0, about 145 KB, overflows this and a pipe's 64 KB
                # buffer, so the caller meets the closed pipe while writing it
                pipe.read(50_000)

        rfd, wfd = os.pipe()
        reader = threading.Thread(target=read_then_close, args=(rfd,))
        reader.start()
        with os.fdopen(wfd, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            code = main(self.ARGS)
        reader.join()
        assert (code, len(forks)) == (0, 1)
        assert_no_child_left()

    def test_interrupt_kills_the_formatter(self, capsys, monkeypatch, forks, watchdog):
        # the caller is interrupted at its second block (block 2), while
        # the formatter waits to send block 3
        caller, own_blocks = os.getpid(), []
        csv_block = cli._csv_block

        def interrupted(*args):
            if os.getpid() == caller:
                own_blocks.append(args[1])
                if len(own_blocks) == 2:
                    raise KeyboardInterrupt
            return csv_block(*args)

        monkeypatch.setattr(cli, "_csv_block", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(self.ARGS)
        assert (own_blocks, len(forks)) == ([0, 2 * CSV_BLOCK_ROWS], 1)
        assert_no_child_left()

    def test_failing_formatter_is_one_error_line(self, capsys, monkeypatch, forks, watchdog):
        caller = os.getpid()
        csv_block = cli._csv_block

        def failing(*args):
            if os.getpid() != caller:
                os._exit(0)             # the formatter dies before it sends a block
            return csv_block(*args)

        monkeypatch.setattr(cli, "_csv_block", failing)
        code, out, err = run(self.ARGS, capsys)
        assert (code, len(forks)) == (2, 1)
        assert_one_error_line(err, "CSV formatter closed its pipe early")
        assert_no_child_left()

    def test_formatter_exit_status_is_checked(self, capsys, monkeypatch, forks, watchdog):
        # every block arrives, then the formatter exits 3
        exit_now = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit_now(3))
        code, out, err = run(self.ARGS, capsys)
        assert (code, len(out.splitlines()), len(forks)) == (2, 5002, 1)
        assert_one_error_line(err, "CSV formatter exited with status 3")
        assert_no_child_left()


class TestVerifyWorker:
    """``verify.run_all`` with criterion 8 in a forked worker (two usable
    CPUs), run here (one), or run here after a refused fork gives the same
    summary.  The worker is reaped on every path, and killed first where a
    check of this process raises."""

    MODES = ["worker", "serial", "refused"]

    @staticmethod
    def use(monkeypatch, mode):
        def refuse():
            raise BlockingIOError("fork refused")

        monkeypatch.setattr(worker, "_usable_cpus", lambda: 1 if mode == "serial" else 2)
        if mode == "refused":
            monkeypatch.setattr(os, "fork", refuse)

    # seeds 45 and 67 fail today (ROADMAP item 8), so failing summaries count too
    @pytest.mark.parametrize("seed", [0, 7, 42, 45, 67])
    def test_summary_equal_in_every_mode(self, monkeypatch, forks, seed):
        texts = []
        for mode in self.MODES:
            with monkeypatch.context() as patch:
                self.use(patch, mode)
                texts.append(json.dumps(verify.run_all(seed=seed), indent=2))
        assert texts[1] == texts[0] == texts[2]
        assert json.loads(texts[0])["pass"] is (seed not in (45, 67))
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("mode", MODES)
    def test_golden_in_every_mode(self, capsys, monkeypatch, forks, mode):
        self.use(monkeypatch, mode)
        code, out, err = run(["verify", "--n-max", "3", "--trials", "4", "--seed", "7"], capsys)
        assert (code, err) == (0, "")
        assert out == (DATA / "verify_n3_t4_s7.json").read_text()
        assert len(forks) == (mode == "worker")
        assert_no_child_left()

    def test_worker_exit_status_is_checked(self, capsys, monkeypatch, forks, watchdog):
        # the result arrives, then the worker exits 3
        self.use(monkeypatch, "worker")
        exit_now = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit_now(3))
        code, out, err = run(["verify", "--n-max", "2", "--trials", "2"], capsys)
        assert (code, out, len(forks)) == (2, "", 1)
        assert_one_error_line(err, "verify worker exited with status 3")
        assert_no_child_left()

    def test_failing_worker_is_one_error_line(self, capsys, monkeypatch, forks, watchdog):
        self.use(monkeypatch, "worker")
        caller = os.getpid()

        def failing(*args):
            assert os.getpid() != caller, "criterion 8 ran in the caller"
            os._exit(0)                 # the worker dies before it sends its result

        monkeypatch.setattr(verify, "check_rk4_order", failing)
        code, out, err = run(["verify", "--n-max", "2", "--trials", "2"], capsys)
        assert (code, out, len(forks)) == (2, "", 1)
        assert_one_error_line(err, "verify worker closed its pipe early")
        assert_no_child_left()

    def test_error_in_a_check_here_kills_the_worker(self, monkeypatch, forks, watchdog):
        # the worker sleeps past the watchdog, so only the kill ends it
        self.use(monkeypatch, "worker")
        error = ZeroDivisionError("injected into check_identities")

        def failing(*args):
            raise error

        monkeypatch.setattr(verify, "check_rk4_order", lambda *args: time.sleep(60))
        monkeypatch.setattr(verify, "check_identities", failing)
        with pytest.raises(ZeroDivisionError) as raised:
            verify.run_all(n_max=2, trials=2)
        assert (raised.value, len(forks)) == (error, 1)
        assert_no_child_left()


class TestDeformWorker:
    """``deform`` with its RK4 worker (two usable CPUs), without it (one),
    and after a refused fork writes the bytes of one process integrating,
    evaluating and formatting every row, and exits the same way.  The
    worker is reaped on every path, and killed first where the command
    leaves before it has finished."""

    MODES = ["serial", "worker", "refused"]
    QUARTIC = json.dumps({"degree": 4, "coeffs": [{"i": 4, "j": 0, "value": 0.05}]})
    STATE = [0.4, 0.2, -0.12, 0.32, 0.08, -0.24]
    # the degree-8 potential of TestDeformCommand's blow-up test at 1.5
    # times STATE: the vector field turns non-finite in the step from
    # t = 6.12, grid row 1224 at dt = 0.005, in the second block
    BLOW_UP = ["deform", "--omegas", "1", "--gamma", "1", "-1",
               "--state", "0.6", "0.3", "-0.18", "0.48", "0.12", "-0.36",
               "--t-end", "10", "--dt", "0.005", "--potential", json.dumps(
                   {"degree": 8, "coeffs": [{"i": 8, "j": 0, "value": 1},
                                            {"i": 0, "j": 8, "value": 1}]})]

    use = staticmethod(TestVerifyWorker.use)

    @classmethod
    def argv(cls, rows):
        """The README quartic deform over ``rows`` grid rows at dt = 0.01."""
        return ["deform", "--omegas", "1", "--gamma", "1", "-1", "--state", *map(repr, cls.STATE),
                "--t-end", repr((rows - 0.5) / 100), "--dt", "0.01", "--potential", cls.QUARTIC]

    @classmethod
    def serial_table(cls, rows) -> list:
        """The lines, with their ends, of the table of one process
        integrating every row, then evaluating and formatting them: equal
        lists are equal texts, and a list that differs is reported at its
        first differing line, not through a diff of the whole text."""
        spec, gamma = FrequencySpectrum((1.0,)), GammaWeights(((1.0, -1.0),))
        potential = PotentialSpec.from_json_dict(json.loads(cls.QUARTIC))
        field, v1, v2 = deformation.deformed_field(spec, gamma, potential)
        grid = np.arange(rows) * 0.01
        states = dynamics.RK4Flow(field, dynamics.PhaseState(np.array(cls.STATE))).grid_states(grid)
        columns = deformation.deformed_energy(spec, gamma, potential, v1, v2)(states)
        table = np.column_stack((grid, states, *columns.values()))
        return serial_csv(cli._state_header(1) + list(columns), table).splitlines(keepends=True)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                      3 * CSV_BLOCK_ROWS + 5])
    def test_bytes_equal_serial_rows(self, capsys, monkeypatch, forks, rows, mode):
        self.use(monkeypatch, mode)
        code, out, err = run(self.argv(rows), capsys)
        assert (code, err, len(out.splitlines())) == (0, "", rows + 1)
        assert out.splitlines(keepends=True) == self.serial_table(rows)
        assert len(forks) == (mode == "worker" and rows > CSV_BLOCK_ROWS)
        assert_no_child_left()

    def test_out_file_gets_the_bytes_of_stdout(self, capsys, tmp_path, monkeypatch, forks):
        self.use(monkeypatch, "worker")
        argv = self.argv(3 * CSV_BLOCK_ROWS + 5)
        assert run(argv + ["--out", str(tmp_path / "deform.csv")], capsys) == (0, "", "")
        written = (tmp_path / "deform.csv").read_text().splitlines(keepends=True)
        assert written == self.serial_table(3 * CSV_BLOCK_ROWS + 5)
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("mode", MODES)
    def test_blow_up_past_the_first_block(self, capsys, monkeypatch, forks, watchdog, mode):
        self.use(monkeypatch, mode)
        code, out, err = run(self.BLOW_UP, capsys)
        assert (code, out, len(forks)) == (4, "", mode == "worker")
        assert err == ("error: integration produced a non-finite value: "
                       "non-finite vector field near t=6.12\n")
        assert_no_child_left()

    @pytest.mark.parametrize("mode", MODES)
    def test_overflowing_energy_column_in_the_second_block(self, capsys, monkeypatch, forks,
                                                          mode):
        # test_overflowing_energy_column's t = 1.241 case: 1301 rows, two blocks
        self.use(monkeypatch, mode)
        argv = ["deform", "--omegas", "1", "--gamma", "1", "-1",
                "--state", "8e153", "0", "0", "8e153", "8e153", "0", "--t-end", "1.3",
                "--dt", "0.001", "--potential",
                json.dumps({"coeffs": [{"i": 2, "j": 0, "value": 1}]})]
        code, out, err = run_strict(argv, capsys)
        assert (code, out, len(forks)) == (4, "", mode == "worker")
        assert_one_error_line(err, "non-finite observable U at t=1.241")
        assert_no_child_left()

    def test_failing_worker_is_one_error_line(self, capsys, monkeypatch, forks, watchdog):
        self.use(monkeypatch, "worker")
        caller = os.getpid()
        update = dynamics._rk4_update

        def failing(field, t, u, h):
            if os.getpid() != caller and t > 15:
                os._exit(0)             # the worker dies in block 1, its first
            return update(field, t, u, h)

        monkeypatch.setattr(dynamics, "_rk4_update", failing)
        code, out, err = run(self.argv(3 * CSV_BLOCK_ROWS + 5), capsys)
        assert (code, out, len(forks)) == (2, "", 1)
        assert_one_error_line(err, "RK4 worker closed its pipe early")
        assert_no_child_left()

    def test_worker_exit_status_is_checked(self, capsys, monkeypatch, forks, watchdog):
        # every block arrives, then the worker exits 3: nothing is written
        self.use(monkeypatch, "worker")
        exit_now = os._exit
        monkeypatch.setattr(os, "_exit", lambda status: exit_now(3))
        code, out, err = run(self.argv(3 * CSV_BLOCK_ROWS + 5), capsys)
        assert (code, out, len(forks)) == (2, "", 1)
        assert_one_error_line(err, "RK4 worker exited with status 3")
        assert_no_child_left()

    def test_interrupt_kills_the_worker(self, capsys, monkeypatch, forks, watchdog):
        # the command is interrupted at its first block, while the worker
        # has ten blocks of about 50 KB to send through a pipe that holds
        # about one: only the kill ends it
        self.use(monkeypatch, "worker")

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_csv_block", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(self.argv(10 * CSV_BLOCK_ROWS))
        assert len(forks) == 1
        assert_no_child_left()


class TestWorkerErrors:
    """An exception raised where a fork site's worker runs ends the command
    as it does on one CPU and after a refused fork: the same exit code,
    stdout and ``error:`` line.  A bare MemoryError is one line too."""

    @pytest.fixture(params=TestVerifyWorker.MODES)
    def mode(self, request, monkeypatch):
        TestVerifyWorker.use(monkeypatch, request.param)
        return request.param

    @pytest.fixture(params=[(ValueError("injected"), "error: injected\n"),
                            (MemoryError(), "error: MemoryError\n")], ids=["value", "memory"])
    def error(self, request):
        return request.param

    def test_simulate_formatter(self, capsys, monkeypatch, forks, watchdog, mode, error):
        # block 3 is odd, so the formatter formats it where one is forked;
        # blocks 0-2 are written before it fails
        raised, line = error
        csv_block = cli._csv_block

        def failing(columns, start, suffix):
            if start == 3 * CSV_BLOCK_ROWS:
                raise raised
            return csv_block(columns, start, suffix)

        monkeypatch.setattr(cli, "_csv_block", failing)
        code, out, err = run(TestFormatterHygiene.ARGS, capsys)
        assert (code, err, len(out.splitlines())) == (2, line, 1 + 3 * CSV_BLOCK_ROWS)
        assert len(forks) == (mode == "worker")
        assert_no_child_left()

    def test_deform_rk4_worker(self, capsys, monkeypatch, forks, watchdog, mode, error):
        # t > 15 is in block 1, the worker's first where one is forked
        raised, line = error
        update = dynamics._rk4_update

        def failing(field, t, u, h):
            if t > 15:
                raise raised
            return update(field, t, u, h)

        monkeypatch.setattr(dynamics, "_rk4_update", failing)
        code, out, err = run(TestDeformWorker.argv(3 * CSV_BLOCK_ROWS + 5), capsys)
        assert (code, out, err, len(forks)) == (2, "", line, mode == "worker")
        assert_no_child_left()

    def test_verify_criterion_8(self, capsys, monkeypatch, forks, watchdog, mode, error):
        raised, line = error

        def failing(*args):
            raise raised

        monkeypatch.setattr(verify, "check_rk4_order", failing)
        code, out, err = run(["verify", "--n-max", "2", "--trials", "2"], capsys)
        assert (code, out, err, len(forks)) == (2, "", line, mode == "worker")
        assert_no_child_left()


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

    @pytest.mark.parametrize("gamma", [["1e308", "-1e308"], ["1e-9", "-1e308"]])
    def test_weights_near_the_float_range(self, capsys, gamma):
        # the invariant directions overflowed to nan: two numpy warnings, exit 4
        code, out, err = run_strict(
            ["deform", "--omegas", "2", "--gamma", *gamma, "--state", "0.3", "0", "1", "0",
             "0", "0.2", "--t-end", "1", "--dt", "0.5",
             "--potential", '{"coeffs":[{"i":2,"j":0,"value":1}]}'], capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 4

    def test_invariant_norm_past_float_range(self, capsys):
        # N_1 is finite here but |N_1|^2 overflows: an unscaled norm gave
        # v1 = 0 and U = 0.0 on every row.  Each row's U is w1^2 at the
        # printed state u, within 64 eps |u|_1^2 of the exact plane's
        # (v1 . u)^2: 16 eps per entry of v1, the rounding of the dot
        # product and of the square
        code, out, err = run_strict(
            ["deform", "--omegas", "1", "--gamma", "1", "1e160", "--state", "0.3", "0", "1",
             "0", "0", "0.2", "--t-end", "1", "--dt", "0.5",
             "--potential", '{"coeffs":[{"i":2,"j":0,"value":1}]}'], capsys)
        assert (code, err) == (0, "")
        exact_v1, _, _ = exact_invariant_plane(exact_alt_structure([1.0], [1.0, 1e160]))
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 3
        eps = Fraction(np.finfo(float).eps)
        for row in rows:
            u = [Fraction(float(x)) for x in row[1:7]]
            w1 = sum(Fraction(v) * x for v, x in zip(exact_v1, u))
            assert abs(Fraction(float(row[8])) - w1 * w1) <= 64 * eps * sum(map(abs, u)) ** 2

    def test_invariant_plane_past_float_range_is_bad_input(self, capsys):
        # N_1 overflows at w_0 = 1e-152: one error line and exit 2, where
        # numpy warnings and a non-finite field (exit 4) reached stderr
        code, out, err = run_strict(
            ["deform", "--omegas", "1e-152", "1e-3", "--gamma", "1", "1.0000000002", "1", "2",
             "--state", *["0.1"] * 10, "--t-end", "1", "--dt", "0.5",
             "--potential", '{"coeffs":[{"i":2,"j":0,"value":1}]}'], capsys)
        assert (code, out) == (2, "")
        assert_one_error_line(err, "invariant directions out of float64 range")

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

    @pytest.mark.parametrize("state, t_end, coeff, message", [
        # Hcal and U are each 1.44e308 at t = 0, and their sum overflows
        (["1.2e154", "0", "0", "1.2e154", "1.2e154", "0"], "0.001",
         {"i": 2, "j": 0, "value": 1}, "non-finite observable Htot at t=0"),
        # U = 1e312 at t = 0 and Hcal overflows from t = 0.001: the first
        # bad row is named, not the first bad column
        (["1e39", "0", "0", "0", "0", "0"], "0.002",
         {"i": 8, "j": 0, "value": 1}, "non-finite observable U at t=0"),
        # Htot = 1.28e308 is conserved while U climbs past the float range
        # and Hcal falls to -5.2e307: U (1.796e308 at t = 1.24, 2e305 more
        # per step) overflows first at t = 1.241, the first bad row
        (["8e153", "0", "0", "8e153", "8e153", "0"], "1.3",
         {"i": 2, "j": 0, "value": 1}, "non-finite observable U at t=1.241"),
    ])
    def test_overflowing_energy_column(self, capsys, state, t_end, coeff, message):
        argv = ["deform", "--omegas", "1", "--gamma", "1", "-1", "--state", *state,
                "--t-end", t_end, "--dt", "0.001",
                "--potential", json.dumps({"coeffs": [coeff]})]
        code, out, err = run_strict(argv, capsys)
        assert code == 4
        assert out == ""
        assert_one_error_line(err, message)
        assert err.rstrip().endswith(message)

    def test_hcal_at_weights_near_float_range(self, capsys):
        # D = gamma w^2 overflows at the q rows though Hcal is about -2e307:
        # Hcal is summed at gamma / 2^e.  Tiny weights are never scaled up:
        # at gamma 2^30, Hcal = 1e301 at states near 1e155 would overflow.
        # Each row is held to the exact Hcal of its printed state
        cases = [("2", (1e308, -1e308), ["0.3", "0", "1", "0", "0", "0.2"], "1", "0.5", 3),
                 ("1", (1e-9, -2e-9), ["1e155", "0", "0", "1e155", "1e155", "0"],
                  "0.001", "0.001", 2)]
        for omega, gamma, state, t_end, dt, count in cases:
            argv = ["deform", "--omegas", omega, "--gamma", *map(repr, gamma),
                    "--state", *state, "--t-end", t_end, "--dt", dt]
            code, out, err = run_strict(argv, capsys)
            assert (code, err) == (0, "")
            rows = [[float(x) for x in row] for row in list(csv.reader(io.StringIO(out)))[1:]]
            assert len(rows) == count
            for row in rows:
                hcal, u, htot = row[7:]
                assert_hcal_near_exact(hcal, (float(omega),), gamma, row[1:7])
                assert (u, htot) == (0.0, hcal)


class TestOutputIdentity:
    """Outputs against CSV fixtures written by earlier implementations: the
    per-sample modal evaluation and the per-step RK4 loop.

    The t and state columns must match byte for byte.  The fixtures'
    observable columns came from the earlier jet-space forms u.A.u/2.
    ``deform``'s Hcal is now computed in factored form,
    (1/2) sum_j D_j (T u)_j^2, and ``simulate``'s H, Hcal and J_{k,i} are
    run constants of the modal amplitudes; each column is held, row by
    row, to the factored formula's forward-error bound against its exact
    value on the fixture's states.
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
        weights = {"H": energy_observable(spec),
                   "Hcal": alt_hamiltonian_observable(spec, GammaWeights.from_flat(gamma))}
        weights.update(("J_%d_%d" % (j // 2, j % 2 + 1), D)
                       for j, D in enumerate(mode_integrals(spec)))
        states, values = self.compare(out, fixture, spec.jet_dim)
        assert set(values) == set(weights)
        T = canonical_map(spec)
        coords = exact_coordinates(T, states)
        for name, (new, _) in values.items():
            assert factored_bound_check(T, weights[name], states, new,
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
        T = canonical_map(spec)
        hcal = alt_hamiltonian_observable(spec, GammaWeights.from_flat(gamma))
        states, values = self.compare(out, fixture, spec.jet_dim)
        coords = exact_coordinates(T, states)
        assert factored_bound_check(T, hcal, states, values["Hcal"][0], coords=coords).all()
        assert np.all(values["U"][0] == 0.0)
        assert factored_bound_check(T, hcal, states, values["Htot"][0], coords=coords).all()

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
        T, hcal = canonical_map(spec), alt_hamiltonian_observable(spec, gamma)
        coords = exact_coordinates(T, states)
        # U = sum c w1^i w2^j with w_a = v_a . u: each w_a is good to
        # dim eps |v_a|.|u|, so U to degree-weighted products of those
        pot = PotentialSpec.from_json_dict(json.loads(TestDeformCommand.POT))
        W1, W2 = (np.abs(states) @ np.abs(v) for v in invariant_directions(spec, gamma)[:2])
        u_scale = sum(abs(c) * W1 ** i * W2 ** j for i, j, c in pot.terms)
        u_bound = 4 * (spec.jet_dim + 2 + pot.degree) * eps * u_scale
        assert factored_bound_check(T, hcal, states, values["Hcal"][0], coords=coords).all()
        new, old = values["U"]
        assert np.all(np.abs(new - old) <= u_bound)
        # Htot = Hcal + U, rounded once: against the exact Hcal plus the U column
        new_htot = values["Htot"][0]
        assert factored_bound_check(T, hcal, states, new_htot, offsets=new,
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
        # an integer past the float64 range: a traceback with exit 1 before
        pytest.param("omegas", [10 ** 400], id="omegas-past-float-range"),
        pytest.param("t_end", 10 ** 400, id="t_end-past-float-range"),
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
        # ~1 MB of CSV in five blocks of about 90 KB: far more than a pipe
        # buffers, so the writer meets the closed pipe while the formatter
        # still has blocks to send.  In its own session, so that a process
        # left behind shows in the group.
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(oddpu.__file__).parents[1]))
        argv = [sys.executable, "-m", "oddpu.cli", "simulate", "--omegas", "1",
                "--state", "0", "0", "1", "0", "0", "0", "--t-end", "50", "--dt", "0.01"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, start_new_session=True)
        try:
            assert proc.stdout.readline().startswith(b"t,x1,x2,")
            proc.stdout.close()
            err = proc.communicate(timeout=60)[1]
            assert (proc.returncode, err) == (0, b"")
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
