"""Symmetric-polynomial operations against brute-force oracles."""

import hashlib
import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from oddpu import (FrequencySpectrum, complete_homog, complete_homogeneous,
                   elementary_sigma, reduced_sigma, rho, spectrum, verify_identities)
from oddpu import verify
from oddpu.cli import main
from oddpu.verify import random_spectrum

from conftest import identity_report_oracle


def elementary_oracle(values, degree):
    """Sum of products over all subsets of the given size."""
    if degree == 0:
        return 1.0
    return sum(np.prod(c) for c in itertools.combinations(values, degree))


def complete_oracle(values, k):
    """Sum over all degree-k monomials (multi-index enumeration)."""
    if k < 0:
        return 0.0
    total = 0.0
    for combo in itertools.combinations_with_replacement(values, k):
        total += np.prod(combo) if combo else 1.0
    return total


class TestFrequencySpectrum:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FrequencySpectrum((1.0, -2.0))
        with pytest.raises(ValueError):
            FrequencySpectrum((0.0,))

    def test_rejects_degenerate_gap(self):
        with pytest.raises(ValueError):
            FrequencySpectrum((1.0, 1.0))
        with pytest.raises(ValueError):
            FrequencySpectrum((1.0, np.sqrt(1.0 + 1e-8)))
        # the close pair is the last of the sorted neighbours, given unsorted
        with pytest.raises(ValueError, match="gap 5e-07 below floor"):
            FrequencySpectrum((2.0, 1.0, np.sqrt(4.0 + 5e-7)))

    def test_sorts_with_flag(self):
        spec = FrequencySpectrum((2.0, 1.0))
        assert spec.omegas == (1.0, 2.0)
        assert spec.was_sorted
        assert not FrequencySpectrum((1.0, 2.0)).was_sorted

    def test_was_sorted_is_not_a_parameter(self):
        # the flag is derived from the input order, never passed in
        with pytest.raises(TypeError):
            FrequencySpectrum((2.0, 1.0), was_sorted=False)

    def test_jet_dim(self):
        assert FrequencySpectrum((1.0, 2.0, 3.0)).jet_dim == 14


class TestElementarySigma:
    def test_top_coefficient_is_one(self):
        assert elementary_sigma(FrequencySpectrum((1.0, 2.0)), 2) == 1.0

    def test_frozen_n2(self):
        # expansion of (d^2+1)(d^2+4) = d^4 + 5 d^2 + 4
        spec = FrequencySpectrum((1.0, 2.0))
        assert elementary_sigma(spec, 0) == pytest.approx(4.0)
        assert elementary_sigma(spec, 1) == pytest.approx(5.0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_subset_enumeration(self, n):
        rng = np.random.default_rng(10 + n)
        spec = random_spectrum(rng, n)
        for k in range(n + 1):
            oracle = elementary_oracle(spec.omega_sq, n - k)
            assert elementary_sigma(spec, k) == pytest.approx(oracle, rel=1e-12)

    def test_range_errors(self):
        spec = FrequencySpectrum((1.0, 2.0))
        with pytest.raises(ValueError):
            elementary_sigma(spec, -1)
        with pytest.raises(ValueError):
            elementary_sigma(spec, 3)


class TestReducedSigma:
    def test_top_is_one(self):
        spec = FrequencySpectrum((1.0, 2.0))
        assert reduced_sigma(spec, 1, 0) == 1.0
        assert reduced_sigma(spec, 1, 1) == 1.0

    def test_frozen_n2(self):
        spec = FrequencySpectrum((1.0, 2.0))
        assert reduced_sigma(spec, 0, 0) == pytest.approx(4.0)
        assert reduced_sigma(spec, 0, 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_against_subset_enumeration(self, n):
        rng = np.random.default_rng(20 + n)
        spec = random_spectrum(rng, n)
        for k in range(n):
            rest = [v for idx, v in enumerate(spec.omega_sq) if idx != k]
            for m in range(n):
                oracle = elementary_oracle(rest, n - m - 1)
                assert reduced_sigma(spec, m, k) == pytest.approx(oracle, rel=1e-12)

    def test_range_errors(self):
        spec = FrequencySpectrum((1.0, 2.0))
        with pytest.raises(ValueError):
            reduced_sigma(spec, 2, 0)
        with pytest.raises(ValueError):
            reduced_sigma(spec, 0, 2)


class TestRho:
    def test_single_mode_is_one(self):
        assert rho(FrequencySpectrum((1.0,)), 0) == 1.0
        assert rho(FrequencySpectrum((5.5,)), 0) == 1.0

    def test_frozen_n2(self):
        spec = FrequencySpectrum((1.0, 2.0))
        assert rho(spec, 0) == pytest.approx(1.0 / 3.0)
        assert rho(spec, 1) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_product_oracle_and_positivity(self, n):
        rng = np.random.default_rng(30 + n)
        spec = random_spectrum(rng, n)
        w2 = spec.omega_sq
        for k in range(n):
            prod = 1.0
            for m in range(n):
                if m != k:
                    prod *= w2[m] - w2[k]
            assert rho(spec, k) == pytest.approx((-1.0) ** k / prod, rel=1e-12)
            # sorted spectrum: the (-1)^k compensates the negative factors
            assert rho(spec, k) > 0


class TestCompleteHomog:
    def test_negative_degree_is_zero(self):
        assert complete_homog(FrequencySpectrum((1.0, 2.0)), -1) == 0.0
        assert complete_homog(FrequencySpectrum((1.0, 2.0)), -3) == 0.0

    def test_degree_zero_is_one(self):
        assert complete_homog(FrequencySpectrum((1.0, 2.0)), 0) == 1.0

    def test_frozen_n2(self):
        # multi-indices l0 + l1 = 2 over (1, 4): 1 + 4 + 16
        assert complete_homog(FrequencySpectrum((1.0, 2.0)), 2) == pytest.approx(21.0)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_enumeration(self, n):
        rng = np.random.default_rng(40 + n)
        spec = random_spectrum(rng, n)
        for k in range(8):
            oracle = complete_oracle(spec.omega_sq, k)
            assert complete_homog(spec, k) == pytest.approx(oracle, rel=1e-11)

    def test_recursion_identity_random_subsets(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            vals = list(rng.uniform(0.3, 9.0, size=rng.integers(2, 6)))
            a, b, rest = vals[0], vals[1], vals[2:]
            for s in range(1, 6):
                lhs = (complete_homogeneous(rest + [a], s)
                       - complete_homogeneous(rest + [b], s))
                rhs = (a - b) * complete_homogeneous(rest + [a, b], s - 1)
                scale = max(abs(complete_homogeneous(rest + [a], s)), abs(rhs), 1.0)
                assert abs(lhs - rhs) <= 1e-9 * scale


class TestVerifyIdentities:
    def test_frozen_id1_first_n2(self):
        # p = 0, s = 0: 4 - 1 = 3 = 1/rho_0
        spec = FrequencySpectrum((1.0, 2.0))
        lhs = reduced_sigma(spec, 0, 0) - 1.0 ** 2 * reduced_sigma(spec, 1, 0)
        assert lhs == pytest.approx(1.0 / rho(spec, 0))

    def test_frozen_id2_n2(self):
        # k = 0: -(w0^2 rho_0 - w1^2 rho_1) = 1 = P_0
        spec = FrequencySpectrum((1.0, 2.0))
        rhs = -(1.0 * rho(spec, 0) - 4.0 * rho(spec, 1))
        assert rhs == pytest.approx(complete_homog(spec, 0))

    def test_frozen_id2_negative_k(self):
        # k = -1, n = 2: power 2n+2k-2 = 0, so sum_s (-1)^s rho_s
        # must vanish, matching P_{-2} = 0
        spec = FrequencySpectrum((1.0, 2.0))
        total = rho(spec, 0) - rho(spec, 1)
        assert total == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_identities_pass(self, n):
        rng = np.random.default_rng(50 + n)
        for _ in range(5):
            spec = random_spectrum(rng, n)
            report = verify_identities(spec)
            assert all(res["pass"] for res in report.values()), report
            for res in report.values():
                assert res["max_residual"] >= 0.0
                assert res["max_residual"] <= 1e-8

    def test_report_serializes(self):
        d = verify_identities(FrequencySpectrum((1.0, 2.0)))
        assert set(d) == {"id1_first", "id1_second", "id2", "power_diff", "p_diff"}
        assert all("max_residual" in v for v in d.values())


def shifted_spectrum(n, base):
    """w^2 = base + 1.01e-6 j: gaps near the floor at a large w^2, so that
    rho_k reduced_sigma(0, k) overflows in id1_second's terms."""
    return FrequencySpectrum(tuple(np.sqrt(base + 1.01e-6 * np.arange(n))))


class TestIdentityReportsOracle:
    # the array passes against the check-at-a-time form, as printed

    @staticmethod
    def assert_oracle_equal(specs):
        got = [json.dumps(r) for r in spectrum.identity_reports(specs)]
        assert got == [json.dumps(identity_report_oracle(s)) for s in specs]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_random_spectra_alone_and_in_batches(self, n):
        rng = np.random.default_rng(70 + n)
        specs = [random_spectrum(rng, n) for _ in range(24)]
        for spec in specs[:4]:
            assert json.dumps(verify_identities(spec)) == json.dumps(identity_report_oracle(spec))
        for start, size in ((0, 1), (1, 3), (4, 20)):
            self.assert_oracle_equal(specs[start:start + size])

    @pytest.mark.parametrize("n", [2, 7, 20, 40, 60])
    def test_linspace_spectra(self, n):
        self.assert_oracle_equal([linspace_spectrum(n)])

    def test_overflowing_terms(self):
        # at n = 24 one id1_second check is NaN and the worst is a later
        # finite one; at n = 34 its first check is NaN and wins; a batch of
        # the two n = 34 inputs takes each row's own rule
        late, first = shifted_spectrum(24, 1e4), shifted_spectrum(34, 2.5e4)
        assert verify_identities(late)["id1_second"]["pass"] is True
        report = verify_identities(first)["id1_second"]
        assert np.isnan(report["max_residual"]) and report["location"] == [0, 0]
        assert report["pass"] is False
        self.assert_oracle_equal([late])
        self.assert_oracle_equal([first, shifted_spectrum(34, 1e4)])

    def test_scale_is_python_max(self):
        # no accepted spectrum gives a NaN first term, so the rule that a
        # NaN wins only as the first entry is checked here directly
        rows = [(np.nan, 1.0, 2.0), (1.0, np.nan, 2.0), (3.0, np.nan, np.inf),
                (2.0, 2.0, 1.0), (0.0, np.inf, np.nan)]
        got = spectrum._max_first(*np.array(rows).T)
        assert json.dumps(got.tolist()) == json.dumps([max(row) for row in rows])

    def test_memory_grows_as_n_squared(self):
        # no (n, n, n) array: doubling n at most quadruples the peak
        # allocation of the report, with some slack (n^3 would be 8x)
        peaks = []
        for n in (60, 120):
            spec = linspace_spectrum(n)
            spec.table
            tracemalloc.start()
            try:
                verify_identities(spec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 5 * peaks[0]

    @pytest.mark.parametrize("seed", range(20))
    def test_check_identities_is_the_oracle_maximum(self, seed):
        worst = 0.0
        for _, spec in verify._draws(seed, 6, 20):
            worst = max(worst, max(r["max_residual"]
                                   for r in identity_report_oracle(spec).values()))
        assert verify.check_identities(6, 20, seed)["identities"]["worst_residual"] == worst

    def test_mixed_n_refused(self):
        with pytest.raises(ValueError, match="one n"):
            spectrum.identity_reports([FrequencySpectrum((1.0,)), FrequencySpectrum((1.0, 2.0))])


# The per-call formulas the spectrum table replaced, kept as oracles: the
# table must hand back exactly their bits.

def percall_coeffs(w2):
    c = np.array([1.0])
    for v in w2:
        c = np.convolve(c, [1.0, v])
    return c


def percall_sigma(spec, k):
    return float(percall_coeffs(spec.omega_sq)[spec.n - k])


def percall_reduced_sigma(spec, m, k):
    w2 = [v for idx, v in enumerate(spec.omega_sq) if idx != k]
    return float(percall_coeffs(w2)[(spec.n - 1) - m])


def percall_rho(spec, k):
    w2 = spec.omega_sq
    prod = 1.0
    for m in range(spec.n):
        if m != k:
            prod *= w2[m] - w2[k]
    return (-1.0) ** k / prod


def numpy_complete_homogeneous(values, k):
    """The recursion over a numpy array of float64 scalars."""
    if k < 0:
        return 0.0
    h = np.zeros(k + 1)
    h[0] = 1.0
    for v in values:
        for d in range(1, k + 1):
            h[d] += v * h[d - 1]
    return float(h[k])


def seeded_spectra(n, count=4):
    """Gap-respecting random spectra, handed over in shuffled order."""
    rng = np.random.default_rng(900 + n)
    for _ in range(count):
        w = np.sqrt(np.cumsum(rng.uniform(0.05, 2.0, size=n)))
        yield FrequencySpectrum(tuple(rng.permutation(w)))


class TestSpectrumTable:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_public_reads_equal_percall_formulas(self, n):
        for spec in seeded_spectra(n):
            for k in range(n + 1):
                assert elementary_sigma(spec, k) == percall_sigma(spec, k)
            for k in range(n):
                assert rho(spec, k) == percall_rho(spec, k)
                for m in range(n):
                    assert reduced_sigma(spec, m, k) == percall_reduced_sigma(spec, m, k)
            # past the stored degrees complete_homog computes on request
            for k in range(-n - 1, max(n, 6) + 4):
                assert complete_homog(spec, k) == numpy_complete_homogeneous(
                    spec.omega_sq, k)

    @pytest.mark.parametrize("n", range(9, 17))
    def test_coeffs_equal_convolve_oracle_over_six_decades(self, n):
        # the table's Python-float recursion against the chained
        # np.convolve it replaced, with w^2 spread over 1e-3 .. 1e3
        rng = np.random.default_rng(950 + n)
        for _ in range(20):
            w2 = np.sort(10.0 ** rng.uniform(-3.0, 3.0, size=n))
            if np.diff(w2).min() < 1e-5:
                continue
            spec = FrequencySpectrum(tuple(np.sqrt(w2)))
            for k in range(n + 1):
                assert elementary_sigma(spec, k) == percall_sigma(spec, k)
            for k in range(n):
                for m in range(n):
                    assert reduced_sigma(spec, m, k) == percall_reduced_sigma(spec, m, k)

    def test_reads_are_python_floats(self):
        spec = next(seeded_spectra(3))
        values = ([elementary_sigma(spec, 0), reduced_sigma(spec, 0, 0), rho(spec, 0)]
                  + [complete_homog(spec, k) for k in (-1, 0, 2, 9)])
        assert all(type(v) is float for v in values)

    def test_built_lazily_once_per_instance(self):
        spec = FrequencySpectrum((1.0, 2.0))
        assert "table" not in vars(spec)
        table = spec.table
        assert spec.table is table
        twin = FrequencySpectrum((1.0, 2.0))
        assert twin == spec
        assert twin.table is not table

    def test_list_recursion_equals_numpy_recursion(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            size = int(rng.integers(0, 9))
            values = list(rng.uniform(0.01, 12.0, size=size))
            for k in range(-2, 12):
                assert (complete_homogeneous(values, k)
                        == numpy_complete_homogeneous(values, k))
        assert complete_homogeneous([], 0) == 1.0
        assert complete_homogeneous([], 3) == 0.0


def linspace_spectrum(n):
    """The spectrum with w^2 = linspace(0.5, 1, n)."""
    return FrequencySpectrum(tuple(np.sqrt(np.linspace(0.5, 1.0, n))))


def linspace_flags(n):
    return ["--omegas"] + [repr(w) for w in linspace_spectrum(n).omegas]


class TestResidueRange:
    # at w^2 = linspace(0.5, 1, n) the residue products prod (w_m^2 - w_k^2)
    # leave the normal float range at n = 301 and underflow to 0 at n = 317;
    # R = (-1)^k rho_k reduced_sigma overflows from n = 246

    @pytest.mark.parametrize("n", [301, 302, 317, 320])
    def test_products_refused_before_reduced_rows(self, n, monkeypatch):
        spec = linspace_spectrum(n)
        calls = []
        coeffs = spectrum._elementary_coeffs
        monkeypatch.setattr(spectrum, "_elementary_coeffs",
                            lambda w2: calls.append(1) or coeffs(w2))
        with pytest.raises(ValueError, match="residue products out of the normal float64 range"):
            spec.table
        assert calls == []

    @pytest.mark.parametrize("n", [246, 300])
    def test_overflowing_residues_refused_without_warning(self, n):
        table = linspace_spectrum(n).table
        assert all(np.isfinite(table.rho))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="residues out of float64 range"):
                table.residues

    def test_last_finite_residues_kept(self):
        assert np.isfinite(linspace_spectrum(245).table.residues).all()

    @pytest.mark.parametrize("argv", [
        ["spectrum"] + linspace_flags(320),
        ["simulate"] + linspace_flags(246)
        + ["--state"] + ["0.001"] * (4 * 246 + 2) + ["--t-end", "1", "--dt", "0.5"],
    ])
    def test_cli_refuses_as_bad_input(self, argv, capsys):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_n300_spectrum_unchanged(self, tmp_path):
        # the largest n of the family whose table is kept: exit 0, and the
        # bytes the spectrum command printed before the range checks
        path = tmp_path / "spectrum300.json"
        assert main(["spectrum"] + linspace_flags(300) + ["--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "0e9097ea0d7a146611017f79cfaf1f8cc8e1e7e5be0ade35883298dcca223de5")
