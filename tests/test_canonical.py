"""Oscillator/canonical coordinate maps, Hamiltonians, and uniqueness."""

import numpy as np
import pytest

from oddpu import (DegeneracyError, FrequencySpectrum, GammaWeights, PhaseState,
                   alt_structure, bracket, companion_matrix,
                   dirac_equivalent_gamma, dirac_structure, exact_propagate,
                   jet_index)
from oddpu.canonical import (alt_hamiltonian_observable, canonical_map,
                             energy_observable, mode_integrals, oscillator_map,
                             quadratic_ansatz_observable, scaled_canonical_map,
                             uniqueness_check)
from oddpu.verify import random_gamma, random_spectrum

S1 = FrequencySpectrum((1.0,))
S12 = FrequencySpectrum((1.0, 2.0))


def symplectic_block(n):
    J = np.zeros((4 * n + 2, 4 * n + 2))
    for b in range(2 * n + 1):
        J[2 * b, 2 * b + 1] = 1.0
        J[2 * b + 1, 2 * b] = -1.0
    return J


class TestOscillatorMap:
    def test_n1_is_identity_on_jets(self):
        osc = oscillator_map(S1)
        for i in (1, 2):
            assert osc.row("x[0][%d]" % i) == pytest.approx(
                np.eye(6)[jet_index(0, i)])
            assert osc.row("ddx[0][%d]" % i) == pytest.approx(
                np.eye(6)[jet_index(2, i)])

    def test_n2_mode_rows(self):
        # rho_0 = 1/3, reduced sigmas for mode 0 are (4, 1):
        # x_{0,i} = (4 x_i + ddx_i) / sqrt(3)
        osc = oscillator_map(S12)
        row = osc.row("x[0][1]")
        expected = np.zeros(10)
        expected[jet_index(0, 1)] = 4.0 / np.sqrt(3.0)
        expected[jet_index(2, 1)] = 1.0 / np.sqrt(3.0)
        assert row == pytest.approx(expected)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_modes_satisfy_third_order_eom(self, n):
        # each mode coordinate obeys x''' = -w_k^2 x' along the flow
        rng = np.random.default_rng(200 + n)
        spec = random_spectrum(rng, n)
        M = companion_matrix(spec)
        M3 = M @ M @ M
        osc = oscillator_map(spec)
        for k in range(n):
            w2 = spec.omega_sq[k]
            for i in (1, 2):
                row = osc.row("x[%d][%d]" % (k, i))
                resid = row @ M3 + w2 * (row @ M)
                assert np.abs(resid).max() <= 1e-9 * np.abs(row @ M3).max()

    def test_derivative_rows_consistent(self):
        rng = np.random.default_rng(8)
        spec = random_spectrum(rng, 3)
        M = companion_matrix(spec)
        osc = oscillator_map(spec)
        for k in range(3):
            for i in (1, 2):
                x = osc.row("x[%d][%d]" % (k, i))
                assert osc.row("dx[%d][%d]" % (k, i)) == pytest.approx(x @ M)
                assert osc.row("ddx[%d][%d]" % (k, i)) == pytest.approx(x @ M @ M)


class TestCanonicalMap:
    def test_n1_position_state(self):
        # u = (x_1 = 1): q and p vanish, z = (-1, 0)
        T = canonical_map(S1)
        u = np.zeros(6)
        u[jet_index(0, 1)] = 1.0
        out = T.labeled(u)
        assert out["q[0][1]"] == pytest.approx(0.0)
        assert out["p[0][2]"] == pytest.approx(0.0)
        assert out["z[1]"] == pytest.approx(-1.0)
        assert out["z[2]"] == pytest.approx(0.0)

    def test_n1_velocity_state(self):
        # u = (dx_1 = 1): q[0][1] = q[0][2] = 1/sqrt(2), everything else 0
        T = canonical_map(S1)
        u = np.zeros(6)
        u[jet_index(1, 1)] = 1.0
        out = T.labeled(u)
        assert out["q[0][1]"] == pytest.approx(1.0 / np.sqrt(2.0))
        assert out["q[0][2]"] == pytest.approx(1.0 / np.sqrt(2.0))
        for lab in ("p[0][1]", "p[0][2]", "z[1]", "z[2]"):
            assert out[lab] == pytest.approx(0.0)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_block_diagonalizes_dirac(self, n):
        rng = np.random.default_rng(210 + n)
        spec = random_spectrum(rng, n)
        T = canonical_map(spec).matrix
        Om = dirac_structure(spec).omega
        block = T @ Om @ T.T
        assert np.abs(block - symplectic_block(n)).max() <= 1e-9

    @pytest.mark.parametrize("n", range(1, 5))
    def test_invertible(self, n):
        rng = np.random.default_rng(220 + n)
        spec = random_spectrum(rng, n)
        T = canonical_map(spec).matrix
        assert T.shape == (4 * n + 2, 4 * n + 2)
        assert np.linalg.matrix_rank(T) == 4 * n + 2


class TestMapSharing:
    """The coordinate maps are built once per spectrum instance and shared."""

    @pytest.mark.parametrize("builder", [oscillator_map, canonical_map])
    def test_same_object_per_instance(self, builder):
        spec = FrequencySpectrum((0.8, 1.7))
        assert builder(spec) is builder(spec)

    @pytest.mark.parametrize("builder", [oscillator_map, canonical_map])
    def test_equal_instances_share_nothing(self, builder):
        a, b = FrequencySpectrum((0.8, 1.7)), FrequencySpectrum((0.8, 1.7))
        assert a == b
        assert builder(a) is not builder(b)
        assert a.table is not b.table
        assert np.array_equal(builder(a).matrix, builder(b).matrix)

    def test_shared_matrix_is_read_only(self):
        spec = FrequencySpectrum((0.8, 1.7))
        T = canonical_map(spec)
        with pytest.raises(ValueError):
            T.matrix[0, 0] = 1.0
        with pytest.raises(ValueError):
            T.row("z[1]")[0] = 1.0
        with pytest.raises(ValueError):
            oscillator_map(spec).matrix[:] = 0.0

    def test_users_do_not_change_the_shared_maps(self):
        spec = FrequencySpectrum((0.8, 1.7))
        g = GammaWeights(((1.5, -0.7), (-1.2, 0.9)))
        before = canonical_map(spec).matrix.copy()
        osc_before = oscillator_map(spec).matrix.copy()
        energy_observable(spec)
        alt_hamiltonian_observable(spec, g)
        mode_integrals(spec)
        scaled_canonical_map(spec, g)
        assert np.array_equal(canonical_map(spec).matrix, before)
        assert np.array_equal(oscillator_map(spec).matrix, osc_before)


class TestScaledCanonicalMap:
    def test_degenerate_gamma_rejected(self):
        with pytest.raises(DegeneracyError):
            scaled_canonical_map(S1, GammaWeights(((1.0, 1.0),)))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_block_diagonalizes_alt(self, n):
        rng = np.random.default_rng(230 + n)
        for _ in range(3):
            spec = random_spectrum(rng, n)
            g = random_gamma(rng, spec)
            T = scaled_canonical_map(spec, g).matrix
            Om = alt_structure(spec, g).omega
            block = T @ Om @ T.T
            assert np.abs(block - symplectic_block(n)).max() <= 1e-9

    def test_reduces_to_canonical_at_dirac_gamma(self):
        base = canonical_map(S1).matrix
        scaled = scaled_canonical_map(S1, dirac_equivalent_gamma(1)).matrix
        # |gamma| = 1 everywhere and s = 1, so only p-row signs can differ
        assert np.abs(np.abs(scaled) - np.abs(base)).max() <= 1e-12


class TestEnergy:
    def test_n1_frozen_value(self):
        # H = -(dx_1 ddx_2 - dx_2 ddx_1) = -1 at dx_1 = ddx_2 = 1
        u = np.zeros(6)
        u[jet_index(1, 1)] = 1.0
        u[jet_index(2, 2)] = 1.0
        assert energy_observable(S1).value(u) == pytest.approx(-1.0)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_equals_alternating_oscillator_sum(self, n):
        # pointwise identity with the gamma = ((-1)^k, (-1)^{k+1}) sum
        rng = np.random.default_rng(240 + n)
        spec = random_spectrum(rng, n)
        H = energy_observable(spec)
        Halt = alt_hamiltonian_observable(spec, dirac_equivalent_gamma(n))
        for _ in range(10):
            u = rng.uniform(-1, 1, size=spec.jet_dim)
            scale = 1.0 + abs(H.value(u))
            assert abs(H.value(u) - Halt.value(u)) <= 1e-10 * scale

    def test_conserved_along_flow(self):
        rng = np.random.default_rng(11)
        spec = random_spectrum(rng, 3)
        H = energy_observable(spec)
        st = PhaseState(rng.uniform(-1, 1, size=spec.jet_dim))
        h0 = H.value(st.u)
        for t in (1.0, 7.3, 40.0):
            ht = H.value(exact_propagate(spec, st, t).u)
            assert abs(ht - h0) <= 1e-9 * (1 + abs(h0))

    def test_alt_hamiltonian_positive_semidefinite(self):
        # positive gamma weights: 4n positive eigenvalues, z-sector nullity 2
        g = GammaWeights(((1.0, 2.0), (0.5, 1.5)))
        Hcal = alt_hamiltonian_observable(S12, g)
        evals = np.sort(np.linalg.eigvalsh(Hcal.A))
        assert evals[0] >= -1e-10
        assert np.sum(np.abs(evals) <= 1e-10) == 2

    def test_alt_hamiltonian_gamma_mismatch(self):
        with pytest.raises(ValueError):
            alt_hamiltonian_observable(S1, GammaWeights(((1.0, 1.0),) * 2))


class TestModeIntegrals:
    def test_frozen_n1_velocity_state(self):
        # q = 1/sqrt(2), p = 0 in both sectors, so J_{0,i} = 1/2
        u = np.zeros(6)
        u[jet_index(1, 1)] = 1.0
        for (k, i), J in mode_integrals(S1):
            assert J.value(u) == pytest.approx(0.5)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_conserved_and_in_involution(self, n):
        rng = np.random.default_rng(250 + n)
        spec = random_spectrum(rng, n)
        S = dirac_structure(spec)
        H = energy_observable(spec)
        Js = [J for _, J in mode_integrals(spec)]
        scale = max(np.abs(J.A).max() for J in Js)
        for a, Ja in enumerate(Js):
            out = bracket(S, Ja, H)
            assert np.abs(out.A).max() <= 1e-9 * scale
            for Jb in Js[a + 1:]:
                out = bracket(S, Ja, Jb)
                assert np.abs(out.A).max() <= 1e-9 * scale

    def test_nonnegative(self):
        rng = np.random.default_rng(13)
        spec = random_spectrum(rng, 2)
        for _, J in mode_integrals(spec):
            for _ in range(20):
                assert J.value(rng.uniform(-1, 1, size=10)) >= 0.0


class TestUniqueness:
    def test_ansatz_is_conserved_combination(self):
        report = uniqueness_check(1.5, 0.4, 0.4 * 1.5 ** 2, -0.7)
        assert report.conserved_residual <= 1e-9

    def test_structure_exists_on_constraint_line(self):
        for w0, b, f in ((1.0, 0.3, 0.7), (2.0, -0.5, 0.2)):
            report = uniqueness_check(w0, b, b * w0 ** 2, f)
            assert report.structure_residual <= 1e-10

    def test_structure_fails_off_constraint_line(self):
        report = uniqueness_check(1.0, 0.3, 0.3 + 0.1, 0.7)
        assert report.conserved_residual <= 1e-9
        assert report.structure_residual >= 1e-3

    def test_gamma_parameter_match(self):
        # b = (g1+g2)/(4 w0), f = -(g1-g2)/2 reproduces the weighted sum
        w0, g1, g2 = 1.3, 1.7, 0.6
        spec = FrequencySpectrum((w0,))
        g = GammaWeights(((g1, g2),))
        W = quadratic_ansatz_observable(w0, (g1 + g2) / (4 * w0),
                                        (g1 + g2) * w0 / 4, -(g1 - g2) / 2)
        Hcal = alt_hamiltonian_observable(spec, g)
        assert np.abs(W.A - Hcal.A).max() <= 1e-10 * np.abs(Hcal.A).max()

    def test_bad_frequency(self):
        with pytest.raises(ValueError):
            uniqueness_check(0.0, 1.0, 1.0, 0.0)
