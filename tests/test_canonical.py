"""Oscillator/canonical coordinate maps, Hamiltonians, and uniqueness."""

import numpy as np
import pytest

from oddpu import (DegeneracyError, FrequencySpectrum, GammaWeights, ModalSolution,
                   PhaseState, alt_structure, bracket, companion_matrix,
                   degeneracy_scalar, dirac_equivalent_gamma, dirac_structure,
                   jet_index)
from oddpu.canonical import (alt_hamiltonian_observable, canonical_map,
                             energy_observable, mode_integrals, oscillator_map,
                             quadratic_ansatz_observable, scaled_canonical_map,
                             uniqueness_check)
from oddpu.poisson import FactoredObservable
from oddpu.verify import random_gamma, random_spectrum

S1 = FrequencySpectrum((1.0,))
S12 = FrequencySpectrum((1.0, 2.0))


def symplectic_block(n):
    J = np.zeros((4 * n + 2, 4 * n + 2))
    for b in range(2 * n + 1):
        J[2 * b, 2 * b + 1] = 1.0
        J[2 * b + 1, 2 * b] = -1.0
    return J


# Layout of the maps, as stated in the builders' docstrings.
def osc_rows(spec):
    """Oscillator map as (k, order, i - 1, jet) rows."""
    return oscillator_map(spec).reshape(spec.n, 3, 2, spec.jet_dim)


def q_row(k, i):
    return 4 * k + 2 * (i - 1)


def p_row(k, i):
    return 4 * k + 2 * (i - 1) + 1


def z_row(n, i):
    return 4 * n + i - 1


# The label-driven builders the maps were written with before they became
# plain arrays: a row per label, found by name.  Kept as the oracle every
# entry of the array builders must match bit for bit.
def oracle_oscillator_map(spec):
    n = spec.n
    table = spec.table
    rows, labels = [], []
    for k in range(n):
        rk = np.sqrt(table.rho[k])
        coeffs = [rk * table.reduced[k][m] for m in range(n)]
        for order, tag in ((0, "x"), (1, "dx"), (2, "ddx")):
            for i in (1, 2):
                row = np.zeros(spec.jet_dim)
                for m in range(n):
                    row[jet_index(2 * m + order, i)] = coeffs[m]
                rows.append(row)
                labels.append("%s[%d][%d]" % (tag, k, i))
    return np.array(rows), labels


def oracle_canonical_map(spec):
    n = spec.n
    sigma = spec.table.sigma
    osc, osc_labels = oracle_oscillator_map(spec)

    def row(label):
        return osc[osc_labels.index(label)]

    rows, labels = [], []
    for k in range(n):
        w = spec.omegas[k]
        dx1, dx2 = row("dx[%d][1]" % k), row("dx[%d][2]" % k)
        ddx1, ddx2 = row("ddx[%d][1]" % k), row("ddx[%d][2]" % k)
        for i in (1, 2):
            q = np.sqrt(1.0 / (2 * w)) * (dx1 + (-1.0) ** i / w * ddx2)
            p = (-1.0) ** k * np.sqrt(w / 2.0) * (dx2 + (-1.0) ** (i + 1) / w * ddx1)
            rows += [q, p]
            labels += ["q[%d][%d]" % (k, i), "p[%d][%d]" % (k, i)]
    wprod = float(np.prod(spec.omegas))
    for i in (1, 2):
        z = np.zeros(spec.jet_dim)
        for k in range(n + 1):
            z[jet_index(2 * k, i)] = (-1.0) ** i / wprod * sigma[k]
        rows.append(z)
        labels.append("z[%d]" % i)
    return np.array(rows), labels


def oracle_scaled_canonical_map(spec, g):
    s = degeneracy_scalar(spec, g)
    base, base_labels = oracle_canonical_map(spec)

    def row(label):
        return base[base_labels.index(label)]

    wprod = float(np.prod(spec.omegas))
    rows = []
    for k in range(spec.n):
        for i in (1, 2):
            gam = g.gamma[k][i - 1]
            root = np.sqrt(abs(gam))
            rows.append(root * row("q[%d][%d]" % (k, i)))
            sign = (-1.0) ** (k + i + 1) * np.sign(gam)
            rows.append(sign * root * row("p[%d][%d]" % (k, i)))
    scale = 1.0 / (wprod * np.sqrt(abs(s)))
    rows.append(scale * row("z[1]"))
    rows.append(np.sign(s) * scale * row("z[2]"))
    return np.array(rows)


def same_bits(a, b):
    """Equal entry by entry as bit patterns, so the sign of a zero counts."""
    return a.dtype == b.dtype == np.float64 and np.array_equal(a.view(np.uint64),
                                                               b.view(np.uint64))


class TestMapsAgainstOracle:
    """The array builders keep every bit of the label-driven ones."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bit_identical_and_read_only(self, n):
        rng = np.random.default_rng(290 + n)
        for _ in range(3):
            spec = random_spectrum(rng, n)
            g = random_gamma(rng, spec)
            maps = [(oscillator_map(spec), oracle_oscillator_map(spec)[0]),
                    (canonical_map(spec), oracle_canonical_map(spec)[0]),
                    (scaled_canonical_map(spec, g), oracle_scaled_canonical_map(spec, g))]
            for new, old in maps:
                assert new.shape == old.shape
                assert same_bits(new, old)
                assert not new.flags.writeable
                with pytest.raises(ValueError):
                    new[0, 0] = 1.0


class TestOscillatorMap:
    def test_n1_is_identity_on_jets(self):
        osc = osc_rows(S1)
        for i in (1, 2):
            assert osc[0, 0, i - 1] == pytest.approx(np.eye(6)[jet_index(0, i)])
            assert osc[0, 2, i - 1] == pytest.approx(np.eye(6)[jet_index(2, i)])

    def test_n2_mode_rows(self):
        # rho_0 = 1/3, reduced sigmas for mode 0 are (4, 1):
        # x_{0,i} = (4 x_i + ddx_i) / sqrt(3)
        row = osc_rows(S12)[0, 0, 0]
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
        osc = osc_rows(spec)
        for k in range(n):
            w2 = spec.omega_sq[k]
            for i in (1, 2):
                row = osc[k, 0, i - 1]
                resid = row @ M3 + w2 * (row @ M)
                assert np.abs(resid).max() <= 1e-9 * np.abs(row @ M3).max()

    def test_derivative_rows_consistent(self):
        rng = np.random.default_rng(8)
        spec = random_spectrum(rng, 3)
        M = companion_matrix(spec)
        osc = osc_rows(spec)
        for k in range(3):
            for i in (1, 2):
                x = osc[k, 0, i - 1]
                assert osc[k, 1, i - 1] == pytest.approx(x @ M)
                assert osc[k, 2, i - 1] == pytest.approx(x @ M @ M)


class TestCanonicalMap:
    def test_n1_position_state(self):
        # u = (x_1 = 1): q and p vanish, z = (-1, 0)
        u = np.zeros(6)
        u[jet_index(0, 1)] = 1.0
        out = canonical_map(S1) @ u
        assert out[q_row(0, 1)] == pytest.approx(0.0)
        assert out[p_row(0, 2)] == pytest.approx(0.0)
        assert out[z_row(1, 1)] == pytest.approx(-1.0)
        assert out[z_row(1, 2)] == pytest.approx(0.0)

    def test_n1_velocity_state(self):
        # u = (dx_1 = 1): q[0][1] = q[0][2] = 1/sqrt(2), everything else 0
        u = np.zeros(6)
        u[jet_index(1, 1)] = 1.0
        out = canonical_map(S1) @ u
        assert out[q_row(0, 1)] == pytest.approx(1.0 / np.sqrt(2.0))
        assert out[q_row(0, 2)] == pytest.approx(1.0 / np.sqrt(2.0))
        for j in (p_row(0, 1), p_row(0, 2), z_row(1, 1), z_row(1, 2)):
            assert out[j] == pytest.approx(0.0)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_block_diagonalizes_dirac(self, n):
        rng = np.random.default_rng(210 + n)
        spec = random_spectrum(rng, n)
        T = canonical_map(spec)
        Om = dirac_structure(spec)
        block = T @ Om @ T.T
        assert np.abs(block - symplectic_block(n)).max() <= 1e-9

    @pytest.mark.parametrize("n", range(1, 5))
    def test_invertible(self, n):
        rng = np.random.default_rng(220 + n)
        spec = random_spectrum(rng, n)
        T = canonical_map(spec)
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
        assert np.array_equal(builder(a), builder(b))

    def test_shared_matrix_is_read_only(self):
        spec = FrequencySpectrum((0.8, 1.7))
        T = canonical_map(spec)
        with pytest.raises(ValueError):
            T[0, 0] = 1.0
        with pytest.raises(ValueError):
            T[z_row(spec.n, 1)][0] = 1.0
        with pytest.raises(ValueError):
            oscillator_map(spec)[:] = 0.0

    def test_users_do_not_change_the_shared_maps(self):
        spec = FrequencySpectrum((0.8, 1.7))
        g = GammaWeights(((1.5, -0.7), (-1.2, 0.9)))
        before = canonical_map(spec).copy()
        osc_before = oscillator_map(spec).copy()
        energy_observable(spec)
        alt_hamiltonian_observable(spec, g)
        mode_integrals(spec)
        scaled_canonical_map(spec, g)
        assert np.array_equal(canonical_map(spec), before)
        assert np.array_equal(oscillator_map(spec), osc_before)


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
            T = scaled_canonical_map(spec, g)
            Om = alt_structure(spec, g)
            block = T @ Om @ T.T
            assert np.abs(block - symplectic_block(n)).max() <= 1e-9

    def test_reduces_to_canonical_at_dirac_gamma(self):
        base = canonical_map(S1)
        scaled = scaled_canonical_map(S1, dirac_equivalent_gamma(1))
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
        # the energy is the gamma = ((-1)^k, (-1)^{k+1}) oscillator sum, and
        # pointwise equal to the jet-space Noether form
        # sum_k (-1)^{k+1} eps_{ij} dx_{k,i} ddx_{k,j}
        rng = np.random.default_rng(240 + n)
        spec = random_spectrum(rng, n)
        H = energy_observable(spec)
        Halt = alt_hamiltonian_observable(spec, dirac_equivalent_gamma(n))
        assert np.array_equal(H.weights, Halt.weights)
        osc = oscillator_map(spec)
        for _ in range(10):
            u = rng.uniform(-1, 1, size=spec.jet_dim)
            x = (osc @ u).reshape(n, 3, 2)        # x[k, order, i - 1]
            noether = sum((-1.0) ** (k + 1) * (x[k, 1, 0] * x[k, 2, 1] - x[k, 1, 1] * x[k, 2, 0])
                          for k in range(n))
            assert abs(H.value(u) - noether) <= 1e-10 * (1.0 + abs(noether))

    def test_conserved_along_flow(self):
        rng = np.random.default_rng(11)
        spec = random_spectrum(rng, 3)
        H = energy_observable(spec)
        st = PhaseState(rng.uniform(-1, 1, size=spec.jet_dim))
        h0 = H.value(st.u)
        sol = ModalSolution(spec, st)
        for t in (1.0, 7.3, 40.0):
            ht = H.value(sol.eval(t).u)
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


class TestFactoredObservable:
    """H, Hcal and every J_{k,i} are (1/2) sum_j D_j (T u)_j^2 over the
    shared canonical map."""

    @staticmethod
    def observables(rng, spec):
        return ([energy_observable(spec), alt_hamiltonian_observable(spec, random_gamma(rng, spec))]
                + [J for _, J in mode_integrals(spec)])

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_stack_matches_single_states_bit_for_bit(self, n):
        rng = np.random.default_rng(260 + n)
        spec = random_spectrum(rng, n)
        for rows in (1, 11, 300):
            states = rng.uniform(-1, 1, size=(rows, spec.jet_dim))
            for obs in self.observables(rng, spec):
                stacked = obs.value(states)
                assert stacked.shape == (rows,)
                singles = [obs.value(u) for u in states]
                assert all(type(v) is float for v in singles)
                assert np.array_equal(stacked, singles)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dense_matrix_is_the_jet_form_built_before(self, n):
        # A = T^T diag(D) T, symmetrized, with D written entry by entry
        # at the q and p rows, exactly as the dense builder computed it
        rng = np.random.default_rng(270 + n)
        spec = random_spectrum(rng, n)
        g = random_gamma(rng, spec)
        T = canonical_map(spec)
        D = np.zeros(spec.jet_dim)
        for k in range(n):
            w2 = spec.omega_sq[k]
            for i in (1, 2):
                D[q_row(k, i)] = g.gamma[k][i - 1] * w2
                D[p_row(k, i)] = g.gamma[k][i - 1]
        A = T.T @ np.diag(D) @ T
        Hcal = alt_hamiltonian_observable(spec, g)
        assert np.array_equal(Hcal.A, 0.5 * (A + A.T))
        assert Hcal.A is Hcal.A                # built once, on first access
        assert Hcal.dim == spec.jet_dim

    def test_shares_the_canonical_map(self):
        spec = FrequencySpectrum((0.8, 1.7))
        T = canonical_map(spec)
        for obs in self.observables(np.random.default_rng(5), spec):
            assert obs.T is T
            assert not obs.weights.flags.writeable

    def test_overflowing_squares_rescaled(self):
        # (T u)^2 overflows, but H = 0 exactly; J is out of range
        u = np.array([0.0, 0.0, 1e160, 0.0, 0.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            assert energy_observable(S1).value(u) == 0.0
            assert np.array_equal(energy_observable(S1).value(np.vstack((u, -u))), [0.0, 0.0])
            for _, J in mode_integrals(S1):
                assert J.value(u) == np.inf
            # small weights: the squares 2^1060 overflow, the value does not
            small = FactoredObservable(np.eye(2), [2.0 ** -100, 2.0 ** -100])
            c = np.array([1.0, 0.75]) * 2.0 ** 530
            assert small.value(c) == 1.5625 * 2.0 ** 959
            assert np.array_equal(small.value(np.vstack((c, c / 2.0 ** 530))),
                                  [1.5625 * 2.0 ** 959, 1.5625 * 2.0 ** -101])


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
        assert report["conserved_residual"] <= 1e-9

    def test_structure_exists_on_constraint_line(self):
        for w0, b, f in ((1.0, 0.3, 0.7), (2.0, -0.5, 0.2)):
            report = uniqueness_check(w0, b, b * w0 ** 2, f)
            assert report["structure_residual"] <= 1e-10

    def test_structure_fails_off_constraint_line(self):
        report = uniqueness_check(1.0, 0.3, 0.3 + 0.1, 0.7)
        assert report["conserved_residual"] <= 1e-9
        assert report["structure_residual"] >= 1e-3

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

    @pytest.mark.parametrize("seed", range(5))
    def test_ansatz_value_off_constraint_line(self, seed):
        # W away from c = b w0^2 (criterion 7's failing branch), against
        # the display formula summed term by term at random jets
        rng = np.random.default_rng(900 + seed)
        w0 = rng.uniform(0.3, 3.0)
        b, c, f = rng.uniform(-2.0, 2.0, size=3)
        assert abs(c - b * w0 ** 2) > 1e-3
        W = quadratic_ansatz_observable(w0, b, c, f)
        for u in rng.uniform(-1.0, 1.0, size=(20, 6)):
            x, dx, ddx = u.reshape(3, 2)
            terms = [b * (ddx[i] + w0 ** 2 * x[i]) ** 2 for i in range(2)]
            terms += [c * dx[i] ** 2 for i in range(2)]
            terms += [-2 * c * x[i] * ddx[i] for i in range(2)]
            terms += [-c * w0 ** 2 * x[i] ** 2 for i in range(2)]
            terms += [f * dx[0] * ddx[1], -f * dx[1] * ddx[0]]
            assert W.value(u) == pytest.approx(sum(terms),
                                               rel=0, abs=1e-14 * sum(map(abs, terms)))
