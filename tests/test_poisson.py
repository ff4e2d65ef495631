"""Structure matrices, brackets, and Hamiltonian vector fields."""

import numpy as np
import pytest

from oddpu import (FrequencySpectrum, GammaWeights, verify,
                   QuadraticObservable, alt_structure, companion_matrix,
                   degeneracy_scalar, degeneracy_scale, dirac_equivalent_gamma,
                   dirac_structure, gamma_is_degenerate, rho, structure_rank)
from oddpu.canonical import (_antisymmetric_basis, alt_hamiltonian_observable,
                             energy_observable, oscillator_sums, quadratic_ansatz_observable,
                             quadratic_form)
from oddpu.dynamics import J2
from oddpu.poisson import DegeneracyError, alt_structures, dirac_structures
from oddpu.verify import random_gamma, random_spectrum

from conftest import jet_index, loop_alt_structure, loop_dirac_structure

S1 = FrequencySpectrum((1.0,))


class TestGammaWeights:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            GammaWeights(((1.0, 0.0),))
        with pytest.raises(ValueError):
            GammaWeights(((1e-12, 1.0),))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GammaWeights(((bad, -1.0),))

    def test_from_flat(self):
        g = GammaWeights.from_flat([1.0, -1.0, 2.0, 3.0])
        assert g.gamma == ((1.0, -1.0), (2.0, 3.0))
        with pytest.raises(ValueError):
            GammaWeights.from_flat([1.0, 2.0, 3.0])

    def test_alpha_values(self):
        g = GammaWeights(((2.0, 1.0),))
        assert g.alpha_plus[0] == pytest.approx(0.75)
        assert g.alpha_minus[0] == pytest.approx(-0.25)


class TestDiracStructure:
    def test_n1_bracket_entries(self):
        Om = dirac_structure(S1)
        assert Om[jet_index(1, 1), jet_index(1, 2)] == pytest.approx(1.0)
        assert Om[jet_index(0, 1), jet_index(2, 2)] == pytest.approx(-1.0)
        assert Om[jet_index(2, 1), jet_index(2, 2)] == pytest.approx(1.0)

    def test_positions_commute(self):
        for n in (1, 2, 3):
            rng = np.random.default_rng(n)
            Om = dirac_structure(random_spectrum(rng, n))
            assert Om[0:2, 0:2] == pytest.approx(np.zeros((2, 2)))

    def test_n2_top_entry(self):
        # {x^(4)_1, x^(4)_2} = (-1)^{0+3} P_4(1,4) = -21
        spec = FrequencySpectrum((1.0, 2.0))
        Om = dirac_structure(spec)
        assert Om[jet_index(4, 1), jet_index(4, 2)] == pytest.approx(-21.0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_antisymmetry(self, n):
        # exact: the block at (m, s) is minus the transpose of the one at
        # (s, m), built from the same P_k, so no builder check is needed
        rng = np.random.default_rng(100 + n)
        Om = dirac_structure(random_spectrum(rng, n))
        assert type(Om) is np.ndarray and Om.dtype == np.float64
        assert (Om + Om.T == 0).all()


class TestAltStructure:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_antisymmetry(self, n):
        # exact at random, all-equal (degenerate) and near-range weights:
        # mirrored blocks share one weighted moment and take opposite signs
        rng = np.random.default_rng(200 + n)
        spec = random_spectrum(rng, n)
        for g in (verify.random_gamma(rng, spec), GammaWeights(((2.5, 2.5),) * n),
                  GammaWeights(((1e308, -1e308),) * n), GammaWeights(((-1e308, 1e-9),) * n)):
            Om = alt_structure(spec, g)
            assert type(Om) is np.ndarray and Om.dtype == np.float64
            assert (Om + Om.T == 0).all()

    def test_reproduces_dirac_n1(self):
        g = GammaWeights(((1.0, -1.0),))
        assert np.abs(alt_structure(S1, g) - dirac_structure(S1)).max() <= 1e-14

    def test_position_velocity_bracket(self):
        # {x_i, dx_j} = alpha_0^+ / w0 delta_ij
        spec = FrequencySpectrum((1.7,))
        g = GammaWeights(((2.0, 0.8),))
        Om = alt_structure(spec, g)
        expected = g.alpha_plus[0] / 1.7
        assert Om[jet_index(0, 1), jet_index(1, 1)] == pytest.approx(expected)
        assert Om[jet_index(0, 2), jet_index(1, 2)] == pytest.approx(expected)
        assert Om[jet_index(0, 1), jet_index(1, 2)] == 0.0

    def test_n1_structure_entries(self):
        # all five displayed third-order relations at generic gamma
        w = 1.3
        spec = FrequencySpectrum((w,))
        g = GammaWeights(((1.5, -0.4),))
        ap, am = g.alpha_plus[0], g.alpha_minus[0]
        Om = alt_structure(spec, g)
        assert Om[jet_index(0, 1), jet_index(2, 2)] == pytest.approx(-am)
        assert Om[jet_index(1, 1), jet_index(1, 2)] == pytest.approx(am)
        assert Om[jet_index(2, 1), jet_index(2, 2)] == pytest.approx(w * w * am)
        assert Om[jet_index(0, 1), jet_index(1, 1)] == pytest.approx(ap / w)
        assert Om[jet_index(1, 1), jet_index(2, 1)] == pytest.approx(w * ap)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dirac_recovery(self, n):
        rng = np.random.default_rng(110 + n)
        for _ in range(5):
            spec = random_spectrum(rng, n)
            dirac = dirac_structure(spec)
            alt = alt_structure(spec, dirac_equivalent_gamma(n))
            assert np.abs(alt - dirac).max() <= 1e-9 * np.abs(dirac).max()

    def test_gamma_size_mismatch(self):
        with pytest.raises(ValueError):
            alt_structure(S1, GammaWeights(((1.0, 1.0), (1.0, 1.0))))


class TestBatchBuilders:
    """The batch builders give each structure the bytes of the loop
    builders they replaced (``conftest``), -0.0 entries included, in a
    batch of one (the single builders) and in batches of many."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bit_for_bit_with_the_loop_builders(self, n):
        rng = np.random.default_rng(900 + n)
        specs = [random_spectrum(rng, n) for _ in range(12)]
        weights = [verify.random_gamma(rng, spec) for spec in specs[:4]]
        weights += [GammaWeights(tuple(map(tuple, rng.uniform(-3.0, 3.0, size=(n, 2)))))
                    for _ in range(4)]
        weights += [dirac_equivalent_gamma(n), dirac_equivalent_gamma(n),
                    GammaWeights(((1.0, 1.0),) * n), GammaWeights(((1.0, 1.0),) * n)]
        alt = alt_structures(specs, weights)
        dirac = dirac_structures(specs)
        assert alt.shape == dirac.shape == (12, 4 * n + 2, 4 * n + 2)
        for b, (spec, g) in enumerate(zip(specs, weights)):
            want = loop_alt_structure(spec, g).tobytes()
            assert alt[b].tobytes() == alt_structure(spec, g).tobytes() == want
            want = loop_dirac_structure(spec).tobytes()
            assert dirac[b].tobytes() == dirac_structure(spec).tobytes() == want
        assert np.signbit(dirac[dirac == 0.0]).any()     # the -0.0 entries are there

    def test_batches_need_one_n_and_matching_weights(self):
        rng = np.random.default_rng(5)
        specs = [random_spectrum(rng, 1), random_spectrum(rng, 2)]
        with pytest.raises(ValueError, match="one n"):
            dirac_structures(specs)
        with pytest.raises(ValueError, match="one n"):
            alt_structures(specs, [dirac_equivalent_gamma(1), dirac_equivalent_gamma(2)])
        with pytest.raises(ValueError, match="sized for n=2"):
            alt_structures(specs[:1] * 2, [dirac_equivalent_gamma(1), dirac_equivalent_gamma(2)])
        with pytest.raises(ValueError):
            alt_structures(specs[:1] * 2, [dirac_equivalent_gamma(1)])


class TestDegeneracy:
    def test_equal_pair_degenerate(self):
        assert degeneracy_scalar(S1, GammaWeights(((2.0, 2.0),))) == 0.0

    def test_dirac_equivalent_value(self):
        g = GammaWeights(((1.0, -1.0),))
        assert degeneracy_scalar(S1, g) == pytest.approx(1.0)

    def test_all_ones_degenerate_any_n(self):
        spec = FrequencySpectrum((1.0, 2.0))
        g = GammaWeights(((1.0, 1.0), (1.0, 1.0)))
        assert degeneracy_scalar(spec, g) == 0.0
        assert gamma_is_degenerate(spec, g)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_rank_law(self, n):
        rng = np.random.default_rng(120 + n)
        spec = random_spectrum(rng, n)
        g = random_gamma(rng, spec)
        assert structure_rank(spec, alt_structure(spec, g)) == 4 * n + 2
        flat = GammaWeights(tuple((1.0, 1.0) for _ in range(n)))
        assert structure_rank(spec, alt_structure(spec, flat)) == 4 * n


class TestBlockFormRank:
    """Criterion 6 reads rank off the canonical block form T Omega T^T."""

    def test_seed_4_passes(self):
        # the raw-matrix rule read 12 for the flat weights and 14 or 16
        # for the nondegenerate draws at n = 4
        payload = verify.check_degeneracy_rank(4, 10, seed=4)["degeneracy_rank"]
        assert payload["pass"], payload

    @pytest.mark.parametrize("n", range(1, 5))
    def test_zeroed_top_order_reads_4n(self, n):
        # the congruence must not add rank: with the jet order-2n rows and
        # columns zeroed, a nondegenerate Omega has rank 4n
        rng = np.random.default_rng(900 + n)
        for _ in range(3):
            spec = random_spectrum(rng, n)
            omega = np.array(alt_structure(spec, random_gamma(rng, spec)))
            omega[-2:] = omega[:, -2:] = 0.0
            assert structure_rank(spec, omega) == 4 * n


class TestObservableValue:
    def test_single_state_gives_float(self):
        spec = FrequencySpectrum((1.0, 2.0))
        assert isinstance(oscillator_sums(spec, energy_observable(spec), np.linspace(-1, 1, 10)),
                          float)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_stack_matches_rows(self, n, value_bound):
        rng = np.random.default_rng(300 + n)
        spec = random_spectrum(rng, n)
        dim = spec.jet_dim
        A = rng.normal(size=(dim, dim))
        quadratic = QuadraticObservable(A + A.T)
        observables = [(quadratic.value, quadratic.A)]
        Hcal = alt_hamiltonian_observable(spec, random_gamma(rng, spec))
        for D in (energy_observable(spec), Hcal):
            observables.append((lambda u, D=D: oscillator_sums(spec, D, u),
                                quadratic_form(spec, D)))
        states = rng.uniform(-1, 1, size=(50, dim))
        for value, A in observables:
            stacked = value(states)
            rows = np.array([value(u) for u in states])
            assert stacked.shape == (50,)
            assert np.all(np.abs(stacked - rows) <= value_bound(A, states))

    def test_empty_stack(self):
        assert oscillator_sums(S1, energy_observable(S1), np.empty((0, 6))).shape == (0,)


class TestBracket:
    def test_velocity_coordinates_bracket(self):
        # {dx_1, dx_2} = 1: the bracket of two coordinates is an entry of Omega
        S = dirac_structure(S1)
        assert S[jet_index(1, 1), jet_index(1, 2)] == pytest.approx(1.0)

    def test_coordinate_with_energy(self):
        # {x_1, H} = dx_1: the x_1 row of the Hamiltonian vector field
        S = dirac_structure(S1)
        A = quadratic_form(S1, energy_observable(S1))
        expected = np.zeros(6)
        expected[jet_index(1, 1)] = 1.0
        assert (S @ A)[jet_index(0, 1)] == pytest.approx(expected)


class TestHamiltonianVectorField:
    def test_dirac_energy_gives_companion(self):
        S = dirac_structure(S1)
        A = quadratic_form(S1, energy_observable(S1))
        assert np.abs(S @ A - companion_matrix(S1)).max() <= 1e-12

    @pytest.mark.parametrize("n", range(1, 5))
    def test_alt_closure_random_gamma(self, n):
        rng = np.random.default_rng(130 + n)
        for _ in range(5):
            spec = random_spectrum(rng, n)
            g = random_gamma(rng, spec)
            S = alt_structure(spec, g)
            A = quadratic_form(spec, alt_hamiltonian_observable(spec, g))
            M = companion_matrix(spec)
            field = S @ A
            assert np.abs(field - M).max() <= 1e-9 * np.abs(M).max()

    def test_n1_deformed_time_translation_row(self):
        # Dirac bracket of x_i with the weighted oscillator sum:
        # (g1-g2)/2 dx_i - (g1+g2)/(2 w0) eps_ij ddx_j
        w0 = 1.4
        spec = FrequencySpectrum((w0,))
        g1, g2 = 1.7, 0.6
        g = GammaWeights(((g1, g2),))
        field = dirac_structure(spec) @ quadratic_form(spec, alt_hamiltonian_observable(spec, g))
        row = field[jet_index(0, 1)]
        expected = np.zeros(6)
        expected[jet_index(1, 1)] = 0.5 * (g1 - g2)
        expected[jet_index(2, 2)] = -(g1 + g2) / (2 * w0)
        assert row == pytest.approx(expected)


class TestDegeneracyScale:
    def test_equals_explicit_sum(self):
        rng = np.random.default_rng(61)
        for n in range(1, 6):
            spec = random_spectrum(rng, n)
            g = random_gamma(rng, spec)
            rhos = np.array([rho(spec, k) for k in range(n)])
            expect = float(np.sum(np.abs(rhos * g.alpha_minus) / np.array(spec.omega_sq)))
            assert degeneracy_scale(spec, g) == expect

    def test_judges_degeneracy(self):
        spec = FrequencySpectrum((1.0, 2.0))
        flat = GammaWeights(((1.0, 1.0), (1.0, 1.0)))
        assert degeneracy_scale(spec, flat) == 0.0
        # a Python bool, which the structure JSON prints as true or false
        assert gamma_is_degenerate(spec, flat) is True
        g = dirac_equivalent_gamma(2)
        assert abs(degeneracy_scalar(spec, g)) > 1e-10 * degeneracy_scale(spec, g)
        assert gamma_is_degenerate(spec, g) is False

    @pytest.mark.parametrize("degeneracy", [degeneracy_scalar, degeneracy_scale,
                                            gamma_is_degenerate])
    def test_out_of_float_range_is_bad_input(self, degeneracy):
        # rho_0 / w_0^2 overflows although every power of w is in range; the
        # refusal is bad input, not a degenerate structure
        spec = FrequencySpectrum((1e-152, 1e-3))
        with pytest.raises(ValueError, match="out of float64 range") as info:
            degeneracy(spec, dirac_equivalent_gamma(2))
        assert not isinstance(info.value, DegeneracyError)

    def test_gamma_size_mismatch(self):
        with pytest.raises(ValueError):
            degeneracy_scale(FrequencySpectrum((1.0, 2.0)), GammaWeights(((1.0, -1.0),)))


def rotation(dim):
    """R = kron(I, J2): x_1^(s) -> x_2^(s), x_2^(s) -> -x_1^(s) on every jet pair."""
    return np.kron(np.eye(dim // 2), J2)


class TestRotationCovariance:
    """Every (s, m) block is a delta_ij or an eps_ij block, so R X R^T = X
    holds exactly: each entry of R X R^T is one entry of X, up to sign."""

    @staticmethod
    def assert_covariant(X):
        R = rotation(len(X))
        assert np.array_equal(R @ X @ R.T, X)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_companion_and_structures(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(3):
            spec = random_spectrum(rng, n)
            self.assert_covariant(companion_matrix(spec))
            self.assert_covariant(dirac_structure(spec))
            self.assert_covariant(alt_structure(spec, random_gamma(rng, spec)))

    def test_ansatz(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w0 = rng.uniform(0.2, 3.0)
            b, c, f = rng.uniform(-2.0, 2.0, size=3)
            self.assert_covariant(quadratic_ansatz_observable(w0, b, c, f).A)

    def test_each_basis_pattern(self):
        basis = _antisymmetric_basis()
        assert len(basis) == 8
        for E in basis:
            assert np.array_equal(E, -E.T)
            self.assert_covariant(E)
