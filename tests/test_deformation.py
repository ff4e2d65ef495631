"""Admissible deformation system, invariant directions, and deformed flows."""

import numpy as np
import pytest

from oddpu import (FrequencySpectrum, GammaWeights, PhaseState,
                   PotentialSpec, RK4Flow, closed_form_direction_n1,
                   companion_matrix, deformation_system, deformed_energy, deformed_field,
                   invariant_directions, null_space_complete_pivot)
from oddpu.verify import _subspace_gap, random_gamma, random_spectrum

from conftest import exact_alt_structure, exact_invariant_plane

S1 = FrequencySpectrum((1.0,))
DIRAC1 = GammaWeights(((1.0, -1.0),))


class TestNullSpaceSolver:
    def test_full_rank_square(self):
        rng = np.random.default_rng(1)
        A = rng.uniform(-1, 1, size=(5, 5)) + 5 * np.eye(5)
        rank, basis = null_space_complete_pivot(A)
        assert rank == 5
        assert basis.shape == (0, 5)

    def test_known_null_space(self):
        # rows (1, 1, 0) and (0, 0, 1): null space is span{(1, -1, 0)}
        C = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        rank, basis = null_space_complete_pivot(C)
        assert rank == 2
        assert basis.shape == (1, 3)
        v = basis[0]
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.abs(C @ v).max() <= 1e-12

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(2)
        C = rng.uniform(-1, 1, size=(3, 8))
        rank, basis = null_space_complete_pivot(C)
        assert rank == 3
        assert basis.shape == (5, 8)
        gram = basis @ basis.T
        assert np.abs(gram - np.eye(5)).max() <= 1e-10
        assert np.abs(C @ basis.T).max() <= 1e-10

    def test_zero_matrix(self):
        rank, basis = null_space_complete_pivot(np.zeros((2, 4)))
        assert rank == 0
        assert basis.shape == (4, 4)


class TestDeformationSystem:
    def test_shape(self):
        assert deformation_system(S1, DIRAC1).shape == (4, 6)

    def test_gamma_size_mismatch(self):
        with pytest.raises(ValueError):
            deformation_system(S1, GammaWeights(((1.0, 1.0),) * 2))

    @staticmethod
    def written_out_n1(spec, g):
        """C at n = 1 from its two equation families, p = 0, i = 1, 2, on
        dU/dx_i^{(m)} at column 2m + i - 1:

          rho w^-1 a^+ dU/dx_i' - eps_ij rho w^0 a^- dU/dx_j'' = 0
          rho w^-1 a^+ dU/dx_i - rho w a^+ dU/dx_i'' - eps_ij rho w^0 a^- dU/dx_j' = 0

        (the m = 0 even term of the first family is dropped at p = 0).
        With rho_0 = 1 the moment sums are S_e^{+-} = w^e a^{+-}."""
        w = spec.omegas[0]
        ap, am = float(g.alpha_plus[0]), float(g.alpha_minus[0])
        rows = []
        for i, j, eps_ij in ((1, 2, 1.0), (2, 1, -1.0)):
            row = np.zeros(6)
            row[2 + i - 1] = ap / w
            row[4 + j - 1] = -eps_ij * am
            rows.append(row)
        for i, j, eps_ij in ((1, 2, 1.0), (2, 1, -1.0)):
            row = np.zeros(6)
            row[i - 1] = ap / w
            row[4 + i - 1] = -w * ap
            row[2 + j - 1] = -eps_ij * am
            rows.append(row)
        return rows

    def test_rows_match_written_out_n1(self):
        # C is sliced from alt_structure; this is the independent check of
        # its values: each row is one written-out row up to sign
        rng = np.random.default_rng(23)
        cases = [(S1, DIRAC1), (S1, GammaWeights(((1.0, 1.0),)))]
        for _ in range(10):
            spec = random_spectrum(rng, 1)
            cases.append((spec, random_gamma(rng, spec)))
        for spec, g in cases:
            assert spec.table.rho == (1.0,)
            expected = self.written_out_n1(spec, g)
            C = deformation_system(spec, g)
            matched = []
            for row in C:
                hits = [k for k, e in enumerate(expected) for sign in (1.0, -1.0)
                        if np.allclose(row, sign * e, rtol=1e-15, atol=0.0)]
                assert len(hits) == 1, (row, expected)
                matched += hits
            assert sorted(matched) == [0, 1, 2, 3]

    def test_dirac_n1_null_space_is_positions(self):
        # gamma = (1, -1): a^+ = 0, a^- = 1, and the invariants are the
        # bare positions, in the stated basis w_a = x_a
        v1, v2, _ = invariant_directions(S1, DIRAC1)
        e = np.eye(6)
        assert np.abs(v1 - e[0]).max() <= 1e-15
        assert np.abs(v2 - e[1]).max() <= 1e-15

    @pytest.mark.parametrize("n", range(1, 4))
    def test_rank_and_residuals(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(5):
            spec = random_spectrum(rng, n)
            g = random_gamma(rng, spec)
            C = deformation_system(spec, g)
            assert null_space_complete_pivot(C)[0] == 4 * n
            v1, v2, _ = invariant_directions(spec, g)
            scale = np.abs(C).max()
            assert np.abs(C @ v1).max() <= 1e-9 * scale
            assert np.abs(C @ v2).max() <= 1e-9 * scale
            assert abs(float(v1 @ v2)) <= 1e-10

    def test_flat_gamma_keeps_rank(self):
        # a^- = 0 kills the eps-type columns but the system still has
        # rank 4n; the invariants collapse to x_i + ddx_i / w^2
        flat = GammaWeights(((1.0, 1.0),))
        assert null_space_complete_pivot(deformation_system(S1, flat))[0] == 4
        v1, v2, _ = invariant_directions(S1, flat)
        span = np.vstack([v1, v2])
        for i in (1, 2):
            v = closed_form_direction_n1(S1, flat, i)
            proj = span.T @ (span @ v)
            assert np.abs(v - proj).max() <= 1e-10

    def test_closed_form_spans_null_space_n1(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            spec = random_spectrum(rng, 1)
            g = random_gamma(rng, spec)
            C = deformation_system(spec, g)
            scale = np.abs(C).max()
            span = np.vstack(invariant_directions(spec, g)[:2])
            for i in (1, 2):
                v = closed_form_direction_n1(spec, g, i)
                assert np.abs(C @ v).max() <= 1e-9 * scale * max(
                    1.0, np.abs(v).max())
                # v lies in the span of the computed basis
                proj = span.T @ (span @ v)
                assert np.abs(v - proj).max() <= 1e-9 * max(1.0, np.abs(v).max())

    def test_closed_form_requires_n1(self):
        spec = FrequencySpectrum((1.0, 2.0))
        g = GammaWeights(((1.0, -1.0), (1.0, -1.0)))
        with pytest.raises(ValueError):
            closed_form_direction_n1(spec, g, 1)


def rotate(v):
    """R v for R: x_1^(s) -> x_2^(s), x_2^(s) -> -x_1^(s)."""
    out = np.empty_like(v)
    out[0::2], out[1::2] = -v[1::2], v[0::2]
    return out


def seed0_cases(n):
    """verify's ten seed-0 draws at this n, then the degenerate flat
    weights gamma = (1, 1) and (2, 2) on the first drawn spectrum."""
    rng = np.random.default_rng(0)
    cases = []
    for _ in range(10):
        spec = random_spectrum(rng, n)
        cases.append((spec, random_gamma(rng, spec)))
    spec = cases[0][0]
    cases += [(spec, GammaWeights(((w, w),) * n)) for w in (1.0, 2.0)]
    return cases


def assert_exact_plane(spec, flat):
    """v1 within 16 eps and b within 32 eps relative of the exact plane."""
    v1, v2, b = invariant_directions(spec, GammaWeights.from_flat(flat))
    exact_v1, _, (_, exact_b) = exact_invariant_plane(exact_alt_structure(spec.omegas, flat))
    eps = np.finfo(float).eps
    assert np.abs(v1 - np.array([float(x) for x in exact_v1])).max() <= 16 * eps
    assert abs(b - float(exact_b)) <= 32 * eps * abs(float(exact_b))
    assert v2.tobytes() == rotate(v1).tobytes()


class TestInvariantDirections:
    """The closed-form null space: no rank decision, one stated basis."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_seed0_draws_and_flat_weights(self, n):
        for spec, g in seed0_cases(n):
            C = deformation_system(spec, g)
            v1, v2, _ = invariant_directions(spec, g)
            for v in (v1, v2):
                assert np.abs(C @ v).max() <= 1e-13 * np.abs(C).max()
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
            assert abs(float(v1 @ v2)) <= 1e-15
            assert v2.tobytes() == rotate(v1).tobytes()
            # position parts: x_1 only in v1, x_2 only in v2
            assert abs(v1[1]) <= 1e-15 and v1[0] > 0.0
            if n <= 3:
                # the pivot oracle's own error grows with cond(C); on these
                # draws it stays below 1e-13
                rank, basis = null_space_complete_pivot(C)
                assert rank == 4 * n
                assert _subspace_gap(basis, np.vstack([v1, v2])) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("pair", [(1e308, -1e308), (1e-9, -1e308), (-1e308, 1e-9),
                                      (1e308, 1e-9), (1.0, 1e160), (1e-9, 1e152)])
    def test_weights_near_the_float_range(self, n, pair):
        # gamma_2 - gamma_1 overflowed at +-1e308, and A_k itself at
        # (1e-9, -1e308), which left v1 and b nan; at (1, 1e160) and
        # (1e-9, 1e152) N_1 was finite but |N_1|^2 overflowed, which left
        # v1 = 0 and b = 0.  invariant_directions builds N_1 once, at a
        # power-of-2 scale chosen from gamma and t, and takes |N_1| at N_1's
        # own power of 2
        spec = FrequencySpectrum(tuple(np.linspace(0.7, 2.0, n)))
        assert_exact_plane(spec, list(pair) * n)

    def test_frequency_near_the_float_range(self):
        # 1 / w^2 = 1e160 puts |N_1|^2 past the float range although N_1 is
        # finite; a norm taken unscaled left v1 = 0
        assert_exact_plane(FrequencySpectrum((1e-80,)), [1.0, 2.0])

    def test_plane_past_the_float_range_refused(self):
        # rho_0 / w_0^2 is about 1e310 at w_0 = 1e-152: N_1 itself overflows,
        # which left v1 nan behind numpy warnings
        spec = FrequencySpectrum((1e-152, 1e-3))
        with pytest.raises(ValueError, match="float64 range"):
            invariant_directions(spec, GammaWeights.from_flat([1.0, 1.0000000002, 1.0, 2.0]))

    @pytest.mark.parametrize("w", [1e-12, 1e-8, 1e-6, 0.3, 1.0, 1e8])
    def test_positions_exact_at_unit_weights_n1(self, w):
        # at gamma = (1, -1) the invariants are w_a = x_a at every w, as
        # the README states; every entry is representable, so none rounds
        spec = FrequencySpectrum((w,))
        e1, e2 = np.eye(6)[:2]
        v1, v2, b = invariant_directions(spec, DIRAC1)
        assert v1.tobytes() == e1.tobytes()
        assert np.array_equal(v2, e2)
        assert b == 1.0


class TestPotentialSpec:
    def test_round_trip(self):
        pot = PotentialSpec(((4, 0, 0.05), (2, 2, 0.1), (0, 4, 0.05)))
        again = PotentialSpec.from_json_dict(
            {"degree": 4, "coeffs": [{"i": 4, "j": 0, "value": 0.05},
                                     {"i": 2, "j": 2, "value": 0.1},
                                     {"i": 0, "j": 4, "value": 0.05}]})
        assert again == pot
        assert again.degree == 4

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            PotentialSpec(((0, 0, 1.0),))
        with pytest.raises(ValueError):
            PotentialSpec(((9, 0, 1.0),))
        with pytest.raises(ValueError):
            PotentialSpec(())
        with pytest.raises(ValueError):
            PotentialSpec(((-1, 2, 1.0),))

    def test_declared_degree_checked(self):
        payload = {"degree": 3, "coeffs": [{"i": 2, "j": 0, "value": 1.0}]}
        with pytest.raises(ValueError):
            PotentialSpec.from_json_dict(payload)

    def test_value_and_grad(self):
        pot = PotentialSpec(((2, 0, 1.0), (1, 1, 2.0)))
        assert pot.value(3.0, 4.0) == pytest.approx(9.0 + 24.0)
        d1, d2 = pot.grad(3.0, 4.0)
        assert d1 == pytest.approx(2 * 3.0 + 2 * 4.0)
        assert d2 == pytest.approx(2 * 3.0)

    def test_overflow_gives_inf(self):
        # float ** overflows with an exception where float * gives inf
        pot = PotentialSpec(((8, 0, 1.0), (0, 8, 1.0)))
        assert pot.value(1e50, 1.0) == np.inf
        assert pot.grad(1e50, 1.0) == (np.inf, np.inf)

def generator_value(terms, w1, w2):
    """PotentialSpec.value as one generator sum over the terms."""
    try:
        return float(sum(v * w1 ** i * w2 ** j for i, j, v in terms))
    except OverflowError:
        return np.inf


def generator_grad(terms, w1, w2):
    """PotentialSpec.grad as one generator sum per component."""
    try:
        d1 = sum(v * i * w1 ** (i - 1) * w2 ** j for i, j, v in terms if i > 0)
        d2 = sum(v * j * w1 ** i * w2 ** (j - 1) for i, j, v in terms if j > 0)
    except OverflowError:
        return np.inf, np.inf
    return float(d1), float(d2)


class TestCompiledPotential:
    """The precompiled monomials give the generator formulas' bits."""

    W = (0.0, -0.0, 1.0, -1.0, 0.3, -2.5, 7.0, 1e-200, 1e60, -1e60, 1e200)

    @staticmethod
    def random_terms(rng):
        terms = []
        for _ in range(int(rng.integers(1, 7))):
            i = int(rng.integers(0, 5))
            j = int(rng.integers(0 if i else 1, 9 - i))
            terms.append((i, j, float(rng.choice([-1.0, 1.0]) * rng.lognormal(0.0, 2.0))))
        if rng.random() < 0.5:
            terms.append(terms[0])      # a repeated monomial
        return tuple(terms)

    @staticmethod
    def assert_same(got, want):
        assert type(got) is float and repr(got) == repr(want), (got, want)

    @pytest.mark.parametrize("seed", range(12))
    def test_value_and_grad_match_generator_sums(self, seed):
        rng = np.random.default_rng(seed)
        pot = PotentialSpec(self.random_terms(rng))
        ws = list(self.W) + rng.normal(0.0, 3.0, 6).tolist()
        for w1 in ws:
            for w2 in ws:
                self.assert_same(pot.value(w1, w2), generator_value(pot.terms, w1, w2))
                got, want = pot.grad(w1, w2), generator_grad(pot.terms, w1, w2)
                assert len(got) == 2
                for g, w in zip(got, want):
                    self.assert_same(g, w)

    @pytest.mark.parametrize("terms, w1, w2, value, grad", [
        # a power past the float range raises inside ** and gives inf
        (((8, 0, 1.0), (0, 8, 1.0)), 1e50, 1.0, np.inf, (np.inf, np.inf)),
        (((1, 3, 2.0),), 0.5, 1e120, np.inf, (np.inf, np.inf)),
        # sums start from an int 0, so a -0.0 monomial sums to 0.0, and a
        # component with no monomials is 0.0
        (((4, 0, 0.05),), -0.0, 2.0, 0.0, (0.0, 0.0)),
        (((0, 3, -1.0),), 5.0, 0.0, 0.0, (0.0, 0.0)),
    ])
    def test_edge_cases(self, terms, w1, w2, value, grad):
        pot = PotentialSpec(terms)
        self.assert_same(pot.value(w1, w2), generator_value(terms, w1, w2))
        self.assert_same(pot.value(w1, w2), float(value))
        for got, old, want in zip(pot.grad(w1, w2), generator_grad(terms, w1, w2), grad):
            self.assert_same(got, old)
            self.assert_same(got, float(want))


class TestDeformedFlow:
    QUARTIC = PotentialSpec(((4, 0, 0.05), (2, 2, 0.1), (0, 4, 0.05)))

    def test_chain_equations_survive(self):
        # lower jet rows of the deformed field stay du_s/dt = u_{s+1}
        rng = np.random.default_rng(21)
        spec = random_spectrum(rng, 2)
        g = random_gamma(rng, spec)
        field, _, _ = deformed_field(spec, g, self.QUARTIC)
        for _ in range(10):
            u = rng.uniform(-0.5, 0.5, size=spec.jet_dim)
            du = field(u)
            for s in range(2 * spec.n):
                for i in (1, 2):
                    assert du[2 * s + i - 1] == u[2 * (s + 1) + i - 1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_lower_rows_copy_the_jet(self, n):
        # the model's chain equations are exact, so the lower 4n rows are
        # u[2:] bit for bit, with and without a potential, at every n
        rng = np.random.default_rng(40 + n)
        for _ in range(4):
            spec = random_spectrum(rng, n)
            g = random_gamma(rng, spec)
            for potential in (None, self.QUARTIC):
                field, _, _ = deformed_field(spec, g, potential)
                for u in rng.uniform(-1, 1, size=(4, spec.jet_dim)):
                    u[2] = -0.0
                    assert field(u)[:-2].tobytes() == u[2:].tobytes()

    @pytest.mark.parametrize("n", range(1, 9))
    def test_force_matches_exact_top_rows(self, n):
        # U = w1 has grad U = (1, 0), so at u = 0 the top rows of the field
        # read (a, b) = (0, b), the top entries of Omega_alt v1, held with
        # v1 against their values from the exact structure and null vector;
        # one draw from n = 6 on, where the exact null vector takes 0.4 s
        # (n = 6) to 2 s (n = 8)
        rng = np.random.default_rng(60 + n)
        eps = np.finfo(float).eps
        for _ in range(3 if n < 6 else 1):
            spec = random_spectrum(rng, n)
            g = random_gamma(rng, spec)
            field, v1, _ = deformed_field(spec, g, PotentialSpec(((1, 0, 1.0),)))
            top = field(np.zeros(spec.jet_dim))[-2:]
            exact_v1, _, exact = exact_invariant_plane(
                exact_alt_structure(spec.omegas, np.ravel(g.gamma).tolist()))
            exact = np.array([float(x) for x in exact])
            assert np.abs(top - exact).max() <= 32 * eps * np.abs(exact).max()
            assert np.abs(v1 - np.array([float(x) for x in exact_v1])).max() <= 16 * eps

    def test_energy_conserved_under_rk4(self):
        spec = S1
        g = GammaWeights(((1.0, -1.0),))
        field, v1, v2 = deformed_field(spec, g, self.QUARTIC)
        total = deformed_energy(spec, g, self.QUARTIC, v1, v2)
        st = PhaseState(0.4 * np.array([1.0, 0.5, -0.3, 0.8, 0.2, -0.6]))
        e0 = total(st.u)["Htot"]
        u = RK4Flow(field, st).grid_states(np.linspace(0.0, 5.0, 5001))[-1]
        assert abs(total(u)["Htot"] - e0) <= 1e-8 * (1 + abs(e0))

    def test_no_potential_is_linear_field(self, monkeypatch):
        # the linear field is the companion matrix, in its two parts; it
        # needs no null space, so none is built
        import oddpu.deformation as deformation

        def refuse(*_):
            raise AssertionError("null space built")

        monkeypatch.setattr(deformation, "invariant_directions", refuse)
        rng = np.random.default_rng(3)
        spec = random_spectrum(rng, 2)
        g = random_gamma(rng, spec)
        field, v1, v2 = deformed_field(spec, g, None)
        assert v1 is None and v2 is None
        u = rng.uniform(-1, 1, size=spec.jet_dim)
        u[2] = -0.0
        du = field(u)
        assert du[:-2].tobytes() == u[2:].tobytes()
        assert du[-2:].tobytes() == (companion_matrix(spec)[-2:] @ u).tobytes()

    def test_field_returns_a_fresh_array(self):
        for potential in (None, self.QUARTIC):
            field, _, _ = deformed_field(S1, DIRAC1, potential)
            u = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.25])
            first = field(u)
            assert field(u) is not first
            assert not np.shares_memory(first, u)

    def test_potential_observable_rows_match_single_states(self):
        v1, v2, _ = invariant_directions(S1, DIRAC1)
        energy = deformed_energy(S1, DIRAC1, self.QUARTIC, v1, v2)
        states = np.random.default_rng(4).uniform(-1, 1, size=(20, 6))
        values = energy(states)["U"]
        assert values.shape == (20,)
        for u, value in zip(states, values):
            assert value == energy(u)["U"]
            assert value == self.QUARTIC.value(float(v1 @ u), float(v2 @ u))

    def test_energy_without_potential(self):
        # U is 0 on every row, and Htot is Hcal + 0.0 bit for bit
        energy = deformed_energy(S1, DIRAC1, None, None, None)
        states = np.random.default_rng(5).uniform(-1, 1, size=(20, 6))
        states[0] = 0.0
        columns = energy(states)
        assert columns["U"].tobytes() == np.zeros(20).tobytes()
        assert columns["Htot"].tobytes() == (columns["Hcal"] + 0.0).tobytes()
        assert energy(states[3]) == {"Hcal": columns["Hcal"][3], "U": 0.0,
                                     "Htot": columns["Htot"][3]}

    def test_zero_potential_limit(self):
        # tiny coefficients: flow matches the linear one to first order
        small = PotentialSpec(((2, 0, 1e-12),))
        field, _, _ = deformed_field(S1, DIRAC1, small)
        M = companion_matrix(S1)
        u = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.25])
        assert np.abs(field(u) - M @ u).max() <= 1e-11

    def test_degenerate_gamma_still_integrates(self):
        # degenerate structure matrices are constructed, not refused; the
        # deformed flow remains well defined and conserves the total energy
        g = GammaWeights(((2.0, 2.0),))
        field, v1, v2 = deformed_field(S1, g, self.QUARTIC)
        total = deformed_energy(S1, g, self.QUARTIC, v1, v2)
        st = PhaseState(0.3 * np.array([1.0, 0.5, -0.3, 0.8, 0.2, -0.6]))
        e0 = total(st.u)["Htot"]
        u = RK4Flow(field, st).grid_states(np.linspace(0.0, 2.0, 2001))[-1]
        assert abs(total(u)["Htot"] - e0) <= 1e-8 * (1 + abs(e0))
