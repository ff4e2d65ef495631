"""Companion matrix, exact modal propagation, and the RK4 stepper."""

import numpy as np
import pytest

from oddpu import (FrequencySpectrum, IntegrationError, ModalSolution,
                   PhaseState, companion_matrix, elementary_sigma,
                   PotentialSpec, RK4Flow, jet_index, rk4_step, trajectory)
from oddpu.canonical import alt_hamiltonian_observable, energy_observable, mode_integrals
from oddpu.deformation import deformed_field
from oddpu.dynamics import J2, _basis_derivatives, block_view
from oddpu.poisson import FactoredObservable, GammaWeights
from oddpu.verify import random_spectrum


def random_state(rng, spec, scale=1.0):
    return PhaseState(rng.uniform(-scale, scale, size=spec.jet_dim))


class TestPhaseState:
    def test_bad_length(self):
        with pytest.raises(ValueError):
            PhaseState(np.zeros(5))
        with pytest.raises(ValueError):
            PhaseState(np.zeros(8))

    def test_nonfinite(self):
        u = np.zeros(6)
        u[3] = np.nan
        with pytest.raises(ValueError):
            PhaseState(u)

    def test_component_layout(self):
        u = np.arange(10.0)
        st = PhaseState(u)
        assert st.n == 2
        assert list(st.component(1)) == [0, 2, 4, 6, 8]
        assert list(st.component(2)) == [1, 3, 5, 7, 9]


class TestBlockView:
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_block_holds_jet_entries(self, d):
        A = np.random.default_rng(d).standard_normal((2 * d, 2 * d))
        blocks = block_view(A)
        assert blocks.shape == (d, d, 2, 2)
        for s in range(d):
            for m in range(d):
                for i in (1, 2):
                    for j in (1, 2):
                        assert blocks[s, m, i - 1, j - 1] == A[jet_index(s, i), jet_index(m, j)]

    def test_write_lands_in_array(self):
        A = np.zeros((6, 6))
        block_view(A)[2, 1] = [[1.0, 2.0], [3.0, 4.0]]
        assert A[jet_index(2, 1), jet_index(1, 1)] == 1.0
        assert A[jet_index(2, 1), jet_index(1, 2)] == 2.0
        assert A[jet_index(2, 2), jet_index(1, 1)] == 3.0
        assert A[jet_index(2, 2), jet_index(1, 2)] == 4.0
        assert np.count_nonzero(A) == 4

    def test_j2_is_read_only_levi_civita(self):
        assert np.array_equal(J2, [[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(J2 @ J2, -np.eye(2))
        with pytest.raises(ValueError):
            J2[0, 1] = 2.0


class TestCompanionMatrix:
    def test_n1_third_order(self):
        # x''' = -w0^2 x' with w0 = 1
        M = companion_matrix(FrequencySpectrum((1.0,)))
        row = M[jet_index(2, 1)]
        expected = np.zeros(6)
        expected[jet_index(1, 1)] = -1.0
        assert np.array_equal(row, expected)

    def test_zero_maps_to_zero(self):
        M = companion_matrix(FrequencySpectrum((1.0, 2.0)))
        assert np.array_equal(M @ np.zeros(10), np.zeros(10))

    def test_n2_top_row_coefficients(self):
        M = companion_matrix(FrequencySpectrum((1.0, 2.0)))
        row = M[jet_index(4, 1)]
        assert row[jet_index(1, 1)] == pytest.approx(-4.0)
        assert row[jet_index(3, 1)] == pytest.approx(-5.0)
        assert np.count_nonzero(row) == 2

    @pytest.mark.parametrize("n", range(1, 5))
    def test_characteristic_matrix_identity(self, n):
        # sum_k sigma_k M^{2k+1} = 0
        rng = np.random.default_rng(60 + n)
        spec = random_spectrum(rng, n)
        M = companion_matrix(spec)
        M2 = M @ M
        acc = np.zeros_like(M)
        power = M.copy()
        scales = []
        for k in range(n + 1):
            term = elementary_sigma(spec, k) * power
            scales.append(np.abs(term).max())
            acc += term
            power = power @ M2
        assert np.abs(acc).max() <= 1e-8 * max(scales)


class TestExactPropagate:
    def test_constant_solution(self):
        spec = FrequencySpectrum((1.0,))
        st = PhaseState(np.array([1.0, 0, 0, 0, 0, 0]))
        out = ModalSolution(spec, st).eval(10.0)
        assert np.allclose(out.u, st.u, atol=1e-12)
        assert out.t == pytest.approx(10.0)

    def test_sine_solution(self):
        # x_1(t) = sin t solves the third-order equation at w0 = 1
        spec = FrequencySpectrum((1.0,))
        st = PhaseState(np.array([0, 0, 1.0, 0, 0, 0]))
        out = ModalSolution(spec, st).eval(np.pi / 2)
        assert np.allclose(out.u, [1, 0, 0, 0, -1, 0], atol=1e-12)

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(3)
        spec = random_spectrum(rng, 3)
        st = random_state(rng, spec)
        out = ModalSolution(spec, st).eval(0.0)
        assert np.allclose(out.u, st.u, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_group_property(self, n):
        rng = np.random.default_rng(70 + n)
        spec = random_spectrum(rng, n)
        st = random_state(rng, spec)
        fwd = ModalSolution(spec, st).eval(3.7)
        back = ModalSolution(spec, fwd).eval(0.0)
        assert np.abs(back.u - st.u).max() <= 1e-9 * max(1.0, np.abs(st.u).max())

    @pytest.mark.parametrize("n", range(1, 5))
    def test_satisfies_eom(self, n):
        rng = np.random.default_rng(80 + n)
        spec = random_spectrum(rng, n)
        sol = ModalSolution(spec, random_state(rng, spec))
        for t in rng.uniform(0, 30, size=5):
            stacks = sol.derivatives(t, 2 * n + 1)
            for i in (0, 1):
                terms = [elementary_sigma(spec, k) * stacks[2 * k + 1, i]
                         for k in range(n + 1)]
                assert abs(sum(terms)) <= 1e-8 * max(abs(v) for v in terms)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_states_equal_stacked_eval(self, n):
        rng = np.random.default_rng(90 + n)
        spec = random_spectrum(rng, n)
        sol = ModalSolution(spec, random_state(rng, spec))
        grid = np.arange(300) * 0.37
        states = sol.states(grid)
        assert states.shape == (300, spec.jet_dim)
        assert np.array_equal(states, np.array([sol.eval(t).u for t in grid]))

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_states_match_per_time_reference(self, n):
        # the basis built one time at a time, with scalar cos/sin and one
        # (2n+1) x (2n+1) product per time, as evaluation worked before it
        # was batched; the arithmetic is unchanged, so equality is exact
        rng = np.random.default_rng(95 + n)
        spec = random_spectrum(rng, n)
        sol = ModalSolution(spec, random_state(rng, spec))
        grid = np.arange(200) * 0.61
        smax = 2 * n
        for t, u in zip(grid, sol.states(grid)):
            B = np.zeros((smax + 1, 2 * n + 1))
            B[0, 0] = 1.0
            for k, w in enumerate(spec.omegas):
                c, s = np.cos(w * (t - sol.t0)), np.sin(w * (t - sol.t0))
                for d in range(smax + 1):
                    B[d, 2 * k + 1] = w ** d * (c, -s, -c, s)[d % 4]
                    B[d, 2 * k + 2] = w ** d * (s, c, -s, -c)[d % 4]
            assert np.array_equal(u, (B @ sol.amps).reshape(-1))

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("rows", [1, 11, 12801])
    def test_basis_matches_per_order_loop(self, n, rows):
        # one column assignment per derivative order and family, with the
        # Python power w ** d, as the basis was built before it was
        # vectorized over the order; each entry is the same product
        rng = np.random.default_rng(400 + n)
        spec = random_spectrum(rng, n)
        taus = np.arange(rows) / 128.0
        smax = 2 * n
        B = np.zeros((rows, smax + 1, 2 * n + 1))
        B[:, 0, 0] = 1.0
        for k, w in enumerate(spec.omegas):
            c, s = np.cos(w * taus), np.sin(w * taus)
            for d in range(smax + 1):
                B[:, d, 2 * k + 1] = w ** d * (c, -s, -c, s)[d % 4]
                B[:, d, 2 * k + 2] = w ** d * (s, c, -s, -c)[d % 4]
        assert np.array_equal(_basis_derivatives(spec, taus, smax), B)

    def test_derivatives_shapes(self):
        spec = FrequencySpectrum((1.0, 2.0))
        sol = ModalSolution(spec, PhaseState(np.linspace(-0.5, 0.5, 10)))
        assert sol.derivatives(1.5, 5).shape == (6, 2)
        assert sol.derivatives(np.array([0.5, 1.5]), 5).shape == (2, 6, 2)
        assert np.array_equal(sol.derivatives(np.array([0.5, 1.5]), 5)[1],
                              sol.derivatives(1.5, 5))

    def test_dimension_mismatch(self):
        spec = FrequencySpectrum((1.0, 2.0))
        with pytest.raises(ValueError):
            ModalSolution(spec, PhaseState(np.zeros(6)))


class TestRK4:
    def test_zero_field(self):
        st = PhaseState(np.arange(6.0))
        out = rk4_step(lambda t, u: np.zeros(6), st, 0.1)
        assert np.array_equal(out.u, st.u)
        assert out.t == pytest.approx(0.1)

    def test_single_step_matches_exact(self):
        spec = FrequencySpectrum((1.0,))
        M = companion_matrix(spec)
        st = PhaseState(np.array([0, 0, 1.0, 0, 0, 0]))
        stepped = rk4_step(lambda t, u: M @ u, st, 0.01)
        exact = ModalSolution(spec, st).eval(0.01)
        assert np.abs(stepped.u - exact.u).max() <= 1e-10

    def test_convergence_order(self):
        rng = np.random.default_rng(5)
        spec = random_spectrum(rng, 2)
        M = companion_matrix(spec)
        field = lambda t, u: M @ u
        st = random_state(rng, spec)
        exact = ModalSolution(spec, st).eval(1.0)
        errs = []
        for h in (0.02, 0.01, 0.005):
            u = RK4Flow(field, h).grid_states(st, [st.t, 1.0])[-1]
            errs.append(np.abs(u - exact.u).max())
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.8

    def test_nonfinite_field_raises_with_time(self):
        def bad(t, u):
            return np.full(6, np.inf)

        with pytest.raises(IntegrationError) as err:
            rk4_step(bad, PhaseState(np.zeros(6)), 0.1)
        assert err.value.t is not None

    def test_nonfinite_update_raises_with_time(self):
        # finite slopes whose weighted sum overflows in the update
        with pytest.raises(IntegrationError) as err:
            rk4_step(lambda t, u: np.full(6, 1e308), PhaseState(np.zeros(6), 2.0), 1.0)
        assert err.value.t == 2.0
        assert "state" in str(err.value)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_finite_state_whose_sum_overflows(self, sign):
        # the cheap sum test reads inf here; the entries are finite
        st = PhaseState(np.full(10, sign * 1e308))
        out = rk4_step(lambda t, u: np.zeros(10), st, 0.1)
        assert np.array_equal(out.u, st.u)

    @pytest.mark.parametrize("slope, message", [
        (np.array([0.0, 0.0, np.nan, 0.0, 0.0, 0.0]), "non-finite vector field near t=2"),
        (np.array([0.0, -np.inf, 0.0, 0.0, 0.0, 0.0]), "non-finite vector field near t=2"),
        (np.array([1e308, -1e308, 0.0, 0.0, 0.0, 0.0]), "non-finite state after the step near t=2"),
    ])
    def test_nonfinite_messages(self, slope, message):
        with pytest.raises(IntegrationError) as err:
            rk4_step(lambda t, u: slope, PhaseState(np.zeros(6), 2.0), 1.0)
        assert str(err.value) == message
        assert err.value.t == 2.0

    def test_nonpositive_step(self):
        for h in (0.0, float("nan")):
            with pytest.raises(ValueError, match="^step size must be positive$"):
                rk4_step(lambda t, u: u, PhaseState(np.zeros(6)), h)
            with pytest.raises(ValueError, match="^step size must be positive$"):
                RK4Flow(lambda t, u: u, h)


class TestRK4Flow:
    QUARTIC = PotentialSpec(((4, 0, 0.05), (2, 2, 0.1), (0, 4, 0.05)))
    # intervals of 3, 1, 4, 1 and 3 steps at h = 0.1
    GRID = np.array([0.0, 0.25, 0.3, 0.7, 0.75, 1.0])

    def field(self):
        field, _, _ = deformed_field(FrequencySpectrum((1.0,)), GammaWeights(((1.0, -1.0),)),
                                     self.QUARTIC)
        return field

    def test_grid_matches_step_loop(self):
        deformed = self.field()

        def field(t, u):
            # a time-dependent forcing, so the stage times count too
            return deformed(t, u) + 0.1 * np.sin(t)

        st = PhaseState(2.0 * np.array([0.4, 0.2, -0.12, 0.32, 0.08, -0.24]))
        table = trajectory(RK4Flow(field, 0.1), st, self.GRID)
        rows = [st.u]
        current = st
        for t in self.GRID[1:]:
            span = t - current.t
            steps = max(1, int(np.ceil(span / 0.1 - 1e-12)))
            for _ in range(steps):
                current = rk4_step(field, current, span / steps)
            current = PhaseState(current.u, t)
            rows.append(current.u)
        assert table.states.tobytes() == np.array(rows).tobytes()

    @pytest.mark.parametrize("field, what", [
        # the slopes turn infinite once t passes 0.5
        (lambda t, u: np.full(6, np.inf if t > 0.5 else 1.0), "vector field"),
        # finite slopes whose update overflows once t passes 0.5
        (lambda t, u: np.full(6, 1e308 if t > 0.5 else 1.0), "state after the step"),
    ])
    def test_nonfinite_inside_grid(self, field, what):
        with pytest.raises(IntegrationError) as err:
            trajectory(RK4Flow(field, 0.1), PhaseState(np.zeros(6)), self.GRID)
        assert what in str(err.value)
        assert "t=" in str(err.value)
        # the step that starts near t = 0.5, inside the fourth interval
        assert 0.45 < err.value.t < 0.75

    @pytest.mark.parametrize("grid", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    def test_non_increasing_grid_rejected_before_stepping(self, grid):
        calls = []

        def field(t, u):
            calls.append(t)
            return np.zeros(6)

        with pytest.raises(ValueError):
            trajectory(RK4Flow(field, 0.1), PhaseState(np.zeros(6)), grid)
        assert calls == []


class TestTrajectory:
    def test_empty_grid(self):
        spec = FrequencySpectrum((1.0,))
        st = PhaseState(np.zeros(6))
        table = trajectory(ModalSolution(spec, st), st, [])
        assert table.times.size == 0
        assert table.states.shape == (0, 6)

    def test_single_point_grid(self):
        spec = FrequencySpectrum((1.0,))
        st = PhaseState(np.arange(6.0) / 10)
        table = trajectory(ModalSolution(spec, st), st, [0.0])
        assert np.allclose(table.states[0], st.u)

    def test_grid_must_start_at_state_time(self):
        spec = FrequencySpectrum((1.0,))
        st = PhaseState(np.zeros(6))
        with pytest.raises(ValueError):
            trajectory(ModalSolution(spec, st), st, [1.0, 2.0])

    def test_energy_conserved_on_long_grid(self):
        rng = np.random.default_rng(9)
        spec = FrequencySpectrum((1.0,))
        st = random_state(rng, spec)
        H = energy_observable(spec)
        grid = np.linspace(0, 100, 500)
        table = trajectory(ModalSolution(spec, st), st, grid, [("H", H)])
        col = table.observable_values[:, 0]
        assert np.abs(col - col[0]).max() <= 1e-9 * (1 + abs(col[0]))

    def test_factored_columns_share_one_product(self, monkeypatch):
        # H, Hcal and every J_{k,i} read T u from one product per grid, and
        # each column equals the observable's own value on the states
        rng = np.random.default_rng(12)
        spec = random_spectrum(rng, 3)
        st = random_state(rng, spec)
        g = GammaWeights(((1.5, -0.7), (-1.2, 0.9), (0.6, 1.1)))
        observables = ([("H", energy_observable(spec)),
                        ("Hcal", alt_hamiltonian_observable(spec, g))]
                       + [("J_%d_%d" % ki, obs) for ki, obs in mode_integrals(spec)])
        calls = []
        original = FactoredObservable.coordinates

        def counted(self, u):
            calls.append(np.shape(u))
            return original(self, u)

        monkeypatch.setattr(FactoredObservable, "coordinates", counted)
        table = trajectory(ModalSolution(spec, st), st, np.linspace(0, 5, 51), observables)
        assert calls == [(51, spec.jet_dim)]
        monkeypatch.undo()
        for col, (_, obs) in enumerate(observables):
            assert np.array_equal(table.observable_values[:, col], obs.value(table.states))

    def test_energy_drift_at_n10(self):
        # at n = 10 the jet-space form u.A.u/2 drifted by 1.8e-3 (1 + |H(0)|)
        # here, mostly cancellation in evaluating H, not state error
        spec = FrequencySpectrum(tuple(np.linspace(1.0, 3.0, 10)))
        st = PhaseState(np.linspace(-0.5, 0.5, 42))
        grid = np.arange(1001) * 0.1
        table = trajectory(ModalSolution(spec, st), st, grid, [("H", energy_observable(spec))])
        col = table.observable_values[:, 0]
        assert np.abs(col - col[0]).max() <= 1e-4 * (1 + abs(col[0]))

    def test_modal_flow_matches_stepwise_calls(self):
        rng = np.random.default_rng(11)
        spec = random_spectrum(rng, 3)
        st = random_state(rng, spec)
        flow = ModalSolution(spec, st)
        grid = np.linspace(0, 20, 101)
        table = trajectory(flow, st, grid)
        assert np.array_equal(table.states[0], st.u)
        for t, u in zip(grid[1:], table.states[1:]):
            assert np.array_equal(u, flow.eval(t).u)

    def test_decreasing_grid_rejected(self):
        spec = FrequencySpectrum((1.0,))
        st = PhaseState(np.zeros(6))
        with pytest.raises(ValueError):
            trajectory(ModalSolution(spec, st), st, [0.0, 2.0, 1.0])

    def test_nonfinite_observable_names_column_and_time(self):
        # finite states whose quadratic forms overflow from t = 0
        spec = FrequencySpectrum((1.0,))
        st = PhaseState(np.array([0, 0, 1e160, 0, 0, 0]))
        observables = [("J_%d_%d" % ki, obs) for ki, obs in mode_integrals(spec)]
        with pytest.raises(IntegrationError) as err:
            trajectory(ModalSolution(spec, st), st, [0.0, 0.5], observables)
        assert "observable J_0_1 at t=0" in str(err.value)
        assert err.value.t == 0.0
