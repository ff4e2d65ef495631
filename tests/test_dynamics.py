"""Companion matrix, exact modal propagation, and the RK4 stepper."""

import dataclasses
import inspect
import pickle
import tracemalloc

import numpy as np
import pytest

from oddpu import (FrequencySpectrum, IntegrationError, ModalSolution,
                   PhaseState, companion_matrix, elementary_sigma,
                   PotentialSpec, RK4Flow, canonical, rk4_step, trajectory, verify)
from oddpu.canonical import energy_observable, mode_integrals, oscillator_sums
from oddpu.deformation import deformed_field
from oddpu.dynamics import J2, ROW_BLOCK, _basis_derivatives, block_view, require_finite
from oddpu.poisson import GammaWeights
from oddpu.verify import random_spectrum

from conftest import exact_modal_amplitudes, jet_index


def random_state(rng, spec, scale=1.0):
    return PhaseState(rng.uniform(-scale, scale, size=spec.jet_dim))


def zero_until_t2(slope):
    """A field that is zero for the four stages of the step over [0, 2] on
    the grid [0, 2, 3], and ``slope`` from the step that starts at t = 2."""
    calls = []
    return lambda u: np.zeros(6) if calls.append(1) or len(calls) <= 4 else slope


class TestPhaseState:
    def test_state_is_its_jet_vector(self):
        # the system is invariant under time translations: no clock is kept
        st = PhaseState(np.arange(6.0))
        assert [f.name for f in dataclasses.fields(st)] == ["u"]
        assert not hasattr(ModalSolution(FrequencySpectrum((1.0,)), st), "t0")

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
        assert st.u[jet_index(4, 1)] == 8.0 and st.u[jet_index(0, 2)] == 1.0


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
        # a fit to eval(a), evaluated at b, is eval(a + b): forward, and
        # back to the start
        rng = np.random.default_rng(70 + n)
        spec = random_spectrum(rng, n)
        st = random_state(rng, spec)
        sol = ModalSolution(spec, st)
        tol = 1e-9 * max(1.0, np.abs(st.u).max())
        for a, b in ((3.7, 1.9), (3.7, -3.7)):
            composed = ModalSolution(spec, sol.eval(a)).eval(b)
            assert np.abs(composed.u - sol.eval(a + b).u).max() <= tol
        assert np.abs(sol.eval(0.0).u - st.u).max() <= tol

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
        states = sol.grid_states(grid)
        assert states.shape == (300, spec.jet_dim)
        assert np.array_equal(states[0], sol.state.u)
        assert np.array_equal(states[1:], np.array([sol.eval(t).u for t in grid[1:]]))

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
        for t, u in zip(grid, sol.derivatives(grid, smax).reshape(len(grid), -1)):
            B = np.zeros((smax + 1, 2 * n + 1))
            B[0, 0] = 1.0
            for k, w in enumerate(spec.omegas):
                c, s = np.cos(w * t), np.sin(w * t)
                for d in range(smax + 1):
                    B[d, 2 * k + 1] = w ** d * (c, -s, -c, s)[d % 4]
                    B[d, 2 * k + 2] = w ** d * (s, c, -s, -c)[d % 4]
            assert np.array_equal(u, (B @ sol.amps).reshape(-1))

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("rows", [1, 11, 12801])
    def test_basis_matches_per_order_loop(self, n, rows):
        # one column assignment per mode, derivative order and family, with
        # the Python power w ** d, as the basis was built before it was
        # vectorized over the modes and orders; each entry is the same
        # product, at every frequency scale
        rng = np.random.default_rng(400 + n)
        omegas = random_spectrum(rng, n).omegas
        taus = np.arange(rows) / 128.0
        smax = 2 * n
        for scale in (0.1, 1.0, 1000.0):
            spec = FrequencySpectrum(tuple(scale * w for w in omegas))
            B = np.zeros((rows, smax + 1, 2 * n + 1))
            B[:, 0, 0] = 1.0
            for k, w in enumerate(spec.omegas):
                c, s = np.cos(w * taus), np.sin(w * taus)
                for d in range(smax + 1):
                    B[:, d, 2 * k + 1] = w ** d * (c, -s, -c, s)[d % 4]
                    B[:, d, 2 * k + 2] = w ** d * (s, c, -s, -c)[d % 4]
            assert np.array_equal(_basis_derivatives(spec, taus, smax), B)

    @pytest.mark.parametrize("n", [1, 2, 8])
    @pytest.mark.parametrize("rows", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1,
                                      2 * ROW_BLOCK + 3])
    def test_row_blocks_equal_per_time_states(self, n, rows):
        # derivatives evaluates in blocks of ROW_BLOCK times; every row, on
        # either side of a block edge, has the bits of its own evaluation
        rng = np.random.default_rng(600 + n)
        spec = random_spectrum(rng, n)
        sol = ModalSolution(spec, PhaseState(rng.uniform(-1, 1, size=spec.jet_dim)))
        grid = 0.37 + np.arange(rows) / 64.0
        per_time = np.array([sol.derivatives(t, 2 * n) for t in grid])
        assert np.array_equal(sol.derivatives(grid, 2 * n), per_time)

    def test_states_memory_is_about_the_result(self):
        # the basis is held one row block at a time, so a long grid costs
        # about its output; holding it whole took 9.7 times the result here
        spec = FrequencySpectrum(tuple(np.linspace(1.0, 3.0, 8)))
        sol = ModalSolution(spec, PhaseState(np.linspace(-0.5, 0.5, spec.jet_dim)))
        grid = np.arange(100_001) / 128.0
        tracemalloc.start()
        try:
            out = sol.grid_states(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 12, 14])
    def test_amplitudes_match_exact_fit(self, n):
        # an exact rational solve of the t = 0 fit is the oracle; on these
        # draws a float solve of that confluent-Vandermonde system missed it
        # by 9e-12 relative at n = 8 and 3e-4 at n = 14
        rng = np.random.default_rng(500 + n)
        spectra = [FrequencySpectrum(tuple(np.linspace(1.0, 3.0, n)))]
        spectra += [random_spectrum(rng, n) for _ in range(2)]
        for spec in spectra:
            st = random_state(rng, spec)
            exact = np.array(exact_modal_amplitudes(spec.omegas, st.u.tolist()), dtype=float)
            amps = ModalSolution(spec, st).amps
            assert np.abs(amps - exact).max() <= 1e-13 * np.abs(exact).max()

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

    @pytest.mark.parametrize("omegas, state, grid, row", [
        # w t overflows from the tenth grid time, 9e307, on
        ((2.0,), [0, 0, 1, 0, 0, 0], np.arange(18) * 1e307, 9),
        # the mode-0 amplitude, about 1e310, overflows in the fit
        ((1e-152, 1e-3), [0] * 9 + [1], [0.0, 0.5, 1.0], 1),
    ])
    def test_nonfinite_state_names_first_time(self, omegas, state, grid, row):
        spec = FrequencySpectrum(omegas)
        st = PhaseState(np.array(state, dtype=float))
        with pytest.raises(IntegrationError) as err:
            ModalSolution(spec, st).grid_states(grid)
        assert err.value.t == grid[row]
        assert "non-finite state at t=%g" % grid[row] in str(err.value)


class TestRequireFinite:
    def test_finite_rows_returned_as_given(self):
        rows = np.arange(6.0).reshape(3, 2)
        assert require_finite(rows, [0.0, 0.5, 1.0]) is rows
        assert require_finite(rows, [0.0, 0.5, 1.0], ["a", "b"]) is rows

    @pytest.mark.parametrize("names, message", [
        (None, "non-finite state at t=0.5"),
        # row 1 is bad in columns b and c; row 2 in a: the first bad row
        # is named at its leftmost bad column
        (["a", "b", "c"], "non-finite observable b at t=0.5"),
    ])
    def test_first_bad_row_leftmost_column(self, names, message):
        rows = np.array([[1.0, 2.0, 3.0], [1.0, np.inf, np.nan], [-np.inf, 0.0, 0.0]])
        with pytest.raises(IntegrationError, match="^%s$" % message) as err:
            require_finite(rows, np.array([0.0, 0.5, 1.0]), names)
        assert err.value.t == 0.5 and type(err.value.t) is float


class TestIntegrationError:
    @pytest.mark.parametrize("t", [0.5, None])
    def test_pickle_keeps_message_and_time(self, t):
        # ``deform``'s worker sends its IntegrationError pickled; t travels
        # in the instance dict, which BaseException's own reduce carries
        err = pickle.loads(pickle.dumps(IntegrationError("non-finite state at t=0.5", t=t)))
        assert type(err) is IntegrationError
        assert (str(err), err.t) == ("non-finite state at t=0.5", t)


class TestRK4:
    def test_zero_field(self):
        st = PhaseState(np.arange(6.0))
        out = rk4_step(lambda u: np.zeros(6), st, 0.1)
        assert np.array_equal(out.u, st.u)

    @pytest.mark.parametrize("h", [0.1, 1 / 3, 2.5])
    def test_step_is_one_flow_step(self, h):
        # rk4_step is RK4Flow over the grid [0, h], bit for bit
        field = TestRK4Flow().field()
        st = PhaseState(np.array([0.4, 0.2, -0.12, 0.32, 0.08, -0.24]))
        flow = RK4Flow(field, st).grid_states([0.0, h])
        assert rk4_step(field, st, h).u.tobytes() == flow[-1].tobytes()

    def test_single_step_matches_exact(self):
        spec = FrequencySpectrum((1.0,))
        M = companion_matrix(spec)
        st = PhaseState(np.array([0, 0, 1.0, 0, 0, 0]))
        stepped = rk4_step(lambda u: M @ u, st, 0.01)
        exact = ModalSolution(spec, st).eval(0.01)
        assert np.abs(stepped.u - exact.u).max() <= 1e-10

    def test_convergence_order(self):
        rng = np.random.default_rng(5)
        spec = random_spectrum(rng, 2)
        M = companion_matrix(spec)
        field = lambda u: M @ u
        st = random_state(rng, spec)
        exact = ModalSolution(spec, st).eval(1.0)
        errs = []
        for h in (0.02, 0.01, 0.005):
            grid = np.linspace(0.0, 1.0, round(1.0 / h) + 1)
            u = RK4Flow(field, st).grid_states(grid)[-1]
            errs.append(np.abs(u - exact.u).max())
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.8

    def test_nonfinite_field_raises_with_time(self):
        def bad(u):
            return np.full(6, np.inf)

        # a step starts at t = 0, which the error reports
        with pytest.raises(IntegrationError, match="^non-finite vector field near t=0$") as err:
            rk4_step(bad, PhaseState(np.zeros(6)), 0.1)
        assert err.value.t == 0.0

    def test_nonfinite_update_raises_with_time(self):
        # finite slopes whose weighted sum overflows in the update of the
        # grid interval that starts at t = 2
        flow = RK4Flow(zero_until_t2(np.full(6, 1e308)), PhaseState(np.zeros(6)))
        with pytest.raises(IntegrationError) as err:
            flow.grid_states([0.0, 2.0, 3.0])
        assert err.value.t == 2.0
        assert "state" in str(err.value)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_finite_state_whose_sum_overflows(self, sign):
        # the cheap sum test reads inf here; the entries are finite
        st = PhaseState(np.full(10, sign * 1e308))
        out = rk4_step(lambda u: np.zeros(10), st, 0.1)
        assert np.array_equal(out.u, st.u)

    @pytest.mark.parametrize("slope, message", [
        (np.array([0.0, 0.0, np.nan, 0.0, 0.0, 0.0]), "non-finite vector field near t=2"),
        (np.array([0.0, -np.inf, 0.0, 0.0, 0.0, 0.0]), "non-finite vector field near t=2"),
        (np.array([1e308, -1e308, 0.0, 0.0, 0.0, 0.0]), "non-finite state after the step near t=2"),
    ])
    def test_nonfinite_messages(self, slope, message):
        with pytest.raises(IntegrationError) as err:
            RK4Flow(zero_until_t2(slope), PhaseState(np.zeros(6))).grid_states([0.0, 2.0, 3.0])
        assert str(err.value) == message
        assert err.value.t == 2.0

    def test_nonpositive_step(self):
        # the grid [0, h] must strictly increase
        for h in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="^time grid must be strictly increasing$"):
                rk4_step(lambda u: u, PhaseState(np.zeros(6)), h)


class TestRK4Flow:
    QUARTIC = PotentialSpec(((4, 0, 0.05), (2, 2, 0.1), (0, 4, 0.05)))
    GRID = np.array([0.0, 0.25, 0.3, 0.7, 0.75, 1.0])

    def field(self):
        field, _, _ = deformed_field(FrequencySpectrum((1.0,)), GammaWeights(((1.0, -1.0),)),
                                     self.QUARTIC)
        return field

    def test_grid_matches_step_loop(self):
        # each grid interval is one rk4_step of its width
        field = self.field()
        st = PhaseState(2.0 * np.array([0.4, 0.2, -0.12, 0.32, 0.08, -0.24]))
        table = trajectory(RK4Flow(field, st), self.GRID)
        rows = [st.u]
        current = st
        for t0, t1 in zip(self.GRID[:-1], self.GRID[1:]):
            current = rk4_step(field, current, t1 - t0)
            rows.append(current.u)
        assert table.states.tobytes() == np.array(rows).tobytes()

    @pytest.mark.parametrize("field, what", [
        # from zero at unit slope every entry of u is about t: the slopes
        # turn infinite once u[0] passes 0.6
        (lambda u: np.full(6, np.inf if u[0] > 0.6 else 1.0), "vector field"),
        # finite slopes whose update overflows once u[0] passes 0.6
        (lambda u: np.full(6, 1e308 if u[0] > 0.6 else 1.0), "state after the step"),
    ])
    def test_nonfinite_inside_grid(self, field, what):
        with pytest.raises(IntegrationError) as err:
            trajectory(RK4Flow(field, PhaseState(np.zeros(6))), self.GRID)
        assert what in str(err.value)
        assert "t=" in str(err.value)
        # the step over [0.3, 0.7] is the first with a stage past 0.6:
        # an infinite slope fails it; a 1e308 slope leaves its update finite
        # and overflows the next step's
        assert err.value.t == {"vector field": 0.3, "state after the step": 0.7}[what]

    def test_one_step_per_interval(self):
        # the intervals of a long grid are not all exactly 0.005 in floating
        # point; each still takes one step of four field calls
        calls = []

        def field(u):
            calls.append(1)
            return -u

        RK4Flow(field, PhaseState(np.ones(6))).grid_states(np.arange(20001) * 0.005)
        assert len(calls) == 4 * 20000

    @pytest.mark.parametrize("grid", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
    def test_non_increasing_grid_rejected_before_stepping(self, grid):
        calls = []

        def field(u):
            calls.append(1)
            return np.zeros(6)

        with pytest.raises(ValueError):
            trajectory(RK4Flow(field, PhaseState(np.zeros(6))), grid)
        assert calls == []


class TestGridBlocks:
    STATE = PhaseState(np.array([0.4, 0.2, -0.12, 0.32, 0.08, -0.24]))

    @pytest.mark.parametrize("rows", [1, 7, 1024])
    def test_blocks_concatenate_to_grid_states(self, rows):
        field = TestRK4Flow().field()
        grid = np.arange(2050) * 0.01
        blocks = list(RK4Flow(field, self.STATE).grid_blocks(grid, rows))
        assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= rows
        whole = RK4Flow(field, self.STATE).grid_states(grid)
        assert np.concatenate(blocks).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("rows", [1, 7, 1024])
    def test_blow_up_raises_at_the_time_of_grid_states(self, rows):
        # finite slopes whose update overflows once u[0] passes 0.6: the
        # step from grid row 60 to row 61
        def field(u):
            return np.full(6, 1e308 if u[0] > 0.6 else 1.0)

        grid = np.arange(2000) * 0.01
        with pytest.raises(IntegrationError) as whole:
            RK4Flow(field, PhaseState(np.zeros(6))).grid_states(grid)
        received = []
        with pytest.raises(IntegrationError) as blocked:
            for block in RK4Flow(field, PhaseState(np.zeros(6))).grid_blocks(grid, rows):
                received.append(block)
        assert (str(blocked.value), blocked.value.t) == (str(whole.value), whole.value.t)
        assert whole.value.t == grid[60]
        # every block before the one of row 61 arrives whole
        assert sum(map(len, received)) == 61 // rows * rows

    def test_grid_checked_before_the_first_block(self):
        calls = []
        with pytest.raises(ValueError, match="^time grid must be strictly increasing$"):
            RK4Flow(lambda u: calls.append(1) or u, self.STATE).grid_blocks([0.0, 2.0, 1.0], 7)
        assert calls == []


class TestGridStates:
    # each flow holds its start state, and one grid check runs before any
    # evaluation or field call
    STATE = PhaseState(np.array([0.4, 0.2, -0.12, 0.32, 0.08, -0.24]))
    START = "^grid must start at 0$"
    INCREASING = "^time grid must be strictly increasing$"

    def modal(self):
        sol = ModalSolution(FrequencySpectrum((1.0,)), self.STATE)
        calls = []
        derivatives = sol.derivatives
        sol.derivatives = lambda *args: calls.append(1) or derivatives(*args)
        return sol, calls

    def rk4(self):
        calls = []
        M = companion_matrix(FrequencySpectrum((1.0,)))
        return RK4Flow(lambda u: calls.append(1) or M @ u, self.STATE), calls

    @pytest.mark.parametrize("grid, message", [
        ([1.0, 2.0], START), ([], START), ([np.nan], START), ([1e-11, 1.0], START),
        ([0.0, 1.0, 1.0], INCREASING), ([0.0, 1.0, np.nan], INCREASING),
    ])
    def test_modal_refuses_before_evaluating(self, grid, message):
        sol, calls = self.modal()
        with pytest.raises(ValueError, match=message):
            sol.grid_states(grid)
        assert calls == []

    @pytest.mark.parametrize("grid, message", [
        ([0.0, 2.0, 1.0], INCREASING), ([1.0, 2.0], START), ([0.0, -1.0, 0.5], INCREASING),
    ])
    def test_rk4_refuses_before_first_field_call(self, grid, message):
        flow, calls = self.rk4()
        with pytest.raises(ValueError, match=message):
            flow.grid_states(grid)
        assert calls == []

    @pytest.mark.parametrize("start", [0.0, 1e-13, -1e-13])
    def test_start_state_is_row_zero(self, start):
        # a first time within 1e-12 of 0 is the start
        for make in (self.modal, self.rk4):
            flow, calls = make()
            states = flow.grid_states([start, 0.5, 1.0])
            assert calls
            assert states[0].tobytes() == self.STATE.u.tobytes()

    def test_flows_take_no_state_per_grid(self):
        for flow in (ModalSolution, RK4Flow):
            assert list(inspect.signature(flow.grid_states).parameters) == ["self", "grid"]
        assert not hasattr(ModalSolution, "states")

    def test_trajectory_is_the_grid_states_table(self):
        grid = [0, 0.25, 1]
        for make in (self.modal, self.rk4):
            flow, _ = make()
            table = trajectory(flow, grid)
            assert table.times.dtype == float and table.times.tolist() == grid
            assert table.states.tobytes() == flow.grid_states(grid).tobytes()


class TestTrajectory:
    def test_empty_grid(self):
        # an empty grid has no start state to hold
        spec = FrequencySpectrum((1.0,))
        st = PhaseState(np.zeros(6))
        with pytest.raises(ValueError, match="^grid must start at 0$"):
            trajectory(ModalSolution(spec, st), [])

    def test_single_point_grid(self):
        spec = FrequencySpectrum((1.0,))
        st = PhaseState(np.arange(6.0) / 10)
        table = trajectory(ModalSolution(spec, st), [0.0])
        assert np.allclose(table.states[0], st.u)

    def test_grid_must_start_at_zero(self):
        # every flow starts from its state at t = 0, for either kind of flow
        spec = FrequencySpectrum((1.0,))
        st = PhaseState(np.zeros(6))
        for flow in (ModalSolution(spec, st), RK4Flow(lambda u: companion_matrix(spec) @ u, st)):
            for grid in ([1.0, 2.0], [-0.5, 0.0, 1.0]):
                with pytest.raises(ValueError, match="^grid must start at 0$"):
                    trajectory(flow, grid)

    def test_energy_conserved_on_long_grid(self):
        rng = np.random.default_rng(9)
        spec = FrequencySpectrum((1.0,))
        st = random_state(rng, spec)
        H = energy_observable(spec)
        grid = np.linspace(0, 100, 500)
        table = trajectory(ModalSolution(spec, st), grid)
        col = oscillator_sums(spec, H, table.states)
        assert np.abs(col - col[0]).max() <= 1e-9 * (1 + abs(col[0]))

    def test_energy_drift_at_n10(self):
        # at n = 10 the jet-space form u.A.u/2 drifted by 1.8e-3 (1 + |H(0)|)
        # here, mostly cancellation in evaluating H, not state error
        spec = FrequencySpectrum(tuple(np.linspace(1.0, 3.0, 10)))
        st = PhaseState(np.linspace(-0.5, 0.5, 42))
        grid = np.arange(1001) * 0.1
        table = trajectory(ModalSolution(spec, st), grid)
        col = oscillator_sums(spec, energy_observable(spec), table.states)
        assert np.abs(col - col[0]).max() <= 1e-4 * (1 + abs(col[0]))

    def test_modal_flow_matches_stepwise_calls(self):
        rng = np.random.default_rng(11)
        spec = random_spectrum(rng, 3)
        st = random_state(rng, spec)
        flow = ModalSolution(spec, st)
        grid = np.linspace(0, 20, 101)
        table = trajectory(flow, grid)
        assert np.array_equal(table.states[0], st.u)
        for t, u in zip(grid[1:], table.states[1:]):
            assert np.array_equal(u, flow.eval(t).u)

    def test_decreasing_grid_rejected(self):
        spec = FrequencySpectrum((1.0,))
        st = PhaseState(np.zeros(6))
        with pytest.raises(ValueError):
            trajectory(ModalSolution(spec, st), [0.0, 2.0, 1.0])

    def test_nonfinite_observable_names_column_and_time(self):
        # finite states whose quadratic forms overflow from t = 0: the
        # table holds the states, and their columns are the caller's to check
        spec = FrequencySpectrum((1.0,))
        st = PhaseState(np.array([0, 0, 1e160, 0, 0, 0]))
        table = trajectory(ModalSolution(spec, st), [0.0, 0.5])
        assert np.isfinite(table.states).all()
        names = ["J_%d_%d" % (k, i) for k in range(spec.n) for i in (1, 2)]
        with np.errstate(over="ignore", invalid="ignore"):
            values = oscillator_sums(spec, mode_integrals(spec), table.states)
        row, col = np.argwhere(~np.isfinite(values))[0]
        assert (names[col], table.times[row]) == ("J_0_1", 0.0)


class TestConservationCheck:
    def test_factored_columns_share_one_product(self, monkeypatch):
        # criterion 5 reads H, Hcal and every J_{k,i} off one oscillator_sums
        # call per draw, on the stack of their weights, and each column is
        # byte-equal to the single-weight call on the states
        calls = []          # (spec, D, states, values) per call
        oscillator_sums = canonical.oscillator_sums

        def recorded(spec, D, u):
            values = oscillator_sums(spec, D, u)
            calls.append((spec, D, u, values))
            return values

        monkeypatch.setattr(canonical, "oscillator_sums", recorded)
        verify.check_conservation(n_max=3, trials=2, seed=12)
        monkeypatch.undo()
        assert [spec.n for spec, *_ in calls] == [1, 1, 2, 2, 3, 3]
        for spec, D, states, values in calls:
            assert D.shape == (2 * spec.n + 2, spec.jet_dim)
            assert states.shape == (1000, spec.jet_dim)
            assert values.shape == (1000, 2 * spec.n + 2)
            for j, weights in enumerate(D):
                assert values[:, j].tobytes() == oscillator_sums(spec, weights, states).tobytes()
