"""Tests for the explicit and implicit integration formulas."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.integrators import (
    AdamsBashforth,
    BackwardEuler,
    ForwardEuler,
    RungeKutta2,
    RungeKutta4,
    Trapezoidal,
    adams_bashforth_coefficients,
    make_integrator,
)
from repro.core.integrators import adams_bashforth
from repro.core.integrators.adams_bashforth import (
    _memoised_weights,
    _variable_step_weights,
)
from repro.core.kernels import _burst_weights


def integrate(integrator, func, x0, t_end, n_steps):
    """March a scalar/vector ODE with a constant step."""
    state = integrator.new_state()
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    t = 0.0
    h = t_end / n_steps
    for _ in range(n_steps):
        x = integrator.step(func, t, x, h, state)
        t += h
    return x


class TestForwardEuler:
    def test_exact_for_constant_derivative(self):
        fe = ForwardEuler()
        x = integrate(fe, lambda t, x: np.array([2.0]), [0.0], 1.0, 10)
        assert x[0] == pytest.approx(2.0)

    def test_rejects_non_positive_step(self):
        with pytest.raises(ValueError):
            ForwardEuler().step(lambda t, x: x, 0.0, np.array([1.0]), 0.0)

    def test_first_order_convergence(self):
        fe = ForwardEuler()
        func = lambda t, x: -x
        errors = []
        for n in (40, 80):
            x = integrate(fe, func, [1.0], 1.0, n)
            errors.append(abs(x[0] - math.exp(-1.0)))
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.2)


class TestAdamsBashforth:
    def test_classical_coefficients(self):
        assert adams_bashforth_coefficients(1) == (1.0,)
        assert adams_bashforth_coefficients(2) == (1.5, -0.5)
        assert adams_bashforth_coefficients(3)[0] == pytest.approx(23.0 / 12.0)
        with pytest.raises(ValueError):
            adams_bashforth_coefficients(6)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            AdamsBashforth(order=0)
        with pytest.raises(ValueError):
            AdamsBashforth(order=9)

    def test_variable_step_weights_reduce_to_classical_ab2(self):
        h = 0.01
        weights = _variable_step_weights([-h, 0.0], 0.0, h)
        # oldest sample first: classical AB2 is (-1/2, 3/2) * h
        assert weights[0] == pytest.approx(-0.5 * h)
        assert weights[1] == pytest.approx(1.5 * h)

    def test_variable_step_weights_reduce_to_classical_ab3(self):
        h = 0.02
        weights = _variable_step_weights([-2 * h, -h, 0.0], 0.0, h)
        assert weights[0] == pytest.approx(5.0 / 12.0 * h)
        assert weights[1] == pytest.approx(-16.0 / 12.0 * h)
        assert weights[2] == pytest.approx(23.0 / 12.0 * h)

    def test_first_step_uses_runge_kutta_starter(self):
        # for dx/dt = t the first AB step would be 0 (Forward Euler), while
        # the RK4 starter integrates it exactly to h^2/2
        ab = AdamsBashforth(order=3)
        state = ab.new_state()
        x = ab.step(lambda t, x: np.array([t]), 0.0, np.array([0.0]), 0.5, state)
        assert x[0] == pytest.approx(0.125)

    @pytest.mark.parametrize("order,expected_rate", [(2, 4.0), (3, 8.0)])
    def test_convergence_order(self, order, expected_rate):
        func = lambda t, x: -x
        errors = []
        for n in (50, 100):
            ab = AdamsBashforth(order=order)
            x = integrate(ab, func, [1.0], 1.0, n)
            errors.append(abs(x[0] - math.exp(-1.0)))
        assert errors[0] / errors[1] == pytest.approx(expected_rate, rel=0.35)

    def test_discontinuity_clears_history(self):
        ab = AdamsBashforth(order=3)
        state = ab.new_state()
        x = np.array([1.0])
        for i in range(3):
            x = ab.step(lambda t, x: -x, i * 0.1, x, 0.1, state)
        assert len(state) == 3
        ab.notify_discontinuity(state)
        assert len(state) == 0

    def test_without_state_behaves_as_forward_euler(self):
        ab = AdamsBashforth(order=3)
        x = ab.step(lambda t, x: np.array([2.0]), 0.0, np.array([0.0]), 0.25, None)
        assert x[0] == pytest.approx(0.5)

    def test_ab3_has_imaginary_axis_coverage(self):
        assert AdamsBashforth(order=3).stability_imag_extent > 0.0
        assert AdamsBashforth(order=2).stability_imag_extent == 0.0

    @given(
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.01, max_value=0.2),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_for_polynomial_derivatives(self, order, h):
        """AB of order p integrates dx/dt = t^(p-1) exactly.

        The RK4 starter is also exact for polynomial derivatives up to
        degree 3, so the whole march must reproduce the analytic integral to
        round-off for every order up to 4.
        """
        ab = AdamsBashforth(order=order)
        state = ab.new_state()
        power = order - 1
        func = lambda t, x: np.array([t**power])
        x = np.array([0.0])
        t = 0.0
        n_steps = order + 4
        for _ in range(n_steps):
            x = ab.step(func, t, x, h, state)
            t += h
        exact = t ** (power + 1) / (power + 1)
        assert abs(x[0] - exact) <= 1e-9 * max(1.0, abs(exact))


@st.composite
def burst_windows(draw):
    """A full AB history plus the burst that follows it, as the march
    builds them: times accumulate by ``t = t + h`` and the burst's last
    step may be clamped to an end time."""
    order = draw(st.integers(min_value=1, max_value=5))
    t = draw(st.floats(0.999, 1.001) | st.floats(0.0, 1e-3))
    base = draw(st.floats(1e-7, 1e-4))
    history_times = []
    for ratio in draw(st.lists(st.floats(0.2, 5.0), min_size=order, max_size=order)):
        history_times.append(t)
        t = t + base * ratio
    h_nominal = base * draw(st.floats(0.2, 5.0))
    n_steps = draw(st.integers(min_value=1, max_value=6))
    t_end = t + h_nominal * draw(st.floats(0.3, n_steps + 1.0))
    times, steps_h = [], []
    while len(times) < n_steps and t < t_end - 1e-15:
        h = min(h_nominal, t_end - t)
        times.append(t)
        steps_h.append(h)
        t = t + h
    assume(times)
    return order, history_times, times, steps_h


class TestWeightMemo:
    """The weight memo shared by single steps and numpy-kernel bursts."""

    @given(burst_windows())
    @settings(max_examples=200, deadline=None)
    def test_burst_rows_equal_single_step_weights(self, drawn):
        order, history_times, times, steps_h = drawn
        memo = {}
        rows = _burst_weights(times, steps_h, history_times, order, memo)
        all_times = history_times + times
        filled_by_steps = {}
        for j, (t_j, h_j) in enumerate(zip(times, steps_h)):
            window = all_times[j + 1 : j + 1 + order]
            fresh = _variable_step_weights(window, t_j, t_j + h_j)
            assert rows[j].tobytes() == fresh.tobytes(), j
            # a hit on the burst's entry returns the fresh solve's bits
            hit = _memoised_weights(memo, window, t_j, t_j + h_j)
            assert hit.tobytes() == fresh.tobytes(), j
            _memoised_weights(filled_by_steps, window, t_j, t_j + h_j)
        n_entries = len(memo)
        # a burst served wholly from either memo: same bits, no new solve
        assert _burst_weights(times, steps_h, history_times, order, memo).tobytes() == (
            rows.tobytes()
        )
        assert len(memo) == n_entries
        served = _burst_weights(times, steps_h, history_times, order, filled_by_steps)
        assert served.tobytes() == rows.tobytes()
        assert filled_by_steps.keys() == memo.keys()

    def test_memo_is_bounded_oldest_first(self, monkeypatch):
        monkeypatch.setattr(adams_bashforth, "WEIGHT_MEMO_LIMIT", 3)
        memo = {}
        oldest = [-1e-4 * (1 + i) for i in range(5)]
        for t_old in oldest:
            _memoised_weights(memo, [t_old, 0.0], 0.0, 1e-4)
        assert [key[0][0] for key in memo] == oldest[2:]

    def test_memo_lives_for_the_run(self):
        ab = AdamsBashforth(order=2)
        state = ab.new_state()
        x = np.array([1.0])
        for i in range(4):
            x = ab.step(lambda t, x: -x, i * 0.1, x, 0.1, state)
        assert len(state.weight_memo) >= 1
        memo = dict(state.weight_memo)
        # a discontinuity drops the history, not the pure step-pattern memo
        ab.notify_discontinuity(state)
        assert state.weight_memo == memo
        assert ab.new_state().weight_memo == {}


class TestRungeKutta:
    def test_rk2_convergence(self):
        func = lambda t, x: -x
        errors = []
        for n in (20, 40):
            x = integrate(RungeKutta2(), func, [1.0], 1.0, n)
            errors.append(abs(x[0] - math.exp(-1.0)))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.25)

    def test_rk4_high_accuracy(self):
        x = integrate(RungeKutta4(), lambda t, x: -x, [1.0], 1.0, 20)
        assert x[0] == pytest.approx(math.exp(-1.0), abs=1e-7)

    def test_rk4_oscillator(self):
        # harmonic oscillator x'' = -x integrated as a first-order system
        omega = 2.0 * math.pi

        def func(t, x):
            return np.array([x[1], -(omega**2) * x[0]])

        state = np.array([1.0, 0.0])
        rk = RungeKutta4()
        h = 1.0 / 200.0
        t = 0.0
        for _ in range(200):
            state = rk.step(func, t, state, h)
            t += h
        assert state[0] == pytest.approx(1.0, abs=1e-4)

    def test_step_rejects_non_positive(self):
        with pytest.raises(ValueError):
            RungeKutta4().step(lambda t, x: x, 0.0, np.array([1.0]), -0.1)


class TestImplicitFormulas:
    def test_backward_euler_residual(self):
        x_next = np.array([2.0])
        f_next = np.array([3.0])
        x_curr = np.array([1.0])
        f_curr = np.array([10.0])
        residual = BackwardEuler.residual(x_next, f_next, x_curr, f_curr, 0.5)
        assert residual[0] == pytest.approx(2.0 - 1.0 - 0.5 * 3.0)

    def test_trapezoidal_residual_mixes_both_derivatives(self):
        residual = Trapezoidal.residual(
            np.array([2.0]), np.array([4.0]), np.array([1.0]), np.array([2.0]), 0.5
        )
        assert residual[0] == pytest.approx(2.0 - 1.0 - 0.5 * 0.5 * (4.0 + 2.0))

    def test_jacobian_shape_and_value(self):
        df = np.array([[-2.0]])
        jac = BackwardEuler.jacobian(df, 0.1)
        assert jac[0, 0] == pytest.approx(1.2)
        assert Trapezoidal.jacobian(df, 0.1)[0, 0] == pytest.approx(1.1)

    def test_orders(self):
        assert BackwardEuler.order == 1
        assert Trapezoidal.order == 2


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("forward_euler", ForwardEuler),
            ("euler", ForwardEuler),
            ("adams_bashforth", AdamsBashforth),
            ("ab", AdamsBashforth),
            ("rk2", RungeKutta2),
            ("rk4", RungeKutta4),
            ("Adams-Bashforth", AdamsBashforth),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_integrator(name), cls)

    def test_order_keyword(self):
        assert make_integrator("ab", order=4).order == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_integrator("simpson")
