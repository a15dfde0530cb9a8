"""Habit dynamics: the Euler step and the Bernoulli closed form.

The closed form is validated against an independent oracle: explicit
Euler integration of dH = eta (C - H) dt at dt = 1e-4 along a smooth
deterministic density path, where the only coupling is the consumption
rule itself.  On such a path the closed form's single error source is
trapezoid quadrature, so coarse-grid agreement to ~1e-4 relative is the
expected behaviour, not luck.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedyhabit.habit
import greedyhabit.market
from greedyhabit import (
    GompertzParams,
    HabitParams,
    MarketParams,
    ModelParams,
    TimeGrid,
    consumption_no_pension,
    generate_paths,
    habit_closed_form,
    habit_euler_step,
    solve_paths,
)
from greedyhabit.habit import bernoulli_kernel
from greedyhabit.market import log_survival_probability


def median_zeta(market, times):
    """Deterministic density path (the pathwise median of zeta_t)."""
    return np.exp(-(market.r + 0.5 * market.kappa**2) * times)


def fine_euler_habit(market, mortality, habit, alpha, t_end, dt_fine):
    """Independent oracle: integrate the habit ODE at a tiny step."""
    n = round(t_end / dt_fine)
    times = np.arange(n + 1) * dt_fine
    zeta = median_zeta(market, times)
    h = np.empty(n + 1)
    h[0] = habit.initial
    for k in range(n):
        c = consumption_no_pension(
            h[k], zeta[k], times[k], alpha, market, mortality
        )
        h[k + 1] = habit_euler_step(h[k], c, dt_fine, habit.eta)
    return times, h


class TestEulerStep:
    def test_exact_arithmetic(self):
        assert habit_euler_step(1.0, 2.0, 0.05, 0.1) == pytest.approx(1.005)

    def test_eta_zero_freezes(self):
        assert habit_euler_step(1.3, 99.0, 0.05, 0.0) == 1.3

    def test_vectorized(self):
        h = np.array([1.0, 2.0])
        c = np.array([2.0, 1.0])
        out = habit_euler_step(h, c, 0.1, 0.5)
        assert np.allclose(out, [1.05, 1.95])

    def test_validation(self):
        with pytest.raises(ValueError):
            habit_euler_step(1.0, 1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            habit_euler_step(1.0, 1.0, 0.05, -0.1)
        with pytest.raises(ValueError):
            habit_euler_step(1.0, 1.0, 2.0, 0.6)
        with pytest.raises(ValueError, match="dt"):
            habit_euler_step(1.0, 1.0, math.nan, 0.1)
        with pytest.raises(ValueError, match="eta"):
            habit_euler_step(1.0, 1.0, 0.05, math.nan)

    @pytest.mark.parametrize(
        "h, c, dt, eta, name",
        [
            (1.0, 1.0, math.inf, 0.0, "dt"),
            (math.nan, 1.0, 0.05, 0.1, "habit h"),
            (math.inf, 1.0, 0.05, 0.1, "habit h"),
            (0.0, 1.0, 0.05, 0.1, "habit h"),
            (np.array([1.0, math.nan]), 1.0, 0.05, 0.1, "habit h"),
            (1.0, math.inf, 0.05, 0.1, "consumption c"),
            (1.0, math.nan, 0.05, 0.1, "consumption c"),
            (1.0, -0.5, 0.05, 0.1, "consumption c"),
        ],
    )
    def test_bad_state_is_rejected(self, h, c, dt, eta, name):
        # unchecked, each comes back as a NaN, inf or non-positive habit
        with pytest.raises(ValueError, match=f"^{name} must be [^[]*$"):
            habit_euler_step(h, c, dt, eta)

    def test_zero_consumption_is_valid(self):
        # the pension-0 tail of an exhausted lifetime consumes nothing
        assert habit_euler_step(1.0, 0.0, 0.05, 0.1) == pytest.approx(0.995)

    @given(
        h=st.floats(0.01, 100.0),
        c=st.floats(0.01, 100.0),
        eta=st.floats(0.0, 5.0),
        dt=st.floats(1e-4, 0.15),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotone_tracking(self, h, c, eta, dt):
        # one step moves the habit toward consumption and never past it
        if eta * dt >= 1.0:
            return
        h1 = habit_euler_step(h, c, dt, eta)
        assert abs(h1 - c) <= abs(h - c) + 1e-12
        assert min(h, c) - 1e-12 <= h1 <= max(h, c) + 1e-12


class TestBernoulliKernel:
    def setup_method(self):
        self.market = MarketParams()
        self.mortality = GompertzParams()
        self.habit = HabitParams(eta=0.5, initial=1.0)
        self.times = np.linspace(0.0, 10.0, 201)
        self.zeta = median_zeta(self.market, self.times)

    def test_kernel_starts_at_zero_and_increases(self):
        kernel, decay = bernoulli_kernel(
            self.habit, self.market, self.mortality, self.times, self.zeta
        )
        assert kernel[0] == 0.0
        assert np.all(np.diff(kernel) > 0.0)
        assert decay[0] == 1.0
        assert np.all(decay <= 1.0) and np.all(decay > 0.0)

    def test_kernel_shape_follows_zeta(self):
        zeta2d = np.vstack([self.zeta, 2.0 * self.zeta])
        kernel, decay = bernoulli_kernel(
            self.habit, self.market, self.mortality, self.times, zeta2d
        )
        assert kernel.shape == zeta2d.shape
        assert decay.shape == self.times.shape

    @pytest.mark.parametrize("gamma", [0.5, 3.0, 7.0])
    @pytest.mark.parametrize("t0", [0.0, 10.0])
    @pytest.mark.parametrize("n_times", [2, 201])
    def test_matches_scipy_cumulative_trapezoid(
        self, monkeypatch, gamma, t0, n_times
    ):
        # scipy is the reference only: the package computes K in numpy
        from scipy.integrate import cumulative_trapezoid

        market = MarketParams(gamma=gamma)
        times = t0 + np.linspace(0.0, 10.0, n_times)
        rng = np.random.default_rng(3)
        noise = rng.normal(scale=0.2, size=(5, n_times)).cumsum(axis=-1)
        zeta2d = median_zeta(market, times - t0) * np.exp(noise)
        drift = (
            self.habit.eta * (times - t0)
            - market.rho * times
            + log_survival_probability(self.mortality, times)
        ) / gamma
        integrand = np.exp(drift - np.log(zeta2d) / gamma)
        expected = cumulative_trapezoid(integrand, times, axis=-1, initial=0.0)
        # a row block of 2 splits the 5 rows unevenly
        monkeypatch.setattr(greedyhabit.market, "ROW_BLOCK", 2)
        for zeta, want in ((zeta2d, expected), (zeta2d[1], expected[1])):
            kernel, _ = bernoulli_kernel(
                self.habit, market, self.mortality, times, zeta
            )
            assert np.array_equal(kernel, want)


class TestClosedForm:
    def setup_method(self):
        self.market = MarketParams()
        self.mortality = GompertzParams()

    def test_eta_zero_is_constant(self):
        habit = HabitParams(eta=0.0, initial=1.7)
        times = np.linspace(0.0, 20.0, 101)
        zeta = median_zeta(self.market, times)
        h = habit_closed_form(
            habit, self.market, self.mortality, 3.0, times, zeta
        )
        assert np.allclose(h, 1.7, rtol=1e-14)

    def test_matches_fine_euler_oracle(self):
        habit = HabitParams(eta=0.5, initial=1.0)
        alpha = 3.0
        t_end = 5.0
        fine_times, fine_h = fine_euler_habit(
            self.market, self.mortality, habit, alpha, t_end, dt_fine=1e-4
        )
        coarse_times = np.arange(0.0, t_end + 1e-12, 0.05)
        zeta = median_zeta(self.market, coarse_times)
        h = habit_closed_form(
            habit, self.market, self.mortality, alpha, coarse_times, zeta
        )
        # align: every coarse time sits on the fine grid
        idx = np.round(coarse_times / 1e-4).astype(int)
        rel = np.abs(h - fine_h[idx]) / fine_h[idx]
        assert rel.max() < 1e-3, f"max relative gap {rel.max():.2e}"

    def test_h_start_override(self):
        habit = HabitParams(eta=0.3, initial=1.0)
        times = np.linspace(2.0, 6.0, 81)
        zeta = median_zeta(self.market, times)
        h = habit_closed_form(
            habit, self.market, self.mortality, 2.0, times, zeta,
            h_start=4.0,
        )
        assert h[0] == pytest.approx(4.0, rel=1e-14)

    def test_h_start_broadcasts_per_path(self):
        habit = HabitParams(eta=0.3, initial=1.0)
        times = np.linspace(0.0, 4.0, 81)
        zeta = np.vstack([median_zeta(self.market, times)] * 3)
        starts = np.array([0.5, 1.0, 2.0])
        h = habit_closed_form(
            habit, self.market, self.mortality, 2.0, times, zeta,
            h_start=starts,
        )
        assert h.shape == zeta.shape
        assert np.allclose(h[:, 0], starts, rtol=1e-14)

    def test_habit_rises_when_consumption_is_high(self):
        # a tiny alpha means lavish consumption, which drags the habit up
        habit = HabitParams(eta=0.5, initial=1.0)
        times = np.linspace(0.0, 10.0, 201)
        zeta = median_zeta(self.market, times)
        h = habit_closed_form(
            habit, self.market, self.mortality, 1e-3, times, zeta
        )
        assert np.all(np.diff(h) > 0.0)

    @pytest.mark.parametrize("gamma", [0.5, 3.0])
    def test_equals_the_solver_closed_form(self, gamma):
        # the solver's closed-form habit (solve_paths at pension 0)
        # evaluates the same formula on the same kernel, so the two must
        # agree bit for bit
        market = dataclasses.replace(self.market, gamma=gamma)
        habit = HabitParams(eta=0.1, initial=1.3)
        params = ModelParams(market=market, mortality=self.mortality, habit=habit)
        bundle = generate_paths(market, TimeGrid(20.0, 0.1), 16, seed=5)
        _, solved = solve_paths(2.5, params, bundle)
        h = habit_closed_form(
            habit, market, self.mortality, 2.5, bundle.grid.times(), bundle.zeta
        )
        assert np.array_equal(h, solved)

    @pytest.mark.parametrize("gamma", [2.5, 3.0])
    def test_frozen_habit_needs_no_kernel(self, monkeypatch, gamma):
        # at eta = 0 the decay is exactly 1 and the kernel's term exactly
        # 0, so the habit is the full expression bit for bit without the
        # kernel; solve_paths' habit and consumption are pinned to it
        market = dataclasses.replace(self.market, gamma=gamma)
        habit = HabitParams(eta=0.0, initial=1.3)
        params = ModelParams(market=market, mortality=self.mortality, habit=habit)
        bundle = generate_paths(market, TimeGrid(20.0, 0.1), 16, seed=5, antithetic=True)
        times, zeta, alpha, g = bundle.grid.times(), bundle.zeta, 2.5, gamma
        kernel, decay = bernoulli_kernel(habit, market, self.mortality, times, zeta)
        starts = np.linspace(0.5, 2.0, 16)

        def with_kernel(h0):
            u = h0 ** (1.0 / g) + (habit.eta / g) * alpha ** (-1.0 / g) * kernel
            return (decay * u) ** g

        def no_kernel(*args):
            raise AssertionError("the kernel is built at eta = 0")

        monkeypatch.setattr(greedyhabit.habit, "bernoulli_kernel", no_kernel)
        c, h = solve_paths(alpha, params, bundle)
        assert np.array_equal(h, with_kernel(np.asarray(1.3)))
        assert np.array_equal(
            c, consumption_no_pension(h, zeta, times, alpha, market, self.mortality)
        )
        per_path = habit_closed_form(
            habit, market, self.mortality, alpha, times, zeta, h_start=starts
        )
        assert np.array_equal(per_path, with_kernel(starts[:, None]))

    def test_validation(self):
        habit = HabitParams(eta=0.5, initial=1.0)
        times = np.linspace(0.0, 1.0, 11)
        zeta = np.ones_like(times)
        with pytest.raises(ValueError):
            habit_closed_form(
                habit, self.market, self.mortality, 0.0, times, zeta
            )
        with pytest.raises(ValueError):
            habit_closed_form(
                habit, self.market, self.mortality, 1.0, times, zeta,
                h_start=-1.0,
            )
        with pytest.raises(ValueError, match="alpha"):
            habit_closed_form(
                habit, self.market, self.mortality, math.nan, times, zeta
            )
        with pytest.raises(ValueError, match="start habit"):
            habit_closed_form(
                habit, self.market, self.mortality, 1.0, times, zeta,
                h_start=math.nan,
            )

    @pytest.mark.parametrize(
        "alpha, h_start, name",
        [
            (math.inf, None, "alpha"),
            (1.0, math.inf, "start habit"),
            (1.0, np.array([1.0, math.inf]), "start habit"),
        ],
    )
    def test_infinite_input_is_rejected(self, alpha, h_start, name):
        # unchecked, alpha = inf gives a decaying habit and h_start = inf an
        # infinite one
        habit = HabitParams(eta=0.5, initial=1.0)
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            habit_closed_form(
                habit, self.market, self.mortality, alpha, times,
                np.ones((2, 11)), h_start=h_start,
            )
