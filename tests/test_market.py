"""Market primitives: parameter validation, mortality law, grids, path bundles.

The state-price-density paths are the raw material of every Monte Carlo
estimate downstream, so this module pins down their statistical and
bitwise behaviour: exact lognormal moments, the pathwise recursion, and
reproducibility across worker counts and antithetic pairing.
"""

import math
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from greedyhabit import (
    GompertzParams,
    HabitParams,
    MarketParams,
    TimeGrid,
    generate_paths,
    survival_probability,
)
import greedyhabit.market
from greedyhabit.market import _in_threads


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (HabitParams, {"eta": math.nan}),
        (HabitParams, {"initial": math.nan}),
        (HabitParams, {"eta": math.inf}),
        (MarketParams, {"sigma": math.nan}),
        (MarketParams, {"gamma": math.nan}),
        (MarketParams, {"mu": math.nan}),
        (MarketParams, {"r": math.inf}),
        (GompertzParams, {"age": math.nan}),
        (GompertzParams, {"modal_age": math.nan}),
        (GompertzParams, {"dispersion": math.nan}),
        (TimeGrid, {"t_max": 60.0, "dt": math.nan}),
    ],
    ids=lambda v: (
        v.__name__
        if isinstance(v, type)
        else ",".join(f"{k}={x}" for k, x in v.items())
    ),
)
def test_non_finite_parameter_is_rejected_by_name(cls, kwargs):
    # a NaN passes every "<= 0" check and surfaces far downstream, e.g.
    # after a whole calibration; each parameter group rejects it up front
    field, value = list(kwargs.items())[-1]
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        cls(**kwargs)


class TestMarketParams:
    def test_default_kappa(self):
        assert MarketParams().kappa == pytest.approx(0.375, abs=1e-15)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            MarketParams(sigma=0.0)
        with pytest.raises(ValueError, match="sigma"):
            MarketParams(sigma=-0.1)

    def test_gamma_excludes_log_utility(self):
        with pytest.raises(ValueError, match="gamma"):
            MarketParams(gamma=1.0)
        with pytest.raises(ValueError, match="gamma"):
            MarketParams(gamma=0.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            MarketParams().mu = 0.1


class TestGompertz:
    def test_survival_at_zero_is_one(self, mortality):
        assert survival_probability(mortality, 0.0) == pytest.approx(1.0)

    def test_survival_decreasing(self, mortality):
        s = np.linspace(0.0, 60.0, 121)
        p = survival_probability(mortality, s)
        assert np.all(np.diff(p) < 0.0)

    def test_survival_reference_values(self, mortality):
        # independent scalar evaluation of exp(-exp((x-m)/b) * (exp(s/b) - 1))
        def direct(s):
            b, m, x = 9.5, 89.335, 65.0
            return math.exp(-math.exp((x - m) / b) * math.expm1(s / b))

        assert survival_probability(mortality, 10.0) == pytest.approx(
            direct(10.0), rel=1e-12
        )
        assert survival_probability(mortality, 10.0) == pytest.approx(
            0.8659225049976955, rel=1e-12
        )
        # far tail: essentially nobody reaches age 125
        assert survival_probability(mortality, 60.0) == pytest.approx(
            3.082694218803538e-19, rel=1e-9
        )

    def test_negative_horizon_rejected(self, mortality):
        with pytest.raises(ValueError):
            survival_probability(mortality, -1.0)
        for s in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="horizon"):
                survival_probability(mortality, s)

    def test_validation(self):
        with pytest.raises(ValueError):
            GompertzParams(dispersion=0.0)
        with pytest.raises(ValueError):
            GompertzParams(age=-1.0)

    @given(
        s=st.floats(0.0, 60.0),
        u=st.floats(0.0, 40.0),
        age=st.floats(30.0, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_survival_consistency(self, s, u, age):
        # surviving s+u years equals surviving s, then u more from age+s
        mort = GompertzParams(age=age)
        aged = GompertzParams(age=age + s)
        joint = survival_probability(mort, s + u)
        chained = survival_probability(mort, s) * survival_probability(aged, u)
        assert joint == pytest.approx(chained, rel=1e-10, abs=1e-300)


class TestTimeGrid:
    def test_times_shape_and_spacing(self):
        grid = TimeGrid(60.0, 0.05)
        t = grid.times()
        assert grid.n_steps == 1200
        assert t.shape == (1201,)
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(60.0, abs=1e-9)
        assert np.allclose(np.diff(t), 0.05)

    def test_index_of_on_grid(self):
        grid = TimeGrid(60.0, 0.05)
        assert grid.index_of(0.0) == 0
        assert grid.index_of(0.1) == 2
        assert grid.index_of(60.0) == 1200
        # float representation of k*dt must round-trip
        assert grid.index_of(grid.times()[777]) == 777

    def test_index_of_off_grid(self):
        grid = TimeGrid(60.0, 0.05)
        with pytest.raises(ValueError):
            grid.index_of(0.075)
        with pytest.raises(ValueError):
            grid.index_of(-0.05)
        with pytest.raises(ValueError):
            grid.index_of(60.05)
        # a non-finite time is off the grid by name, not a rounding error
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"t={t} does not lie on the grid"):
                grid.index_of(t)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(60.0, -0.05)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.3)


class TestGeneratePaths:
    def test_shapes_and_start(self, market):
        grid = TimeGrid(2.0, 0.1)
        bundle = generate_paths(market, grid, 16, seed=1)
        assert bundle.w.shape == (16, 21)
        assert bundle.zeta.shape == (16, 21)
        assert np.all(bundle.w[:, 0] == 0.0)
        assert np.all(bundle.zeta[:, 0] == 1.0)

    def test_deterministic(self, market):
        grid = TimeGrid(2.0, 0.1)
        a = generate_paths(market, grid, 32, seed=9)
        b = generate_paths(market, grid, 32, seed=9)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.zeta, b.zeta)

    def test_seed_changes_paths(self, market):
        grid = TimeGrid(2.0, 0.1)
        a = generate_paths(market, grid, 32, seed=9)
        b = generate_paths(market, grid, 32, seed=10)
        assert not np.array_equal(a.w, b.w)

    def test_path_count_extends(self, market):
        # first paths are unchanged when asking for more of them
        grid = TimeGrid(2.0, 0.1)
        a = generate_paths(market, grid, 16, seed=3)
        b = generate_paths(market, grid, 48, seed=3)
        assert np.array_equal(a.w, b.w[:16])

    def test_antithetic_mirror(self, market):
        grid = TimeGrid(2.0, 0.1)
        bundle = generate_paths(market, grid, 64, seed=5, antithetic=True)
        assert bundle.antithetic
        assert np.array_equal(bundle.w[32:], -bundle.w[:32])
        # each mirrored density row belongs to its own mirrored Brownian row
        kappa = market.kappa
        log_zeta = -(market.r + 0.5 * kappa**2) * grid.times() - kappa * bundle.w
        assert np.array_equal(bundle.zeta, np.exp(log_zeta))

    @pytest.mark.parametrize("mu", [0.08, 0.02, -0.04], ids=["up", "zero", "down"])
    def test_mirror_bits_at_any_sign_of_kappa(self, mu):
        # a mirror's log density is drift + kappa w, bit for bit the
        # drift - kappa (-w) of its negated Brownian row, at kappa > 0,
        # kappa = 0 and kappa < 0.  The stream yields no mirror w (None);
        # generate_paths negates the streams' rows into its second half
        market = MarketParams(mu=mu, r=0.02)
        assert np.sign(market.kappa) == np.sign(mu - 0.02)
        grid = TimeGrid(2.0, 0.1)
        bundle = generate_paths(market, grid, 150, seed=5, antithetic=True)
        streams = generate_paths(market, grid, 75, seed=5)
        negated = -streams.w
        assert np.array_equal(bundle.w.view(np.int64)[:75], streams.w.view(np.int64))
        assert np.array_equal(bundle.w.view(np.int64)[75:], negated.view(np.int64))
        drift = -(market.r + 0.5 * market.kappa**2) * grid.times()
        mirrors = np.exp(drift - market.kappa * negated)
        assert np.array_equal(bundle.zeta[:75], streams.zeta)
        assert np.array_equal(bundle.zeta[75:], mirrors)
        blocks = []
        stream = greedyhabit.market._Stream(market, grid, 150, 5, True, ())
        stream.chunks(lambda chunk: blocks.extend((r, w) for r, w, _ in chunk))
        assert all((w is None) == (r.start >= 75) for r, w in blocks)

    def test_zeta_recursion(self, market):
        # log zeta increments are -(r + kappa^2/2) dt - kappa dW exactly
        grid = TimeGrid(5.0, 0.05)
        bundle = generate_paths(market, grid, 50, seed=11)
        kappa = market.kappa
        dlog = np.diff(np.log(bundle.zeta), axis=1)
        expected = -(market.r + 0.5 * kappa**2) * grid.dt - kappa * np.diff(
            bundle.w, axis=1
        )
        assert np.max(np.abs(dlog - expected)) < 1e-12

    def test_lognormal_moments(self, market):
        # E[zeta_t^a] = exp(-a r t + a (a-1) kappa^2 t / 2) for the
        # exponents the budget and consumption formulas actually use
        grid = TimeGrid(10.0, 0.1)
        bundle = generate_paths(market, grid, 40000, seed=13, antithetic=True)
        t = 10.0
        k = grid.index_of(t)
        kappa = market.kappa
        zt = bundle.zeta[:, k]
        for a in (1.0, 1.0 - 1.0 / market.gamma, -1.0 / market.gamma):
            sample = zt**a
            exact = math.exp(-a * market.r * t + 0.5 * a * (a - 1.0) * kappa**2 * t)
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(sample.mean() - exact) < 3.0 * se, (
                f"moment a={a}: {sample.mean()} vs {exact} (se {se})"
            )

    def test_increments_are_gaussian(self, market):
        grid = TimeGrid(10.0, 0.1)
        bundle = generate_paths(market, grid, 4000, seed=17)
        k1, k2 = grid.index_of(2.0), grid.index_of(7.0)
        z = (bundle.w[:, k2] - bundle.w[:, k1]) / math.sqrt(5.0)
        pvalue = stats.kstest(z, "norm").pvalue
        assert pvalue > 1e-3

    def test_disjoint_increments_uncorrelated(self, market):
        grid = TimeGrid(10.0, 0.1)
        bundle = generate_paths(market, grid, 4000, seed=19)
        d1 = bundle.w[:, grid.index_of(3.0)] - bundle.w[:, 0]
        d2 = bundle.w[:, grid.index_of(9.0)] - bundle.w[:, grid.index_of(3.0)]
        corr = np.corrcoef(d1, d2)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(d1.size)


class TestRowChunks:
    """``_in_threads``: chunks of row blocks, the first on the calling thread."""

    def test_chunks_are_runs_of_whole_blocks(self, monkeypatch):
        monkeypatch.setattr(greedyhabit.market, "ROW_BLOCK", 7)
        monkeypatch.setattr(greedyhabit.market, "WORKERS", 3)
        me = threading.current_thread()
        seen = []

        def record(blocks):
            seen.append((threading.current_thread() is me, blocks))

        _in_threads(100, record)
        assert sorted(caller for caller, _ in seen) == [False, False, True]
        chunks = sorted(chunk for _, chunk in seen)
        assert sum(chunks, []) == greedyhabit.market._row_blocks(100)
        # fewer blocks than workers: a chunk per block; one block: a plain call
        seen.clear()
        _in_threads(10, record)
        assert sorted(seen) == [(False, [slice(7, 10)]), (True, [slice(0, 7)])]
        seen.clear()
        _in_threads(7, record)
        assert seen == [(True, [slice(0, 7)])]

    @pytest.mark.parametrize("error", [ValueError, RuntimeWarning])
    def test_error_in_a_worker_reaches_the_caller(self, monkeypatch, market, error):
        # 6 blocks in 3 chunks: chunk 1 fails while chunk 2 is still running
        monkeypatch.setattr(greedyhabit.market, "ROW_BLOCK", 64)
        monkeypatch.setattr(greedyhabit.market, "WORKERS", 3)
        real = greedyhabit.market._fill_normals
        finished = []

        def failing(out, seed, key, rows):
            real(out, seed, key, rows)
            if rows.start == 0:
                time.sleep(0.05)
            elif rows.start == 128:
                if error is ValueError:
                    raise ValueError("bad chunk")
                np.exp(np.full(2, 1e3))  # overflows
            elif rows.start == 256:
                time.sleep(0.2)
                finished.append(rows.start)

        monkeypatch.setattr(greedyhabit.market, "_fill_normals", failing)
        before = threading.active_count()
        bundle = None
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error):
                bundle = generate_paths(market, TimeGrid(1.0, 0.1), 384, seed=3)
        assert bundle is None
        assert finished == [256]
        assert threading.active_count() == before

    def test_worker_runs_in_the_callers_error_state(self, monkeypatch):
        monkeypatch.setattr(greedyhabit.market, "ROW_BLOCK", 1)
        monkeypatch.setattr(greedyhabit.market, "WORKERS", 2)
        x = np.array([1.0, 1e3])

        def work(blocks):
            np.exp(x[blocks[0]])

        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                _in_threads(2, work)


def _per_row_streams(seed, key, rows, n):
    """Each row drawn from its own ``SeedSequence`` and ``PCG64``, built anew."""
    out = np.empty((len(rows), n))
    for j, i in enumerate(rows):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=key + (i,))
        out[j] = np.random.Generator(np.random.PCG64(ss)).standard_normal(n)
    return out


class TestFillNormals:
    """``_fill_normals`` seeds a block of rows at once, with numpy's own draws."""

    @pytest.mark.parametrize(
        "seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3]
    )
    @pytest.mark.parametrize("key", [(), (1,), (7, 2**33)])
    @pytest.mark.parametrize(
        "rows",
        # the second block mixes one-word and two-word row indices
        [range(0, 64), range(2**32 - 2, 2**32 + 2)],
        ids=["low", "across-2**32"],
    )
    def test_rows_match_one_generator_per_row(self, seed, key, rows):
        out = np.empty((len(rows), 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            greedyhabit.market._fill_normals(out, seed, key, rows)
        assert np.array_equal(out, _per_row_streams(seed, key, rows, 5))

    @pytest.mark.parametrize(
        "seed, key, error",
        [(-1, (), ValueError), (1.5, (), TypeError), (3, (2, -1), ValueError)],
        ids=["negative-seed", "float-seed", "negative-key"],
    )
    def test_bad_seed_or_key_raises_as_numpy_does(
        self, monkeypatch, market, seed, key, error
    ):
        with pytest.raises(error):
            _per_row_streams(seed, key, range(1), 1)
        monkeypatch.setattr(greedyhabit.market, "ROW_BLOCK", 4)
        monkeypatch.setattr(greedyhabit.market, "WORKERS", 2)
        grid = TimeGrid(1.0, 0.1)
        before = threading.active_count()
        with pytest.raises(error):
            greedyhabit.market._fill_normals(np.empty((3, 10)), seed, key, range(3))
        with pytest.raises(error):
            greedyhabit.market._Stream(market, grid, 16, seed, True, key).chunks(list)
        if not key:
            with pytest.raises(error):
                generate_paths(market, grid, 16, seed=seed)
        assert threading.active_count() == before
