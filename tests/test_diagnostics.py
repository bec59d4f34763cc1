import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfront import (
    BistableCubic,
    FractionalParams,
    Grid1D,
    InsufficientDecayError,
    NoCrossingError,
    OutOfRangeError,
    SimulationResult,
    StepperConfig,
    WindowTooSmallError,
    bounds_check,
    chen_ramp,
    comparison_test,
    estimate_decay_rate,
    estimate_speed,
    front_position,
    green_function,
    integrate,
    make_ic,
    make_ordered_ic_pair,
    make_schedule,
    shift_matched_residual,
    step_profile,
)


def _fake_result(grid, times, states, a=0.5):
    return SimulationResult(times=np.asarray(times, dtype=float),
                            states=np.asarray(states), grid=grid,
                            params=None, nl=BistableCubic(a), stats={})


class TestInitialConditions:
    def test_ramp_values(self):
        vals = chen_ramp(np.array([-30.0, -2.0, 0.0, 2.0, 30.0]))
        assert vals.tolist() == [0.0, 0.0, 0.5, 1.0, 1.0]

    def test_step_values(self):
        vals = step_profile(np.array([-30.0, 0.0, 1e-9, 30.0]))
        assert vals.tolist() == [0.49, 0.49, 1.51, 1.51]

    def test_make_ic_dispatch(self):
        g = Grid1D(30.0, 181)
        assert make_ic("chen", g)[g.m] == 0.5
        custom = make_ic(lambda x: np.tanh(x), g)
        assert custom[g.m] == 0.0
        with pytest.raises(OutOfRangeError):
            make_ic("bogus", g)

    @pytest.mark.parametrize("levels,name", [
        ((float("nan"), 1.0), "step_lo"), ((0.0, float("-inf")), "step_hi"),
    ])
    def test_step_levels_must_be_finite(self, levels, name):
        with pytest.raises(OutOfRangeError) as exc:
            make_ic("step", Grid1D(10.0, 21), *levels)
        assert exc.value.param == name


class TestFrontPosition:
    def test_ramp_crosses_origin(self):
        g = Grid1D(30.0, 181)
        assert front_position(chen_ramp(g.x), g, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_no_crossing(self):
        g = Grid1D(30.0, 181)
        with pytest.raises(NoCrossingError):
            front_position(np.full(g.n, 0.3), g, 0.5)

    def test_whole_cell_translation_equivariance(self):
        g = Grid1D(30.0, 181)
        u = 1.0 / (1.0 + np.exp(-g.x))
        shifted = np.concatenate([np.full(3, u[0]), u[:-3]])  # shift right by 3h
        base = front_position(u, g, 0.5)
        moved = front_position(shifted, g, 0.5)
        assert moved - base == pytest.approx(3 * g.h, abs=1e-12)

    def test_smooth_translation_equivariance(self):
        g = Grid1D(30.0, 181)
        prof = lambda x: 1.0 / (1.0 + np.exp(-x))
        s = 0.37
        base = front_position(prof(g.x), g, 0.5)
        moved = front_position(prof(g.x - s), g, 0.5)
        assert moved - base == pytest.approx(s, abs=2 * g.h ** 2)

    def test_nearest_crossing_wins(self):
        g = Grid1D(30.0, 181)
        # oscillatory profile with several crossings; nearest to 0 returned
        u = 0.5 + 0.4 * np.sin(0.5 * (g.x - 1.0))
        pos = front_position(u, g, 0.5)
        assert pos == pytest.approx(1.0, abs=1e-2)


class TestSpeed:
    def test_speed_of_uniform_translation(self):
        g = Grid1D(30.0, 181)
        prof = lambda x: 1.0 / (1.0 + np.exp(-x))
        times = np.linspace(0.0, 10.0, 11)
        c = 0.35
        states = np.array([prof(g.x - c * t) for t in times])
        est = estimate_speed(_fake_result(g, times, states))
        assert est.speed == pytest.approx(c, abs=1e-3)
        assert est.residual <= 1e-3

    def test_needs_enough_snapshots(self):
        g = Grid1D(30.0, 181)
        states = np.array([chen_ramp(g.x)] * 3)
        with pytest.raises(OutOfRangeError):
            estimate_speed(_fake_result(g, [0.0, 1.0, 2.0], states))


class TestShiftMatching:
    def test_identical_profiles(self):
        g = Grid1D(30.0, 181)
        u = chen_ramp(g.x)
        residual, shift = shift_matched_residual(u, u, g)
        assert residual == 0.0
        assert shift == 0.0

    def test_exact_grid_translation(self):
        g = Grid1D(30.0, 181)
        u = chen_ramp(g.x)
        shifted = np.concatenate([np.full(3, u[0]), u[:-3]])
        residual, shift = shift_matched_residual(u, shifted, g)
        assert residual <= 1e-10
        assert shift == pytest.approx(3 * g.h, abs=1e-9)

    def test_off_grid_translation(self):
        g = Grid1D(30.0, 181)
        prof = lambda x: 1.0 / (1.0 + np.exp(-x))
        s = 0.1234
        residual, shift = shift_matched_residual(prof(g.x), prof(g.x - s), g)
        assert residual <= 5e-3          # linear-interpolation floor
        assert shift == pytest.approx(s, abs=0.05)


def _shift_residual_reference(u1, u2, grid):
    """The per-shift scan: one np.interp per whole-cell shift, then the same
    golden section and plateau rule, as the library computed it before the
    blocked window scan.  Returns ``(residual, shift, whole-cell residuals)``."""
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    x = grid.x

    def res(s):
        return float(np.max(np.abs(u2 - np.interp(x - s, x, u1))))

    kmax = int(grid.b / 2 / grid.h)
    coarse = np.arange(-kmax, kmax + 1) * grid.h
    vals = [res(s) for s in coarse]
    i = int(np.argmin(vals))
    lo = coarse[max(0, i - 1)]
    hi = coarse[min(len(coarse) - 1, i + 1)]

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = res(c), res(d)
    for _ in range(80):
        if b - a < 1e-13 * max(1.0, grid.b):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = res(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = res(d)
    shift = 0.5 * (a + b)
    best = res(shift)
    if vals[i] < best:  # keep the coarse winner on plateaus
        return vals[i], float(coarse[i]), vals
    return best, float(shift), vals


@st.composite
def _profiles(draw, grid):
    """A smooth ramp, a step, a flat array or a random array on ``grid``."""
    kind = draw(st.sampled_from(["ramp", "step", "flat", "random"]))
    base = draw(st.floats(-2.0, 2.0))
    jump = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    centre = draw(st.floats(-grid.b, grid.b))
    if kind == "ramp":
        width = draw(st.floats(0.1, grid.b))
        return base + jump / (1.0 + np.exp(-(grid.x - centre) / width))
    if kind == "step":
        return step_profile(grid.x - centre, base, base + jump)
    if kind == "flat":
        return np.full(grid.n, base)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.uniform(-1.0, 1.0, grid.n)


class TestShiftScanMatchesReference:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_per_shift_interpolation(self, data):
        n = data.draw(st.integers(2, 800)) * 2 + 1
        grid = Grid1D(data.draw(st.floats(1.0, 50.0)), n)
        u1 = data.draw(_profiles(grid))
        if data.draw(st.booleans()):
            u2 = data.draw(_profiles(grid))
        else:   # a near-translate, as in a decay fit
            s = data.draw(st.floats(-grid.b / 2, grid.b / 2))
            u2 = np.interp(grid.x - s, grid.x, u1) + data.draw(st.floats(-0.1, 0.1))
        want_r, want_s, coarse = _shift_residual_reference(u1, u2, grid)
        got_r, got_s = shift_matched_residual(u1, u2, grid)
        # np.interp at x - k*h rounds near the node it lands on: an absolute
        # error of a few ulps of the profile scale, which the exact window
        # scan does not make
        floor = 4 * np.finfo(float).eps * max(np.max(np.abs(u1)), np.max(np.abs(u2)))
        best = min(coarse)
        if np.count_nonzero(np.array(coarse) <= best + floor) > 1:
            # whole cells tie up to that rounding, so either scan may refine
            # around a different one of them; both keep the plateau value
            assert got_r <= best + floor
            return
        if want_r == 0.0:
            assert got_r == 0.0
        assert abs(got_r - want_r) <= 1e-12 * want_r + floor
        assert got_s == pytest.approx(want_s, abs=1e-9)

    def test_scan_memory_is_bounded(self):
        g = Grid1D(30.0, 1601)
        u1, u2 = chen_ramp(g.x), chen_ramp(g.x - 1.3)
        shift_matched_residual(u1, u2, g)   # warm up lazy imports and caches
        tracemalloc.start()
        try:
            shift_matched_residual(u1, u2, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2 ** 20   # the full 801 x 1601 difference is 9.8 MiB

    def test_wrong_shape_reference_is_rejected(self):
        g = Grid1D(30.0, 181)
        with pytest.raises(OutOfRangeError):
            shift_matched_residual(chen_ramp(g.x), chen_ramp(g.x)[:-1], g)


@st.composite
def _front(draw, grid):
    """A logistic or tanh front, optionally with 1e-4 noise."""
    centre = draw(st.floats(-grid.b / 4, grid.b / 4))
    width = draw(st.floats(0.5, 5.0))
    z = (grid.x - centre) / width
    if draw(st.booleans()):
        u = 1.0 / (1.0 + np.exp(-z))
    else:
        u = 0.5 * (1.0 + np.tanh(z))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        u = u + 1e-4 * rng.standard_normal(grid.n)
    return u


class TestShiftMatchingIsMinimal:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_no_lower_residual_on_a_dense_scan(self, data):
        n = data.draw(st.integers(5, 100)) * 2 + 1
        grid = Grid1D(data.draw(st.floats(5.0, 50.0)), n)
        u1, u2 = data.draw(_front(grid)), data.draw(_front(grid))
        got, _ = shift_matched_residual(u1, u2, grid)
        # 40 shifts per cell over the whole cells in [-b/2, b/2], the range
        # the function scans
        kmax = int(grid.b / 2 / grid.h)
        shifts = np.arange(-40 * kmax, 40 * kmax + 1) * (grid.h / 40)
        dense = min(float(np.max(np.abs(u2 - np.interp(grid.x - s, grid.x, u1))))
                    for s in shifts)
        assert got <= dense + 1e-12


class TestDecayEstimate:
    def test_steady_run_has_nothing_to_fit(self):
        g = Grid1D(30.0, 181)
        states = np.array([chen_ramp(g.x)] * 8)
        with pytest.raises(InsufficientDecayError):
            estimate_decay_rate(_fake_result(g, np.linspace(0, 7, 8), states))

    def test_synthetic_exponential_decay(self):
        g = Grid1D(30.0, 181)
        base = 1.0 / (1.0 + np.exp(-g.x))
        kappa = 0.8
        times = np.linspace(0.0, 12.0, 25)
        bump = np.exp(-g.x ** 2)
        states = np.array([base + 0.05 * np.exp(-kappa * t) * bump for t in times])
        report = estimate_decay_rate(_fake_result(g, times, states),
                                     reference=base)
        assert report.decay_rate == pytest.approx(kappa, rel=0.05)
        assert report.r_squared >= 0.99

    @pytest.mark.parametrize("given_reference", [False, True])
    def test_final_snapshot_is_not_matched_against_itself(self, monkeypatch,
                                                          given_reference):
        calls = []

        def counting(u1, u2, grid):
            calls.append(u1)
            return shift_matched_residual(u1, u2, grid)

        monkeypatch.setattr("fracfront.diagnostics.shift_matched_residual",
                            counting)
        g = Grid1D(30.0, 181)
        base = 1.0 / (1.0 + np.exp(-g.x))
        times = np.linspace(0.0, 12.0, 25)
        states = np.array([base + 0.05 * np.exp(-0.8 * t) * np.exp(-g.x ** 2)
                           for t in times])
        report = estimate_decay_rate(_fake_result(g, times, states),
                                     reference=base if given_reference else None)
        assert len(calls) == (25 if given_reference else 24)
        assert (report.residuals[-1] == 0.0) != given_reference

    # test_08's run, then the runs whose decay fits demos 02 and 06 print
    @pytest.mark.parametrize("alpha,a,ic,dt,t_final", [
        (1.8, 0.5, "chen", 0.02, 20.0), (1.8, 0.6, "chen", 0.02, 20.0),
        (1.8, 0.5, "step", 0.005, 2.0), (1.2, 0.5, "step", 0.005, 2.0),
        (1.01, 0.5, "step", 0.005, 2.0)])
    def test_residuals_equal_a_scan_of_every_snapshot(self, alpha, a, ic, dt,
                                                      t_final):
        g = Grid1D(30.0, 181)
        u0 = chen_ramp(g.x) if ic == "chen" else step_profile(g.x, 0.49, 1.51)
        res = integrate(u0, make_schedule(t_final, 41),
                        StepperConfig(method="semi-implicit", dt=dt), g,
                        FractionalParams(alpha, 0.1), BistableCubic(a))
        every = np.array([shift_matched_residual(state, res.final, g)[0]
                          for state in res.states])
        assert every[-1] == 0.0
        assert estimate_decay_rate(res).residuals.tobytes() == every.tobytes()


class TestStepRelaxation:
    """Discontinuous initial data above the stable band relax back toward it."""

    @pytest.mark.parametrize("alpha", [1.8, 1.01])
    def test_max_relaxes_and_residuals_decay(self, alpha):
        p = FractionalParams(alpha, 0.1)
        g = Grid1D(30.0, 181)
        res = integrate(step_profile(g.x), make_schedule(2.0, 41),
                        StepperConfig(method="semi-implicit", dt=0.005),
                        g, p, BistableCubic(0.5))
        maxima = res.states.max(axis=1)
        assert maxima[0] == 1.51
        after = maxima[res.times >= 0.1]
        assert np.all(np.diff(after) <= 1e-12)

        report = estimate_decay_rate(res)
        window = report.residuals[(report.residuals >= 1e-10)
                                  & (report.residuals <= 1e-1)]
        assert window[0] / window[-1] >= 5.0       # clear decay
        if report.decay_rate is not None:
            assert report.decay_rate > 0


class TestBalancedStandingWave:
    def test_speed_vanishes_without_skew(self):
        for alpha in (1.2, 1.5, 1.8):
            res = integrate(chen_ramp(Grid1D(30.0, 181).x),
                            make_schedule(40.0, 21),
                            StepperConfig(method="semi-implicit", dt=0.05),
                            Grid1D(30.0, 181), FractionalParams(alpha, 0.0),
                            BistableCubic(0.5))
            assert abs(estimate_speed(res).speed) <= 1e-3


class TestComparisonAndBounds:
    def test_equal_pair_is_ordered(self):
        g = Grid1D(10.0, 61)
        p = FractionalParams(1.8, 0.1)
        nl = BistableCubic(0.5)
        ic = chen_ramp(g.x)
        ordered, gap = comparison_test(
            ic, ic, g, p, nl, StepperConfig(method="semi-implicit", dt=0.05),
            make_schedule(1.0, 3))
        assert ordered
        assert gap == 0.0

    def test_random_pairs_are_valid(self):
        g = Grid1D(30.0, 181)
        rng = np.random.default_rng(5)
        for _ in range(10):
            low, high = make_ordered_ic_pair(g, rng)
            assert np.all(low <= high)
            assert low.min() >= 0.0 and high.max() <= 1.0

    def test_bounds_of_constant_zero_run(self):
        g = Grid1D(10.0, 41)
        res = integrate(np.zeros(g.n), make_schedule(1.0, 3),
                        StepperConfig(method="semi-implicit", dt=0.1),
                        g, FractionalParams(1.5, 0.1), BistableCubic(0.5))
        assert bounds_check(res) == (0.0, 0.0)


class TestGreenFunction:
    def test_needs_positive_time(self):
        with pytest.raises(OutOfRangeError):
            green_function(FractionalParams(1.5, 0.0), 0.0)

    @pytest.mark.parametrize("kwargs,name", [
        ({"t": float("nan")}, "t"), ({"t": float("inf")}, "t"),
        ({"window": 0.0}, "window"), ({"window": float("nan")}, "window"),
        ({"k_modes": 0}, "k_modes"), ({"k_modes": -4}, "k_modes"),
    ])
    def test_rejects_bad_sampling(self, kwargs, name):
        with pytest.raises(OutOfRangeError) as exc:
            green_function(FractionalParams(1.5, 0.0), **{"t": 1.0, **kwargs})
        assert exc.value.param == name

    def test_heavy_tail_guard(self):
        with pytest.raises(WindowTooSmallError):
            green_function(FractionalParams(1.5, 0.3), 1.0, window=100.0,
                           k_modes=2 ** 12)

    def test_gaussian_endpoint(self):
        x, g = green_function(FractionalParams(2.0, 0.0), 1.0,
                              window=200.0, k_modes=2 ** 14)
        exact = np.exp(-x ** 2 / 4) / np.sqrt(4 * np.pi)
        assert np.max(np.abs(g - exact)) <= 1e-8

    def test_mass_and_positivity(self):
        x, g = green_function(FractionalParams(1.7, -0.25), 1.0,
                              window=500.0, k_modes=2 ** 13)
        assert np.sum(g) * (x[1] - x[0]) == pytest.approx(1.0, abs=1e-3)
        assert g.min() >= -1e-8

    def test_skew_direction(self):
        # positive skewness biases the kernel bulk to the left (the heavy
        # tail points right and balances the mean back to zero)
        for theta, lo, hi in ((0.4, 0.55, 1.0), (-0.4, 0.0, 0.45)):
            x, g = green_function(FractionalParams(1.5, theta), 1.0,
                                  window=800.0, k_modes=2 ** 13)
            dx = x[1] - x[0]
            mass_left = float(np.sum(g[x < 0]) * dx)
            assert lo < mass_left < hi
            median = x[np.searchsorted(np.cumsum(g) * dx, 0.5)]
            assert (median < -0.1) if theta > 0 else (median > 0.1)
