import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfront import (
    BistableCubic,
    FracfrontError,
    FractionalParams,
    Grid1D,
    OutOfRangeError,
    RunConfig,
    SimulationResult,
    StepperConfig,
    bounds_check,
    chen_ramp,
    comparison_test,
    estimate_decay_rate,
    estimate_speed,
    front_position,
    green_function,
    integrate,
    integrate_group,
    make_ic,
    make_ordered_ic_pair,
    make_schedule,
    result_from_csv,
    run_simulation,
    shift_matched_residual,
    step_profile,
    write_snapshot_csv,
)
from fracfront.diagnostics import _cell_minimum, _fit_line, smoothstep


def _fake_result(grid, times, states, a=0.5):
    return SimulationResult(times=np.asarray(times, dtype=float),
                            states=np.asarray(states), grid=grid,
                            nl=BistableCubic(a), stats={})


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
        assert make_ic("step", g)[g.m] == 0.49
        for variant in ("bogus", np.tanh):   # a profile array goes to integrate
            with pytest.raises(OutOfRangeError):
                make_ic(variant, g)

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
        with pytest.raises(FracfrontError, match="^profile never crosses level 0.5$"):
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

    def test_read_back_without_a_needs_a_level(self, tmp_path):
        g = Grid1D(30.0, 181)
        write_snapshot_csv(_fake_result(g, np.arange(10.0), _translating_ramps(g, 10)),
                           tmp_path / "snapshots.csv")
        result = result_from_csv(tmp_path / "snapshots.csv")   # no a
        with pytest.raises(OutOfRangeError, match="give the level") as exc:
            estimate_speed(result)
        assert exc.value.param == "level"
        assert estimate_speed(result, level=0.5).speed == pytest.approx(g.h, rel=1e-12)

    # 1 - 0.7 is 0.30000000000000004, so a window counted from 1 - fit_window
    # fitted 6 of 10, 13 of 20 and 20 of 30 snapshots
    @pytest.mark.parametrize("fit_window,count,fitted", [
        (0.7, 10, 7), (0.7, 20, 14), (0.7, 30, 21), (0.45, 100, 45),
        (0.5, 21, 10), (0.5, 11, 5), (1.0, 10, 10)])
    def test_window_counts_its_snapshots(self, fit_window, count, fitted):
        g = Grid1D(30.0, 241)   # the 100th ramp crosses at x = 24.25
        result = _fake_result(g, np.arange(float(count)), _translating_ramps(g, count))
        est = estimate_speed(result, fit_window=fit_window)
        assert len(est.front_track) == fitted
        assert est.speed == pytest.approx(g.h, rel=1e-12)


def _lstsq_line(ts, ys):
    """Reference line fit: LAPACK least squares on the centred, scaled problem.

    The design [tau - mean(tau), 1] has orthogonal columns and the data are
    centred, so the solve loses no digits to times or values far from 0.
    """
    span = ts[-1] - ts[0]
    tau = (ts - ts[0]) / span
    design = np.column_stack([tau - tau.mean(), np.ones_like(ts)])
    coef, *_ = np.linalg.lstsq(design, ys - ys.mean(), rcond=None)
    slope = coef[0] / span
    intercept = ys.mean() + coef[1] - coef[0] * tau.mean() - slope * ts[0]
    return slope, intercept, ys - ys.mean() - design @ coef


def _translating_ramps(grid, count):
    """``count`` ramps whose 0.5 crossing moves one cell per ramp, from -3h on."""
    return np.array([np.clip((grid.x - (k - 3) * grid.h) / (4 * grid.h) + 0.5,
                             0.0, 1.0) for k in range(count)])


class TestLineFit:
    @staticmethod
    def _assert_matches_lstsq(ts, ys):
        slope, intercept, resid = _fit_line(ts, ys)
        ref_slope, ref_intercept, ref_resid = _lstsq_line(ts, ys)
        assert slope == pytest.approx(ref_slope, rel=1e-12)
        # the intercept extrapolates to t = 0: relative to the terms it sums
        assert abs(intercept - ref_intercept) <= 1e-12 * (
            abs(ref_intercept) + abs(ref_slope * ts[0]))
        assert np.max(np.abs(resid - ref_resid)) <= 1e-12 * np.max(np.abs(ys))

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_matches_lstsq_on_random_data(self, offset):
        rng = np.random.default_rng(23)
        for _ in range(200):
            count = int(rng.integers(2, 30))
            ts = offset + np.cumsum(rng.uniform(0.1, 2.0, count))
            slope = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
            ys = rng.uniform(-5, 5) + slope * ts + 0.1 * rng.standard_normal(count)
            self._assert_matches_lstsq(ts, ys)

    def test_two_points_lie_on_the_line(self):
        ts, ys = np.array([3.0, 7.5]), np.array([1.0, -2.0])
        self._assert_matches_lstsq(ts, ys)
        slope, intercept, resid = _fit_line(ts, ys)
        assert slope == pytest.approx(-3.0 / 4.5, rel=1e-15)
        assert np.max(np.abs(resid)) <= 1e-15

    def test_matches_lstsq_on_a_default_run(self):
        result, _ = run_simulation(RunConfig(alpha=1.7, theta=0.2))
        ts, fronts = np.array(estimate_speed(result).front_track).T
        assert np.array_equal(ts, make_schedule(20.0, 21)[11:])
        self._assert_matches_lstsq(ts, fronts)

    def test_times_far_from_one(self, tmp_path):
        # times 1e307 ... 8e307, and the front moves one cell (h = 1) per
        # 1e307; the fit window holds 5e307 ... 8e307
        g = Grid1D(10.0, 21)
        times = 1e307 * np.arange(1.0, 9.0)
        write_snapshot_csv(_fake_result(g, times, _translating_ramps(g, len(times))),
                           tmp_path / "snapshots.csv")
        est = estimate_speed(result_from_csv(tmp_path / "snapshots.csv", a=0.5))
        assert est.speed == pytest.approx(1e-307, rel=1e-12)

    # the suite turns numpy warnings into errors, so neither case may warn
    @pytest.mark.parametrize("ts", [
        np.array([-1e308, -5e307, 5e307, 1e308]),   # the span overflows
        1e-320 * np.arange(4.0),                      # the slope overflows
    ], ids=["span-overflows", "slope-overflows"])
    def test_non_finite_fit_raises(self, ts):
        with pytest.raises(FracfrontError, match="is not finite"):
            _fit_line(ts, np.arange(4.0))
        g = Grid1D(10.0, 21)
        with pytest.raises(FracfrontError, match="is not finite"):
            estimate_speed(_fake_result(g, ts, _translating_ramps(g, len(ts))),
                           fit_window=1.0)

    def test_no_fit_calls_lstsq(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq was called")

        monkeypatch.setattr(np.linalg, "lstsq", forbidden)
        g = Grid1D(10.0, 21)
        times = np.arange(8.0)
        assert estimate_speed(_fake_result(
            g, times, _translating_ramps(g, len(times)))).speed == pytest.approx(1.0)
        g = Grid1D(30.0, 181)
        base = 1.0 / (1.0 + np.exp(-g.x))
        times = np.linspace(0.0, 12.0, 25)
        states = [base + 0.05 * np.exp(-0.8 * t) * np.exp(-g.x ** 2) for t in times]
        report = estimate_decay_rate(_fake_result(g, np.append(times, 13.0),
                                                  np.vstack([states, base])))
        assert report.decay_rate == pytest.approx(0.8, rel=0.05)
        _, diag = run_simulation(RunConfig(alpha=1.5, theta=0.39, n=401,
                                           t_final=5.0, stepper="rk-adaptive"))
        assert diag["speed"] is not None and diag["decay_rate"] is not None


class TestShiftMatching:
    def test_identical_profiles(self):
        g = Grid1D(30.0, 181)
        for u in (chen_ramp(g.x), np.full(g.n, 0.3)):   # a ramp, then a flat profile
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

    @pytest.mark.parametrize("n", [401, 801, 1601])
    def test_translate_by_half_the_domain(self, n):
        # b / 2 / h is 399.99999999999994 at (7, 1601), and truncating it
        # once left the last whole cell out of the scan
        g = Grid1D(7.0, n)
        u = chen_ramp(g.x)
        cells = (n - 1) // 4
        residual, shift = shift_matched_residual(
            u, np.concatenate([np.full(cells, u[0]), u[:-cells]]), g)
        assert residual == 0.0
        assert shift == pytest.approx(g.b / 2, rel=1e-15)


def _whole_cell_residuals(u1, u2, grid):
    """The per-shift scan: one np.interp per whole-cell shift in [-b/2, b/2],
    as the library computed it before the blocked window scan."""
    x = grid.x
    kmax = (grid.n - 1) // 4   # b / 2 / h in integers
    return [float(np.max(np.abs(u2 - np.interp(x - k * grid.h, x, u1))))
            for k in range(-kmax, kmax + 1)]


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
        coarse = _whole_cell_residuals(u1, u2, grid)
        got_r, got_s = shift_matched_residual(u1, u2, grid)
        # np.interp at x - k*h rounds near the node it lands on: an absolute
        # error of a few ulps of the profile scale, which the exact window
        # scan does not make
        floor = 4 * np.finfo(float).eps * max(np.max(np.abs(u1)), np.max(np.abs(u2)))
        assert got_r <= min(coarse) + floor
        # the residual is attained at the returned shift, which lies in the
        # scanned range; rounding the shift costs up to n ulps of the scale
        assert abs(got_s) <= (len(coarse) // 2) * grid.h * (1 + 1e-15)
        at_shift = np.max(np.abs(u2 - np.interp(grid.x - got_s, grid.x, u1)))
        assert abs(at_shift - got_r) <= n * floor

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
        assert peak <= 128 * 2 ** 10   # the full 801 x 1601 difference is 9.8 MiB

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
        profiles = st.one_of(_front(grid), _profiles(grid))
        u1, u2 = data.draw(profiles), data.draw(profiles)
        assert shift_matched_residual(u1, u1, grid) == (0.0, 0.0)
        got, _ = shift_matched_residual(u1, u2, grid)
        # 40 shifts per cell over the whole cells in [-b/2, b/2], the range
        # the function scans
        kmax = (grid.n - 1) // 4
        shifts = np.arange(-40 * kmax, 40 * kmax + 1) * (grid.h / 40)
        dense = min(float(np.max(np.abs(u2 - np.interp(grid.x - s, grid.x, u1))))
                    for s in shifts)
        assert got <= dense + 1e-12

    def test_tied_whole_cells_do_not_hide_a_lower_minimum(self):
        # every whole-cell shift keeps the peak 0.986 of this random profile;
        # the minimum lies 3.48 cells away, and refining around the first of
        # the tied cells alone gave 0.958486
        g = Grid1D(1.0, 19)
        u = np.random.default_rng(151).uniform(-1.0, 1.0, g.n)
        residual, shift = shift_matched_residual(u, np.zeros(g.n), g)
        assert residual == pytest.approx(0.5290513314161185, abs=1e-12)
        assert np.max(np.abs(np.interp(g.x - shift, g.x, u))) == pytest.approx(
            residual, abs=1e-12)


def _scan_then_cells(u1, u2, grid):
    """The shift matching that scanned every whole-cell row before the cells:
    the same cell search, its bound read from the exact row residuals."""
    n, h = grid.n, grid.h
    kmax = (n - 1) // 4
    scan = np.lib.stride_tricks.sliding_window_view(np.pad(u1, kmax, "edge"), n)[::-1]
    vals = np.array([np.max(np.abs(u2 - row)) for row in scan])
    i = kmax if vals[kmax] == vals.min() else int(np.argmin(vals))   # ties keep 0
    best, shift = float(vals[i]), float(i)
    lower = np.maximum(vals[:-1] + vals[1:] - np.max(np.abs(np.diff(u1))), 0.0) / 2
    while lower.size and lower.min() < best:
        k = int(np.argmin(lower))
        lower[k] = np.inf
        r, t = _cell_minimum(u2 - scan[k], scan[k + 1] - scan[k])
        if r < best:
            best, shift = r, k + t
    return best, float((shift - kmax) * h)


class TestCellSearchMatchesScanThenCells:
    @pytest.mark.parametrize("config", [
        RunConfig(alpha=1.7, theta=0.2, n=1601),
        RunConfig(alpha=1.5, theta=0.39, n=1601, t_final=5.0, snapshots=11,
                  stepper="rk-adaptive", abs_tol=1e-6, rel_tol=1e-6)],
        ids=["semi-implicit", "rk-adaptive"])
    def test_equal_on_every_snapshot(self, config):
        result, _ = run_simulation(config)
        for state in result.states:
            assert (shift_matched_residual(state, result.final, result.grid)
                    == _scan_then_cells(state, result.final, result.grid))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_agrees_on_drawn_profiles(self, data):
        n = data.draw(st.integers(1, 800)) * 2 + 1   # up to 1601: strides above 1
        grid = Grid1D(data.draw(st.floats(1.0, 50.0)), n)
        profiles = st.one_of(_front(grid), _profiles(grid))
        u1, u2 = data.draw(profiles), data.draw(profiles)
        assert shift_matched_residual(u1, u1, grid) == (0.0, 0.0)
        got, _ = shift_matched_residual(u1, u2, grid)
        ref, _ = _scan_then_cells(u1, u2, grid)
        # the last row is reached only as a cell's far end, whose residual
        # (u2 - s_k) - (s_(k+1) - s_k) may differ from the row's in the last bit
        floor = 4 * np.finfo(float).eps * max(np.max(np.abs(u1)), np.max(np.abs(u2)))
        assert abs(got - ref) <= floor


class TestDecayEstimate:
    def test_steady_run_has_nothing_to_fit(self):
        g = Grid1D(30.0, 181)
        states = np.array([chen_ramp(g.x)] * 8)
        with pytest.raises(FracfrontError,
                           match=r"^no usable residuals in \[1e-10, 1e-1\]"):
            estimate_decay_rate(_fake_result(g, np.linspace(0, 7, 8), states))

    def test_synthetic_exponential_decay(self):
        g = Grid1D(30.0, 181)
        base = 1.0 / (1.0 + np.exp(-g.x))
        kappa = 0.8
        times = np.linspace(0.0, 12.0, 25)
        bump = np.exp(-g.x ** 2)
        states = np.array([base + 0.05 * np.exp(-kappa * t) * bump for t in times])
        # base, the profile the snapshots relax to, is the final snapshot
        report = estimate_decay_rate(_fake_result(g, np.append(times, 13.0),
                                                  np.vstack([states, base])))
        assert report.decay_rate == pytest.approx(kappa, rel=0.05)
        assert report.r_squared >= 0.99

    def test_final_snapshot_is_not_matched_against_itself(self, monkeypatch):
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
        report = estimate_decay_rate(_fake_result(g, times, states))
        assert len(calls) == 24
        assert report.residuals[-1] == 0.0

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
        window = report.residuals[report.fitted]
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


class TestUniqueWave:
    """The bistable wave is unique up to translation and attracts front-like
    initial data: five initial states, one speed."""

    def test_five_initial_states_one_speed(self):
        g = Grid1D(30.0, 361)
        x, p, nl = g.x, FractionalParams(1.7, 0.2), BistableCubic(0.5)
        ics = np.array([chen_ramp(x), step_profile(x, 0.0, 1.0),
                        smoothstep((x - 4.0) / 16.0 + 0.5),
                        0.5 * (1.0 + np.tanh(x + 6.0)), step_profile(x, 0.3, 0.8)])
        cfg, schedule = StepperConfig(dt=0.02), make_schedule(40.0, 41)
        runs = list(integrate_group(ics, schedule, cfg, g, p, [nl] * len(ics),
                                    tail_correction=True))
        speeds = np.array([estimate_speed(run).speed for run in runs])
        assert np.ptp(speeds) <= 1e-4 * np.min(np.abs(speeds))
        for ic, run in zip(ics, runs):   # each row is its lone run
            alone = integrate(ic, schedule, cfg, g, p, nl, tail_correction=True)
            assert np.array_equal(run.states, alone.states)
            assert run.stats["steps"] == alone.stats["steps"] == 2000
            assert (run.stats["u_min"], run.stats["u_max"]) == (
                alone.stats["u_min"], alone.stats["u_max"])


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

    @pytest.mark.parametrize("method", ["semi-implicit", "rk-adaptive"])
    def test_gap_of_the_lone_runs(self, method):
        # the stacked pair gives the gap of the two runs made alone, bit for bit
        g, p, nl = Grid1D(10.0, 61), FractionalParams(1.8, 0.1), BistableCubic(0.5)
        low, high = make_ordered_ic_pair(g, np.random.default_rng(7))
        cfg, schedule = StepperConfig(method=method, dt=0.05), make_schedule(1.0, 3)
        gap = (integrate(high, schedule, cfg, g, p, nl).states
               - integrate(low, schedule, cfg, g, p, nl).states)
        assert comparison_test(low, high, g, p, nl, cfg, schedule) == (
            gap.min() >= -1e-10, gap.min())

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
        with pytest.raises(FracfrontError,
                           match="^boundary density .* enlarge the window$"):
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
