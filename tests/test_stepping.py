import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve

import fracfront.stepping
from fracfront import (
    BistableCubic,
    FracfrontError,
    FractionalParams,
    Grid1D,
    OperatorMatrix,
    OutOfRangeError,
    StepperConfig,
    assemble_operator_matrix,
    chen_ramp,
    integrate,
    integrate_group,
    make_schedule,
    step_explicit_rk,
    step_semi_implicit,
)
from fracfront.operators import DENSE_INVERSE_MAX_N


class TestConfig:
    def test_bad_method(self):
        with pytest.raises(OutOfRangeError) as exc:
            StepperConfig(method="bdf")
        assert exc.value.param == "stepper"

    def test_bad_dt(self):
        with pytest.raises(OutOfRangeError):
            StepperConfig(method="semi-implicit", dt=0.0)

    def test_bad_tolerances(self):
        with pytest.raises(OutOfRangeError):
            StepperConfig(method="rk-adaptive", abs_tol=0.0)

    @pytest.mark.parametrize("method", ["semi-implicit", "rk-adaptive"])
    @pytest.mark.parametrize("name", ["dt", "abs_tol", "rel_tol"])
    def test_every_field_checked_for_every_method(self, method, name):
        for bad in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(OutOfRangeError) as exc:
                StepperConfig(method=method, **{name: bad})
            assert exc.value.param == name

    @pytest.mark.parametrize("t_final,snapshots,name", [
        (-1.0, 3, "t_final"), (float("nan"), 3, "t_final"),
        (float("inf"), 3, "t_final"), (1.0, 0, "snapshots"),
        (1.0, 1, "snapshots"),
    ])
    def test_bad_schedule(self, t_final, snapshots, name):
        with pytest.raises(OutOfRangeError) as exc:
            make_schedule(t_final, snapshots)
        assert exc.value.param == name

    @pytest.mark.parametrize("t_final,snapshots", [(5e-324, 3), (1e-323, 4)])
    def test_collapsed_schedule_names_t_final(self, t_final, snapshots):
        # linspace rounds the subnormal times together
        with pytest.raises(OutOfRangeError, match="distinct snapshot times") as exc:
            make_schedule(t_final, snapshots)
        assert exc.value.param == "t_final"
        assert len(make_schedule(t_final, 2)) == 2

    def test_schedule_shapes(self):
        s = make_schedule(2.0, 5)
        assert s[0] == 0.0 and s[-1] == 2.0 and len(s) == 5
        assert len(make_schedule(0.0, 1)) == 1


class TestSemiImplicit:
    def test_constant_is_fixed_point_without_reaction(self):
        # u = 1 is a zero of the reaction, so only the solve acts on it
        g = Grid1D(10.0, 41)
        A = assemble_operator_matrix(g, FractionalParams(1.6, 0.2))
        u = np.full(g.n, 1.0)
        out = step_semi_implicit(u, 0.1, A.factorization(0.1), BistableCubic(0.4))
        assert np.max(np.abs(out - u)) <= 1e-13

    def test_zero_operator_reduces_to_explicit_euler(self):
        g = Grid1D(10.0, 41)
        A = OperatorMatrix(g, np.zeros(3))  # zero stencil
        nl = BistableCubic(0.4)
        u = np.linspace(0.0, 1.0, g.n)
        out = step_semi_implicit(u, 0.05, A.factorization(0.05), nl)
        assert np.max(np.abs(out - (u + 0.05 * nl.f(u)))) <= 1e-13

    # (b, n, alpha, theta, dt): operators from acceptance tests 05-08 and
    # one sweep-fine configuration of the benchmark
    @pytest.mark.parametrize("b,n,alpha,theta,dt", [
        (30.0, 181, 1.8, 0.1, 0.02), (30.0, 181, 1.5, 0.2, 0.05),
        (30.0, 361, 1.5, -0.15, 0.05), (30.0, 361, 1.5, 0.25, 0.05),
        (40.0, 801, 2.0, 0.0, 0.02), (30.0, 181, 1.8, 0.1, 0.05),
        (30.0, 361, 1.8, 0.1, 0.05), (30.0, 1601, 1.3, -0.15, 0.02),
    ])
    def test_matches_lu_solve(self, b, n, alpha, theta, dt):
        g = Grid1D(b, n)
        A = assemble_operator_matrix(g, FractionalParams(alpha, theta))
        nl = BistableCubic(0.4)
        u = 1.0 / (1.0 + np.exp(-g.x))
        rhs = u + dt * nl.f(u)
        ref = lu_solve(lu_factor(np.eye(n) - dt * A.entries), rhs)
        solve = A.factorization(dt)
        out = step_semi_implicit(u, dt, solve, nl)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
        # I - dt*A is an M-matrix, so its inverse is nonnegative; its
        # columns come from the solver, a dense inverse or a Toeplitz solve
        assert min(np.min(solve @ e) for e in np.eye(n)) >= 0.0

    def test_operator_keeps_no_square_array(self):
        g = Grid1D(10.0, 41)
        A = assemble_operator_matrix(g, FractionalParams(1.6, 0.2))
        assert A.entries is not A.entries  # built afresh, never cached
        inverse = A.factorization(0.1)
        assert np.shape(inverse) == (g.n, g.n)
        assert not [v for v in vars(A).values() if np.shape(v) == (g.n, g.n)]
        assert A.factorization(0.1) is not inverse   # the caller holds it

    def test_first_order_self_convergence(self):
        g = Grid1D(20.0, 121)
        p = FractionalParams(1.6, 0.2)
        nl = BistableCubic(0.45)
        ic = 1.0 / (1.0 + np.exp(-g.x))
        sched = make_schedule(1.0, 2)

        def final(dt):
            cfg = StepperConfig(method="semi-implicit", dt=dt)
            return integrate(ic, sched, cfg, g, p, nl).final

        ref = final(0.2 / 64)
        errs = [np.max(np.abs(final(dt) - ref)) for dt in (0.2, 0.1, 0.05)]
        for e_coarse, e_fine in zip(errs, errs[1:]):
            assert 1.5 <= e_coarse / e_fine <= 2.5
        order = np.log2(errs[0] / errs[1])
        assert 0.8 <= order <= 1.2


class TestExplicitRK:
    def test_zero_rhs_grows_step(self):
        u = np.ones(5)
        rhs = lambda v: np.zeros_like(v)
        u_new, _, dt_next, accepted = step_explicit_rk(u, rhs(u), 0.1, rhs,
                                                       1e-9, 1e-9)
        assert accepted
        assert np.all(u_new == u)
        assert dt_next == pytest.approx(0.5)     # maximal growth factor 5

    def test_scalar_exponential(self):
        rhs = lambda v: -v
        u = np.array([1.0])
        t, dt = 0.0, 1e-3
        rel_tol = 1e-8
        while t < 1.0:
            dt_try = min(dt, 1.0 - t)
            u_new, _, dt_next, accepted = step_explicit_rk(
                u, rhs(u), dt_try, rhs, 1e-12, rel_tol)
            if accepted:
                u = u_new
                t += dt_try
            dt = dt_next
        assert abs(u[0] - np.exp(-1.0)) <= 10 * rel_tol

    def test_growth_factor_clamped(self):
        rhs = lambda v: -50.0 * v  # stiff scalar: rejections expected
        u = np.array([1.0])
        dt = 1.0
        for _ in range(20):
            _, _, dt_next, _ = step_explicit_rk(u, rhs(u), dt, rhs, 1e-8, 1e-8)
            assert 0.2 - 1e-12 <= dt_next / dt <= 5.0 + 1e-12
            dt = dt_next


class TestAdaptiveRejections:
    """The rk-adaptive controller's rejection branch and its guards."""

    grid = Grid1D(10.0, 201)   # h = 0.1: stiff enough to reject trial steps
    params = FractionalParams(1.5, 0.0)
    cfg = StepperConfig(method="rk-adaptive")

    def run(self, schedule):
        return integrate(chen_ramp(self.grid.x), schedule, self.cfg,
                         self.grid, self.params, BistableCubic(0.5))

    def test_stiff_run_rejects_and_recovers(self):
        res = self.run(make_schedule(1.0, 2))
        assert res.stats["rejected_steps"] > 0
        assert res.times[-1] == 1.0
        assert 0.0 <= res.final.min() and res.final.max() <= 1.0 + 1e-6

    def test_first_same_as_last(self):
        # 6 right-hand sides per trial step, accepted or rejected, and one
        # at the start: an accepted step's last stage is the next one's first
        op = assemble_operator_matrix(self.grid, self.params)
        matvec, calls = op.matvec, []
        op.matvec = lambda v: calls.append(None) or matvec(v)
        res = integrate(chen_ramp(self.grid.x), make_schedule(1.0, 3), self.cfg,
                        self.grid, self.params, BistableCubic(0.5), operator=op)
        trials = res.stats["steps"] + res.stats["rejected_steps"]
        assert res.stats["rejected_steps"] > 0
        assert len(calls) == 6 * trials + 1

    def test_rejection_budget(self, monkeypatch):
        # a first trial step of 1 is rejected, and so are its 0.2x shrinks,
        # so the rejection count passes the budget before any step is taken
        monkeypatch.setattr(fracfront.stepping, "DT_INITIAL", 1.0)
        monkeypatch.setattr(fracfront.stepping, "MAX_STEPS", 2)
        with pytest.raises(FracfrontError, match="^rejection loop exceeded MAX_STEPS$"):
            self.run(make_schedule(1.0, 2))

    def test_step_underflow(self):
        with pytest.raises(FracfrontError, match=r"below 1e-14 \* t_final$"):
            self.run(np.array([0.0, 1e-16, 1.0]))

    def test_accepted_step_budget(self, monkeypatch):
        # h = 0.5 is not stiff: 13 accepted steps and no rejection, so only
        # the budget on accepted steps can stop the run
        grid = Grid1D(10.0, 41)

        def run():
            return integrate(chen_ramp(grid.x), make_schedule(1.0, 2), self.cfg,
                             grid, self.params, BistableCubic(0.5))

        monkeypatch.setattr(fracfront.stepping, "MAX_STEPS", 13)
        res = run()
        assert (res.stats["steps"], res.stats["rejected_steps"]) == (13, 0)
        monkeypatch.setattr(fracfront.stepping, "MAX_STEPS", 12)
        with pytest.raises(FracfrontError, match="^exceeded MAX_STEPS = 12$"):
            run()


class TestIntegrate:
    def test_zero_horizon_returns_ic(self):
        g = Grid1D(10.0, 41)
        p = FractionalParams(1.5, 0.1)
        ic = np.linspace(0, 1, g.n)
        res = integrate(ic, make_schedule(0.0, 1),
                        StepperConfig(method="semi-implicit", dt=0.1),
                        g, p, BistableCubic(0.5))
        assert res.times.tolist() == [0.0]
        assert np.all(res.states[0] == ic)

    def test_snapshot_times_are_bitwise_exact(self):
        g = Grid1D(10.0, 41)
        p = FractionalParams(1.5, 0.1)
        sched = make_schedule(1.7, 6)
        for method in ("semi-implicit", "rk-adaptive"):
            cfg = StepperConfig(method=method, dt=0.03, abs_tol=1e-7,
                                rel_tol=1e-7)
            res = integrate(np.full(g.n, 0.2), sched, cfg, g, p,
                            BistableCubic(0.5))
            assert np.all(res.times == sched)

    def test_constant_states_are_equilibria(self):
        g = Grid1D(10.0, 41)
        p = FractionalParams(1.7, -0.2)
        nl = BistableCubic(0.35)
        sched = make_schedule(1.0, 3)
        for value in (0.0, 1.0):
            for method in ("semi-implicit", "rk-adaptive"):
                cfg = StepperConfig(method=method, dt=0.05,
                                    abs_tol=1e-8, rel_tol=1e-8)
                res = integrate(np.full(g.n, value), sched, cfg, g, p, nl)
                assert np.max(np.abs(res.final - value)) <= 1e-12

    def test_deterministic(self):
        g = Grid1D(15.0, 61)
        p = FractionalParams(1.8, 0.1)
        nl = BistableCubic(0.5)
        ic = 0.5 + 0.4 * np.tanh(g.x)
        sched = make_schedule(2.0, 5)
        cfg = StepperConfig(method="semi-implicit", dt=0.02)
        r1 = integrate(ic, sched, cfg, g, p, nl)
        r2 = integrate(ic, sched, cfg, g, p, nl)
        assert np.all(r1.states == r2.states)

    def test_divergence_guard(self):
        g = Grid1D(10.0, 41)
        p = FractionalParams(1.5, 0.0)
        cfg = StepperConfig(method="semi-implicit", dt=0.5)
        with pytest.raises(FracfrontError, match=r"^\|u\| reached "):
            integrate(np.full(g.n, 2000.0), make_schedule(10.0, 3), cfg,
                      g, p, BistableCubic(0.5))

    def test_nan_reaction_diverges(self):
        class NaNAbove:   # a reaction whose value is NaN above u = 0.5
            a = 0.5

            def f(self, u):
                return np.where(u > 0.5, np.nan, 0.0)

        g = Grid1D(10.0, 41)
        cfg = StepperConfig(method="semi-implicit", dt=0.1)
        with pytest.raises(FracfrontError, match=r"^\|u\| reached nan$"):
            integrate(chen_ramp(g.x), make_schedule(1.0, 3), cfg, g,
                      FractionalParams(1.5, 0.0), NaNAbove())

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(fracfront.stepping, "MAX_STEPS", 5)
        g = Grid1D(10.0, 41)
        p = FractionalParams(1.5, 0.0)
        cfg = StepperConfig(method="semi-implicit", dt=0.001)
        with pytest.raises(FracfrontError, match=r"^the schedule needs 1e\+03 steps "
                           r"of dt = 0.001, over MAX_STEPS = 5$"):
            integrate(np.full(g.n, 0.3), make_schedule(1.0, 2), cfg, g, p,
                      BistableCubic(0.5))

    @pytest.mark.parametrize("schedule,match", [
        ([0.5, 1.0], "start at t = 0"), ([], "start at t = 0"),
        ([0.0, 1.0, 1.0], "strictly increasing"),
        ([0.0, 2.0, 1.0], "strictly increasing"),
    ])
    def test_bad_schedule_rejected(self, schedule, match):
        g = Grid1D(10.0, 41)
        with pytest.raises(OutOfRangeError, match=match):
            integrate(np.full(g.n, 0.3), schedule, StepperConfig(), g,
                      FractionalParams(1.5, 0.0), BistableCubic(0.5))

    def test_stats_recorded(self):
        g = Grid1D(10.0, 41)
        p = FractionalParams(1.5, 0.1)
        res = integrate(np.full(g.n, 0.3), make_schedule(1.0, 3),
                        StepperConfig(method="semi-implicit", dt=0.1),
                        g, p, BistableCubic(0.5))
        assert res.stats["steps"] == 10
        assert res.stats["rejected_steps"] == 0
        assert res.stats["wall_time_s"] > 0
        assert "u_min" in res.stats and "u_max" in res.stats

    def test_solver_stats(self):
        g = Grid1D(10.0, 41)
        p = FractionalParams(1.5, 0.1)
        A = assemble_operator_matrix(g, p)
        runs = [integrate(np.full(g.n, 0.3), make_schedule(1.0, 3),
                          StepperConfig(method=method, dt=0.1), g, p,
                          BistableCubic(0.5), operator=A)
                for method in ("semi-implicit", "semi-implicit", "rk-adaptive")]
        assert runs[0].stats["solver"] == "dense-inverse"
        # each run builds its own solver, also on a shared operator
        assert runs[0].stats["solver_setup_s"] > 0
        assert runs[1].stats["solver_setup_s"] > 0
        assert "solver" not in runs[2].stats
        assert "solver_setup_s" not in runs[2].stats

    def test_toeplitz_solver_above_the_dense_limit(self):
        g = Grid1D(30.0, (DENSE_INVERSE_MAX_N + 1) | 1)  # smallest odd n above
        res = integrate(chen_ramp(g.x), make_schedule(0.1, 2),
                        StepperConfig(method="semi-implicit", dt=0.02), g,
                        FractionalParams(1.7, 0.2), BistableCubic(0.5))
        assert res.stats["solver"] == "toeplitz"
        assert res.stats["solver_setup_s"] > 0
        assert res.stats["steps"] == 5


def _run_recording_steps(t_final, snapshots, dt, n=21, operator=None,
                         advance=True):
    """Integrate a ramp and return ``(result, step sizes in call order)``.

    With ``advance=False`` the steps only record their size and keep the
    state, which is all a test of the step plan needs.
    """
    g = Grid1D(15.0, n)
    sizes = []
    step = fracfront.stepping.step_semi_implicit

    def record(u, dt, solve, nl):
        sizes.append(dt)
        return step(u, dt, solve, nl) if advance else u

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fracfront.stepping, "step_semi_implicit", record)
        res = integrate(chen_ramp(g.x), make_schedule(t_final, snapshots),
                        StepperConfig(method="semi-implicit", dt=dt), g,
                        FractionalParams(1.7, 0.2), BistableCubic(0.5),
                        operator=operator)
    return res, sizes


class TestStepPlan:
    def test_one_inverse_when_intervals_are_not_multiples_of_dt(self,
                                                                monkeypatch):
        # 20 / 6 is not a whole multiple of 0.02: each interval takes 167
        # equal steps, all of one size
        g = Grid1D(15.0, 61)
        A = assemble_operator_matrix(g, FractionalParams(1.7, 0.2))
        calls = []
        inv = np.linalg.inv

        def counting_inv(M):
            calls.append(M.shape)
            return inv(M)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        res, sizes = _run_recording_steps(20.0, 7, 0.02, n=61, operator=A)
        assert calls == [(g.n, g.n)]
        # the run held the inverse, the operator none
        assert not [v for v in vars(A).values() if np.shape(v) == (g.n, g.n)]
        assert res.stats["steps"] == len(sizes) == 6 * 167

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    # subnormal horizons are left out: their linspace intervals differ by
    # more than 1e-12 relative, so they may take two step sizes
    @given(t_final=st.floats(0.0, 50.0, exclude_min=True,
                             allow_subnormal=False),
           snapshots=st.integers(2, 60), dt=st.floats(1e-3, 1.0))
    def test_fewest_equal_steps_of_one_size(self, t_final, snapshots, dt):
        schedule = make_schedule(t_final, snapshots)
        assume(np.all(np.diff(schedule) > 0))
        res, sizes = _run_recording_steps(t_final, snapshots, dt,
                                          advance=False)
        counts = [math.ceil(span / dt * (1 - 1e-12))
                  for span in np.diff(schedule)]
        assert res.stats["steps"] == len(sizes) == sum(counts)
        assert all(s <= dt * (1 + 1e-12) for s in sizes)
        assert len(set(sizes)) == 1
        for span, count in zip(np.diff(schedule), counts):
            assert sizes[0] * count == pytest.approx(span, rel=1e-12)

    def test_whole_multiples_step_by_exactly_dt(self):
        res, sizes = _run_recording_steps(20.0, 21, 0.02)
        assert len(sizes) == res.stats["steps"] == 1000
        assert all(s == 0.02 for s in sizes)


def _lone_and_group(n, a_values, cfg, t_final=1.0, snapshots=4,
                    params=FractionalParams(1.6, 0.2), shifts=None):
    """The runs of each value of a alone, and of all of them as one group:
    from the ramp, or with ``shifts`` row j from the ramp moved by shifts[j]."""
    g = Grid1D(10.0, n)
    sched = make_schedule(t_final, snapshots)
    rows = [chen_ramp(g.x - s) for s in shifts or [0.0] * len(a_values)]
    ic = rows[0] if shifts is None else np.array(rows)
    lone = [integrate(row, sched, cfg, g, params, BistableCubic(a))
            for row, a in zip(rows, a_values)]
    group = list(integrate_group(ic, sched, cfg, g, params,
                                 [BistableCubic(a) for a in a_values]))
    return lone, group


def _same_run(lone, grouped):
    """States, times and every stat but the timings, bit for bit."""
    assert np.array_equal(grouped.states, lone.states)
    assert np.array_equal(grouped.times, lone.times)
    assert grouped.nl == lone.nl
    timing = ("wall_time_s", "solver_setup_s")
    strip = lambda stats: {k: repr(v) for k, v in stats.items() if k not in timing}
    assert strip(grouped.stats) == strip(lone.stats)   # repr: -0.0 != 0.0
    assert grouped.stats.keys() == lone.stats.keys()


class TestIntegrateGroup:
    """A group of runs that differ in a, in initial state or in both equals
    its runs alone."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 30).map(lambda m: 2 * m + 1),
           a_values=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4),
           dt=st.floats(1e-3, 0.5), data=st.data())
    def test_stacked_rows_equal_lone_runs(self, n, a_values, dt, data):
        # one shared initial state, or one ramp per row
        shifts = data.draw(st.none() | st.lists(
            st.floats(-8.0, 8.0), min_size=len(a_values), max_size=len(a_values)))
        cfg = StepperConfig(method="semi-implicit", dt=dt)
        lone, group = _lone_and_group(n, a_values, cfg, shifts=shifts)
        assert len(group) == len(a_values)
        for alone, grouped in zip(lone, group):
            _same_run(alone, grouped)

    @pytest.mark.parametrize("method", ["semi-implicit", "rk-adaptive"])
    def test_both_steppers(self, method):
        cfg = StepperConfig(method=method, dt=0.05, abs_tol=1e-7, rel_tol=1e-7)
        for shifts in (None, (0.0, -3.0, 2.5)):   # one initial state, or one per row
            lone, group = _lone_and_group(61, (0.3, 0.45, 0.7), cfg, shifts=shifts)
            for alone, grouped in zip(lone, group):
                _same_run(alone, grouped)

    @pytest.mark.parametrize("last,runs,error,match", [
        (np.nan, 3, FracfrontError, "^state vector contains NaN or Inf$"),
        (2e6, 3, FracfrontError, r"^\|u\| reached 2e\+06$"),
        (0.5, 2, OutOfRangeError, r"^state has shape \(3, 41\)"),   # 3 rows, 2 runs
    ])
    def test_initial_states_are_checked_before_the_first_step(
            self, last, runs, error, match, monkeypatch):
        steps = []
        monkeypatch.setattr(fracfront.stepping, "step_semi_implicit",
                            lambda *args: steps.append(1))
        g = Grid1D(10.0, 41)
        ics = np.array([chen_ramp(g.x), chen_ramp(g.x), np.full(g.n, last)])
        group = integrate_group(ics, make_schedule(1.0, 4), StepperConfig(), g,
                                FractionalParams(1.6, 0.2), [BistableCubic(0.5)] * runs)
        with pytest.raises(error, match=match):
            next(group)
        assert steps == []

    def test_one_solver_at_a_time(self, monkeypatch):
        # intervals of 0.05 and 0.03 take steps of 0.05 / 3 and 0.015: the
        # first solver is gone before the second is built
        built = []
        factorization = OperatorMatrix.factorization

        def tracking(self, dt):
            assert all(ref() is None for ref in built)
            solve = factorization(self, dt)
            built.append(weakref.ref(solve))
            return solve

        monkeypatch.setattr(OperatorMatrix, "factorization", tracking)
        g = Grid1D(10.0, 41)
        run = integrate(chen_ramp(g.x), np.array([0.0, 0.05, 0.08]),
                        StepperConfig(dt=0.02), g, FractionalParams(1.6, 0.2),
                        BistableCubic(0.5))
        assert len(built) == 2 and run.stats["steps"] == 5

    def test_above_the_dense_limit(self):
        n = (DENSE_INVERSE_MAX_N + 1) | 1
        cfg = StepperConfig(method="semi-implicit", dt=0.02)
        lone, group = _lone_and_group(n, (0.4, 0.6), cfg, t_final=0.2)
        assert group[0].stats["solver"] == "toeplitz"
        for alone, grouped in zip(lone, group):
            _same_run(alone, grouped)

    def test_timings_of_a_group(self):
        # the stepping's wall time for every run; the setup charged to the first
        cfg = StepperConfig(method="semi-implicit", dt=0.05)
        _, group = _lone_and_group(41, (0.3, 0.5, 0.7), cfg)
        assert len({run.stats["wall_time_s"] for run in group}) == 1
        assert group[0].stats["wall_time_s"] >= group[0].stats["solver_setup_s"] > 0
        assert [run.stats["solver_setup_s"] for run in group[1:]] == [0.0, 0.0]

    @pytest.mark.parametrize("method", ["semi-implicit", "rk-adaptive"])
    def test_a_failing_run_stops_the_runs_after_it(self, method, monkeypatch):
        # a = 0.5 reacts without bound: the run before it finishes, the one
        # after it stops, and its error follows the finished run
        cubic = BistableCubic.f
        monkeypatch.setattr(BistableCubic, "f", lambda self, u: np.where(
            np.asarray(self.a) == 0.5, 1e9, cubic(self, u)))
        cfg = StepperConfig(method=method, dt=0.05)
        g = Grid1D(10.0, 41)
        runs = integrate_group(chen_ramp(g.x), make_schedule(1.0, 4), cfg, g,
                               FractionalParams(1.6, 0.2),
                               [BistableCubic(a) for a in (0.3, 0.5, 0.7)])
        first = next(runs)
        with pytest.raises(FracfrontError, match=r"^\|u\| reached "):
            next(runs)
        assert next(runs, None) is None   # a = 0.7 never yields
        alone = integrate(chen_ramp(g.x), make_schedule(1.0, 4), cfg, g,
                          FractionalParams(1.6, 0.2), BistableCubic(0.3))
        _same_run(alone, first)
        with pytest.raises(FracfrontError, match=r"^\|u\| reached "):
            next(integrate_group(chen_ramp(g.x), make_schedule(1.0, 4), cfg, g,
                                 FractionalParams(1.6, 0.2),
                                 [BistableCubic(a) for a in (0.5, 0.3)]))
