import numpy as np
import pytest

from fracfront import (
    FracfrontError,
    FractionalParams,
    Grid1D,
    OutOfRangeError,
    RunConfig,
    green_function,
    quadrature_coefficients,
    quadrature_nodes_weights,
    validate_state,
)


# each integral count a call takes, and the int the call made of it
COUNTS = {
    "n": lambda n: Grid1D(30.0, n).n,
    "snapshots": lambda n: len(RunConfig(alpha=1.7, theta=0.2, snapshots=n)
                               .validated()[4]),
    "k_modes": lambda n: len(green_function(FractionalParams(1.5, 0.0), 1.0,
                                            800.0, n)[0]),
}


class TestParams:
    def test_boundary_skewness_admitted(self):
        p = FractionalParams(1.5, 0.5)  # min(1.5, 0.5) = 0.5: on the edge
        assert (p.alpha, p.theta) == (1.5, 0.5)

    def test_classical_endpoint_forces_zero_skewness(self):
        FractionalParams(2.0, 0.0)
        with pytest.raises(OutOfRangeError):
            FractionalParams(2.0, 0.1)

    def test_representative_parameters_admissible(self):
        assert FractionalParams(1.8, 0.1).theta == 0.1

    @pytest.mark.parametrize("alpha,theta", [
        (2.5, 0.0), (1.0, 0.0), (0.5, 0.0), (1.5, 0.6), (1.2, -0.9),
        (1.1, 0.9 + 1e-9), (1.5, float("nan")),
    ])
    def test_out_of_range(self, alpha, theta):
        with pytest.raises(OutOfRangeError):
            FractionalParams(alpha, theta)

    @pytest.mark.parametrize("alpha,theta", [
        (1.1, 0.9), (1.1, -0.9), (1.6, 0.4), (1.6, -0.4),
    ])
    def test_rounded_down_edge_admitted(self, alpha, theta):
        # 2.0 - alpha rounds below |theta| here, yet the pair is the edge
        assert 2.0 - alpha < abs(theta)
        c1, c2 = quadrature_coefficients(FractionalParams(alpha, theta))
        assert c1 >= 0.0 and c2 >= 0.0


class TestGrid:
    def test_default_grid_geometry(self):
        g = Grid1D(30.0, 181)
        assert g.m == 90
        assert g.x[0] == -30.0 and g.x[-1] == 30.0
        assert g.x[g.m] == 0.0
        # uniform spacing to a couple of ulps
        diffs = np.diff(g.x)
        assert np.max(np.abs(diffs - g.h)) <= 4 * np.finfo(float).eps * 30.0

    @pytest.mark.parametrize("b,n", [(30.0, 180), (30.0, 1), (0.0, 181), (-1.0, 5),
                                     (float("nan"), 5), (float("inf"), 5)])
    def test_invalid_grid(self, b, n):
        with pytest.raises(OutOfRangeError):
            Grid1D(b, n)

    # b^3 and h^3 must be finite, normal doubles: b and h in about
    # [2.81e-103, 5.64e102]
    @pytest.mark.parametrize("b,n", [(5.6e102, 3), (5.6e102, 10001), (2.9e-103, 3),
                                     (1e-100, 201)])
    def test_extreme_half_widths_accepted(self, b, n):
        g = Grid1D(b, n)
        assert g.x[0] == -b and g.x[-1] == b and np.all(np.diff(g.x) > 0)

    @pytest.mark.parametrize("b,n", [(5.7e102, 3), (2.8e-103, 3), (1e-100, 1001)])
    def test_unrepresentable_half_widths_rejected(self, b, n):
        with pytest.raises(OutOfRangeError) as exc:
            Grid1D(b, n)
        assert exc.value.param == "b"

    @pytest.mark.parametrize("name,n", [
        pytest.param("n", n, id=str(n))
        for n in (181.5, 181.7, float("nan"), float("inf"))] + [
        ("snapshots", 21.5), ("snapshots", float("nan")), ("snapshots", "21"),
        ("k_modes", 1000.5), ("k_modes", float("inf"))])
    def test_node_count_must_be_integral(self, name, n):
        with pytest.raises(OutOfRangeError) as exc:
            COUNTS[name](n)
        assert exc.value.param == name

    def test_non_integral_node_count_in_run_config(self):
        with pytest.raises(OutOfRangeError) as exc:
            RunConfig(alpha=1.5, theta=0.0, n=181.7).validated()
        assert exc.value.param == "n"

    @pytest.mark.parametrize("name,n", [
        pytest.param("n", np.int64(181), id="n0"),
        pytest.param("n", np.int32(181), id="n1"),
        pytest.param("n", 181.0, id="181.0"),
        ("snapshots", 21.0),
        pytest.param("snapshots", np.int64(21), id="snapshots-int64"),
        ("k_modes", 1000.0)])
    def test_integral_node_counts_accepted(self, name, n):
        count = COUNTS[name](n)
        assert count == int(n) and type(count) is int

    def test_quadrature_mesh_default(self):
        g = Grid1D(30.0, 181)
        xi, w = quadrature_nodes_weights(g)
        assert len(xi) == 90
        assert xi[0] == g.h                      # = 1/3
        assert xi[-1] == 30.0                    # lands on b exactly
        assert w[0] == g.h / 2 and w[-1] == g.h / 2
        assert np.all(w[1:-1] == g.h)

    def test_quadrature_mesh_coarse_cases(self):
        xi, w = quadrature_nodes_weights(Grid1D(10.0, 101))
        assert len(xi) == 50
        assert xi[0] == pytest.approx(0.2, abs=0)
        assert xi[-1] == 10.0

        xi, w = quadrature_nodes_weights(Grid1D(1.0, 5))
        assert np.allclose(xi, [0.5, 1.0], atol=0)
        assert np.allclose(w, [0.25, 0.25], atol=0)

    def test_quadrature_mesh_too_small(self):
        with pytest.raises(OutOfRangeError, match="^quadrature needs n >= 5"):
            quadrature_nodes_weights(Grid1D(1.0, 3))  # M = 1


class TestState:
    def test_shape_mismatch(self):
        with pytest.raises(OutOfRangeError):
            validate_state(np.zeros(5), Grid1D(1.0, 7))

    def test_nonfinite(self):
        u = np.zeros(7)
        u[3] = np.nan
        with pytest.raises(FracfrontError, match="^state vector contains NaN or Inf$"):
            validate_state(u, Grid1D(1.0, 7))
