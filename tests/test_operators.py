import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgecon

from fracfront import (
    FracfrontError,
    FractionalParams,
    Grid1D,
    OperatorMatrix,
    OutOfRangeError,
    apply_riesz_feller,
    assemble_operator_matrix,
    free_space_reference,
    grunwald_letnikov_operator,
    grunwald_letnikov_weights,
    quadrature_coefficients,
    riesz_feller_symbol,
    spectral_apply,
)
from fracfront.operators import (
    DENSE_INVERSE_MAX_N,
    ToeplitzSolver,
    _fft_size,
)
from fracfront.selftest import admissible_lattice

GAUSS = lambda x: np.exp(-x ** 2)
CLASSICAL = FractionalParams(2.0, 0.0)   # the second difference


# ---------------------------------------------------------------------------
# symbol
# ---------------------------------------------------------------------------

class TestSymbol:
    def test_classical_reduction(self):
        assert riesz_feller_symbol(FractionalParams(2.0, 0.0), 3.0) == pytest.approx(
            -9.0 + 0j, abs=1e-14)

    def test_symmetric_case_is_real(self):
        val = riesz_feller_symbol(FractionalParams(1.5, 0.0), -2.0)
        assert val == pytest.approx(-(2.0 ** 1.5), abs=1e-12)
        assert val.imag == 0.0

    def test_skewed_value(self):
        val = riesz_feller_symbol(FractionalParams(1.5, 0.5), 1.0)
        expected = -np.exp(1j * np.pi / 4)
        assert val == pytest.approx(expected, abs=1e-12)

    def test_dissipative_and_conjugate_symmetric(self):
        xi = np.linspace(-40, 40, 1001)
        for alpha, theta in admissible_lattice(5, 5):
            psi = riesz_feller_symbol(FractionalParams(alpha, theta), xi)
            assert np.all(psi.real <= 0)
            psi_neg = riesz_feller_symbol(FractionalParams(alpha, theta), -xi)
            assert np.allclose(psi_neg, np.conj(psi), atol=1e-14)


# ---------------------------------------------------------------------------
# integral-representation coefficients
# ---------------------------------------------------------------------------

class TestCoefficients:
    def test_symmetric_value(self):
        c1, c2 = quadrature_coefficients(FractionalParams(1.5, 0.0))
        # Gamma(2.5) sin(3 pi/4) / pi, frozen from a 30-digit evaluation
        assert c1 == pytest.approx(0.29920671030107451, abs=1e-15)
        assert c1 == c2

    def test_fully_skewed_value(self):
        c1, c2 = quadrature_coefficients(FractionalParams(1.5, 0.5))
        assert abs(c1) < 1e-15                      # sin(pi) = 0
        assert c2 == pytest.approx(0.42314218766081722, abs=1e-15)

    def test_representative_values(self):
        c1, c2 = quadrature_coefficients(FractionalParams(1.8, 0.1))
        assert c1 == pytest.approx(0.08348024981186786, abs=1e-14)
        assert c2 == pytest.approx(0.24226912094291634, abs=1e-14)

    def test_degenerate_at_two(self):
        with pytest.raises(OutOfRangeError, match="^c1 = c2 = 0 at alpha = 2"):
            quadrature_coefficients(FractionalParams(2.0, 0.0))

    def test_lattice_identities(self):
        for alpha, theta in admissible_lattice():
            c1, c2 = quadrature_coefficients(FractionalParams(alpha, theta))
            assert c1 >= 0 and c2 >= 0 and c1 + c2 > 0
            c2m, c1m = quadrature_coefficients(FractionalParams(alpha, -theta))
            assert c1 == c1m and c2 == c2m          # exact exchange symmetry
            edge, _ = quadrature_coefficients(FractionalParams(alpha, 2 - alpha))
            assert abs(edge) <= 1e-12


# ---------------------------------------------------------------------------
# quadrature scheme
# ---------------------------------------------------------------------------

class TestQuadratureApply:
    def test_constant_annihilation(self):
        for g in (Grid1D(30.0, 181), Grid1D(30.0, 6401)):
            for alpha, theta in ((1.5, 0.0), (1.8, 0.1), (1.2, -0.6)):
                v = apply_riesz_feller(np.full(g.n, 0.7), g,
                                       FractionalParams(alpha, theta))
                assert np.max(np.abs(v)) <= 1e-13
                v = apply_riesz_feller(np.full(g.n, 0.7), g,
                                       FractionalParams(alpha, theta),
                                       tail_correction=True)
                assert np.max(np.abs(v)) <= 1e-13

    def test_affine_annihilation_free_space(self):
        g = Grid1D(30.0, 181)
        affine = lambda x: 0.3 + 0.7 * x
        for alpha, theta in ((1.5, 0.3), (1.9, -0.1), (1.2, 0.7)):
            v = apply_riesz_feller(affine(g.x), g, FractionalParams(alpha, theta),
                                   ghosts=affine)
            assert np.max(np.abs(v)) <= 1e-10

    def test_gaussian_matches_oracle(self):
        # free-space comparison at the resolution of the operator example
        g = Grid1D(30.0, 1601)
        p = FractionalParams(1.6, 0.3)
        ref = free_space_reference(GAUSS, g, p)
        got = apply_riesz_feller(GAUSS(g.x), g, p, ghosts=GAUSS,
                                 tail_correction=True)
        rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert rel <= 0.02

    def test_oracle_error_decreases(self):
        p = FractionalParams(1.6, 0.3)
        errs = []
        for n in (201, 401, 801):
            g = Grid1D(30.0, n)
            ref = free_space_reference(GAUSS, g, p)
            got = apply_riesz_feller(GAUSS(g.x), g, p, ghosts=GAUSS,
                                     tail_correction=True)
            errs.append(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
        assert errs[0] > errs[1] > errs[2]


class TestAssembledMatrix:
    def test_annihilates_ones(self):
        A = assemble_operator_matrix(Grid1D(30.0, 181), FractionalParams(1.8, 0.1))
        assert np.max(np.abs(A.entries @ np.ones(181))) <= 1e-12

    def test_row_sums_vanish(self):
        for tail in (False, True):
            A = assemble_operator_matrix(Grid1D(10.0, 101),
                                         FractionalParams(1.4, -0.3),
                                         tail_correction=tail)
            rows = np.abs(A.entries).max(axis=1)
            assert np.max(np.abs(A.entries.sum(axis=1)) / rows) <= 1e-12

    @pytest.mark.parametrize("tail", [False, True])
    def test_matches_matrix_free(self, tail):
        g = Grid1D(30.0, 181)
        p = FractionalParams(1.6, 0.25)
        A = assemble_operator_matrix(g, p, tail_correction=tail)
        rng = np.random.default_rng(42)
        for _ in range(20):
            u = rng.standard_normal(g.n)
            direct = apply_riesz_feller(u, g, p, tail_correction=tail)
            via = A.entries @ u
            assert np.max(np.abs(via - direct)) <= 1e-12 * np.max(np.abs(via))

    def test_symmetric_when_unskewed(self):
        # boundary clamping funnels extra kernel mass into the first and
        # last columns, so symmetry holds on the interior block
        A = assemble_operator_matrix(Grid1D(1.0, 5), FractionalParams(1.5, 0.0))
        inner = A.entries[1:-1, 1:-1]
        scale = np.abs(A.entries).max()
        assert np.max(np.abs(inner - inner.T)) <= 1e-13 * scale
        # and exactly as a reflection equivariance of the whole matrix
        assert np.max(np.abs(A.entries[::-1, ::-1] - A.entries)) <= 1e-13 * scale

    def test_reflection_maps_skew_to_opposite(self):
        # reversing rows and columns of A(theta) gives A(-theta); the scheme
        # is exactly reflection-equivariant
        g = Grid1D(1.0, 5)
        A_pos = assemble_operator_matrix(g, FractionalParams(1.5, 0.3)).entries
        A_neg = assemble_operator_matrix(g, FractionalParams(1.5, -0.3)).entries
        scale = np.abs(A_pos).max()
        assert np.max(np.abs(A_pos[::-1, ::-1] - A_neg)) <= 1e-13 * scale

    def test_classical_endpoint_routes_to_laplacian(self):
        g = Grid1D(2.0, 9)
        A = assemble_operator_matrix(g, FractionalParams(2.0, 0.0))
        u = np.sin(g.x)
        assert np.allclose(A.entries @ u, apply_riesz_feller(u, g, CLASSICAL),
                           atol=1e-13)


def _quadrature_brute_force(u, grid, params, ghosts=None, tail=False):
    """Literal double loop over nodes and sub-mesh nodes j = 1..m, written
    from the module docstring: value differences against the kernel
    xi^(-1-alpha), the central-difference drift, the singular-cell
    correction q_sing and the closed-form (b, inf) tail."""
    c1, c2 = quadrature_coefficients(params)
    alpha, h, b, n, m = params.alpha, grid.h, grid.b, grid.n, grid.m

    def at(i):  # nodal value, or the ghost value off the grid
        if 0 <= i < n:
            return u[i]
        if ghosts is None:   # projection
            return u[0] if i < 0 else u[-1]
        return float(ghosts(np.array([-b + i * h]))[0])

    xis = [j * h for j in range(1, m)] + [b]
    ws = [h / 2 if j in (1, m) else h for j in range(1, m + 1)]
    s2 = sum(w * xi ** -alpha for w, xi in zip(ws, xis))
    q_sing = b ** (2 - alpha) / (2 - alpha) - sum(
        w * xi ** (1 - alpha) for w, xi in zip(ws, xis))
    t1 = b ** -alpha / alpha
    t2 = b ** (1 - alpha) / (alpha - 1)
    v = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(1, m + 1):
            acc += ws[j - 1] * xis[j - 1] ** (-1 - alpha) * (
                c1 * (at(i + j) - u[i]) + c2 * (at(i - j) - u[i]))
        du = (at(i + 1) - at(i - 1)) / (2 * h)
        d2 = (at(i + 1) - 2 * u[i] + at(i - 1)) / h ** 2
        acc += (c2 - c1) * s2 * du + 0.5 * (c1 + c2) * q_sing * d2
        if tail:
            acc += (c1 * ((u[-1] - u[i]) * t1 - du * t2)
                    + c2 * ((u[0] - u[i]) * t1 + du * t2))
        v[i] = acc
    return v


BRUTE_FORCE_PAIRS = ((1.3, -0.5), (1.6, 0.3), (1.9, 0.0), (1.2, 0.8))


class TestAgainstBruteForce:
    @pytest.mark.parametrize("n", [13, 21])
    @pytest.mark.parametrize("tail", [False, True])
    @pytest.mark.parametrize("ghosts", [pytest.param(None, id="projection"), GAUSS])
    def test_apply(self, n, tail, ghosts):
        grid = Grid1D(2.5, n)
        u = np.random.default_rng(n).standard_normal(n)
        for alpha, theta in BRUTE_FORCE_PAIRS:
            p = FractionalParams(alpha, theta)
            slow = _quadrature_brute_force(u, grid, p, ghosts, tail)
            fast = apply_riesz_feller(u, grid, p, ghosts=ghosts,
                                      tail_correction=tail)
            assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))

    @pytest.mark.parametrize("n", [13, 21])
    @pytest.mark.parametrize("tail", [False, True])
    def test_dense_matrix(self, n, tail):
        grid = Grid1D(2.5, n)
        for alpha, theta in BRUTE_FORCE_PAIRS:
            p = FractionalParams(alpha, theta)
            A = assemble_operator_matrix(grid, p, tail_correction=tail).entries
            cols = np.column_stack([_quadrature_brute_force(e, grid, p, tail=tail)
                                    for e in np.eye(n)])
            assert np.max(np.abs(A - cols)) <= 1e-12 * np.max(np.abs(cols))


@st.composite
def _schemes(draw, max_n=401):
    """Odd n in [5, max_n], admissible (alpha, theta) with both edges, tail."""
    n = 2 * draw(st.integers(2, (max_n - 1) // 2)) + 1
    alpha = draw(st.floats(1.01, 1.99))
    edge = 2.0 - alpha
    theta = draw(st.sampled_from([edge, -edge]) | st.floats(-edge, edge))
    b = draw(st.floats(1.0, 50.0))
    return Grid1D(b, n), FractionalParams(alpha, theta), draw(st.booleans())


_property = settings(max_examples=40, deadline=None, derandomize=True,
                     database=None)


class TestStencilProperties:
    @pytest.mark.parametrize("n,weights,match", [
        (21, np.zeros(4), r"^weights have shape \(4,\), not \(2M \+ 1,\) with M < n = 21$"),
        (21, np.zeros((3, 3)), r"^weights have shape \(3, 3\),"),
        (21, np.zeros(43), r"^weights have shape \(43,\),"),   # M = n
        (21, np.array([1.0, 0.5, 1.0]), r"^centre weight is 0\.5, not 0$"),
        (21, np.array([1.0, -2.0, 1.0]), r"^centre weight is -2, not 0$"),
        (1003, np.array([1.0, 3.0, 1.0]), r"^centre weight is 3, not 0$"),
    ], ids=["length-4", "3x3", "length-2n+1", "centre-0.5", "centre-minus-2",
            "toeplitz-centre-3"])
    def test_malformed_stencil_is_refused(self, n, weights, match):
        # the diagonal is -row_sum: with a nonzero centre, matvec and entries
        # agree, but factorization(dt) solved another system
        with pytest.raises(OutOfRangeError, match=match):
            OperatorMatrix(Grid1D(10.0, n), weights)

    @_property
    @given(_schemes())
    def test_dense_fft_and_apply_agree(self, scheme):
        grid, p, tail = scheme
        A = assemble_operator_matrix(grid, p, tail_correction=tail)
        u = np.random.default_rng(grid.n).standard_normal(grid.n)
        dense = A.entries @ u
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(A.matvec(u) - dense)) <= 1e-12 * scale
        direct = apply_riesz_feller(u, grid, p, tail_correction=tail)
        assert np.max(np.abs(direct - dense)) <= 1e-12 * scale

    @_property
    @given(_schemes())
    def test_rows_sum_to_zero(self, scheme):
        grid, p, tail = scheme
        A = assemble_operator_matrix(grid, p, tail_correction=tail).entries
        rows = np.abs(A).max(axis=1)
        assert np.max(np.abs(A.sum(axis=1)) / rows) <= 1e-12

    @_property
    @given(_schemes())
    def test_reflection_maps_skew_to_opposite(self, scheme):
        grid, p, tail = scheme
        mirror = FractionalParams(p.alpha, -p.theta)
        A = assemble_operator_matrix(grid, p, tail_correction=tail).entries
        B = assemble_operator_matrix(grid, mirror, tail_correction=tail).entries
        assert np.max(np.abs(A[::-1, ::-1] - B)) <= 1e-12 * np.abs(A).max()

    @_property
    @given(_schemes(), st.floats(-10.0, 10.0))
    def test_constant_maps_to_exact_zero(self, scheme, value):
        grid, p, tail = scheme
        u = np.full(grid.n, value)
        A = assemble_operator_matrix(grid, p, tail_correction=tail)
        assert np.all(A.matvec(u) == 0.0)
        assert np.all(apply_riesz_feller(u, grid, p, tail_correction=tail) == 0.0)


def _stencil_brute_force(op, u, ghosts):
    """Row by row from the stencil's definition: value differences over the
    window of offsets |d| <= M, ghosts off the grid, and the far weights
    against the boundary values."""
    n, m = op.grid.n, len(op.weights) // 2
    j = np.arange(-m, n + m)
    ext = np.where((j >= 0) & (j < n), np.pad(u, m),
                   ghosts(op.grid.x[0] + op.grid.h * j))
    return np.array([op.weights @ (ext[i:i + 2 * m + 1] - u[i])
                     + op.far[0] * (u[0] - u[i]) + op.far[1] * (u[-1] - u[i])
                     for i in range(n)])


def _transform_size(kind, n):
    """Length of the apply's transform: n + M, M = (n-1)/2, n-1 or 1."""
    return _fft_size(n + {"quadrature": (n - 1) // 2, "gl": n - 1,
                          "classical": 1}[kind])


@st.composite
def _stencils(draw):
    """Quadrature (n >= 5), Grunwald-Letnikov (M = n - 1) or alpha = 2
    (M = 1) stencils on odd n in 3..401; about half the draws take an n
    whose transform length is odd."""
    kind = draw(st.sampled_from(["quadrature", "gl", "classical"]))
    low = 5 if kind == "quadrature" else 3
    odd = [n for n in range(low, 402, 2) if _transform_size(kind, n) % 2]
    n = draw(st.sampled_from(odd) | st.integers(low // 2, 200).map(
        lambda k: 2 * k + 1))
    grid = Grid1D(draw(st.floats(1.0, 50.0)), n)
    alpha = draw(st.floats(1.01, 1.99))
    if kind == "gl":
        return kind, grid, None, False, grunwald_letnikov_operator(grid, alpha)
    if kind == "classical":
        return kind, grid, CLASSICAL, False, assemble_operator_matrix(grid, CLASSICAL)
    edge = 2.0 - alpha
    p = FractionalParams(alpha, draw(st.sampled_from([edge, -edge])
                                     | st.floats(-edge, edge)))
    tail = draw(st.booleans())
    return kind, grid, p, tail, assemble_operator_matrix(grid, p, tail)


class TestFftLengths:
    def test_smallest_five_smooth_length(self):
        def smooth(k):
            for q in (2, 3, 5):
                while k % q == 0:
                    k //= q
            return k == 1
        k, expected = 1, []
        for length in range(1, 5001):
            while not smooth(k) or k < length:
                k += 1
            expected.append(k)
        assert [_fft_size(k) for k in range(1, 5001)] == expected

    def test_lengths_at_1601_nodes(self):
        # n + M = 2401 -> 2430 = 2 3^5 5 and 2n - 1 = 3201 -> 3240 = 2^3 3^4 5
        A = assemble_operator_matrix(Grid1D(30.0, 1601), FractionalParams(1.7, 0.2))
        assert A._size == 2430
        assert len(A._spectrum) == 2430 // 2 + 1
        assert A.factorization(0.02)._size == 3240

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_stencils())
    def test_apply_on_every_length(self, stencil):
        kind, grid, p, tail, A = stencil
        assert A._size == _transform_size(kind, grid.n)
        u = np.random.default_rng(grid.n).standard_normal(grid.n)
        dense = A.entries @ u
        assert np.max(np.abs(A.matvec(u) - dense)) <= 1e-12 * np.max(np.abs(dense))
        ghosts = lambda x: np.cos(0.7 * x) + 0.1 * x
        slow = (_quadrature_brute_force(u, grid, p, ghosts, tail)
                if kind == "quadrature" else _stencil_brute_force(A, u, ghosts))
        fast = A.matvec(u, ghosts)
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))


# ---------------------------------------------------------------------------
# Toeplitz solver of the implicit step
# ---------------------------------------------------------------------------

@st.composite
def _implicit_systems(draw, max_n=401):
    """A scheme from ``_schemes`` (one in five at alpha = 2) and a dt."""
    grid, p, tail = draw(_schemes(max_n))
    if draw(st.integers(0, 4)) == 0:
        p = CLASSICAL
    return grid, p, tail, draw(st.floats(1e-3, 1.0))


def _vectorized_trench(solver):
    """Trench's inverse by whole-array operations, two n x n arrays at its
    peak: the reference that a dense solver's ``_inverse`` matches bit for bit."""
    f, g = solver._f, solver._g
    B = np.multiply.outer(f, g[::-1])
    B[1:, 1:] -= np.multiply.outer(g[:-1], f[:0:-1])
    B /= f[0]
    for i in range(1, solver._n):
        B[i, 1:] += B[i - 1, :-1]
    B -= np.einsum("ik,kj->ij", solver._fold, B[[0, -1]])
    return B


class TestToeplitzSolver:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(_implicit_systems())
    def test_matches_lu_solve(self, system):
        grid, p, tail, dt = system
        A = assemble_operator_matrix(grid, p, tail_correction=tail)
        rhs = np.random.default_rng(grid.n).standard_normal(grid.n)
        ref = lu_solve(lu_factor(np.eye(grid.n) - dt * A.entries), rhs)
        out = ToeplitzSolver(A, dt)(rhs)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    # above the dense limit, where the semi-implicit step uses this solver;
    # cond1 is LAPACK's estimate of the 1-norm condition number from the LU
    @pytest.mark.parametrize("n,b,alpha,theta,tail", [
        (1201, 2.0, 1.99, 0.01, True), (1001, 2.0, 1.99, 0.01, True),
        (1601, 5.0, 2.0, 0.0, False), (1201, 1.0, 1.3, -0.5, True)])
    def test_matches_lu_solve_above_the_dense_limit(self, n, b, alpha, theta, tail):
        A = assemble_operator_matrix(Grid1D(b, n), FractionalParams(alpha, theta),
                                     tail_correction=tail)
        system = np.eye(n) - A.entries   # dt = 1
        lu = lu_factor(system)
        rcond, info = dgecon(lu[0], np.linalg.norm(system, 1), norm="1")
        assert info == 0 and rcond > 0.0
        rhs = np.random.default_rng(n).standard_normal(n)
        ref = lu_solve(lu, rhs)
        solver = A.factorization(1.0)
        assert isinstance(solver, ToeplitzSolver)
        assert np.max(np.abs(solver(rhs) - ref)) <= 1e-16 / rcond * np.max(np.abs(ref))

    @pytest.mark.parametrize("weights,far", [
        # 1 + dt*row_sum = -1 and both neighbours 1: the leading 2 x 2 minor
        # of I - dt*A and of its Toeplitz part is singular
        ([-1.0, 0.0, -1.0], (0.5, -0.5)),
        ([np.nan, 0.0, 1.0], (0.0, 0.0)),
        # the Toeplitz diagonal 1 + dt*row_sum, which Levinson divides by, is 0
        ([-0.5, 0.0, -0.5], (0.0, 0.0)),
    ])
    def test_breakdown_raises(self, weights, far):
        A = OperatorMatrix(Grid1D(10.0, 21), np.array(weights), far)
        match = r"^I - dt\*A is singular to working precision: dt\*row_sum = nan$"
        if 1.0 + A.row_sum == 0.0:
            match = r"^Toeplitz diagonal is 0\.0$"
        elif np.all(np.isfinite(weights)):
            assert np.linalg.det((np.eye(21) - A.entries)[:2, :2]) == 0.0
            match = "^Levinson recursion broke down at order 2: pivot 0.0$"
        with pytest.raises(FracfrontError, match=match):
            ToeplitzSolver(A, 1.0)

    def test_identity_rounded_away_raises(self):
        # row_sum = 2: from dt*row_sum = 2^53 on, 1 + dt*row_sum loses the 1
        A = OperatorMatrix(Grid1D(10.0, 21), np.array([1.0, 0.0, 1.0]))
        ToeplitzSolver(A, 2.0 ** 52 - 1)
        for dt in (2.0 ** 52, np.inf):
            with pytest.raises(FracfrontError, match="^" + re.escape(
                    "I - dt*A is singular to working precision: "
                    f"dt*row_sum = {2 * dt:.3g}") + "$"):
                ToeplitzSolver(A, dt)

    def test_levinson_overflow_raises(self):
        # the order-2 pivot is 2^-52 against entries of 1e300, so the
        # updated columns overflow; the CLI runs with overflow warnings off
        col = np.array([1e-300, 1e-300])
        row = np.array([1e-300, (1 - 2 ** -52) * 1e-300])
        with np.errstate(all="ignore"), pytest.raises(
                FracfrontError, match="^Levinson recursion overflowed$"):
            ToeplitzSolver._levinson(col, row)

    @pytest.mark.parametrize("theta", [-0.25, 0.0, 0.25])
    def test_levinson_matches_the_allocating_recursion(self, theta):
        # the in-place buffers repeat the same operations in the same order
        def allocating(col, row):
            f = g = np.array([1.0 / col[0]])
            for m in range(1, len(col)):
                ef, eg = col[m:0:-1] @ f, row[1:m + 1] @ g
                pivot = 1.0 - ef * eg
                f0, g0 = np.append(f, 0.0), np.concatenate([[0.0], g])
                f, g = (f0 - ef * g0) / pivot, (g0 - eg * f0) / pivot
            return f, g

        n, dt = 1201, 0.02
        A = assemble_operator_matrix(Grid1D(30.0, n), FractionalParams(1.5, theta))
        m = len(A.weights) // 2
        t = -dt * np.pad(A.weights, n - 1 - m)
        t[n - 1] = 1.0 + dt * A.row_sum
        col, row = t[n - 1::-1].copy(), t[n - 1:]
        for got, want in zip(ToeplitzSolver._levinson(col, row), allocating(col, row)):
            assert np.array_equal(got, want)

    def test_singular_fold_correction_raises(self):
        # T = I, and folds of +-2^30 give the 2 x 2 correction
        # [[1 - 2^30, 2^30], [-2^30, 1 + 2^30]], whose determinant 1 rounds to 0
        A = OperatorMatrix(Grid1D(10.0, 21), np.zeros(3), (2.0 ** 30, -2.0 ** 30))
        with pytest.raises(FracfrontError, match=(
                r"^boundary-fold correction is singular \(det = 0\.0\)$")):
            ToeplitzSolver(A, 1.0)

    @pytest.mark.parametrize("alpha,theta", [(1.3, -0.5), (1.7, 0.2), (2.0, 0.0)])
    def test_odd_transform_length(self, alpha, theta):
        # 2n - 1 = 2025 = 3^4 5^2 is itself the transform length
        A = assemble_operator_matrix(Grid1D(30.0, 1013), FractionalParams(alpha, theta),
                                     tail_correction=True)
        solver = ToeplitzSolver(A, 0.05)
        assert solver._size == 2025
        rhs = np.random.default_rng(1013).standard_normal(1013)
        ref = lu_solve(lu_factor(np.eye(1013) - 0.05 * A.entries), rhs)
        assert np.max(np.abs(solver(rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [61, 181, 401, 801, 999, 1003, 1601])
    def test_solves_each_column(self, n):
        # both solvers, one contract: factorization(dt)(r) solves for each
        # row of an (..., n) right-hand side
        A = assemble_operator_matrix(Grid1D(30.0, n), FractionalParams(1.5, 0.2),
                                     tail_correction=True)
        solver = A.factorization(0.05)
        lu = lu_factor(np.eye(n) - 0.05 * A.entries)
        rhs = np.random.default_rng(n).standard_normal((3, n))
        out = solver(rhs)
        assert out.shape == (3, n)
        for k in range(3):   # each bit for bit as the row solved alone
            ref = lu_solve(lu, rhs[k])
            assert np.max(np.abs(out[k] - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.array_equal(out[k], solver(rhs[k]))
        stacked = solver(rhs[:, None])   # a stack of three (1, n) blocks
        assert stacked.shape == (3, 1, n) and np.array_equal(stacked[:, 0], out)
        if n <= DENSE_INVERSE_MAX_N:   # the Trench inverse that the step applies
            system = np.eye(n) - 0.05 * A.entries
            residual = lambda B: np.max(np.abs(system @ B - np.eye(n)))
            assert residual(solver._inverse) <= 4 * residual(np.linalg.inv(system))

    @pytest.mark.parametrize("n", [181, 1003], ids=["dense", "toeplitz"])
    @pytest.mark.parametrize("shape", [lambda n: (n - 1,), lambda n: (n + 1,),
                                       lambda n: (n, 2)], ids=["n-1", "n+1", "n-by-2"])
    def test_rejects_a_right_hand_side_of_the_wrong_length(self, n, shape):
        # an (n, 2) block of columns is rows of length 2, not n
        solver = assemble_operator_matrix(
            Grid1D(30.0, n), FractionalParams(1.5, 0.2)).factorization(0.05)
        rhs = np.ones(shape(n))
        with pytest.raises(OutOfRangeError, match="^" + re.escape(
                f"right-hand side has shape {rhs.shape}, "
                f"solver expects (..., {n})") + "$"):
            solver(rhs)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(_implicit_systems(DENSE_INVERSE_MAX_N))
    @example((Grid1D(30.0, 61), FractionalParams(1.5, 0.4), True, 0.05))
    @example((Grid1D(30.0, 999), FractionalParams(1.5, 0.5), True, 1.0))
    def test_inverse_matches_the_vectorized_recursion(self, system):
        # setup builds the Trench inverse twice in one buffer, each row in
        # place; the inverse that the step applies ends bit for bit as the
        # whole-array recursion builds it afresh
        grid, p, tail, dt = system
        solver = assemble_operator_matrix(grid, p, tail).factorization(dt)
        assert np.array_equal(solver._inverse, _vectorized_trench(solver))

    def test_identity_gives_the_inverse(self):
        # each row of a 2-D right-hand side is solved, none folded as a column
        n = 1003
        A = assemble_operator_matrix(Grid1D(30.0, n), FractionalParams(1.7, 0.2))
        solver = A.factorization(0.02)
        assert isinstance(solver, ToeplitzSolver)
        inverse = solver(np.eye(n)).T
        for k in (0, 1, n // 2, n - 2, n - 1):
            assert np.array_equal(inverse[:, k], solver(np.eye(n)[k]))
        ref = np.linalg.inv(np.eye(n) - 0.02 * A.entries)
        assert np.max(np.abs(inverse - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_routing_by_node_count(self):
        small = Grid1D(30.0, (DENSE_INVERSE_MAX_N - 1) | 1)  # largest odd n at
        large = Grid1D(30.0, (DENSE_INVERSE_MAX_N + 1) | 1)  # and above it
        p = FractionalParams(1.7, 0.2)
        assert assemble_operator_matrix(small, p).solver == "dense-inverse"
        assert assemble_operator_matrix(large, p).solver == "toeplitz"

    def test_holds_no_square_array_above_the_dense_limit(self):
        n = (DENSE_INVERSE_MAX_N + 1) | 1
        A = assemble_operator_matrix(Grid1D(30.0, n), FractionalParams(1.7, 0.2))
        solver = A.factorization(0.02)
        assert isinstance(solver, ToeplitzSolver)
        assert A.factorization(0.02) is not solver   # the caller holds it
        held = [*vars(A).values(), *vars(solver).values()]
        arrays = [v for x in held for v in (x if isinstance(x, tuple) else [x])
                  if isinstance(v, np.ndarray)]
        assert len(arrays) >= 5 and max(a.size for a in arrays) <= 4 * n

    # the dense inverse is itself 8 n^2 bytes, and whole-array operations
    # on it would hold a second one; the Toeplitz setup holds O(n) arrays
    @pytest.mark.parametrize("n,bound", [(401, 1.25 * 8 * 401 ** 2),
                                         (1601, 64 * 8 * 1601)],
                             ids=["dense-401", "toeplitz-1601"])
    def test_setup_memory_is_bounded(self, n, bound):
        A = assemble_operator_matrix(Grid1D(30.0, n), FractionalParams(1.7, 0.2))
        A.factorization(0.02)   # warm up the operator's cached spectra and folds
        tracemalloc.start()
        try:
            A.factorization(0.02)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound


# ---------------------------------------------------------------------------
# fractional-difference backend
# ---------------------------------------------------------------------------

def _gl_brute_force(u, h, alpha, r_far=500):
    """Literal double loop: one-sided sums written as differences against
    the flat far field (terms vanish identically once an index clamps)."""
    n = len(u)
    norm = -1.0 / (2 * math.cos(alpha * math.pi / 2))

    def at(i):  # projection ghosts
        return u[min(max(i, 1), n) - 1]

    g = grunwald_letnikov_weights(alpha, r_far)
    v = np.zeros(n)
    for i in range(1, n + 1):
        acc = 0.0
        for r in range(0, r_far):
            acc += g[r] * (at(i - r + 1) - u[0])     # left tail -> u_1
            acc += g[r] * (at(i + r - 1) - u[-1])    # right tail -> u_N
        v[i - 1] = norm * acc / h ** alpha
    return v


class TestGrunwaldLetnikov:
    def test_leading_weights(self):
        g = grunwald_letnikov_weights(1.5, 3)
        assert g[0] == 1.0
        assert g[1] == -1.5
        assert g[2] == 0.375

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(13)
        grid = Grid1D(1.8, 13)
        for alpha in (1.2, 1.5, 1.8):
            fast = grunwald_letnikov_operator(grid, alpha).matvec(u)
            slow = _gl_brute_force(u, grid.h, alpha)
            assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_constant_annihilation(self):
        # the ghost-tail completion cancels the weight sums on constants;
        # without it a fixed O(b^-alpha) defect survives all refinement
        for n in (181, 721, 6401):
            grid = Grid1D(30.0, n)
            v = grunwald_letnikov_operator(grid, 1.5).matvec(np.full(n, 1.0))
            assert np.max(np.abs(v)) * grid.h ** 1.5 <= 1e-12

    def test_agrees_with_quadrature_backend(self):
        grid = Grid1D(10.0, 801)
        p = FractionalParams(1.5, 0.0)
        u = GAUSS(grid.x)
        v_quad = apply_riesz_feller(u, grid, p, tail_correction=True)
        v_gl = grunwald_letnikov_operator(grid, 1.5).matvec(u)
        mask = np.abs(grid.x) <= 5.0
        rel = np.max(np.abs(v_gl - v_quad)[mask]) / np.max(np.abs(v_quad[mask]))
        assert rel <= 0.05

    def test_requires_strictly_fractional_order(self):
        grid = Grid1D(1.0, 5)
        with pytest.raises(OutOfRangeError,
                           match="^Grunwald-Letnikov backend requires 1 < alpha < 2"):
            grunwald_letnikov_operator(grid, 2.0)


# ---------------------------------------------------------------------------
# spectral backend
# ---------------------------------------------------------------------------

class TestSpectral:
    def test_laplacian_eigenfunction(self):
        n, period = 256, 2 * np.pi
        x = period * np.arange(n) / n
        k = 3.0
        out = spectral_apply(np.cos(k * x), period, FractionalParams(2.0, 0.0))
        assert np.max(np.abs(out + k ** 2 * np.cos(k * x))) <= 1e-10

    def test_fractional_mode_scaling(self):
        n, period = 256, 2 * np.pi
        x = period * np.arange(n) / n
        k = 4.0
        out = spectral_apply(np.sin(k * x), period, FractionalParams(1.5, 0.0))
        assert np.max(np.abs(out + k ** 1.5 * np.sin(k * x))) <= 1e-10

    def test_matches_second_derivative_of_gaussian(self):
        g = Grid1D(30.0, 801)
        ref = free_space_reference(GAUSS, g, FractionalParams(2.0, 0.0))
        exact = (4 * g.x ** 2 - 2) * GAUSS(g.x)
        assert np.max(np.abs(ref - exact)) <= 1e-9


# ---------------------------------------------------------------------------
# classical backend
# ---------------------------------------------------------------------------

class TestClassicalLaplacian:
    def test_constant(self):
        g = Grid1D(5.0, 21)
        assert np.all(apply_riesz_feller(np.full(21, 3.3), g, CLASSICAL) == 0.0)

    def test_exact_on_quadratics(self):
        g = Grid1D(5.0, 21)
        sq = lambda x: x ** 2
        v = apply_riesz_feller(sq(g.x), g, CLASSICAL, ghosts=sq)
        assert np.max(np.abs(v - 2.0)) <= 1e-9

    def test_discrete_symbol(self):
        g = Grid1D(np.pi, 41)
        k = 2.0
        wave = lambda x: np.sin(k * x)
        v = apply_riesz_feller(wave(g.x), g, CLASSICAL, ghosts=wave)
        expected = -(4 / g.h ** 2) * np.sin(k * g.h / 2) ** 2 * wave(g.x)
        assert np.max(np.abs(v - expected)) <= 1e-9
