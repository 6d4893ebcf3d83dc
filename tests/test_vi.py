import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvarvi.vi import (
    Box,
    SimplexProduct,
    VectorField,
    extragradient_solve,
    natural_residual,
    project_simplex,
    spectral_norm,
)


def brute_force_simplex_projection(y, demand, grid=200):
    """Oracle for 2-D and 3-D simplex projection by dense grid search."""
    y = np.asarray(y, dtype=float)
    best, best_d = None, np.inf
    if len(y) == 2:
        for a in np.linspace(0, demand, grid + 1):
            x = np.array([a, demand - a])
            d = np.linalg.norm(x - y)
            if d < best_d:
                best, best_d = x, d
    else:
        for a in np.linspace(0, demand, grid + 1):
            for b in np.linspace(0, demand - a, grid + 1):
                x = np.array([a, b, demand - a - b])
                d = np.linalg.norm(x - y)
                if d < best_d:
                    best, best_d = x, d
    return best


class TestSimplexProjection:
    def test_pinned_example(self):
        out = project_simplex(np.array([1.0, 1.0, -2.0]), 1.0)
        assert out == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.normal(size=3) * 2
            exact = project_simplex(y, 1.0)
            approx = brute_force_simplex_projection(y, 1.0)
            assert np.linalg.norm(exact - approx) < 2e-2

    @settings(max_examples=200, deadline=None)
    @given(
        y=st.lists(st.floats(-50, 50), min_size=1, max_size=10),
        demand=st.floats(min_value=1e-6, max_value=100.0),
    )
    def test_feasibility_property(self, y, demand):
        out = project_simplex(np.array(y), demand)
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(demand, abs=1e-8 * (1 + demand))

    def test_zero_demand(self):
        assert project_simplex(np.array([3.0, -1.0]), 0.0) == pytest.approx([0.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(y=st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_idempotent(self, y):
        once = project_simplex(np.array(y), 1.0)
        twice = project_simplex(once, 1.0)
        assert np.linalg.norm(once - twice) < 1e-10

    def test_interior_point_fixed(self):
        x = np.array([0.2, 0.3, 0.5])
        assert project_simplex(x, 1.0) == pytest.approx(x, abs=1e-14)


def loop_project_simplex(y, demand):
    """Oracle: the one-block sort-threshold projection, scalar control flow."""
    if demand == 0.0:
        return np.zeros_like(y)
    n = len(y)
    u = -np.sort(-y, kind="stable")
    css = np.cumsum(u)
    ks = np.arange(1, n + 1)
    cond = u - (css - demand) / ks > 0
    k = int(ks[cond][-1]) if cond.any() else n
    return np.maximum(y - (css[k - 1] - demand) / k, 0.0)


def block_values(n):
    """n block coordinates: spread values, small integers (ties) and a huge
    value, which leaves no index passing the threshold test."""
    value = st.floats(-1e3, 1e3) | st.integers(-3, 3).map(float) | st.just(1e20)
    return st.lists(value, min_size=n, max_size=n)


class TestBatchedProjection:
    """SimplexProduct groups equal-length blocks into one project_simplex
    call; every block must come out as its own projection, byte for byte."""

    @staticmethod
    def assert_per_block(blocks, y):
        sp = SimplexProduct(blocks=blocks)
        got = sp.project(y)
        start = 0
        for n, d in blocks:
            want = loop_project_simplex(y[start:start + n], d)
            assert got[start:start + n].tobytes() == want.tobytes(), (n, d, y[start:start + n])
            assert project_simplex(y[start:start + n], d).tobytes() == want.tobytes()
            start += n

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           blocks=st.lists(st.tuples(st.integers(1, 10), st.just(0.0) | st.floats(1e-3, 1e3)),
                           min_size=1, max_size=6))
    def test_matches_per_block_projection(self, data, blocks):
        y = np.array(data.draw(block_values(sum(n for n, _ in blocks))))
        self.assert_per_block(blocks, y)

    @pytest.mark.parametrize("blocks", [[(4, 300.0), (10, 600.0), (1, 200.0)],
                                        [(10, 300.0), (10, 0.0), (10, 200.0)],
                                        [(4, 1.0), (1, 0.0), (4, 2.0), (10, 3.0), (4, 0.0)]])
    def test_pinned_layouts(self, blocks):
        rng = np.random.default_rng(7)
        dim = sum(n for n, _ in blocks)
        huge = rng.normal(size=dim)
        huge[::3] = 1e20
        for y in (rng.normal(size=dim) * 100, np.round(rng.normal(size=dim)), np.full(dim, 2.0), huge):
            self.assert_per_block(blocks, y)

    def test_stack_of_rows(self):
        rows = np.array([[1.0, 1.0, -2.0], [1e20, 0.0, 1.0], [3.0, -1.0, 5.0]])
        got = project_simplex(rows, np.array([1.0, 1.0, 0.0]))
        for row, d, out in zip(rows, [1.0, 1.0, 0.0], got):
            assert out.tobytes() == loop_project_simplex(row, d).tobytes()
        assert not got[2].any()


class TestFeasibleSets:
    def test_box_project_and_contains(self):
        box = Box(lo=[0.0, 0.0], hi=[1.0, 2.0])
        assert box.project(np.array([2.0, -1.0])) == pytest.approx([1.0, 0.0])
        inside = np.array([0.5, 0.5])
        assert box.project(inside).tobytes() == inside.tobytes()
        assert box.project(np.array([1.5, 0.5])) == pytest.approx([1.0, 0.5])

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box(lo=[1.0], hi=[0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["lo", "hi"])
    def test_box_non_finite_bound_rejected(self, name, bad):
        bounds = {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]}
        bounds[name][1] = bad
        with pytest.raises(ValueError, match=f"^box bound {name} is not finite at coordinate 1$"):
            Box(**bounds)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_simplex_product_non_finite_demand_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^simplex block 1 has non-finite demand {bad}$"):
            SimplexProduct(blocks=[(3, 1.0), (2, bad)])

    def test_simplex_product_blocks(self):
        sp = SimplexProduct(blocks=[(2, 1.0), (3, 2.0)])
        assert sp.dimension == 5
        start = sp.default_start()
        assert start[:2].sum() == pytest.approx(1.0)
        assert start[2:].sum() == pytest.approx(2.0)
        proj = sp.project(np.array([5.0, -1.0, 0.0, 0.0, 0.0]))
        assert proj[:2] == pytest.approx([1.0, 0.0])
        assert proj[2:].sum() == pytest.approx(2.0)


class TestNaturalResidual:
    def test_boundary_solution(self):
        box = Box(lo=[0.0], hi=[1.0])
        field = VectorField(evaluator=lambda x: x - 2.0, lipschitz_hint=1.0)
        assert natural_residual(box, field, np.array([1.0])) == pytest.approx(0.0, abs=1e-14)
        assert natural_residual(box, field, np.array([0.0])) == pytest.approx(1.0)

    def test_rejects_infeasible_point(self):
        box = Box(lo=[0.0], hi=[1.0])
        field = VectorField(evaluator=lambda x: x, lipschitz_hint=1.0)
        with pytest.raises(ValueError):
            natural_residual(box, field, np.array([2.0]))


class TestExtragradient:
    def test_two_path_toy_interior(self):
        # Costs c1 = h1, c2 = 2 h2 over the unit simplex: equalize at (2/3, 1/3).
        sp = SimplexProduct(blocks=[(2, 1.0)])
        field = VectorField(evaluator=lambda x: np.array([1.0, 2.0]) * x, lipschitz_hint=2.0)
        sol = extragradient_solve(sp, field)
        assert sol.converged
        assert sol.x_star == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-7)

    def test_two_path_toy_corner(self):
        sp = SimplexProduct(blocks=[(2, 1.0)])
        field = VectorField(evaluator=lambda x: np.array([1.0, 2.0]) * x + [0.0, 10.0], lipschitz_hint=2.0)
        sol = extragradient_solve(sp, field)
        assert sol.x_star == pytest.approx([1.0, 0.0], abs=1e-7)
        assert sol.residual <= 1e-9

    def test_box_strongly_monotone_oracle(self):
        # F(x) = 2x + c on a box: solution is the clamp of -c/2.
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = rng.normal(size=3) * 3
            box = Box(lo=np.zeros(3), hi=np.ones(3))
            sol = extragradient_solve(box, VectorField(evaluator=lambda x: 2.0 * x + c, lipschitz_hint=2.0))
            assert sol.x_star == pytest.approx(np.clip(-c / 2.0, 0, 1), abs=1e-7)

    def test_nonfinite_field_raises(self):
        box = Box(lo=[0.0], hi=[1.0])
        field = VectorField(evaluator=lambda x: x * np.inf, lipschitz_hint=1.0)
        with pytest.raises(FloatingPointError):
            extragradient_solve(box, field)

    def test_missing_step_and_hint(self):
        box = Box(lo=[0.0], hi=[1.0])
        field = VectorField(evaluator=lambda x: x)
        with pytest.raises(ValueError):
            extragradient_solve(box, field)

    def test_negative_hint_gives_no_step(self):
        box = Box(lo=[0.0], hi=[1.0])
        field = VectorField(evaluator=lambda x: x, lipschitz_hint=-1.0)
        with pytest.raises(ValueError, match="positive"):
            extragradient_solve(box, field)


class TestSpectralNorm:
    def test_against_numpy(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(size=(6, 4))
            assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

