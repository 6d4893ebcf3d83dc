import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvarvi import vi
from cvarvi.vi import (
    Box,
    SimplexProduct,
    extragradient_solve,
    natural_residual,
    spectral_norm,
)


def project_rows(y, demand):
    """The projection of y onto {h >= 0, sum(h) = demand}, row by row for a
    stack of equal-length rows with one demand each, through SimplexProduct."""
    y = np.asarray(y, dtype=float)
    blocks = [(y.shape[-1], d) for d in np.atleast_1d(demand)]
    return SimplexProduct(blocks=blocks).project(y.ravel()).reshape(y.shape)


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
        out = project_rows(np.array([1.0, 1.0, -2.0]), 1.0)
        assert out == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.normal(size=3) * 2
            exact = project_rows(y, 1.0)
            approx = brute_force_simplex_projection(y, 1.0)
            assert np.linalg.norm(exact - approx) < 2e-2

    @settings(max_examples=200, deadline=None)
    @given(
        y=st.lists(st.floats(-50, 50), min_size=1, max_size=10),
        demand=st.floats(min_value=1e-6, max_value=100.0),
    )
    def test_feasibility_property(self, y, demand):
        out = project_rows(np.array(y), demand)
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(demand, abs=1e-8 * (1 + demand))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           blocks=st.lists(st.tuples(st.integers(1, 10), st.just(0.0) | st.floats(1e-3, 1e3)),
                           min_size=1, max_size=6))
    def test_block_constant_is_ignored(self, data, blocks):
        # P_C(y + B^T mu) = P_C(y): the ground of RoutingGame.lipschitz.
        sp = SimplexProduct(blocks=blocks)
        y = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=sp.dimension, max_size=sp.dimension)))
        mu = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(blocks), max_size=len(blocks))))
        shift = np.repeat(mu, [n for n, _ in blocks])
        scale = max(1.0, np.abs(y).max() + np.abs(mu).max(), max(d for _, d in blocks))
        assert np.abs(sp.project(y + shift) - sp.project(y)).max() <= 1e-12 * scale

    def test_zero_demand(self):
        assert project_rows(np.array([3.0, -1.0]), 0.0) == pytest.approx([0.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(y=st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_idempotent(self, y):
        once = project_rows(np.array(y), 1.0)
        twice = project_rows(once, 1.0)
        assert np.linalg.norm(once - twice) < 1e-10

    def test_interior_point_fixed(self):
        x = np.array([0.2, 0.3, 0.5])
        assert project_rows(x, 1.0) == pytest.approx(x, abs=1e-14)


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
    """SimplexProduct groups equal-length blocks into one projection-kernel
    call; every block must come out as its own projection, byte for byte."""

    @staticmethod
    def assert_per_block(blocks, y):
        sp = SimplexProduct(blocks=blocks)
        got = sp.project(y)
        start = 0
        for n, d in blocks:
            want = loop_project_simplex(y[start:start + n], d)
            assert got[start:start + n].tobytes() == want.tobytes(), (n, d, y[start:start + n])
            assert project_rows(y[start:start + n], d).tobytes() == want.tobytes()
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
        got = project_rows(rows, np.array([1.0, 1.0, 0.0]))
        for row, d, out in zip(rows, [1.0, 1.0, 0.0], got):
            assert out.tobytes() == loop_project_simplex(row, d).tobytes()
        assert not got[2].any()


def negate_and_sort_project(y, demand):
    """Oracle: the simplex projection as it was before the simplex product kept its
    constants, negating before and after a stable sort."""
    y = np.asarray(y, dtype=float)
    rows = y.reshape(-1, y.shape[-1])
    demand = np.asarray(demand, dtype=float).reshape(-1, 1)
    n = rows.shape[1]
    u = np.sort(-rows, axis=1, kind="stable")
    np.negative(u, out=u)
    css = np.cumsum(u, axis=1)
    cond = u - (css - demand) / np.arange(1, n + 1) > 0
    k = n - np.argmax(cond[:, ::-1], axis=1, keepdims=True)
    tau = (css[np.arange(len(rows))[:, None], k - 1] - demand) / k
    out = np.maximum(rows - tau, 0.0)
    np.copyto(out, 0.0, where=demand == 0.0)
    return out.reshape(y.shape)


class TestProjectionMatchesNegateAndSort:
    """SimplexProduct's precomputed constants, ascending sort and direct
    threshold comparison give the old algorithm's bytes."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           blocks=st.lists(st.tuples(st.integers(1, 8), st.just(0.0) | st.integers(1, 5).map(float)
                                     | st.floats(1e-3, 1e3)), min_size=1, max_size=6))
    def test_matches_oracle(self, data, blocks):
        value = (st.floats(-1e3, 1e3) | st.integers(-3, 3).map(float) | st.sampled_from([0.0, -0.0])
                 | st.just(1e20))
        y = np.array(data.draw(st.lists(value, min_size=sum(n for n, _ in blocks),
                                        max_size=sum(n for n, _ in blocks))))
        got = SimplexProduct(blocks=blocks).project(y)
        start = 0
        for n, d in blocks:
            want = negate_and_sort_project(y[start:start + n], d)
            assert got[start:start + n].tobytes() == want.tobytes(), (n, d, y[start:start + n])
            start += n

    @pytest.mark.parametrize("blocks", [[(3, 2.0), (5, 0.0), (3, 1.0), (1, 4.0)], [(10, 300.0)] * 3])
    def test_pinned_ties_and_signed_zeros(self, blocks):
        sp = SimplexProduct(blocks=blocks)
        rng = np.random.default_rng(3)
        for y in (np.where(rng.random(sp.dimension) < 0.5, 0.0, -0.0), np.round(rng.normal(size=sp.dimension)),
                  np.full(sp.dimension, -0.0), rng.integers(-2, 3, sp.dimension).astype(float)):
            got, start = sp.project(y), 0
            for n, d in blocks:
                assert got[start:start + n].tobytes() == negate_and_sort_project(y[start:start + n], d).tobytes()
                start += n
        stacked = np.round(rng.normal(size=(4, 6)))
        demands = np.array([0.0, 1.0, 2.0, 3.0])
        assert project_rows(stacked, demands).tobytes() == negate_and_sort_project(stacked, demands).tobytes()


def css_tau_project_blocks(blocks, demand, ranks, zero_demand):
    """Oracle: _project_blocks with integer ranks, the last passing index k
    found by `ranks == k` and tau recomputed as (css[k - 1] - demand) / k."""
    u = np.sort(blocks, axis=-1)[..., ::-1]
    css = np.add.accumulate(u, axis=-1)
    cond = u > (css - demand) / ranks
    k = len(ranks) - np.argmax(cond[..., ::-1], axis=-1, keepdims=True)
    tau = (css[ranks == k].reshape(k.shape) - demand) / k
    out = np.maximum(blocks - tau, 0.0)
    if zero_demand:
        np.copyto(out, 0.0, where=demand == 0.0)
    return out


class TestProjectionKernelMatchesCssTau:
    """Reading tau from the threshold row gives the bits of recomputing it
    from the cumulative sums, on stacks of 1 to 4 points."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4), n_blocks=st.integers(1, 4), n=st.integers(1, 8))
    def test_matches_oracle(self, data, m, n_blocks, n):
        value = (st.floats(-1e3, 1e3) | st.integers(-3, 3).map(float) | st.sampled_from([0.0, -0.0])
                 | st.just(1e20))
        blocks = np.array(data.draw(st.lists(value, min_size=m * n_blocks * n, max_size=m * n_blocks * n)))
        blocks = blocks.reshape(m, n_blocks, n)
        nan_rows = data.draw(st.lists(st.booleans(), min_size=m * n_blocks, max_size=m * n_blocks))
        blocks[np.array(nan_rows).reshape(m, n_blocks), 0] = np.nan
        demand = np.array(data.draw(st.lists(st.just(0.0) | st.integers(1, 5).map(float) | st.floats(1e-3, 1e3),
                                             min_size=n_blocks, max_size=n_blocks)))[:, None]
        zero_demand = 0.0 in demand
        got = vi._project_blocks(blocks, demand, np.arange(1.0, n + 1), zero_demand)
        want = css_tau_project_blocks(blocks, demand, np.arange(1, n + 1), zero_demand)
        assert got.tobytes() == want.tobytes()


class TestStackedPoints:
    """A stack of points gets each row's one-point bits from `project` and
    each row's one-point verdict from `contains`."""

    BLOCKS = [(3, 2.0), (5, 0.0), (3, 1.0), (1, 4.0), (10, 300.0), (10, 600.0)]

    def stack(self, sp):
        rng = np.random.default_rng(5)
        rows = [rng.normal(size=sp.dimension) * 100, np.round(rng.normal(size=sp.dimension)),
                np.where(rng.random(sp.dimension) < 0.5, 0.0, -0.0), np.full(sp.dimension, np.nan),
                rng.integers(-2, 3, sp.dimension).astype(float), np.full(sp.dimension, 1e20)]
        return np.array(rows)

    def test_project_rows_equal_one_point_calls(self):
        sp = SimplexProduct(blocks=self.BLOCKS)
        ys = self.stack(sp)
        got = sp.project(ys)
        assert got.shape == ys.shape
        assert got.tobytes() == np.array([sp.project(y) for y in ys]).tobytes()
        assert sp.project(ys[:0]).shape == (0, sp.dimension)

    def test_contains_rows_equal_violation(self):
        sp = SimplexProduct(blocks=self.BLOCKS)
        ys = self.stack(sp)
        inside = sp.project(ys)
        off_sum, off_sign = inside[0].copy(), inside[0].copy()
        off_sum[-1] += 2 * vi._FEASIBILITY_TOL
        off_sign[np.argmin(off_sign)] = -2 * vi._FEASIBILITY_TOL
        xs = np.vstack([inside, ys, off_sum, off_sign])
        assert sp.contains(xs).tolist() == [sp.violation(x) is None for x in xs]
        # The finite projections, not the NaN row nor the points moved out.
        assert sp.contains(xs)[[0, 1, 2, 3, -2, -1]].tolist() == [True] * 3 + [False] * 3
        assert sp.contains(xs[:0]).shape == (0,)

    def test_three_dimensional_input_rejected(self):
        sp = SimplexProduct(blocks=[(2, 1.0)])
        for method in (sp.project, sp.contains):
            with pytest.raises(ValueError, match="^expected vector of dimension 2"):
                method(np.zeros((1, 1, 2)))


class TestLastEntryTable:
    """The kernel's index table, cached per stack shape, gives every row of
    stacks of changing height its one-point and its oracle bits; an empty
    stack is one the block certificate projects when no row passes."""

    @pytest.mark.parametrize("blocks", [[(10, 300.0), (10, 600.0), (10, 200.0)],
                                        [(3, 2.0), (5, 0.0), (3, 1.0), (1, 4.0)]])
    def test_stacks_of_changing_height(self, blocks):
        sp = SimplexProduct(blocks=blocks)
        rng = np.random.default_rng(11)
        for m in (0, 1, 2, 25, 2, 0, 1):
            ys = rng.normal(size=(m, sp.dimension)) * 100
            ys[1::2] = np.round(ys[1::2] / 100)  # ties
            got = sp.project(ys)
            assert got.shape == ys.shape
            assert got.tobytes() == np.array([sp.project(y) for y in ys]).reshape(ys.shape).tobytes()
            start = 0
            for n, d in blocks:
                want = negate_and_sort_project(ys[:, start:start + n], np.full(m, d))
                assert got[:, start:start + n].tobytes() == want.tobytes(), (m, n, d)
                start += n

    def test_cached_table_is_read_only(self):
        SimplexProduct(blocks=[(10, 300.0), (10, 600.0), (10, 200.0)]).project(np.zeros((2, 30)))
        table = vi._last_entries((2, 3, 10))
        assert table is vi._last_entries((2, 3, 10))
        assert table.tolist() == [[[9], [19], [29]], [[39], [49], [59]]]
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 0


class TestFeasibleSets:
    def test_box_project_rows_equal_one_point_calls(self):
        box = Box(lo=[0.0, -1.0, 2.0], hi=[1.0, 1.0, 2.0])
        ys = np.array([[2.0, -3.0, 0.0], [0.5, -0.0, 5.0], [np.nan, np.inf, -np.inf], [-0.0, 0.25, 2.0]])
        got = box.project(ys)
        assert got.shape == ys.shape
        assert got.tobytes() == np.array([box.project(y) for y in ys]).tobytes()
        assert box.project(ys[:0]).shape == (0, 3)
        with pytest.raises(ValueError, match="^expected vector of dimension 3"):
            box.project(np.zeros((1, 1, 3)))

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


TOL = vi._FEASIBILITY_TOL


def box_point(coordinate, off):
    """A point of Box([0, 0], [1, 2]) moved off one bound by `off`."""
    x = np.array([1.0, 0.5]) if coordinate == 0 else np.array([0.5, 0.0])
    x[coordinate] += off if coordinate == 0 else -off
    return x


def simplex_point(constraint, off):
    """A point of SimplexProduct([(2, 1), (3, 2)]) moved by `off` across one
    constraint: a coordinate below 0 (its block sum kept), or block 1's sum."""
    x = np.array([0.25, 0.75, 0.0, 1.0, 1.0])
    if constraint == "coordinate":
        x[2] -= off
        x[3] += off
    else:
        x[4] += off
    return x


class TestContains:
    """Each constraint may be violated by at most _FEASIBILITY_TOL."""

    BOX = Box(lo=[0.0, 0.0], hi=[1.0, 2.0])
    SIMPLEX = SimplexProduct(blocks=[(2, 1.0), (3, 2.0)])

    @pytest.mark.parametrize("coordinate", [0, 1], ids=["upper", "lower"])
    @pytest.mark.parametrize("off, inside", [(0.0, True), (0.5 * TOL, True), (2 * TOL, False)])
    def test_box_bounds(self, coordinate, off, inside):
        x = box_point(coordinate, off)
        assert (self.BOX.violation(x) is None) is inside
        if inside:
            assert self.BOX.violation(x) is None
        else:
            bounds = ["[0.0, 1.0]", "[0.0, 2.0]"][coordinate]
            assert self.BOX.violation(x) == f"coordinate {coordinate} is {x[coordinate]}, outside {bounds}"

    @pytest.mark.parametrize("constraint", ["coordinate", "block sum"])
    @pytest.mark.parametrize("off, inside", [(0.0, True), (0.5 * TOL, True), (2 * TOL, False)])
    def test_simplex_constraints(self, constraint, off, inside):
        x = simplex_point(constraint, off)
        assert (self.SIMPLEX.violation(x) is None) is inside
        if inside:
            assert self.SIMPLEX.violation(x) is None
        elif constraint == "coordinate":
            assert self.SIMPLEX.violation(x) == f"coordinate 2 is {x[2]}, not >= 0"
        else:
            assert self.SIMPLEX.violation(x).startswith("block 1 sums to 2.00000000")
            assert self.SIMPLEX.violation(x).endswith(", not its demand 2.0")

    def test_names_the_largest_violation_and_a_nan_first(self):
        assert self.BOX.violation(np.array([1.5, 5.0])) == "coordinate 1 is 5.0, outside [0.0, 2.0]"
        assert self.BOX.violation(np.array([5.0, np.nan])) == "coordinate 1 is nan, outside [0.0, 2.0]"
        x = np.array([-1.0, 2.0, 0.0, np.nan, 2.0])
        assert self.SIMPLEX.violation(x) == "coordinate 3 is nan, not >= 0"
        assert self.SIMPLEX.violation(np.array([0.5, 0.6, 0.0, 0.0, 5.0])) == "block 1 sums to 5.0, not its demand 2.0"

    def test_wrong_dimension_rejected(self):
        for feasible in (self.BOX, self.SIMPLEX):
            with pytest.raises(ValueError, match="^expected vector of dimension"):
                feasible.violation(np.zeros(7))


class TestNaturalResidual:
    def test_boundary_solution(self):
        box = Box(lo=[0.0], hi=[1.0])
        field = lambda x: x - 2.0
        assert natural_residual(box, field, np.array([1.0])) == pytest.approx(0.0, abs=1e-14)
        assert natural_residual(box, field, np.array([0.0])) == pytest.approx(1.0)

    def test_rejects_infeasible_point(self):
        box = Box(lo=[0.0], hi=[1.0])
        with pytest.raises(ValueError, match=r"^point is infeasible: coordinate 0 is 2\.0, outside \[0\.0, 1\.0\]$"):
            natural_residual(box, lambda x: x, np.array([2.0]))

    @pytest.mark.parametrize("constraint, message", [
        ("coordinate", r"coordinate 2 is -2e-09, not >= 0"),
        ("block sum", r"block 1 sums to 2\.00000000\d*, not its demand 2\.0"),
    ])
    def test_names_the_violated_simplex_constraint(self, constraint, message):
        field = lambda x: x
        assert natural_residual(TestContains.SIMPLEX, field, simplex_point(constraint, 0.5 * TOL)) >= 0.0
        with pytest.raises(ValueError, match=f"^point is infeasible: {message}$"):
            natural_residual(TestContains.SIMPLEX, field, simplex_point(constraint, 2 * TOL))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_field_at_feasible_point_raises(self, bad):
        with pytest.raises(FloatingPointError, match="^field returned non-finite values at x="):
            natural_residual(Box(lo=[0.0], hi=[1.0]), lambda x: x * bad, np.array([0.5]))


class TestExtragradient:
    def test_two_path_toy_interior(self):
        # Costs c1 = h1, c2 = 2 h2 over the unit simplex: equalize at (2/3, 1/3).
        sp = SimplexProduct(blocks=[(2, 1.0)])
        sol = extragradient_solve(sp, lambda x: np.array([1.0, 2.0]) * x, 2.0)
        assert sol.converged
        assert sol.x_star == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-7)

    def test_two_path_toy_corner(self):
        sp = SimplexProduct(blocks=[(2, 1.0)])
        sol = extragradient_solve(sp, lambda x: np.array([1.0, 2.0]) * x + [0.0, 10.0], 2.0)
        assert sol.x_star == pytest.approx([1.0, 0.0], abs=1e-7)
        assert sol.residual <= 1e-9

    def test_box_strongly_monotone_oracle(self):
        # F(x) = 2x + c on a box: solution is the clamp of -c/2.
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = rng.normal(size=3) * 3
            box = Box(lo=np.zeros(3), hi=np.ones(3))
            sol = extragradient_solve(box, lambda x: 2.0 * x + c, 2.0)
            assert sol.x_star == pytest.approx(np.clip(-c / 2.0, 0, 1), abs=1e-7)

    def test_iteration_cap_reports_the_returned_point(self, monkeypatch):
        monkeypatch.setattr(vi, "_EG_MAX_ITER", 3)
        sp = SimplexProduct(blocks=[(2, 1.0)])
        field = lambda x: np.array([1.0, 2.0]) * x
        sol = extragradient_solve(sp, field, 2.0)
        assert not sol.converged
        assert sol.iterations == 3
        assert sol.residual == natural_residual(sp, field, sol.x_star)

    def test_nonfinite_field_raises(self):
        box = Box(lo=[0.0], hi=[1.0])
        with pytest.raises(FloatingPointError):
            extragradient_solve(box, lambda x: x * np.inf, 1.0)

    def test_zero_lipschitz_is_a_constant_field_stepped_by_one(self):
        # The cheapest path takes the whole demand in two steps of 1.0
        # (steps of 0.9 take three).
        sp = SimplexProduct(blocks=[(3, 2.0)])
        sol = extragradient_solve(sp, lambda x: np.array([3.0, 1.0, 2.0]), 0.0)
        assert sol.converged and sol.iterations == 2 and sol.x_star.tolist() == [0.0, 2.0, 0.0]

    def test_an_infeasible_returned_point_is_never_solved(self):
        # A step of 1e15 rounds the projected block sum to 7.25: the residual reads 0
        # at a point outside the set, so the solve must fail, not report convergence.
        sp = SimplexProduct(blocks=[(2, 7.3)])
        with pytest.raises(ValueError, match=r"^point is infeasible: block 0 sums to 7\.25, not its demand 7\.3$"):
            extragradient_solve(sp, lambda x: np.array([1e15, 2e15]), 0.0)

    @pytest.mark.parametrize("lipschitz", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_lipschitz_not_finite_and_positive_rejected(self, lipschitz):
        box = Box(lo=[0.0], hi=[1.0])
        with pytest.raises(ValueError, match=f"^Lipschitz constant must be finite and nonnegative, got {lipschitz}$"):
            extragradient_solve(box, lambda x: x, lipschitz)


class TestExtragradientCheck:
    """`check(x, F(x))` runs at steps 64, 128, 256, ...; None goes on, and a
    returned solution ends the solve with `iterations` that step."""

    @staticmethod
    def slow_problem():
        # F(x) = 0.005 (x - 0.25) on [0, 1] at step 0.9: over 2,048 steps.
        calls = []

        def field(x):
            calls.append(None)
            return 0.005 * (x - 0.25)

        return Box(lo=[0.0], hi=[1.0]), field, calls

    def test_check_runs_at_64_and_each_doubling_and_none_changes_nothing(self):
        box, field, calls = self.slow_problem()
        plain = extragradient_solve(box, field, 1.0)
        calls.clear()
        steps = []

        def check(x, fx):
            steps.append((len(calls) - 1) // 2)  # F(x) of step k is the field's call 2k + 1
            assert fx.tobytes() == (0.005 * (x - 0.25)).tobytes()
            return None

        sol = extragradient_solve(box, field, 1.0, check)
        assert plain.converged and plain.iterations > 2048
        assert steps == [64, 128, 256, 512, 1024, 2048]
        assert sol.x_star.tobytes() == plain.x_star.tobytes()
        assert (sol.residual, sol.iterations, sol.converged) == (plain.residual, plain.iterations, True)

    def test_a_returned_solution_ends_the_solve_at_that_step(self):
        box, field, calls = self.slow_problem()
        found = vi.ViSolution(x_star=np.array([0.25]), residual=0.0, iterations=0, converged=True)
        checks = []

        def check(x, fx):
            checks.append(x)
            return found if len(checks) == 2 else None

        sol = extragradient_solve(box, field, 1.0, check)
        assert len(checks) == 2 and len(calls) == 2 * 128 + 1
        assert sol.x_star is found.x_star and (sol.residual, sol.iterations, sol.converged) == (0.0, 128, True)

    def test_a_solve_that_converges_first_never_checks(self):
        sp = SimplexProduct(blocks=[(3, 2.0)])
        sol = extragradient_solve(sp, lambda x: np.array([3.0, 1.0, 2.0]), 0.0, lambda x, fx: pytest.fail())
        assert sol.converged and sol.iterations == 2


def three_projection_extragradient(feasible, field, lipschitz):
    """Oracle: the extragradient loop with three one-point projections per
    step and the residual through np.linalg.norm."""
    step = vi._EG_STEP_SCALE / lipschitz if lipschitz > 0 else 1.0
    x = feasible.default_start()
    for it in range(vi._EG_MAX_ITER + 1):
        fx = field(x)
        if not np.all(np.isfinite(fx)):
            raise FloatingPointError(f"field returned non-finite values at iteration {it}: x={x}")
        residual = float(np.linalg.norm(x - feasible.project(x - fx)))
        if residual <= vi._EG_TOL or it == vi._EG_MAX_ITER:
            break
        y = feasible.project(x - step * fx)
        fy = field(y)
        if not np.all(np.isfinite(fy)):
            raise FloatingPointError(f"field returned non-finite values at iteration {it}: y={y}")
        x = feasible.project(x - step * fy)
    return vi.ViSolution(x_star=x, residual=residual, iterations=it, converged=residual <= vi._EG_TOL)


def monotone_affine(dimension, seed):
    """F(x) = A x + c with A positive definite plus skew, and its Lipschitz constant."""
    rng = np.random.default_rng(seed)
    b, s = rng.normal(size=(2, dimension, dimension)) / np.sqrt(dimension)
    a = b @ b.T + 0.2 * np.eye(dimension) + 0.5 * (s - s.T)
    c = rng.normal(size=dimension) * 0.3
    return (lambda x: a @ x + c), spectral_norm(a)


def turning_field(field, bad_call):
    """`field`, but all NaN at its call number `bad_call` (from 0): F(x) of
    step j is call 2j, F(y) call 2j + 1."""
    calls = []

    def turning(x):
        calls.append(x)
        return np.full(len(x), np.nan) if len(calls) - 1 == bad_call else field(x)
    return turning


class TestExtragradientMatchesThreeProjectionLoop:
    """One stacked projection for the residual and the predictor gives the
    bits of the loop that projected each point alone."""

    CASES = {
        "one block length": SimplexProduct(blocks=[(10, 300.0), (10, 600.0), (10, 200.0)]),
        "several lengths and a zero demand":
            SimplexProduct(blocks=[(4, 1.0), (1, 0.0), (4, 2.0), (10, 3.0), (3, 0.0), (4, 5.0)]),
        "box": Box(lo=-np.ones(6), hi=np.linspace(0.5, 2.0, 6)),
    }

    @staticmethod
    def assert_same(got, want):
        assert got.x_star.tobytes() == want.x_star.tobytes()
        assert (got.residual, got.iterations, got.converged) == (want.residual, want.iterations, want.converged)

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_case(self, case, seed):
        feasible = self.CASES[case]
        field, lipschitz = monotone_affine(feasible.dimension, seed)
        want = three_projection_extragradient(feasible, field, lipschitz)
        assert want.converged and want.iterations > 10
        self.assert_same(extragradient_solve(feasible, field, lipschitz), want)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(vi, "_EG_MAX_ITER", 7)
        feasible = self.CASES["several lengths and a zero demand"]
        field, lipschitz = monotone_affine(feasible.dimension, 2)
        want = three_projection_extragradient(feasible, field, lipschitz)
        assert not want.converged and want.iterations == 7
        self.assert_same(extragradient_solve(feasible, field, lipschitz), want)

    def test_default_game(self):
        from cvarvi.harness import ExperimentConfig, build_configured_game
        from cvarvi.routing import path_cost_field, sample_path_kappa

        config = ExperimentConfig()
        game = build_configured_game(config)
        field = path_cost_field(game, sample_path_kappa(game, 50, config.master_seed, 0, 0))
        want = three_projection_extragradient(game.feasible_flows, field, game.lipschitz)
        assert want.converged and want.iterations > 500
        self.assert_same(extragradient_solve(game.feasible_flows, field, game.lipschitz), want)

    @pytest.mark.parametrize("bad_call, point", [(0, "x"), (1, "y"), (6, "x"), (7, "y")])
    def test_nonfinite_field_names_the_step_and_point(self, bad_call, point):
        feasible = self.CASES["one block length"]
        field, lipschitz = monotone_affine(feasible.dimension, 0)
        with pytest.raises(FloatingPointError) as want:
            three_projection_extragradient(feasible, turning_field(field, bad_call), lipschitz)
        message = f"field returned non-finite values at iteration {bad_call // 2}: {point}="
        assert str(want.value).startswith(message)
        with pytest.raises(FloatingPointError) as got:
            extragradient_solve(feasible, turning_field(field, bad_call), lipschitz)
        assert str(got.value) == str(want.value)


class TestSpectralNorm:
    def test_against_numpy(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(size=(6, 4))
            assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

