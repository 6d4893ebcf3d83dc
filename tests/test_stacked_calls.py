"""The per-row contract of numpy's stacked calls that the certificate, the
kappa-hat reducer and the flow polytope rely on: a stack gets one BLAS or
reduction call per row, so each row has the bits of its one-row call.

A numpy that dispatched stacks differently (one gemm for a stack of
gemvs, say) would change result bits silently; it fails here instead.
The kappa-hat reducer sums each CVaR tail by numpy's pairwise reduction,
not by BLAS, so the reference kappa has the same bits at one BLAS thread
and at two, which a test checks in child processes. CI runs this module
once at one BLAS thread and once at OpenBLAS's default thread count, at
which the certificate's stacked products may be split across threads.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvarvi
from cvarvi.harness import ExperimentConfig, build_configured_game
from cvarvi.routing import sample_path_kappa, solve_cwe
from cvarvi.vi import SimplexProduct

# A block of the replication grid holds 25 kappa-hat rows.
ROWS = 25


@pytest.fixture(scope="module")
def region():
    """The region a cold solve of the default game's first kappa-hat appends."""
    config = ExperimentConfig()
    game = build_configured_game(config)
    table = []
    solve_cwe(game, sample_path_kappa(game, 50, config.master_seed, 0, 0), "lemke", regions=table)
    return game, table[0]


def stack(rows: int, cols: int, seed: int) -> np.ndarray:
    """Random rows over several orders of magnitude, so that any other
    summation order changes some last bit."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-3, 4, size=(rows, cols))


class TestMatrixTimesRows:
    def check(self, mat: np.ndarray, seed: int):
        x = stack(ROWS, mat.shape[1], seed)
        got = (mat @ x[..., None])[..., 0]
        assert got.shape == (ROWS, len(mat))
        assert got.tobytes() == np.array([mat @ row for row in x]).reshape(got.shape).tobytes()

    def test_cost_matrix(self, region):
        game, _ = region
        assert game.cost_matrix.shape == (30, 30)
        self.check(game.cost_matrix, 1)

    def test_region_flow_map(self, region):
        _, reg = region
        assert reg.flow_map.shape[0] == reg.flow_map.shape[1] > 1
        self.check(reg.flow_map, 2)

    def test_region_slack_map(self, region):
        _, reg = region
        assert reg.slack_map.shape[1] == len(reg.support)
        self.check(reg.slack_map, 3)

    def test_square_404(self):
        self.check(stack(404, 404, 4), 5)

    def test_one_by_one_and_empty(self):
        self.check(np.array([[1.7]]), 6)
        x = stack(ROWS, 0, 7)
        assert (np.zeros((0, 0)) @ x[..., None])[..., 0].shape == (ROWS, 0)
        assert not (np.zeros((4, 0)) @ x[..., None])[..., 0].any()


@pytest.mark.parametrize("cols", [1, 30, 400])
def test_row_norms_are_linalg_norm(cols):
    s = stack(ROWS, cols, cols)
    got = np.sqrt(s[:, None, :] @ s[..., None])[:, 0, 0]
    assert got.tobytes() == np.array([np.linalg.norm(row) for row in s]).tobytes()


# k = 250 is N = 5000 at alpha = 0.05; 50,000 the 10^6-draw reference batch.
@pytest.mark.parametrize("k", [3, 250, 50_000])
def test_tail_sums_are_one_reduction_per_row(k):
    # As the reducer forms them: the ascending top-k tails of a partitioned
    # (R, N) buffer, a strided view, summed into a row of another buffer.
    n = 20 * k
    sums = np.random.default_rng(k).random((3, n)) * 4.0
    sums.partition(n - k - 1, axis=1)
    tail = sums[:, n - k:]
    tail.sort(axis=1)
    got = np.empty((2, 3))[1]
    np.add.reduce(tail, axis=1, out=got)
    assert got.tobytes() == np.array([np.add.reduce(row) for row in tail]).tobytes()
    # cvar_from_values sums a reversed view of its descending draws: the same
    # ascending order, so the same bits.
    descending = np.ascontiguousarray(tail[:, ::-1])
    assert got.tobytes() == np.array([np.add.reduce(row[::-1]) for row in descending]).tobytes()


def test_reference_kappa_is_the_same_at_one_and_two_blas_threads():
    script = ("import hashlib; from cvarvi.harness import ExperimentConfig, build_configured_game; "
              "from cvarvi.routing import sample_path_kappa; "
              "game = build_configured_game(ExperimentConfig()); "
              "print(hashlib.sha256(sample_path_kappa(game, 10**6, 42).tobytes()).hexdigest())")
    src_dir = str(Path(cvarvi.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


@pytest.mark.parametrize("lengths", [[10, 10, 10], [3, 12, 1, 20, 9]], ids=["equal", "unequal"])
def test_block_sums_of_rows_are_one_point_sums(lengths):
    starts = np.cumsum(lengths) - lengths
    x = stack(ROWS, sum(lengths), len(lengths))
    got = np.add.reduceat(x, starts, axis=-1)
    assert got.tobytes() == np.array([np.add.reduceat(row, starts) for row in x]).tobytes()
    sp = SimplexProduct(blocks=[(n, 1.0) for n in lengths])
    points = sp.project(x)
    assert sp.contains(points).tolist() == [bool(sp.contains(point)) for point in points]
