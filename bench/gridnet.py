"""Deterministic k x k grid networks for the scaling workload.

Nodes are numbered row-major from 1. Every pair of horizontally or
vertically adjacent nodes is joined by two directed edges, so a k x k grid
has 4 k (k - 1) edges. Free-flow times and capacities are drawn from a
Philox stream keyed by the workload seed, so one seed always gives the same
network, the same uncertain nodes and, through Yen enumeration, the same
path set.
"""

from __future__ import annotations

import numpy as np

from cvarvi import Network, OdPair, OdSpec

FREE_FLOW_RANGE = (2.0, 8.0)
CAPACITY_RANGE = (4000.0, 12000.0)


def node_id(k: int, row: int, col: int) -> int:
    return row * k + col + 1


def grid_rng(seed: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(0x67726964,))
    return np.random.Generator(np.random.Philox(seq))


def grid_network(k: int, seed: int) -> Network:
    """Bidirectional k x k grid with seeded free-flow times and capacities."""
    if k < 3:
        raise ValueError(f"grid side must be at least 3, got {k}")
    tail, head = [], []
    for row in range(k):
        for col in range(k):
            v = node_id(k, row, col)
            if col + 1 < k:
                w = node_id(k, row, col + 1)
                tail += [v, w]
                head += [w, v]
            if row + 1 < k:
                w = node_id(k, row + 1, col)
                tail += [v, w]
                head += [w, v]
    rng = grid_rng(seed)
    n_edges = len(tail)
    free_flow = rng.uniform(*FREE_FLOW_RANGE, size=n_edges)
    capacity = rng.uniform(*CAPACITY_RANGE, size=n_edges)
    return Network(
        n_nodes=k * k,
        tail=np.array(tail),
        head=np.array(head),
        free_flow_time=free_flow,
        capacity=capacity,
        congestion_coeff=np.zeros(n_edges),
    )


def corner_ods(k: int, paths_per_od: int, demand: float = 400.0) -> OdSpec:
    """The four corner-to-opposite-corner OD pairs."""
    tl, tr = node_id(k, 0, 0), node_id(k, 0, k - 1)
    bl, br = node_id(k, k - 1, 0), node_id(k, k - 1, k - 1)
    return OdSpec(pairs=[
        OdPair(tl, br, demand, paths_per_od),
        OdPair(br, tl, demand, paths_per_od),
        OdPair(tr, bl, demand, paths_per_od),
        OdPair(bl, tr, demand, paths_per_od),
    ])


def uncertain_grid_nodes(k: int, seed: int, count: int = 3) -> tuple[int, ...]:
    """`count` pairwise non-adjacent interior nodes near the grid centre.

    Each interior node touches eight directed edges, and non-adjacent nodes
    share none, so the game gets exactly 8 * count noisy edges.
    """
    lo, hi = max(1, k // 2 - 2), min(k - 2, k // 2 + 1)
    cells = [(r, c) for r in range(lo, hi + 1) for c in range(lo, hi + 1)]
    rng = grid_rng(seed + 1)
    chosen: list[tuple[int, int]] = []
    for idx in rng.permutation(len(cells)):
        r, c = cells[idx]
        if all(abs(r - r2) + abs(c - c2) > 1 for r2, c2 in chosen):
            chosen.append((r, c))
        if len(chosen) == count:
            break
    if len(chosen) < count:
        raise ValueError(f"a {k} x {k} grid has no {count} non-adjacent centre nodes")
    return tuple(sorted(node_id(k, r, c) for r, c in chosen))
