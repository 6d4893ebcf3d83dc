"""Uncertain routing games: network model, TNTP ingestion, path
enumeration, cost maps, uncertainty sampling, and equilibrium solves.

Edge travel time is affine in the edge flow, t_e (1 + b_e l_e / c_e), with
an additive uniform noise term on edges touching a designated node set.
Path costs are edge sums, so the per-path cost field is the affine map
h -> Q^T R Q h + Q^T t + kappa where kappa collects per-path CVaR offsets
of the noise. The risk-averse Wardrop equilibrium is the solution of the
VI over the flow polytope, solvable by extragradient, Lemke pivoting, or
an active-set method on the Beckmann program; only kappa changes between
solves.
Equilibrium loads on congested edges (b_e > 0) are unique (Beckmann, McGuire
& Winsten 1956), but path flows and uncongested loads are not, so every
solve returns the minimum-norm point of the equilibrium set.
That flow is piecewise affine in kappa: each piece, an `EquilibriumRegion`,
is fixed by the minimum-cost paths S and the used paths T, and gives the
flow in closed form (Cottle, Pang & Stone 1992, sections 4.5-4.6). Every
solve takes one route, `solve_cwe_block` over a stack of kappa rows, with
one region certificate (`_certify`); `solve_cwe` is its one-row call.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import math
import re
import tempfile
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import lcp as lcp_mod
from .cvar import RiskLevel, cvar_of_row_stream
from .vi import SimplexProduct, ViSolution, extragradient_solve, natural_residual, spectral_norm

__all__ = [
    "Network",
    "OdPair",
    "OdSpec",
    "PathSet",
    "RoutingGame",
    "TntpParseError",
    "parse_tntp",
    "load_tntp",
    "builtin_network",
    "enumerate_paths",
    "build_game",
    "path_cost_field",
    "sample_path_kappa",
    "sample_kappa_block",
    "true_path_kappa",
    "solve_cwe",
    "solve_cwe_block",
    "EquilibriumRegion",
    "SOLVE_METHODS",
    "wardrop_gap",
    "replication_rng",
]

SOLVE_METHODS = ("extragradient", "lemke", "qp")

_USED_FLOW_TOL = 1e-6
# Largest Wardrop gap `solve_cwe` accepts in the flow it returns.
_WARDROP_TOL = 1e-5
# Paths whose cost is within this relative distance of their OD minimum
# count as minimum-cost. On Sioux Falls tied costs agree to 1e-11 relative
# across solvers and distinct costs differ by at least 4e-3.
_TIE_TOL = 1e-7
# The relative tie tolerance of an extragradient iterate's region guess: on
# Sioux Falls the guess first certified at step 128 at 1e-3, at 256 at 1e-4,
# at convergence at _TIE_TOL, and never at 1e-2.
_GUESS_TIE_TOL = 1e-3
# An equilibrium region's flow is accepted only with margins wider than the
# thresholds above, so that a cold solve at the same kappa would find the
# same region: its used paths and the multipliers holding its tied unused
# paths at zero are at least _REGION_MARGIN, its tied costs agree to
# _TIE_TOL / _REGION_TIE_FACTOR and its other costs exceed the minimum by
# _TIE_TOL * _REGION_TIE_FACTOR, all relative as for _TIE_TOL.
_REGION_MARGIN = 1e-4
_REGION_TIE_FACTOR = 100.0
# A path's search key (its cost plus a Dijkstra distance summed from the
# target end) and its cost summed from the origin differ by rounding only,
# so once the least key left costs more than the k-th path by this relative
# gap, no path not yet found can tie with the k-th.
_PATH_TIE_RTOL = 1e-9


class TntpParseError(ValueError):
    pass


@dataclass
class Network:
    """Directed graph with per-edge free-flow time, capacity, and
    congestion coefficient."""

    n_nodes: int
    tail: np.ndarray
    head: np.ndarray
    free_flow_time: np.ndarray
    capacity: np.ndarray
    congestion_coeff: np.ndarray

    def __post_init__(self):
        self.tail = np.asarray(self.tail, dtype=int)
        self.head = np.asarray(self.head, dtype=int)
        self.free_flow_time = np.asarray(self.free_flow_time, dtype=float)
        self.capacity = np.asarray(self.capacity, dtype=float)
        self.congestion_coeff = np.asarray(self.congestion_coeff, dtype=float)
        n_edges = len(self.tail)
        for name, arr in [
            ("head", self.head),
            ("free_flow_time", self.free_flow_time),
            ("capacity", self.capacity),
            ("congestion_coeff", self.congestion_coeff),
        ]:
            if len(arr) != n_edges:
                raise ValueError(f"edge array {name} has length {len(arr)}, expected {n_edges}")
        if np.any(self.tail == self.head):
            raise ValueError("self-loops are not allowed")
        for nodes in (self.tail, self.head):
            if np.any((nodes < 1) | (nodes > self.n_nodes)):
                raise ValueError("edge endpoint outside the node range")
        for name, arr in (("free_flow_time", self.free_flow_time), ("capacity", self.capacity),
                          ("congestion_coeff", self.congestion_coeff)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} is not finite at edge {int(np.argmin(np.isfinite(arr)))}")
        if np.any(self.free_flow_time <= 0) or np.any(self.capacity <= 0):
            raise ValueError("free-flow times and capacities must be positive")
        if np.any(self.congestion_coeff < 0):
            raise ValueError("congestion coefficients must be nonnegative")

    @property
    def n_edges(self) -> int:
        return len(self.tail)


@dataclass(frozen=True)
class OdPair:
    origin: int
    destination: int
    demand: float
    paths_per_od: int

    def __post_init__(self):
        if self.origin == self.destination:
            raise ValueError("origin and destination must differ")
        if not np.isfinite(self.demand) or self.demand < 0:
            raise ValueError("demand must be finite and nonnegative")
        if self.paths_per_od < 1:
            raise ValueError("need at least one path per OD pair")


@dataclass
class OdSpec:
    pairs: Sequence[OdPair]

    def __post_init__(self):
        self.pairs = list(self.pairs)
        if not self.pairs:
            raise ValueError("need at least one OD pair")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass
class PathSet:
    """Simple paths grouped by OD pair with their edge incidence; the OD
    incidence B is derived from od_of_path."""

    paths: list[tuple[int, ...]]
    od_of_path: np.ndarray  # OD index per path: 0, ..., W-1 in contiguous blocks
    edge_incidence: np.ndarray  # Q: |E| x |P|, 0/1

    def __post_init__(self):
        # The flow polytope takes each OD's paths as one contiguous block.
        od = self.od_of_path = np.asarray(self.od_of_path, dtype=int)
        steps = np.diff(od)
        if len(od) != len(self.paths) or not len(od) or od[0] != 0 or np.any((steps != 0) & (steps != 1)):
            raise ValueError("od_of_path must give one OD index per path, "
                             "nondecreasing from 0 in steps of 0 or 1")

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @cached_property
    def od_incidence(self) -> np.ndarray:
        """B: |W| x |P|, the one-hot matrix of od_of_path."""
        return _read_only((np.arange(self.od_of_path[-1] + 1)[:, None] == self.od_of_path).astype(float))

    @cached_property
    def od_starts(self) -> np.ndarray:
        """The index of each OD's first path."""
        return _read_only(np.flatnonzero(np.diff(self.od_of_path, prepend=-1)))


_META_RE = re.compile(r"<([^>]+)>\s*(\S*)")


def parse_tntp(text: str) -> Network:
    """Parse the plain-text transportation-network format.

    Metadata tags supply node and link counts; `~` lines are comments;
    data rows are `tail head capacity length fftt B power speed toll
    type ;`. Free-flow time and capacity are kept; the format's own
    congestion columns are ignored (coefficients are set per game).
    """
    n_nodes = None
    n_links = None
    rows = []
    in_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("~"):
            continue
        if line.startswith("<"):
            match = _META_RE.match(line)
            if match:
                tag, count = match.group(1).strip().upper(), match.group(2)
                if tag in ("NUMBER OF NODES", "NUMBER OF LINKS") and not count.isdecimal():
                    raise TntpParseError(f"line {lineno}: <{tag}> expects a count, got {count!r}")
                if tag == "NUMBER OF NODES":
                    n_nodes = int(count)
                elif tag == "NUMBER OF LINKS":
                    n_links = int(count)
                elif tag == "END OF METADATA":
                    in_data = True
            continue
        if not in_data and n_nodes is None:
            raise TntpParseError(f"line {lineno}: data row before metadata")
        fields = line.rstrip(";").split()
        if len(fields) < 5:
            raise TntpParseError(f"line {lineno}: expected at least 5 columns, got {len(fields)}")
        try:
            tail = int(fields[0])
            head = int(fields[1])
            capacity = float(fields[2])
            fftt = float(fields[4])
        except ValueError as exc:
            raise TntpParseError(f"line {lineno}: malformed row ({exc})") from exc
        rows.append((lineno, tail, head, capacity, fftt))

    if n_nodes is None or n_links is None:
        raise TntpParseError("missing <NUMBER OF NODES> or <NUMBER OF LINKS> metadata")
    if len(rows) != n_links:
        raise TntpParseError(f"found {len(rows)} links, metadata promises {n_links}")
    for lineno, tail, head, _, _ in rows:
        if not (1 <= tail <= n_nodes and 1 <= head <= n_nodes):
            raise TntpParseError(f"line {lineno}: node id out of range 1..{n_nodes}")
    return Network(
        n_nodes=n_nodes,
        tail=np.array([r[1] for r in rows]),
        head=np.array([r[2] for r in rows]),
        capacity=np.array([r[3] for r in rows]),
        free_flow_time=np.array([r[4] for r in rows]),
        congestion_coeff=np.zeros(len(rows)),
    )


def load_tntp(path) -> Network:
    return parse_tntp(Path(path).read_text())


@functools.lru_cache
def _builtin_arrays(name: str) -> tuple[int, dict[str, np.ndarray]]:
    """Node count and read-only edge arrays of a shipped network, parsed once."""
    candidate = Path(__file__).parent / "data" / f"{name}_net.tntp"
    if not candidate.exists():
        raise ValueError(f"no builtin network named {name!r}")
    network = parse_tntp(candidate.read_text())
    return network.n_nodes, {f.name: _read_only(getattr(network, f.name))
                             for f in fields(Network) if f.name != "n_nodes"}


def builtin_network(name: str = "siouxfalls") -> Network:
    """Networks shipped with the package (currently `siouxfalls`). Each is
    parsed once per process; every call returns a new Network over the same
    read-only arrays, so writing to them raises ValueError."""
    n_nodes, arrays = _builtin_arrays(name)
    return Network(n_nodes=n_nodes, **arrays)


def _to_target(into: list[list[tuple[int, float]]], target: int,
               banned: frozenset[int] = frozenset()) -> tuple[list[float], list[int]]:
    """Dijkstra over the reversed edges: each node's least free-flow time to
    `target` without entering `banned` (inf if there is none) and its next
    hop on that route. `into[v]` lists the (tail, time) of v's in-edges."""
    dist, hop = [math.inf] * len(into), [0] * len(into)
    dist[target] = 0.0
    heap = [(0.0, target)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, t in into[v]:
            if d + t < dist[u] and u not in banned:
                dist[u], hop[u] = d + t, v
                heapq.heappush(heap, (d + t, u))
    return dist, hop


def _k_shortest_paths(out: list[list[tuple[int, float]]], into: list[list[tuple[int, float]]],
                      source: int, target: int, k: int) -> list[tuple[int, ...]]:
    """The k loopless source -> target paths with smallest free-flow time,
    ties broken by node sequence (fewer if fewer exist); each cost is the
    edge times summed along the node sequence.

    One best-first search over loopless paths. A heap entry is (cost +
    to_go, cost, nodes, exact), where to_go is a lower bound on the time
    from the last node to `target`, so complete paths (to_go = 0) leave the
    heap in (cost, node sequence) order up to rounding: they are collected
    until the least key left passes the k-th cost by _PATH_TIE_RTOL, then
    sorted. A partial path is extended only once to_go is exact: the
    static next-hop route from its last node avoids its own nodes, or a
    Dijkstra that bans them has re-keyed it (an entry with no loopless
    completion is dropped). Every extended path is then a prefix of its
    cheapest loopless completion, which costs at most the k-th, so the
    work is polynomial, as in Yen's (1971) algorithm."""
    dist, hop = _to_target(into, target)
    # A least-time route never revisits its start, so the source's key is exact.
    heap = [(dist[source], 0.0, (source,), True)]
    done: list[tuple[float, tuple[int, ...]]] = []
    while heap and (len(done) < k or heap[0][0] <= done[k - 1][0] * (1.0 + _PATH_TIE_RTOL)):
        _, cost, nodes, exact = heapq.heappop(heap)
        v = nodes[-1]
        if v == target:
            done.append((cost, nodes))
            continue
        if not exact:
            u = hop[v]
            while u != target and u not in nodes:
                u = hop[u]
            if u != target:
                to_go = _to_target(into, target, frozenset(nodes[:-1]))[0][v]
                if to_go < math.inf:
                    heapq.heappush(heap, (cost + to_go, cost, nodes, True))
                continue
        for w, t in out[v]:
            if w not in nodes and dist[w] < math.inf:
                heapq.heappush(heap, (cost + t + dist[w], cost + t, nodes + (w,), False))
    return [nodes for _, nodes in sorted(done)[:k]]


def enumerate_paths(network: Network, od_spec: OdSpec) -> PathSet:
    """For each OD pair, the k simple paths with smallest free-flow travel
    time, ties broken by node sequence; builds the edge incidence matrix.
    Paths are node sequences, so a network with parallel edges is rejected."""
    edge_of: dict[tuple[int, int], int] = {}
    for e, pair in enumerate(zip(network.tail.tolist(), network.head.tolist())):
        if pair in edge_of:
            raise ValueError(f"parallel edges {edge_of[pair]} and {e} join node pair {pair}")
        edge_of[pair] = e
    out: list[list[tuple[int, float]]] = [[] for _ in range(network.n_nodes + 1)]
    into: list[list[tuple[int, float]]] = [[] for _ in range(network.n_nodes + 1)]
    for (tail, head), time in zip(edge_of, network.free_flow_time.tolist()):
        out[tail].append((head, time))
        into[head].append((tail, time))
    paths: list[tuple[int, ...]] = []
    od_of_path: list[int] = []
    for w, od in enumerate(od_spec.pairs):
        if not (1 <= od.origin <= network.n_nodes and 1 <= od.destination <= network.n_nodes):
            raise ValueError(f"OD pair ({od.origin}, {od.destination}) names a node outside 1..{network.n_nodes}")
        found = _k_shortest_paths(out, into, od.origin, od.destination, od.paths_per_od)
        if len(found) < od.paths_per_od:
            raise ValueError(
                f"OD pair ({od.origin}, {od.destination}) has only {len(found)} simple paths, "
                f"requested {od.paths_per_od}"
            )
        paths.extend(found)
        od_of_path.extend([w] * len(found))

    q_inc = np.zeros((network.n_edges, len(paths)))
    for p, nodes in enumerate(paths):
        for j in range(len(nodes) - 1):
            q_inc[edge_of[(nodes[j], nodes[j + 1])], p] = 1.0
    return PathSet(paths=paths, od_of_path=np.asarray(od_of_path, dtype=int), edge_incidence=q_inc)


@dataclass
class RoutingGame:
    """Immutable bundle: network, OD demands, enumerated paths, per-edge
    noise supports, and the common risk level. The kappa-free part of the
    cost map, the flow polytope and the layout of a noise draw, below, are
    built on first use, cached, and pickled; the arrays are read-only."""

    network: Network
    od_spec: OdSpec
    path_set: PathSet
    noise_lo: np.ndarray  # per-edge uniform support [lo, hi]; lo = hi = 0 when deterministic
    noise_hi: np.ndarray
    alpha: RiskLevel

    def __post_init__(self):
        self.noise_lo = np.asarray(self.noise_lo, dtype=float)
        self.noise_hi = np.asarray(self.noise_hi, dtype=float)
        n_edges = self.network.n_edges
        if self.noise_lo.shape != (n_edges,) or self.noise_hi.shape != (n_edges,):
            raise ValueError("noise supports must be per-edge")
        if not (np.isfinite(self.noise_lo).all() and np.isfinite(self.noise_hi).all()):
            raise ValueError("noise supports must be finite")
        if np.any(self.noise_lo < 0) or np.any(self.noise_hi < self.noise_lo):
            raise ValueError("need 0 <= lo <= hi per edge")
        if self.path_set.edge_incidence.shape != (n_edges, self.path_set.n_paths):
            raise ValueError("edge incidence inconsistent with the network")
        n_ods = len(self.path_set.od_incidence)
        if n_ods != len(self.od_spec.pairs):
            raise ValueError(f"path set covers {n_ods} OD pairs, the OD spec has {len(self.od_spec.pairs)}")

    @property
    def congestion_diag(self) -> np.ndarray:
        """Diagonal of R: b_e t_e / c_e per edge."""
        net = self.network
        return net.congestion_coeff * net.free_flow_time / net.capacity

    @property
    def demands(self) -> np.ndarray:
        return np.array([od.demand for od in self.od_spec.pairs], dtype=float)

    @property
    def uncertain_edges(self) -> np.ndarray:
        return np.nonzero(self.noise_hi > self.noise_lo)[0]

    @cached_property
    def noise_edges(self) -> np.ndarray:
        """The uncertain edges that some path crosses, increasing: the rows
        of an edge-major noise draw. Noise elsewhere reaches no path cost."""
        crossed = self.path_set.edge_incidence.any(axis=1)
        return _read_only(np.nonzero((self.noise_hi > self.noise_lo) & crossed)[0])

    @cached_property
    def path_noise_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each path's rows of noise_edges, increasing."""
        q_noisy = self.path_set.edge_incidence[self.noise_edges]
        return tuple(tuple(np.nonzero(col)[0].tolist()) for col in q_noisy.T)

    @cached_property
    def cost_matrix(self) -> np.ndarray:
        """A = Q^T R Q, the Jacobian of the path-cost map."""
        q_inc = self.path_set.edge_incidence
        return _read_only(q_inc.T @ (self.congestion_diag[:, None] * q_inc))

    @cached_property
    def free_flow_costs(self) -> np.ndarray:
        """Q^T t: per-path travel time at zero flow."""
        return _read_only(self.path_set.edge_incidence.T @ self.network.free_flow_time)

    @cached_property
    def lipschitz(self) -> float:
        """||P A P||_2, the extragradient step constant of the cost map
        F(h) = A h + c on the flow polytope C, where P = I - B^T diag(1/|P_w|) B
        removes each OD's mean (B the OD incidence, |P_w| its path counts).

        Why it suffices: P is the orthogonal projector onto null(B), and F
        and PF differ by B^T mu, a constant added to each OD block. The
        simplex projection shifts its threshold by that constant, so
        P_C(z + B^T mu) = P_C(z), and extragradient on F and on PF make the
        same iterates in exact arithmetic. For h, g in C, h - g lies in
        null(B), so <PF(h) - PF(g), h - g> = <A(h - g), h - g> >= 0 (PF is
        monotone on C) and PF(h) - PF(g) = PAP(h - g) (PF is
        ||PAP||-Lipschitz on C); h = P_C(h - F(h)) exactly when
        h = P_C(h - PF(h)), so PF has F's solutions. A value within
        max(shape) * eps * ||A||_2 of 0, the `_pinv` tolerance, is rounding
        of a field constant on C and is returned as exactly 0.0."""
        a_mat, b_inc = self.cost_matrix, self.path_set.od_incidence
        p_mat = np.eye(len(a_mat)) - b_inc.T @ (b_inc / b_inc.sum(axis=1, keepdims=True))
        norm = spectral_norm(p_mat @ a_mat @ p_mat)
        return norm if norm > max(a_mat.shape) * np.finfo(float).eps * spectral_norm(a_mat) else 0.0

    @cached_property
    def lcp_matrix(self) -> np.ndarray:
        """M = [[A, -B^T], [B, 0]] of the equilibrium LCP."""
        b_inc = self.path_set.od_incidence
        zeros = np.zeros((len(b_inc), len(b_inc)))
        return _read_only(np.block([[self.cost_matrix, -b_inc.T], [b_inc, zeros]]))

    def check_kappa(self, kappa) -> np.ndarray:
        """kappa as a float array; ValueError unless it holds one finite
        offset per path. Every route from kappa to a cost or an LCP calls it."""
        kappa = np.asarray(kappa, dtype=float)
        if len(kappa) != self.path_set.n_paths:
            raise ValueError(f"kappa has length {len(kappa)}, expected {self.path_set.n_paths}")
        if not np.isfinite(kappa).all():
            raise ValueError(f"kappa is not finite at path {int(np.argmin(np.isfinite(kappa)))}")
        return kappa

    @cached_property
    def feasible_flows(self) -> SimplexProduct:
        """The flow polytope: one simplex block of each OD's paths and demand."""
        return SimplexProduct(blocks=zip(np.bincount(self.path_set.od_of_path), self.demands))


def build_game(
    network: Network,
    od_spec: OdSpec,
    alpha: RiskLevel,
    b_e: float = 100.0,
    uncertain_nodes: Sequence[int] = (10, 16, 17),
    noise_scale: float = 0.5,
) -> RoutingGame:
    """Assemble the game: congestion coefficient b_e on every edge, paths
    by free-flow k-shortest enumeration, and uniform noise on [0,
    noise_scale * t_e] for every edge whose tail or head lies in
    uncertain_nodes. A b_e or noise_scale that is not finite and
    nonnegative is a ValueError naming it."""
    for name, value in (("b_e", b_e), ("noise_scale", noise_scale)):
        if not 0 <= value < np.inf:  # NaN fails too
            raise ValueError(f"{name} must be finite and nonnegative, got {value}")
    net = replace(network, congestion_coeff=np.full(network.n_edges, float(b_e)))
    node_set = set(int(v) for v in uncertain_nodes)
    outside = sorted(v for v in node_set if not 1 <= v <= net.n_nodes)
    if outside:
        raise ValueError(f"uncertain nodes {outside} lie outside the node range 1..{net.n_nodes}")
    path_set = enumerate_paths(net, od_spec)
    uncertain = np.array(
        [int(t) in node_set or int(h) in node_set for t, h in zip(net.tail, net.head)]
    )
    noise_hi = np.where(uncertain, noise_scale * net.free_flow_time, 0.0)
    return RoutingGame(
        network=net,
        od_spec=od_spec,
        path_set=path_set,
        noise_lo=np.zeros(net.n_edges),
        noise_hi=noise_hi,
        alpha=alpha,
    )


def path_cost_field(game: RoutingGame, kappa: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The affine CVaR path-cost map h -> Q^T R Q h + Q^T t + kappa, as a
    plain function. Its Lipschitz constant is ||A||_2; `game.lipschitz`
    bounds its variation on the flow polytope modulo a constant per OD,
    which the polytope's projection ignores. Every solve and certificate
    starts here, so a non-finite kappa fails here."""
    kappa = game.check_kappa(kappa)
    a_mat = game.cost_matrix
    const = game.free_flow_costs + kappa
    return lambda h: a_mat @ h + const


def replication_rng(master_seed: int, *stream_key: int) -> np.random.Generator:
    """SFC64 generator on the SeedSequence substream of the master seed and
    a replication key. SeedSequence hashes each spawn key into its own
    initial state, so distinct keys give independent streams."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in stream_key))
    return np.random.Generator(np.random.SFC64(seq))


# Names the reference batch's stream and tail-sum rule; part of its cache key.
_DRAW_LAYOUT = "SFC64, noise_edges rows, edge-major, ascending pairwise tail sums"


# Scratch of one sample_kappa_block pass in bytes: its drawn rows and the
# reducer's one sum row per key. A key over it is a pass of its own.
_KAPPA_BLOCK_BYTES = 1 << 21


def sample_kappa_block(game: RoutingGame, n_samples: int, seed: int,
                       stream_keys: Sequence[Sequence[int]]) -> np.ndarray:
    """`sample_path_kappa` of each stream key at one N, bit for bit, as an
    (R, P) array with one row per key.

    A pass takes the keys whose (E, N) draw matrices and sum rows fit in
    _KAPPA_BLOCK_BYTES, or one key that does not (the reference batch), and
    one `cvar_of_row_stream` call on game.path_noise_rows gives its kappa.
    Each draw fills a fresh (r, c, N) array with the next c rows of the
    pass's r key streams, c = E where the keys fit and 1 where not, scales
    them to [0, hi - lo) by one multiply and hands them on as row views.
    Each path's sum of noise_lo over its noise edges is added after the
    reduction, as CVaR is translation-equivariant.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    keys = [tuple(key) for key in stream_keys]
    edges = game.noise_edges
    widths = (game.noise_hi - game.noise_lo)[edges]
    step = _KAPPA_BLOCK_BYTES // (8 * n_samples * (len(edges) + 1))
    step, chunk = (step, max(1, len(edges))) if step > 0 else (1, 1)

    def noise_rows(rngs):
        for first in range(0, len(edges), chunk):
            scale = widths[first:first + chunk, None]
            block = np.empty((len(rngs), len(scale), n_samples))
            for j, rng in enumerate(rngs):
                rng.random(out=block[j])
            block *= scale
            for i in range(block.shape[1]):
                yield block[:, i]
            del block  # rows the reducer dropped are freed before the next draw

    kappa = np.empty((len(keys), game.path_set.n_paths))
    for start in range(0, len(keys), step):
        rngs = [replication_rng(seed, *key) for key in keys[start:start + step]]
        kappa[start:start + len(rngs)] = cvar_of_row_stream(
            noise_rows(rngs), (len(rngs), n_samples), game.path_noise_rows, game.alpha.alpha)
    kappa += game.path_set.edge_incidence[edges].T @ game.noise_lo[edges]
    return kappa


def sample_path_kappa(game: RoutingGame, n_samples: int, seed: int, *stream_key: int) -> np.ndarray:
    """Empirical per-path CVaR offsets from N i.i.d. edge-noise vectors.

    Only the uncertain edges some path crosses are drawn (game.noise_edges),
    edge by edge: N uniforms per edge from the replication's SFC64 stream.
    Paths without uncertain edges get exactly zero. Bitwise reproducible
    for equal (n_samples, seed, stream_key); distinct stream keys give
    statistically independent replications under one master seed. The
    one-key call of `sample_kappa_block`.
    """
    return sample_kappa_block(game, n_samples, seed, [stream_key])[0]


def true_path_kappa(game: RoutingGame, n_ref: int, seed_ref: int,
                    cache_dir: Optional[Path] = None) -> np.ndarray:
    """Reference per-path CVaR offsets from one huge fixed-seed batch.

    The tail of a sum of independent uniforms has a piecewise-polynomial
    closed form (Bradley & Gupta 2002) that this does not use yet: the
    reference is sample_path_kappa at n_ref draws on the unkeyed stream of
    seed_ref, cached to disk when a cache directory is given. The cache key
    covers the game, (n_ref, seed_ref, alpha) and the draw layout (bit
    generator, drawn edges, edge-major rows, the tail-sum rule of
    `cvar_of_row_stream`); the file stores all but the game. It is renamed
    into place once written, so overlapping runs never read a partial one;
    one stored for other parameters raises ValueError.
    """
    if n_ref < 10**5:
        raise ValueError("reference batch must use at least 1e5 samples")
    key = None
    if cache_dir is not None:
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        digest.update(np.asarray([n_ref, seed_ref, game.alpha.alpha]).tobytes())
        digest.update(_DRAW_LAYOUT.encode())
        digest.update(game.noise_lo.tobytes())
        digest.update(game.noise_hi.tobytes())
        digest.update(game.path_set.edge_incidence.tobytes())
        key = cache_dir / f"kappa_ref_{digest.hexdigest()[:16]}.npz"
        if key.exists():
            with np.load(key) as stored:
                found = (int(stored["n_ref"]), int(stored["seed_ref"]), float(stored["alpha"]),
                         str(stored.get("layout")))
                if found != (n_ref, seed_ref, game.alpha.alpha, _DRAW_LAYOUT):
                    raise ValueError(f"{key} was stored for (n_ref, seed_ref, alpha, layout) = {found}")
                return stored["kappa"]
    kappa = sample_path_kappa(game, n_ref, seed_ref)
    if key is not None:
        with tempfile.TemporaryDirectory(dir=cache_dir) as tmp_dir:
            tmp = Path(tmp_dir) / key.name
            np.savez(tmp, kappa=kappa, n_ref=n_ref, seed_ref=seed_ref, alpha=game.alpha.alpha,
                     layout=_DRAW_LAYOUT)
            tmp.replace(key)
    return kappa


def _od_min_cost(path_set: PathSet, costs: np.ndarray) -> np.ndarray:
    """Each path's OD minimum of costs (of each row, for a stack of cost rows)."""
    return np.minimum.reduceat(costs, path_set.od_starts, axis=-1)[..., path_set.od_of_path]


def _used_gap(path_set: PathSet, costs: np.ndarray, h: np.ndarray):
    """`wardrop_gap` of flows h with path costs `costs`, row by row for stacks."""
    # A non-finite flow counts as used, so its gap is NaN and fails every check.
    return np.max(costs - _od_min_cost(path_set, costs), axis=-1, where=~(h <= _USED_FLOW_TOL),
                  initial=0.0)


def wardrop_gap(game: RoutingGame, kappa: np.ndarray, h: np.ndarray) -> float:
    """Largest excess of a used path's CVaR cost over its OD minimum.

    Zero (within solver tolerance) exactly when flow is placed only on
    minimum-CVaR paths; NaN when h is not finite.
    """
    h = np.asarray(h, dtype=float)
    return float(_used_gap(game.path_set, path_cost_field(game, kappa)(h), h))


def _min_norm_equilibrium(game: RoutingGame, costs: np.ndarray, h0: np.ndarray,
                          tie_tol: float = _TIE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm path flow among the equilibria that share h0's loads
    on congested edges, and the mask of the minimum-cost paths (those
    within tie_tol of their OD minimum, relative) it was found among.

    Costs depend on those loads only, l* = Q_c h0 with Q_c the rows of Q
    where congestion_diag > 0, and all equilibria share them; the
    equilibrium set is the polytope {h >= 0, B h = d, Q_c h = l*, h = 0 off
    the minimum-cost paths}. Its minimum-norm point minimizes 1/2 ||h||^2
    over that set (`active_set_qp`, from h0), with the equality rows reduced
    to an orthonormal basis of their row space by one SVD. The paths of a
    zero-demand OD are held at exactly 0, as B h = 0 with h >= 0 forces; h0
    on the other minimum-cost paths is then feasible.
    """
    ps = game.path_set
    floor = _od_min_cost(ps, costs)
    active = costs <= floor + tie_tol * (1.0 + np.abs(floor))
    free = active & (game.demands[ps.od_of_path] > 0.0)
    h = np.zeros(ps.n_paths)
    if not free.any():
        return h, active
    a_mat = np.vstack([ps.edge_incidence[game.congestion_diag > 0.0], ps.od_incidence])[:, free]
    a_mat = a_mat[a_mat.any(axis=1)]
    u, sv, vt = np.linalg.svd(a_mat, full_matrices=False)
    rank = int(np.sum(sv > sv[0] * max(a_mat.shape) * np.finfo(float).eps))
    n_free = a_mat.shape[1]
    rows = u[:, :rank].T @ (a_mat @ h0[free]) / sv[:rank]
    h[free] = lcp_mod.active_set_qp(np.eye(n_free), np.zeros(n_free), vt[:rank], rows, h0[free])[0]
    return h, active


def _pinv(a: np.ndarray) -> np.ndarray:
    """Pseudo-inverse at the rank tolerance of `_min_norm_equilibrium`."""
    return np.linalg.pinv(a, rcond=max(a.shape) * np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class EquilibriumRegion:
    """One piece of the map kappa -> minimum-norm equilibrium flow.

    On the piece the minimum-cost paths S (`active`) and the used paths
    T (`support`, a subset of S) are fixed. With q = Q^T t + kappa, the
    flow on T solves K [h_T; mu] = [-q_T; d], K = [[A_TT, -B_T^T],
    [B_T, 0]]. As A_TT = Q_T^T R Q_T, a null vector of K has a flow part
    with image 0 under B and under Q_c, the congested rows of Q, and a
    mu-part 0 on every OD that T serves; so the minimum-norm solution
    K^+ [..] is the minimum-norm flow with T's demands and congested loads:
    h_T = H q_T + g, with H and g read off one pseudo-inverse of K. It is
    the minimum-norm equilibrium when the multipliers pi = P h_T of the
    bounds h >= 0 on S minus T are nonnegative: by the Karush-Kuhn-Tucker
    conditions of min ||h|| over {h >= 0 on S, 0 off S, G h fixed}, with
    G = [Q_c; B], h_T = G_T^T lam and pi = -G_{S-T}^T lam, lam the
    minimum-norm multipliers. A zero-demand OD's paths are held at 0 by
    B h = 0 alone, so P has no rows for them. All arrays are read-only.
    """

    active: np.ndarray  # S, a mask over paths
    support: np.ndarray  # T, path indices, increasing
    flow_map: np.ndarray  # H, |T| x |T|
    flow_offset: np.ndarray  # g, |T|
    slack_map: np.ndarray  # P, |S minus T, less zero-demand ODs| x |T|


def _equilibrium_region(game: RoutingGame, active: np.ndarray, used: np.ndarray) -> EquilibriumRegion:
    """The region of minimum-cost paths `active` and used paths `used`
    (masks, used within active; T is empty where no demand is positive)."""
    ps = game.path_set
    crossed = ps.edge_incidence[:, active].any(axis=1) & (game.congestion_diag > 0.0)
    support = np.flatnonzero(used)
    n_used, n_ods = len(support), len(ps.od_incidence)
    b_used = ps.od_incidence[:, support]
    k_inv = _pinv(np.block([[game.cost_matrix[np.ix_(support, support)], -b_used.T],
                            [b_used, np.zeros((n_ods, n_ods))]]))
    eq = np.vstack([ps.edge_incidence[crossed], ps.od_incidence])
    bounded = active & ~used & (game.demands[ps.od_of_path] > 0.0)  # the rows of P
    return EquilibriumRegion(
        active=_read_only(active.copy()),
        support=_read_only(support),
        flow_map=_read_only(-k_inv[:n_used, :n_used]),
        flow_offset=_read_only(k_inv[:n_used, n_used:] @ game.demands),
        slack_map=_read_only(-eq[:, bounded].T @ _pinv(eq[:, support].T)),
    )


def _certify(game: RoutingGame, region: EquilibriumRegion,
             q: np.ndarray) -> tuple[np.ndarray, list[ViSolution]]:
    """The rows of an (R, P) stack q = Q^T t + kappa where the region's
    certificate holds, and each one's finished solution: its flow h,
    projected onto the flow polytope, with the natural residual
    ||h - P(h - c)|| of its path costs c and `iterations` 0. The
    certificate: every used path carries at least _REGION_MARGIN and so
    does every multiplier on S minus T; the paths within _TIE_TOL /
    _REGION_TIE_FACTOR of their OD minimum cost are exactly S, and all
    others lie beyond _TIE_TOL * _REGION_TIE_FACTOR (relative); the Wardrop
    gap is at most _WARDROP_TOL; and the checks of `natural_residual` hold
    (the polytope contains h, c is finite). Comparisons fail on NaN. Each
    row gets its own matrix-vector product and dot product, so its bits do
    not depend on the stack it is in, and its residual is
    `natural_residual`'s."""
    feasible = game.feasible_flows
    h_used = (region.flow_map @ q[:, region.support, None])[..., 0] + region.flow_offset
    rows = np.flatnonzero(np.all(h_used >= _REGION_MARGIN, axis=1)
                          & np.all((region.slack_map @ h_used[..., None]) >= _REGION_MARGIN, axis=(1, 2)))
    h = np.zeros((len(rows), game.path_set.n_paths))
    h[:, region.support] = h_used[rows]
    h = feasible.project(h)
    costs = (game.cost_matrix @ h[..., None])[..., 0] + q[rows]
    floor = _od_min_cost(game.path_set, costs)
    relative = (costs - floor) / (1.0 + np.abs(floor))
    held = (np.all(relative[:, region.active] <= _TIE_TOL / _REGION_TIE_FACTOR, axis=1)
            & np.all(relative[:, ~region.active] > _TIE_TOL * _REGION_TIE_FACTOR, axis=1)
            & (_used_gap(game.path_set, costs, h) <= _WARDROP_TOL)
            & feasible.contains(h) & np.isfinite(costs).all(axis=1))
    h, costs = h[held], costs[held]
    steps = h - feasible.project(h - costs)
    residuals = np.sqrt(steps[:, None, :] @ steps[..., None])[:, 0, 0]  # np.linalg.norm's arithmetic
    return rows[held], [ViSolution(x_star=x, residual=float(r), iterations=0, converged=True)
                        for x, r in zip(h, residuals)]


def _solve_cold(game: RoutingGame, kappa: np.ndarray, method: str,
                regions: list[EquilibriumRegion]) -> ViSolution:
    """One kappa that no region of the table certifies: the method runs, its
    flow gives the minimum-cost and used paths of the minimum-norm equilibrium
    (`_min_norm_equilibrium`), and if that region certifies the kappa
    (`_certify`), its flow and residual are returned and the region is
    appended to `regions`. Extragradient also guesses the region from its
    iterate at each `check` (ties at _GUESS_TIE_TOL) and stops at the first
    guess that certifies; one that fails or raises RuntimeError goes on.
    Where the certificate fails, the minimum-norm flow itself is projected
    and returned with its `natural_residual`. Either flow is checked against
    the equilibrium condition at _WARDROP_TOL (RuntimeError if violated)."""
    feasible = game.feasible_flows
    field = path_cost_field(game, kappa)
    q = (game.free_flow_costs + kappa)[None]
    guesses = []

    def certified_region(h0, costs, tie_tol):
        canonical, active = _min_norm_equilibrium(game, costs, h0, tie_tol)
        region = _equilibrium_region(game, active, canonical > _USED_FLOW_TOL)
        return canonical, region, _certify(game, region, q)[1]

    def guess(x: np.ndarray, fx: np.ndarray) -> Optional[ViSolution]:
        try:
            guesses.append(certified_region(x, fx, _GUESS_TIE_TOL))
        except RuntimeError:  # active_set_qp's iteration cap
            return None
        return next(iter(guesses[-1][2]), None)

    if method == "extragradient":
        raw = extragradient_solve(feasible, field, game.lipschitz, guess)
        h0, iterations, converged = raw.x_star, raw.iterations, raw.converged
    else:
        solver = lcp_mod.solve_lcp_lemke if method == "lemke" else lcp_mod.solve_lcp_qp
        lcp_sol = solver(lcp_mod.assemble_lcp(game, kappa))
        h0 = lcp_sol.x[: game.path_set.n_paths]
        iterations, converged = lcp_sol.iterations, lcp_sol.feasible
    canonical, region, certified = (guesses[-1] if guesses and guesses[-1][2]  # the solve stopped there
                                    else certified_region(h0, field(h0), _TIE_TOL))
    if certified:
        h = certified[0].x_star
        regions.append(region)
    else:
        h = feasible.project(canonical)
    gap = wardrop_gap(game, kappa, h)
    if not gap <= _WARDROP_TOL:  # a NaN gap fails too
        raise RuntimeError(f"solver returned a flow violating the equilibrium condition "
                           f"(gap {gap:.3e} > {_WARDROP_TOL:.1e}, method {method})")
    residual = certified[0].residual if certified else natural_residual(feasible, field, h)
    return ViSolution(x_star=h, residual=residual, iterations=iterations, converged=converged)


def solve_cwe(game: RoutingGame, kappa: np.ndarray, method: str,
              regions: Optional[list[EquilibriumRegion]] = None) -> ViSolution:
    """The minimum-norm equilibrium flow under a fixed per-path CVaR offset.

    Methods: `extragradient` on the flow polytope VI (step from
    `game.lipschitz`), `lemke` complementary pivoting on the LCP, or `qp`
    the primal active-set method on the Beckmann program the LCP is the KKT
    system of (`lcp.solve_lcp_qp`). Path flows at equilibrium are not
    unique when paths share edges, and each method reaches its own point of
    the equilibrium set; the returned flow is the unique minimum-norm point
    of that set.

    The one-row call of `solve_cwe_block`, which raises here what it
    returns for the row: a hit of the table `regions` runs no solver and
    reports `iterations` 0; a miss runs the method and may append its
    region to `regions` (none is kept without a table). The natural
    residual describes the returned flow; `iterations` (extragradient
    steps until the iterate's region certified or the run converged, Lemke
    pivots or active-set iterations) and `converged` the solver run.
    """
    table = [] if regions is None else regions
    solution = solve_cwe_block(game, game.check_kappa(kappa)[None], method, table)[0]
    if isinstance(solution, Exception):
        raise solution
    return solution


def solve_cwe_block(game: RoutingGame, kappas: np.ndarray, method: str,
                    regions: list[EquilibriumRegion]) -> list[ViSolution | Exception]:
    """The minimum-norm equilibrium flow (`solve_cwe`) of each row of an
    (R, P) stack of kappa: one ViSolution per row, or the exception its
    solve raised, so that a row fails alone. Each row's result has the
    same bits in any stack, the one-row stack of `solve_cwe` included.

    The flow comes from an `EquilibriumRegion` whenever one certifies it
    (`_certify`, which also builds the row's solution). Each region of the
    table is tried once, in order, on all rows that no earlier region
    certified. Then the first row still open, a miss, is solved cold
    (`_solve_cold`), which may append its region, and the regions it added
    are tried on the rows after it; so the table grows as under a loop of
    one-row calls. The margins of the certificate make a hit's region the
    one a cold solve finds, so a table never changes the returned bits. A
    row that fails the certificate's feasibility or finiteness check stays
    open, and a row whose kappa is not finite is solved cold after the
    others; either raises as it would alone.
    """
    kappas = np.asarray(kappas, dtype=float)
    if kappas.ndim != 2 or kappas.shape[1] != game.path_set.n_paths:
        raise ValueError(f"expected a stack of kappa rows of length {game.path_set.n_paths}, "
                         f"got shape {kappas.shape}")
    if method not in SOLVE_METHODS:
        raise ValueError(f"unknown method {method!r}; choose one of {', '.join(SOLVE_METHODS)}")

    def solve(r: int) -> ViSolution | Exception:
        try:
            return _solve_cold(game, kappas[r], method, regions)
        except Exception as exc:
            return exc

    q = game.free_flow_costs + kappas  # each row the constant of its path_cost_field
    solutions: list = [None] * len(q)
    open_rows = np.flatnonzero(np.isfinite(kappas).all(axis=1))
    tried = 0
    while len(open_rows):
        for region in regions[tried:]:
            held, certified = _certify(game, region, q[open_rows])
            for r, solution in zip(open_rows[held], certified):
                solutions[r] = solution
            open_rows = np.delete(open_rows, held)
            if not len(open_rows):
                break
        tried = len(regions)
        if len(open_rows):
            solutions[open_rows[0]] = solve(open_rows[0])
            open_rows = open_rows[1:]
    return [solve(r) if sol is None else sol for r, sol in enumerate(solutions)]
