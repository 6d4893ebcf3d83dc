"""Uncertain routing games: network model, TNTP ingestion, path
enumeration, cost maps, uncertainty sampling, and equilibrium solves.

Edge travel time is affine in the edge flow, t_e (1 + b_e l_e / c_e), with
an additive uniform noise term on edges touching a designated node set.
Path costs are edge sums, so the per-path cost field is the affine map
h -> Q^T R Q h + Q^T t + kappa where kappa collects per-path CVaR offsets
of the noise. The risk-averse Wardrop equilibrium is the solution of the
VI over the flow polytope, solvable by extragradient, Lemke pivoting, or
the complementarity-gap program; only kappa changes between solves.
Equilibrium edge loads are unique but path flows are not (paths share
edges), so every solve returns the minimum-norm point of the equilibrium set.
That flow is piecewise affine in kappa: each piece, an `EquilibriumRegion`,
is fixed by the minimum-cost paths S and the used paths T, and gives the
flow in closed form (Cottle, Pang & Stone 1992, sections 4.5-4.6).
"""

from __future__ import annotations

import hashlib
import heapq
import re
import tempfile
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import nnls

from . import lcp as lcp_mod
from .cvar import RiskLevel, equal_weight_cvar
from .vi import SimplexProduct, VectorField, ViSolution, extragradient_solve, natural_residual, spectral_norm

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
    "true_path_kappa",
    "solve_cwe",
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
# An equilibrium region's flow is accepted only with margins wider than the
# thresholds above, so that a cold solve at the same kappa would find the
# same region: its used paths and the multipliers holding its tied unused
# paths at zero are at least _REGION_MARGIN, its tied costs agree to
# _TIE_TOL / _REGION_TIE_FACTOR and its other costs exceed the minimum by
# _TIE_TOL * _REGION_TIE_FACTOR, all relative as for _TIE_TOL.
_REGION_MARGIN = 1e-4
_REGION_TIE_FACTOR = 100.0


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

    def with_congestion(self, b_e: float) -> "Network":
        return replace(self, congestion_coeff=np.full(self.n_edges, float(b_e)))

    def out_edges(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.n_nodes + 1)}
        for e in range(self.n_edges):
            adj[int(self.tail[e])].append(e)
        return adj


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
                tag = match.group(1).strip().upper()
                if tag == "NUMBER OF NODES":
                    n_nodes = int(match.group(2))
                elif tag == "NUMBER OF LINKS":
                    n_links = int(match.group(2))
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


def builtin_network(name: str = "siouxfalls") -> Network:
    """Networks shipped with the package (currently `siouxfalls`)."""
    data_dir = Path(__file__).parent / "data"
    candidate = data_dir / f"{name}_net.tntp"
    if not candidate.exists():
        raise ValueError(f"no builtin network named {name!r}")
    return parse_tntp(candidate.read_text())


def _dijkstra_lex(adj, network: Network, source: int, target: int,
                  banned_edges: frozenset, banned_nodes: frozenset) -> Optional[tuple[float, tuple[int, ...]]]:
    """Shortest path by free-flow time, lexicographically smallest node
    sequence among ties. Returns (cost, nodes) or None."""
    heap = [(0.0, (source,))]
    settled = set()
    while heap:
        cost, nodes = heapq.heappop(heap)
        v = nodes[-1]
        if v == target:
            return cost, nodes
        if v in settled:
            continue
        settled.add(v)
        for e in adj[v]:
            if e in banned_edges:
                continue
            w = int(network.head[e])
            if w in banned_nodes or w in settled or w in nodes:
                continue
            heapq.heappush(heap, (cost + float(network.free_flow_time[e]), nodes + (w,)))
    return None


def _k_shortest_paths(network: Network, adj: dict[int, list[int]], edge_of: dict[tuple[int, int], int],
                      source: int, target: int, k: int) -> list[tuple[int, ...]]:
    """Yen-style loopless k-shortest paths by free-flow travel time with
    deterministic (cost, node-sequence) tie-breaking; adj and edge_of are
    the network's out-edges and (tail, head) -> edge map."""
    first = _dijkstra_lex(adj, network, source, target, frozenset(), frozenset())
    if first is None:
        return []
    accepted = [first]
    candidates: list[tuple[float, tuple[int, ...]]] = []
    seen = {first[1]}

    while len(accepted) < k:
        _, last_path = accepted[-1]
        for i in range(len(last_path) - 1):
            spur_node = last_path[i]
            root = last_path[: i + 1]
            banned_edges = set()
            for _, path in accepted:
                if path[: i + 1] == root and len(path) > i + 1:
                    banned_edges.add(edge_of[(path[i], path[i + 1])])
            banned_nodes = frozenset(root[:-1])
            spur = _dijkstra_lex(adj, network, spur_node, target, frozenset(banned_edges), banned_nodes)
            if spur is None:
                continue
            spur_cost, spur_nodes = spur
            root_cost = sum(
                float(network.free_flow_time[edge_of[(root[j], root[j + 1])]])
                for j in range(len(root) - 1)
            )
            total = root + spur_nodes[1:]
            if total not in seen:
                seen.add(total)
                heapq.heappush(candidates, (root_cost + spur_cost, total))
        if not candidates:
            break
        accepted.append(heapq.heappop(candidates))
    return [nodes for _, nodes in accepted]


def enumerate_paths(network: Network, od_spec: OdSpec) -> PathSet:
    """For each OD pair, the k simple paths with smallest free-flow travel
    time; builds the edge incidence matrix. Paths are node sequences, so a
    network with parallel edges is rejected."""
    edge_of: dict[tuple[int, int], int] = {}
    for e, pair in enumerate(zip(network.tail.tolist(), network.head.tolist())):
        if pair in edge_of:
            raise ValueError(f"parallel edges {edge_of[pair]} and {e} join node pair {pair}")
        edge_of[pair] = e
    adj = network.out_edges()
    paths: list[tuple[int, ...]] = []
    od_of_path: list[int] = []
    for w, od in enumerate(od_spec.pairs):
        found = _k_shortest_paths(network, adj, edge_of, od.origin, od.destination, od.paths_per_od)
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
        """Spectral norm of A, the Lipschitz constant of the cost map."""
        return spectral_norm(self.cost_matrix)

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
    uncertain_nodes."""
    net = network.with_congestion(b_e)
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


def path_cost_field(game: RoutingGame, kappa: np.ndarray) -> VectorField:
    """Affine CVaR path-cost map h -> Q^T R Q h + Q^T t + kappa. Every solve
    and certificate starts here, so a non-finite kappa fails here."""
    kappa = game.check_kappa(kappa)
    a_mat = game.cost_matrix
    const = game.free_flow_costs + kappa
    return VectorField(evaluator=lambda h: a_mat @ h + const, lipschitz_hint=game.lipschitz)


def replication_rng(master_seed: int, *stream_key: int) -> np.random.Generator:
    """SFC64 generator on the SeedSequence substream of the master seed and
    a replication key. SeedSequence hashes each spawn key into its own
    initial state, so distinct keys give independent streams."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in stream_key))
    return np.random.Generator(np.random.SFC64(seq))


# Names the stream the reference batch is drawn from; part of its cache key.
_DRAW_LAYOUT = "SFC64, noise_edges rows, edge-major"


def _kappa_from_noise(game: RoutingGame, draws: np.ndarray) -> np.ndarray:
    """Per-path empirical CVaR of path noise sums for edge-major draws of
    shape (len(game.noise_edges), N). A sum adds its rows in increasing
    edge order and selects its top-ceil(alpha N) tail once per distinct
    rows tuple; paths that cross the same noisy edges share that kappa."""
    n_samples = draws.shape[1]
    cvar_of = equal_weight_cvar(n_samples, game.alpha.alpha)
    sums = np.empty(n_samples)
    kappa_of: dict[tuple[int, ...], float] = {(): 0.0}
    for rows in game.path_noise_rows:
        if rows in kappa_of:
            continue
        if len(rows) == 1:
            kappa_of[rows] = cvar_of(draws[rows[0]])
        else:
            np.add(draws[rows[0]], draws[rows[1]], out=sums)
            for r in rows[2:]:
                sums += draws[r]
            kappa_of[rows] = cvar_of(sums)
    return np.array([kappa_of[rows] for rows in game.path_noise_rows])


def sample_path_kappa(game: RoutingGame, n_samples: int, seed: int, *stream_key: int) -> np.ndarray:
    """Empirical per-path CVaR offsets from N i.i.d. edge-noise vectors.

    Only the uncertain edges some path crosses are drawn (game.noise_edges),
    edge by edge: N uniforms per edge from the replication's SFC64 stream.
    Paths without uncertain edges get exactly zero. Bitwise reproducible
    for equal (n_samples, seed, stream_key); distinct stream keys give
    statistically independent replications under one master seed.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    edges = game.noise_edges
    if len(edges) == 0:
        return np.zeros(game.path_set.n_paths)
    lo = game.noise_lo[edges][:, None]
    draws = replication_rng(seed, *stream_key).random((len(edges), n_samples))
    draws *= game.noise_hi[edges][:, None] - lo
    draws += lo
    return _kappa_from_noise(game, draws)


def true_path_kappa(game: RoutingGame, n_ref: int, seed_ref: int,
                    cache_dir: Optional[Path] = None) -> np.ndarray:
    """Reference per-path CVaR offsets from one huge fixed-seed batch.

    The tail of a sum of independent uniforms has a piecewise-polynomial
    closed form (Bradley & Gupta 2002) that this does not use yet: the
    reference is sample_path_kappa at n_ref draws on the unkeyed stream of
    seed_ref, cached to disk when a cache directory is given. The cache key
    covers the game, (n_ref, seed_ref, alpha) and the draw layout (bit
    generator, drawn edges, edge-major rows); the file stores all but the
    game. It is renamed into place once written, so overlapping runs never
    read a partial one; one stored for other parameters raises ValueError.
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
    """Each path's OD minimum of costs."""
    return np.minimum.reduceat(costs, path_set.od_starts)[path_set.od_of_path]


def wardrop_gap(game: RoutingGame, kappa: np.ndarray, h: np.ndarray) -> float:
    """Largest excess of a used path's CVaR cost over its OD minimum.

    Zero (within solver tolerance) exactly when flow is placed only on
    minimum-CVaR paths; NaN when h is not finite.
    """
    h = np.asarray(h, dtype=float)
    costs = path_cost_field(game, kappa)(h)
    excess = costs - _od_min_cost(game.path_set, costs)
    # A non-finite flow counts as used, so its gap is NaN and fails every check.
    return float(excess[~(h <= _USED_FLOW_TOL)].max(initial=0.0))


def _min_norm_equilibrium(game: RoutingGame, costs: np.ndarray,
                          h0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm path flow among the equilibria that share h0's loads,
    and the mask of the minimum-cost paths it was found among.

    All equilibria induce the same edge loads l* = Q h0 and so the same
    path costs; the equilibrium set is the polytope {h >= 0, B h = d,
    Q h = l*, h = 0 off the minimum-cost paths}. With h = h_p + N z, h_p
    the minimum-norm solution of the equalities and N an orthonormal basis
    of their null space, min ||h|| becomes the least-distance program
    min ||z|| s.t. N z >= -h_p, solved by one nonnegative least-squares
    problem (Lawson & Hanson 1974, ch. 23). The paths of a zero-demand OD
    are held at exactly 0, as B h = 0 with h >= 0 forces; h0 restricted to
    the other minimum-cost paths is then feasible for the program, so it is
    never empty.
    """
    ps = game.path_set
    floor = _od_min_cost(ps, costs)
    active = costs <= floor + _TIE_TOL * (1.0 + np.abs(floor))
    free = active & (game.demands[ps.od_of_path] > 0.0)
    if not free.any():
        return np.zeros(ps.n_paths), active
    a_mat = np.vstack([ps.edge_incidence, ps.od_incidence])[:, free]
    a_mat = a_mat[a_mat.any(axis=1)]
    u, sv, vt = np.linalg.svd(a_mat)
    rank = int(np.sum(sv > sv[0] * max(a_mat.shape) * np.finfo(float).eps))
    h_act = vt[:rank].T @ (u[:, :rank].T @ (a_mat @ h0[free]) / sv[:rank])
    null = vt[rank:]
    if len(null):
        # LDP min ||z|| s.t. G z >= g as NNLS on [G^T; g^T] u ~ e_last.
        e_mat = np.vstack([null, -h_act])
        target = np.zeros(len(e_mat))
        target[-1] = 1.0
        u_ldp, _ = nnls(e_mat, target)
        r = e_mat @ u_ldp - target
        h_act = h_act - null.T @ (r[:-1] / r[-1])
    h = np.zeros(ps.n_paths)
    h[free] = np.maximum(h_act, 0.0)
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
    [B_T, 0]]. A null vector of K has mu-part 0 and Q-image 0 when every
    edge that S crosses is congested, so the minimum-norm solution K^+ [..]
    is the minimum-norm flow with T's edge loads: h_T = H q_T + g, with
    H and g read off one pseudo-inverse of K. It is the minimum-norm
    equilibrium when the multipliers pi = P h_T of the bounds h >= 0 on
    S minus T are nonnegative: by the Karush-Kuhn-Tucker conditions of
    min ||h|| over {h >= 0 on S, 0 off S, [Q; B] h fixed}, h_T = G_T^T lam
    and pi = -G_{S-T}^T lam, G = [Q; B], with lam the minimum-norm
    multipliers. A zero-demand OD's paths are held at 0 by B h = 0 alone,
    so P has no rows for them. All arrays are read-only.
    """

    active: np.ndarray  # S, a mask over paths
    support: np.ndarray  # T, path indices, increasing
    flow_map: np.ndarray  # H, |T| x |T|
    flow_offset: np.ndarray  # g, |T|
    slack_map: np.ndarray  # P, |S minus T, less zero-demand ODs| x |T|


def _equilibrium_region(game: RoutingGame, active: np.ndarray,
                        used: np.ndarray) -> Optional[EquilibriumRegion]:
    """The region of minimum-cost paths `active` and used paths `used`
    (masks, used within active), or None where its formula does not give
    the minimum-norm flow: no path used, or an uncongested edge under S."""
    ps = game.path_set
    crossed = ps.edge_incidence[:, active].any(axis=1)
    if not used.any() or np.any(game.congestion_diag[crossed] <= 0.0):
        return None
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


def _region_flow(game: RoutingGame, feasible: SimplexProduct, field: VectorField, kappa: np.ndarray,
                 region: EquilibriumRegion) -> Optional[np.ndarray]:
    """The region's flow at kappa, projected onto the flow polytope, if its
    certificate holds, else None. The certificate: every used path carries
    at least _REGION_MARGIN and so does every multiplier on S minus T; the
    paths within _TIE_TOL / _REGION_TIE_FACTOR of their OD minimum cost are
    exactly S, and all others lie beyond _TIE_TOL * _REGION_TIE_FACTOR;
    the Wardrop gap is at most _WARDROP_TOL. Comparisons fail on NaN."""
    support = region.support
    h_used = region.flow_map @ (game.free_flow_costs + kappa)[support] + region.flow_offset
    if not (np.all(h_used >= _REGION_MARGIN) and np.all(region.slack_map @ h_used >= _REGION_MARGIN)):
        return None
    h = np.zeros(game.path_set.n_paths)
    h[support] = h_used
    h = feasible.project(h)
    costs = field(h)
    floor = _od_min_cost(game.path_set, costs)
    relative = (costs - floor) / (1.0 + np.abs(floor))
    if not (np.all(relative[region.active] <= _TIE_TOL / _REGION_TIE_FACTOR)
            and np.all(relative[~region.active] > _TIE_TOL * _REGION_TIE_FACTOR)
            and wardrop_gap(game, kappa, h) <= _WARDROP_TOL):
        return None
    return h


def solve_cwe(game: RoutingGame, kappa: np.ndarray, method: str,
              regions: Optional[list[EquilibriumRegion]] = None) -> ViSolution:
    """The minimum-norm equilibrium flow under a fixed per-path CVaR offset.

    Methods: `extragradient` on the flow polytope VI, `lemke`
    complementary pivoting on the LCP, or `qp` complementarity-gap
    minimization. Path flows at equilibrium are not unique when paths
    share edges, and each method reaches its own point of the equilibrium
    set; the returned flow is the unique minimum-norm point of that set.

    The flow comes from an `EquilibriumRegion` whenever one certifies it
    (see `_region_flow`). The regions of the table `regions` are tried in
    order; a hit runs no solver and reports `iterations` 0. On a miss, or
    with no table, the method runs, its flow gives the minimum-cost and
    used paths of the minimum-norm equilibrium (`_min_norm_equilibrium`),
    and the flow of that region is returned if it certifies; the region
    is then appended to `regions`. The margins of the certificate make a
    hit's region the one a cold solve finds, so a table never changes the
    returned bits. Only where no region certifies is the least-distance
    flow itself returned, checked against the equilibrium condition at
    _WARDROP_TOL (RuntimeError if violated). The natural residual
    describes the returned flow; `iterations` (extragradient steps, Lemke
    pivots or gap-minimization steps) and `converged` the solver run.
    """
    feasible = game.feasible_flows
    field = path_cost_field(game, kappa)
    kappa = np.asarray(kappa, dtype=float)  # checked by path_cost_field
    if method not in SOLVE_METHODS:
        raise ValueError(f"unknown method {method!r}; choose one of {', '.join(SOLVE_METHODS)}")
    for region in regions or ():
        h = _region_flow(game, feasible, field, kappa, region)
        if h is not None:
            return ViSolution(x_star=h, residual=natural_residual(feasible, field, h), iterations=0,
                              converged=True)

    if method == "extragradient":
        raw = extragradient_solve(feasible, field)
        h0, iterations, converged = raw.x_star, raw.iterations, raw.converged
    else:
        solver = lcp_mod.solve_lcp_lemke if method == "lemke" else lcp_mod.solve_lcp_qp
        lcp_sol = solver(lcp_mod.assemble_lcp(game, kappa))
        h0 = lcp_sol.x[: game.path_set.n_paths]
        iterations, converged = lcp_sol.iterations, lcp_sol.feasible

    canonical, active = _min_norm_equilibrium(game, field(h0), h0)
    region = _equilibrium_region(game, active, canonical > _USED_FLOW_TOL)
    h = None if region is None else _region_flow(game, feasible, field, kappa, region)
    if h is not None:
        if regions is not None:
            regions.append(region)
    else:
        h = feasible.project(canonical)
        gap = wardrop_gap(game, kappa, h)
        if not gap <= _WARDROP_TOL:  # a NaN gap fails too
            raise RuntimeError(
                f"solver returned a flow violating the equilibrium condition "
                f"(gap {gap:.3e} > {_WARDROP_TOL:.1e}, method {method})"
            )
    return ViSolution(x_star=h, residual=natural_residual(feasible, field, h), iterations=iterations,
                      converged=converged)
