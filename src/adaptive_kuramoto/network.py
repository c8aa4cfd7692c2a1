"""Directed oscillator networks and cluster partitions.

The adjacency convention is receiver-row: ``a[i, j] = 1`` means node ``i``
receives an input from node ``j``. Diagonals are zero (no self-coupling).
A cluster partition splits the node set into m disjoint nonempty groups
P_1..P_m, each with a designated representative node (lowest index unless
stated otherwise).

For an ordered pair of distinct clusters (s, r) the inter-cluster cardinality
c_sr is the number of inputs a node of P_s receives from P_r. The multi-cluster
reduction requires this count to be the same for every node of P_s; when it is
not, the reported value is the per-node maximum and the pair is listed as a
violation.

Python API indices are 0-based throughout; the JSON file format is 1-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]

__all__ = [
    "OscillatorNetwork",
    "ClusterPartition",
    "CardinalityReport",
    "EdgeStructure",
    "build_network",
    "compute_cardinalities",
    "check_frequencies",
    "apply_perturbation",
    "inter_cluster_structure",
    "network_from_dict",
    "network_to_dict",
    "load_network_file",
    "save_network_file",
]


def _readonly(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class OscillatorNetwork:
    """Directed network: binary adjacency (receiver rows) + natural frequencies."""

    adjacency: IntArray
    frequencies: FloatArray

    def __post_init__(self):
        adj = _readonly(self.adjacency, np.int64)
        freq = _readonly(self.frequencies, np.float64)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {adj.shape}")
        n = adj.shape[0]
        if n < 1:
            raise ValueError("network needs at least one node")
        if not np.isin(adj, (0, 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        if np.diagonal(adj).any():
            raise ValueError("adjacency diagonal must be zero (no self-coupling)")
        if freq.shape != (n,):
            raise ValueError(f"frequencies must have shape ({n},), got {freq.shape}")
        if not np.isfinite(freq).all():
            raise ValueError("frequencies must be finite")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "frequencies", freq)

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        return int(self.adjacency.sum())

    def edges(self) -> IntArray:
        """All edges as an (n_edges, 2) array of (receiver, source), row-major."""
        recv, src = np.nonzero(self.adjacency)
        return np.column_stack([recv, src])


def build_network(adjacency, frequencies) -> OscillatorNetwork:
    """Validate raw arrays and assemble a network."""
    return OscillatorNetwork(np.asarray(adjacency), np.asarray(frequencies))


@dataclass(frozen=True)
class ClusterPartition:
    """Disjoint nonempty clusters covering nodes 0..N-1, with representatives.

    ``clusters[s]`` is the sorted node tuple of P_s; ``representatives[s]``
    must belong to cluster s and defaults to its lowest index.
    """

    clusters: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if not self.clusters:
            raise ValueError("partition needs at least one cluster")
        normalized = []
        for s, cluster in enumerate(self.clusters):
            nodes = tuple(sorted(int(i) for i in cluster))
            if not nodes:
                raise ValueError(f"cluster {s} is empty")
            if len(set(nodes)) != len(nodes):
                raise ValueError(f"cluster {s} repeats a node")
            normalized.append(nodes)
        all_nodes = sorted(i for cluster in normalized for i in cluster)
        n = len(all_nodes)
        if all_nodes != list(range(n)):
            raise ValueError("clusters must be disjoint and cover nodes 0..N-1")
        reps = self.representatives or tuple(c[0] for c in normalized)
        reps = tuple(int(i) for i in reps)
        if len(reps) != len(normalized):
            raise ValueError("one representative per cluster required")
        for s, (rep, cluster) in enumerate(zip(reps, normalized)):
            if rep not in cluster:
                raise ValueError(f"representative {rep} not in cluster {s}")
        object.__setattr__(self, "clusters", tuple(normalized))
        object.__setattr__(self, "representatives", reps)

    @property
    def m(self) -> int:
        return len(self.clusters)

    @property
    def n_nodes(self) -> int:
        return sum(len(c) for c in self.clusters)

    def cluster_of(self) -> IntArray:
        """Length-N array mapping node index to cluster index."""
        out = np.empty(self.n_nodes, dtype=np.int64)
        for s, cluster in enumerate(self.clusters):
            out[list(cluster)] = s
        return out

    def non_representatives(self) -> tuple[int, ...]:
        """Nodes that carry an error coordinate, ascending."""
        reps = set(self.representatives)
        return tuple(i for i in range(self.n_nodes) if i not in reps)


def _check_same_size(net: OscillatorNetwork, part: ClusterPartition) -> None:
    if part.n_nodes != net.n_nodes:
        raise ValueError(
            f"partition covers {part.n_nodes} nodes but network has {net.n_nodes}"
        )


@dataclass(frozen=True)
class CardinalityReport:
    """Inter-cluster input counts for one (network, partition) pair.

    c_sr[s, r] is the common count of inputs a node of P_s receives from P_r
    when that count is uniform over P_s, and the per-node maximum otherwise
    (the pair then appears in ``violations``). c_in / c_out split the edge
    total into intra- and inter-cluster edges; c_max = max_s sum_{r != s} c_sr.
    ``violations`` entries are (s, r, ((node, count), ...)) with the per-node
    evidence for every non-uniform pair.
    """

    c_in: int
    c_out: int
    c_sr: IntArray
    per_node_incoming: IntArray
    c_max: int
    a2_holds: bool
    violations: tuple

    def to_json_dict(self) -> dict:
        return {
            "c_in": self.c_in,
            "c_out": self.c_out,
            "c_sr": self.c_sr.tolist(),
            "per_node_incoming": self.per_node_incoming.tolist(),
            "c_max": self.c_max,
            "a2_holds": self.a2_holds,
            "violations": [
                {
                    "receiver_cluster": s + 1,
                    "source_cluster": r + 1,
                    "counts": [[i + 1, c] for i, c in counts],
                }
                for s, r, counts in self.violations
            ],
        }


def compute_cardinalities(
    net: OscillatorNetwork, part: ClusterPartition
) -> CardinalityReport:
    """Count intra/inter-cluster inputs and check their per-pair uniformity."""
    _check_same_size(net, part)
    n, m = net.n_nodes, part.m
    member = np.zeros((n, m), dtype=np.int64)
    for s, cluster in enumerate(part.clusters):
        member[list(cluster), s] = 1
    per_node = net.adjacency @ member  # per_node[i, r]: inputs to i from P_r

    cluster_of = part.cluster_of()
    c_in = int(per_node[np.arange(n), cluster_of].sum())
    c_out = net.n_edges - c_in

    c_sr = np.zeros((m, m), dtype=np.int64)
    violations = []
    for s, cluster in enumerate(part.clusters):
        rows = per_node[list(cluster), :]
        for r in range(m):
            if r == s:
                continue
            counts = rows[:, r]
            if (counts == counts[0]).all():
                c_sr[s, r] = counts[0]
            else:
                c_sr[s, r] = counts.max()
                evidence = tuple((node, int(c)) for node, c in zip(cluster, counts))
                violations.append((s, r, evidence))
    c_max = int((c_sr.sum(axis=1)).max()) if m > 1 else 0

    return CardinalityReport(
        c_in=c_in,
        c_out=c_out,
        c_sr=_readonly(c_sr, np.int64),
        per_node_incoming=_readonly(per_node, np.int64),
        c_max=c_max,
        a2_holds=not violations,
        violations=tuple(violations),
    )


def check_frequencies(
    net: OscillatorNetwork, part: ClusterPartition, tol: float = 0.0
) -> tuple[bool, tuple]:
    """Check that natural frequencies agree within each cluster.

    Equality is exact by default; ``tol`` admits |w_i - w_j| <= tol.
    Returns (holds, violations) with one witness pair (s, (i, j)) per
    violating cluster.
    """
    _check_same_size(net, part)
    if tol < 0:
        raise ValueError("tol must be >= 0")
    w = net.frequencies
    violations = []
    for s, cluster in enumerate(part.clusters):
        base = cluster[0]
        for i in cluster[1:]:
            if abs(w[i] - w[base]) > tol:
                violations.append((s, (base, i)))
                break
    return (not violations, tuple(violations))


def apply_perturbation(net: OscillatorNetwork, tilde_a) -> OscillatorNetwork:
    """Apply a signed edge edit matrix: +1 adds an absent edge, -1 removes one.

    Legal entries: 0 anywhere; +1 only where a_ij = 0 (i != j); -1 only where
    a_ij = 1. Frequencies are unchanged.
    """
    entries = getattr(tilde_a, "entries", tilde_a)
    tilde = np.asarray(entries, dtype=np.int64)
    if tilde.shape != net.adjacency.shape:
        raise ValueError(
            f"perturbation shape {tilde.shape} != adjacency shape {net.adjacency.shape}"
        )
    if np.diagonal(tilde).any():
        raise ValueError("perturbation diagonal must be zero")
    if not np.isin(tilde, (-1, 0, 1)).all():
        raise ValueError("perturbation entries must be -1, 0 or +1")
    adds_existing = (tilde == 1) & (net.adjacency == 1)
    if adds_existing.any():
        i, j = np.argwhere(adds_existing)[0]
        raise ValueError(f"cannot add edge ({i}, {j}): already present")
    removes_absent = (tilde == -1) & (net.adjacency == 0)
    if removes_absent.any():
        i, j = np.argwhere(removes_absent)[0]
        raise ValueError(f"cannot remove edge ({i}, {j}): not present")
    return OscillatorNetwork(net.adjacency + tilde, net.frequencies)


@dataclass(frozen=True)
class EdgeStructure:
    """Canonical inter-cluster edge bookkeeping for the torus solver.

    Edges are (receiver, source) pairs in row-major order over the adjacency,
    restricted to inter-cluster entries. ``pairs`` lists all ordered cluster
    pairs (s, r), s != r, lexicographically; ``edge_pair[e]`` indexes into it,
    and ``pair_s`` / ``pair_r`` hold the receiving / sending cluster of each.
    ``rep_counts[s, r]`` counts inputs the representative of P_s receives from
    P_r. ``rep_aggregation`` is the (n_pairs, c_out) 0/1 matrix whose product
    with a per-edge vector yields, for each pair (s, r), the sum over the
    representative-received edges of that pair (the drift aggregation).
    """

    edges: IntArray
    edge_pair: IntArray
    pairs: tuple[tuple[int, int], ...]
    pair_s: IntArray
    pair_r: IntArray
    rep_counts: IntArray
    rep_aggregation: IntArray
    intra_edges: IntArray
    cluster_of: IntArray

    @property
    def c_out(self) -> int:
        return self.edges.shape[0]

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)


def inter_cluster_structure(
    net: OscillatorNetwork, part: ClusterPartition
) -> EdgeStructure:
    """Build the canonical inter-cluster edge enumeration for (net, part)."""
    _check_same_size(net, part)
    m = part.m
    cluster_of = part.cluster_of()
    recv, src = np.nonzero(net.adjacency)
    inter = cluster_of[recv] != cluster_of[src]
    edges = np.column_stack([recv[inter], src[inter]])
    intra = np.column_stack([recv[~inter], src[~inter]])

    pairs = tuple((s, r) for s in range(m) for r in range(m) if s != r)
    pair_index = {p: k for k, p in enumerate(pairs)}
    edge_pair = np.array(
        [pair_index[(cluster_of[i], cluster_of[j])] for i, j in edges],
        dtype=np.int64,
    ).reshape(-1)

    reps = np.asarray(part.representatives)
    rep_counts = np.zeros((m, m), dtype=np.int64)
    for s in range(m):
        for r in range(m):
            if r != s:
                cols = list(part.clusters[r])
                rep_counts[s, r] = net.adjacency[reps[s], cols].sum()

    agg = np.zeros((len(pairs), len(edges)), dtype=np.int64)
    for e, (i, j) in enumerate(edges):
        s = cluster_of[i]
        if i == reps[s]:
            agg[edge_pair[e], e] = 1

    return EdgeStructure(
        edges=_readonly(edges, np.int64),
        edge_pair=_readonly(edge_pair, np.int64),
        pairs=pairs,
        pair_s=_readonly([s for s, _ in pairs], np.int64),
        pair_r=_readonly([r for _, r in pairs], np.int64),
        rep_counts=_readonly(rep_counts, np.int64),
        rep_aggregation=_readonly(agg, np.int64),
        intra_edges=_readonly(intra, np.int64),
        cluster_of=_readonly(cluster_of, np.int64),
    )


# -- file format --------------------------------------------------------------
#
# {"adjacency": [[0,1],[1,0]], "frequencies": [1.0, 1.1], "partition": [[1],[2]]}
#
# partition uses 1-based node indices. No other keys are accepted.

_NETWORK_KEYS = {"adjacency", "frequencies", "partition"}


def network_from_dict(data: dict) -> tuple[OscillatorNetwork, ClusterPartition]:
    unknown = set(data) - _NETWORK_KEYS
    if unknown:
        raise ValueError(f"unknown network keys: {sorted(unknown)}")
    missing = _NETWORK_KEYS - set(data)
    if missing:
        raise ValueError(f"missing network keys: {sorted(missing)}")
    net = build_network(data["adjacency"], data["frequencies"])
    clusters = []
    for cluster in data["partition"]:
        nodes = [int(i) - 1 for i in cluster]
        if any(i < 0 for i in nodes):
            raise ValueError("partition node indices are 1-based")
        clusters.append(tuple(nodes))
    part = ClusterPartition(tuple(clusters))
    _check_same_size(net, part)
    return net, part


def network_to_dict(net: OscillatorNetwork, part: ClusterPartition) -> dict:
    return {
        "adjacency": net.adjacency.tolist(),
        "frequencies": net.frequencies.tolist(),
        "partition": [[i + 1 for i in cluster] for cluster in part.clusters],
    }


def load_network_file(path) -> tuple[OscillatorNetwork, ClusterPartition]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return network_from_dict(data)


def save_network_file(path, net: OscillatorNetwork, part: ClusterPartition) -> None:
    Path(path).write_text(
        json.dumps(network_to_dict(net, part), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
