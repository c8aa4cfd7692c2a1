"""Minimal-edit interconnection design for a desired cluster partition.

Natural frequencies are fixed; the only actuator is adding or removing
directed edges. A signed edit mask (PerturbationMatrix) makes the per-pair
incoming counts uniform at chosen targets T, which restores the count
uniformity requirement by construction.

The search enumerates per-pair target counts, orders candidates by ascending
total edit cost (then smaller c_max, then smaller total count, then the
target tuple itself, so results are deterministic), and returns the first
candidate within the edit budget whose edited network passes the sufficient
conditions. When none passes, the result is infeasible and carries the most
promising affordable candidate (lowest ratio) as a diagnostic, or the
cheapest candidate when none is affordable.

Candidates are scored in closed form from T alone. On the edited network
c_sr = T_sr, c_max is the largest row sum of T, sum c_sr = sum T and
c_out = sum_s |P_s| sum_{r != s} T_sr, while the frequency condition does
not depend on edits and is checked before the search. So the rate
inequalities of a candidate are one ``_a3_quantities`` call with the integers
the full check would pass. Only the returned candidate gets an edit mask and
the full ``check_perturbed_conditions`` report, and a report that disagrees
with the closed form raises. A search with more than MAX_DESIGN_CANDIDATES
target tables fails fast, before any candidate is built.

Edit placement is deterministic: surplus inputs are removed starting from the
lowest source index, deficits are filled from the lowest-index non-neighbors.
Intra-cluster edges are never touched; they enter neither the count
uniformity requirement nor the rate inequalities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .conditions import (
    ConditionReport, PlasticityParams, _a3_quantities, check_perturbed_conditions,
)
from .network import (
    ClusterPartition,
    IntArray,
    OscillatorNetwork,
    _check_same_size,
    _readonly,
    check_frequencies,
    compute_cardinalities,
)

__all__ = [
    "PerturbationMatrix",
    "DesignResult",
    "min_edits_for_targets",
    "design_topology",
]

MAX_DESIGN_CANDIDATES = 1_000_000  # about 0.23 GB and 4 s of candidate tuples


@dataclass(frozen=True)
class PerturbationMatrix:
    """Signed edge-edit mask: +1 adds an edge, -1 removes one, zero diagonal."""

    entries: IntArray

    def __post_init__(self):
        entries = _readonly(self.entries, np.int64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"perturbation must be square, got shape {entries.shape}")
        if not np.isin(entries, (-1, 0, 1)).all():
            raise ValueError("perturbation entries must be -1, 0 or +1")
        if np.diagonal(entries).any():
            raise ValueError("perturbation diagonal must be zero")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def zeros(cls, n_nodes: int) -> "PerturbationMatrix":
        return cls(np.zeros((n_nodes, n_nodes), dtype=np.int64))

    @property
    def edit_count(self) -> int:
        return int(np.count_nonzero(self.entries))

    def edges_added(self) -> tuple[tuple[int, int], ...]:
        return tuple((int(i), int(j)) for i, j in np.argwhere(self.entries == 1))

    def edges_removed(self) -> tuple[tuple[int, int], ...]:
        return tuple((int(i), int(j)) for i, j in np.argwhere(self.entries == -1))

    def sparse_entries(self) -> tuple[tuple[int, int, int], ...]:
        """Non-zero entries as (receiver, source, sign), row-major, 0-based."""
        return tuple(
            (int(i), int(j), int(self.entries[i, j]))
            for i, j in np.argwhere(self.entries != 0)
        )

    def to_json_dict(self) -> dict:
        return {
            "edit_count": self.edit_count,
            "entries": [[i + 1, j + 1, v] for i, j, v in self.sparse_entries()],
        }


@dataclass(frozen=True)
class DesignResult:
    """Outcome of a topology search.

    ``feasible`` implies ``report.overall``; otherwise the carried candidate
    is the diagnostic described in the module docstring. ``targets[s, r]`` is
    the designed per-node incoming count into cluster s from cluster r.
    """

    feasible: bool
    edits: int
    targets: IntArray
    perturbation: PerturbationMatrix
    report: ConditionReport

    def __post_init__(self):
        object.__setattr__(self, "targets", _readonly(self.targets, np.int64))
        if self.feasible and not self.report.overall:
            raise ValueError("feasible result requires a passing report")

    def to_json_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "edits": self.edits,
            "targets": self.targets.tolist(),
            "perturbation": self.perturbation.to_json_dict(),
            "report": self.report.to_json_dict(),
        }


def min_edits_for_targets(
    net: OscillatorNetwork, part: ClusterPartition, targets
) -> PerturbationMatrix:
    """Fewest-flip edit mask giving every node of P_s exactly targets[s][r]
    inputs from P_r, for all ordered pairs s != r.

    Surplus edges are removed lowest source index first; deficits are filled
    from the lowest-index non-neighbors. Intra-cluster entries of ``targets``
    are ignored. Raises when a target exceeds the source cluster size.
    """
    _check_same_size(net, part)
    m = part.m
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (m, m):
        raise ValueError(f"targets must be shaped ({m}, {m}), got {targets.shape}")

    adj = net.adjacency
    entries = np.zeros_like(adj)
    for s in range(m):
        for r in range(m):
            if r == s:
                continue
            t = int(targets[s, r])
            pool = part.clusters[r]
            if not 0 <= t <= len(pool):
                raise ValueError(
                    f"target {t} for pair ({s + 1}, {r + 1}) outside 0..{len(pool)}"
                )
            for i in part.clusters[s]:
                sources = [j for j in pool if adj[i, j]]
                if len(sources) > t:
                    for j in sources[: len(sources) - t]:
                        entries[i, j] = -1
                elif len(sources) < t:
                    absent = [j for j in pool if not adj[i, j]]
                    for j in absent[: t - len(sources)]:
                        entries[i, j] = 1
    return PerturbationMatrix(entries)


def _candidate_order(per_node: np.ndarray, part: ClusterPartition):
    """All target tables with per-pair entries in [0, min(|P_r|, max+1)], as
    (total edit cost, c_max, total count, entries, c_out) tuples sorted in
    that order. The entries are unique, so c_out never decides the order.

    Raises before building anything when there are more than
    MAX_DESIGN_CANDIDATES tables.
    """
    m = part.m
    sizes = [len(cluster) for cluster in part.clusters]
    row_costs = []  # row_costs[s][k][t]: edits that bring row s's k-th pair to t
    for s in range(m):
        costs = []
        for r in range(m):
            if r != s:
                counts = per_node[list(part.clusters[s]), r]
                upper = min(sizes[r], int(counts.max()) + 1)
                costs.append([int(np.abs(counts - t).sum()) for t in range(upper + 1)])
        row_costs.append(costs)
    count = math.prod(len(c) for costs in row_costs for c in costs)
    if count > MAX_DESIGN_CANDIDATES:
        raise ValueError(
            f"design search has {count} candidate target tables, more than "
            f"the limit of {MAX_DESIGN_CANDIDATES}"
        )

    # a table is one choice per row: (entries, cost, row sum, c_out share)
    row_options = [
        [
            (row, sum(map(list.__getitem__, costs, row)), sum(row), sizes[s] * sum(row))
            for row in itertools.product(*(range(len(c)) for c in costs))
        ]
        for s, costs in enumerate(row_costs)
    ]
    candidates = []
    for choice in itertools.product(*row_options):
        rows, row_cost, row_sum, row_out = zip(*choice)
        candidates.append(
            (sum(row_cost), max(row_sum), sum(row_sum), sum(rows, ()), sum(row_out))
        )
    candidates.sort()
    return candidates


def design_topology(
    net: OscillatorNetwork,
    part: ClusterPartition,
    pp: PlasticityParams,
    max_edits: int,
    freq_tol: float = 0.0,
) -> DesignResult:
    """Search for the cheapest edit mask making the partition satisfy the
    sufficient conditions on the edited network.

    Frequencies are not editable, so their within-cluster uniformity is a
    hard precondition. An exhausted search returns an infeasible result (the
    diagnostic candidate), not an exception.
    """
    if max_edits < 0:
        raise ValueError("max_edits must be >= 0")
    a1_ok, violations = check_frequencies(net, part, freq_tol)
    if not a1_ok:
        pairs = ", ".join(f"nodes ({i + 1}, {j + 1})" for _, (i, j) in violations)
        raise ValueError(
            f"within-cluster frequencies differ ({pairs}); edge edits cannot fix this"
        )

    per_node = compute_cardinalities(net, part).per_node_incoming
    order = _candidate_order(per_node, part)
    w_abs = np.abs(net.frequencies)
    w_min, w_max = float(w_abs.min()), float(w_abs.max())

    chosen = None
    best = None  # (ratio_key, cost, candidate)
    for candidate in order:
        cost, c_max, total, _combo, c_out = candidate
        if cost > max_edits:
            break  # sorted by cost: no later candidate is affordable either
        lhs, ratio = _a3_quantities(w_min, w_max, pp, c_max, total, c_out)
        if lhs > 0.0 and ratio < 1.0:
            chosen = candidate
            break
        ratio_key = ratio if math.isfinite(ratio) else math.inf
        if best is None or (ratio_key, cost) < best[:2]:
            best = (ratio_key, cost, candidate)
    if chosen is None:
        # the most promising affordable candidate, else the cheapest one
        chosen = best[2] if best is not None else order[0]

    cost, c_max, total, combo, c_out = chosen
    lhs, ratio = _a3_quantities(w_min, w_max, pp, c_max, total, c_out)
    passes = lhs > 0.0 and ratio < 1.0
    targets = np.zeros((part.m, part.m), dtype=np.int64)
    targets[~np.eye(part.m, dtype=bool)] = combo  # row-major, diagonal skipped
    tilde = min_edits_for_targets(net, part, targets)
    report = check_perturbed_conditions(net, tilde, part, pp, freq_tol)
    if report.overall != passes or report.ratio_a3 != ratio:
        raise RuntimeError(
            f"closed-form score (pass {passes}, ratio {ratio!r}) disagrees with the "
            f"check of targets {targets.tolist()} (pass {report.overall}, "
            f"ratio {report.ratio_a3!r})"
        )
    return DesignResult(
        feasible=cost <= max_edits and passes,
        edits=tilde.edit_count,
        targets=targets,
        perturbation=tilde,
        report=report,
    )


def _all_legal_masks(net: OscillatorNetwork, positions, budget: int):
    """Every legal edit mask touching only ``positions``, up to ``budget``
    flips. Exponential; intended for small oracle checks only."""
    n = net.n_nodes
    for k in range(budget + 1):
        for chosen in itertools.combinations(positions, k):
            entries = np.zeros((n, n), dtype=np.int64)
            for i, j in chosen:
                entries[i, j] = -1 if net.adjacency[i, j] else 1
            yield PerturbationMatrix(entries)


def brute_force_min_edits(
    net: OscillatorNetwork,
    part: ClusterPartition,
    pp: PlasticityParams,
    budget: int,
    freq_tol: float = 0.0,
) -> DesignResult | None:
    """Exhaustive oracle over every legal inter-cluster edit mask with at most
    ``budget`` flips; returns the first passing mask in (edit count, position)
    order, or None. Cost grows as (inter positions choose budget); keep
    n_nodes <= 8.
    """
    cluster_of = part.cluster_of()
    positions = [
        (i, j)
        for i in range(net.n_nodes)
        for j in range(net.n_nodes)
        if i != j and cluster_of[i] != cluster_of[j]
    ]
    for tilde in _all_legal_masks(net, positions, budget):
        report = check_perturbed_conditions(net, tilde, part, pp, freq_tol)
        if report.overall:
            return DesignResult(
                feasible=True,
                edits=tilde.edit_count,
                targets=report.cardinalities.c_sr,
                perturbation=tilde,
                report=report,
            )
    return None
