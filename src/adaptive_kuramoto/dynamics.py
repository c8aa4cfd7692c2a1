"""Time integration of the adaptive network.

Full system (receiver-row adjacency a, plasticity rule Gamma):

    dtheta_i/dt = w_i + sum_j a_ij k_ij sin(theta_j - theta_i)
    dk_ij/dt    = -gamma k_ij + mu Gamma(theta_j - theta_i)    on edges.

Coupling entries on non-edges are never read or integrated. Integration is
fixed-step RK4 (default step 0.01) with snapshots every ``record_stride``
steps; phases are stored wrapped to [0, 2 pi). ``simulate`` (one network)
and ``switch_topology_scenario`` (two in turn) share ``_integrate``: it keeps
the history as (records, N) phases and (records, E) couplings on one
row-major edge list, the union of the networks' edges, and has
``_backend.integrate_network`` fill each network's rows in place.

Given a partition, the intra-cluster errors are e_i = theta_i - theta_{i_s}
for non-representative nodes i of P_s, wrapped to (-pi, pi] (ties resolved
toward +pi), listed in ascending node order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _backend
from ._kernels_py import edge_rhs, wrap_to_2pi
from .conditions import PlasticityParams
from .network import ClusterPartition, OscillatorNetwork, inter_cluster_structure

__all__ = [
    "NetworkState",
    "Trajectory",
    "IntegrationBlowup",
    "initial_state",
    "random_couplings",
    "rhs_full",
    "simulate",
    "switch_topology_scenario",
    "error_metrics",
    "ErrorMetrics",
    "two_oscillator_static_analysis",
    "TwoOscillatorResult",
    "simulate_static_pair",
    "trajectory_to_csv",
    "cluster_errors",
    "wrap_to_2pi",
    "wrap_to_pi",
]

TWO_PI = 2.0 * np.pi


def wrap_to_pi(x):
    """Wrap angle differences to (-pi, pi]; +pi and -pi both map to +pi."""
    x = np.asarray(x, dtype=np.float64)
    return x - TWO_PI * np.ceil((x - np.pi) / TWO_PI)


@dataclass(frozen=True)
class NetworkState:
    """Instantaneous state: wrapped phases and the coupling matrix."""

    phases: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=np.float64)
        couplings = np.asarray(self.couplings, dtype=np.float64)
        n = phases.shape[0]
        if phases.ndim != 1:
            raise ValueError("phases must be a 1-D array")
        if couplings.shape != (n, n):
            raise ValueError(f"couplings must have shape ({n}, {n}), got {couplings.shape}")
        if not np.isfinite(phases).all() or not np.isfinite(couplings).all():
            raise ValueError("state entries must be finite")
        wrapped = wrap_to_2pi(phases)
        wrapped.setflags(write=False)
        frozen_k = couplings.copy()
        frozen_k.setflags(write=False)
        object.__setattr__(self, "phases", wrapped)
        object.__setattr__(self, "couplings", frozen_k)


def initial_state(net: OscillatorNetwork, phases, couplings=None) -> NetworkState:
    """Assemble a state for ``net``; coupling entries off the edge set must be 0."""
    state = NetworkState(
        np.asarray(phases, dtype=np.float64),
        np.zeros((net.n_nodes, net.n_nodes)) if couplings is None else np.asarray(couplings, dtype=np.float64),
    )
    if state.phases.shape[0] != net.n_nodes:
        raise ValueError(f"expected {net.n_nodes} phases, got {state.phases.shape[0]}")
    _check_off_edge_couplings(net, state.couplings)
    return state


def _check_off_edge_couplings(net: OscillatorNetwork, couplings: np.ndarray) -> None:
    off_edges = (net.adjacency == 0) & (couplings != 0.0)
    if off_edges.any():
        i, j = np.argwhere(off_edges)[0]
        raise ValueError(f"coupling ({i}, {j}) is nonzero but there is no such edge")


def random_couplings(net: OscillatorNetwork, low: float, high: float, seed: int) -> np.ndarray:
    """Uniform couplings on the edges, zeros elsewhere.

    Draws one value per edge in row-major edge order from a seeded generator,
    so a given (network, seed, range) always yields the same matrix.
    """
    if high < low:
        raise ValueError("need low <= high")
    rng = np.random.default_rng(seed)
    out = np.zeros((net.n_nodes, net.n_nodes))
    recv, src = net.edges().T
    out[recv, src] = rng.uniform(low, high, size=recv.size)
    return out


class IntegrationBlowup(RuntimeError):
    """Non-finite state detected; carries the surviving trajectory prefix."""

    def __init__(self, last_valid_time: float, trajectory: "Trajectory"):
        super().__init__(
            f"integration produced a non-finite state after t = {last_valid_time}"
        )
        self.last_valid_time = last_valid_time
        self.trajectory = trajectory


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: times with uniform stride, phases, coupling history.

    ``edge_couplings`` is (records, E): column c holds the coupling of edge
    ``k_edges[c]``, a (receiver, source) pair, in row-major order. For a
    topology switch ``k_edges`` is the union of both edge sets: a removed
    edge's column stays frozen at its switch-time value and an added edge's
    column is 0 until the switch.
    ``errors`` (when a partition was given) holds the wrapped intra-cluster
    error coordinates for ``error_nodes`` (non-representatives, ascending).
    """

    times: np.ndarray
    phases: np.ndarray
    edge_couplings: np.ndarray
    network: OscillatorNetwork
    partition: ClusterPartition | None
    errors: np.ndarray | None
    error_nodes: tuple[int, ...]
    k_edges: tuple[tuple[int, int], ...]

    @property
    def n_records(self) -> int:
        return self.times.shape[0]

    @functools.cached_property
    def couplings(self) -> np.ndarray:
        """Read-only dense (records, N, N) view of ``edge_couplings``, zero
        off ``k_edges``; built on first access, at records * N^2 * 8 bytes."""
        return self._dense(self.edge_couplings)

    def final_state(self) -> NetworkState:
        return NetworkState(self.phases[-1], self._dense(self.edge_couplings[-1]))

    def _dense(self, edge_values: np.ndarray) -> np.ndarray:
        n = self.network.n_nodes
        recv, src = np.array(self.k_edges, dtype=np.int64).reshape(-1, 2).T
        out = np.zeros(edge_values.shape[:-1] + (n, n))
        out[..., recv, src] = edge_values
        out.setflags(write=False)
        return out


def cluster_errors(part: ClusterPartition, phases: np.ndarray) -> np.ndarray:
    """Wrapped error coordinates theta_i - theta_{i_s} for non-representatives.

    ``phases`` may be (N,) or (records, N); the error axis is last either way.
    """
    phases = np.asarray(phases, dtype=np.float64)
    cluster_of = part.cluster_of()
    reps = np.asarray(part.representatives)
    nodes = np.asarray(part.non_representatives(), dtype=np.int64)
    ref = reps[cluster_of[nodes]]
    return wrap_to_pi(phases[..., nodes] - phases[..., ref])


def _resolve_steps(t_end: float, step: float, record_stride: int) -> int:
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if step <= 0:
        raise ValueError("step must be > 0")
    if record_stride < 1 or int(record_stride) != record_stride:
        raise ValueError("record_stride must be a positive integer")
    n_steps = int(round(t_end / step))
    return n_steps - n_steps % record_stride


def _integrate(
    legs: list[tuple[OscillatorNetwork, int]],
    pp: PlasticityParams,
    initial: NetworkState,
    step: float,
    record_stride: int,
    partition: ClusterPartition | None,
) -> Trajectory:
    """Run the legs (network, n_steps) one after another from ``initial``.

    The history has one column per edge of any leg, in row-major order. Each
    leg integrates its own edges from the last record of the one before; the
    other columns carry that record forward, so an edge a leg drops stays
    frozen and an edge not yet added stays 0. The record times keep one
    stride across the legs. Raises IntegrationBlowup, with the finite prefix
    and the failing leg's network, on a non-finite state.
    """
    first = legs[0][0]
    if initial.phases.shape[0] != first.n_nodes:
        raise ValueError("initial state size does not match the network")
    if partition is not None and partition.n_nodes != first.n_nodes:
        raise ValueError("partition does not match the network")
    _check_off_edge_couplings(first, initial.couplings)

    edges = np.argwhere(sum(net.adjacency for net, _ in legs))  # net.edges() for one leg
    recv, src = edges.T
    n_records = 1 + sum(n_steps for _, n_steps in legs) // record_stride
    times = np.zeros(n_records)
    thetas = np.zeros((n_records, first.n_nodes))
    kes = np.zeros((n_records, edges.shape[0]))
    thetas[0], kes[0] = initial.phases, initial.couplings[recv, src]
    kind, offset, table = pp.rule.kernel_encoding()

    r0, keep = 0, n_records  # the record a leg starts from; the finite records
    for net, n_steps in legs:
        r1 = r0 + n_steps // record_stride
        times[r0:r1 + 1] = times[r0] + np.arange(r1 - r0 + 1) * (record_stride * step)
        live = net.adjacency[recv, src] != 0
        partial = not live.all()
        if partial:  # the leg's columns are not contiguous: integrate them apart
            leg_kes = np.zeros((r1 - r0 + 1, live.sum()))
            leg_kes[0] = kes[r0, live]
        else:
            leg_kes = kes[r0:r1 + 1]
        n_valid = _backend.integrate_network(
            thetas[r0:r1 + 1], leg_kes, edges[live], net.frequencies,
            pp.gamma, pp.mu, kind, offset, table,
            step, n_steps, record_stride,
        )
        if partial:
            kes[r0 + 1:r1 + 1] = kes[r0]
            kes[r0 + 1:r1 + 1, live] = leg_kes[1:]
        if n_valid < r1 - r0 + 1:
            keep = r0 + n_valid
            break
        r0 = r1

    times, thetas, kes = times[:keep], thetas[:keep], kes[:keep]
    traj = Trajectory(
        times=times,
        phases=thetas,
        edge_couplings=kes,
        network=net,
        partition=partition,
        errors=None if partition is None else cluster_errors(partition, thetas),
        error_nodes=() if partition is None else partition.non_representatives(),
        k_edges=tuple(map(tuple, edges.tolist())),
    )
    if keep < n_records:
        raise IntegrationBlowup(float(times[-1]), traj)
    return traj


def simulate(
    net: OscillatorNetwork,
    pp: PlasticityParams,
    initial: NetworkState,
    t_end: float,
    step: float = 0.01,
    record_stride: int = 10,
    partition: ClusterPartition | None = None,
) -> Trajectory:
    """Integrate the full network over [0, t_end].

    The step count is rounded to a whole number of record strides so the
    recorded times keep a uniform spacing of record_stride * step; t_end = 0
    yields the initial state only. Raises IntegrationBlowup on a non-finite
    state, with the finite prefix attached.
    """
    n_steps = _resolve_steps(t_end, step, record_stride)
    return _integrate([(net, n_steps)], pp, initial, step, record_stride, partition)


def switch_topology_scenario(
    net_before: OscillatorNetwork,
    net_after: OscillatorNetwork,
    pp: PlasticityParams,
    initial: NetworkState,
    t_switch: float,
    t_end: float,
    step: float = 0.01,
    record_stride: int = 10,
    partition: ClusterPartition | None = None,
) -> Trajectory:
    """Integrate with ``net_before`` up to t_switch, then with ``net_after``.

    Both networks must share the node count and frequencies, and the initial
    couplings must vanish off the edges of ``net_before``. At the switch,
    couplings on removed edges freeze at their current values (no longer read
    or integrated) and couplings on added edges start from 0. t_switch is
    rounded to the record grid. A switch that leaves no step after it (at or
    after t_end on that grid) degenerates to a plain run of ``net_before``.
    """
    if net_before.n_nodes != net_after.n_nodes:
        raise ValueError("networks must have the same node count")
    if not np.array_equal(net_before.frequencies, net_after.frequencies):
        raise ValueError("networks must share natural frequencies")

    n_end = _resolve_steps(t_end, step, record_stride)
    n1 = _resolve_steps(min(t_switch, t_end), step, record_stride)
    legs = [(net_before, n1), (net_after, n_end - n1)] if n1 < n_end else [(net_before, n_end)]
    return _integrate(legs, pp, initial, step, record_stride, partition)


def rhs_full(net: OscillatorNetwork, pp: PlasticityParams, state: NetworkState):
    """Right-hand side of the full system: (dtheta (N,), dk (N, N)).

    dk is zero off the edge set.
    """
    if state.phases.shape[0] != net.n_nodes:
        raise ValueError("state size does not match the network")
    kind, offset, table = pp.rule.kernel_encoding()
    recv, src = net.edges().T
    dtheta, dk_edges = edge_rhs(
        state.phases, state.couplings[recv, src], recv, src,
        net.frequencies, pp.gamma, pp.mu, kind, offset, table,
    )
    dk = np.zeros((net.n_nodes, net.n_nodes))
    dk[recv, src] = dk_edges
    return dtheta, dk


# -- two coupled oscillators with a fixed coupling ----------------------------


@dataclass(frozen=True)
class TwoOscillatorResult:
    """Static-coupling pair analysis: locked phase difference d (nan when not
    synchronizable), common locked frequency, and the synchronizability flag
    |w2 - w1| <= 2k."""

    d: float
    mean_freq: float
    synchronizable: bool


def two_oscillator_static_analysis(w1: float, w2: float, k: float) -> TwoOscillatorResult:
    """Locked state of  dtheta_1 = w1 + k sin(theta_2 - theta_1),
    dtheta_2 = w2 + k sin(theta_1 - theta_2)."""
    if not (math.isfinite(k) and k > 0):
        raise ValueError("coupling k must be finite and > 0")
    detuning = (w2 - w1) / (2.0 * k)
    synchronizable = abs(w2 - w1) <= 2.0 * k
    d = math.asin(detuning) if synchronizable else math.nan
    return TwoOscillatorResult(d=d, mean_freq=(w1 + w2) / 2.0, synchronizable=synchronizable)


def simulate_static_pair(
    w1: float,
    w2: float,
    k: float,
    e0: float = 0.0,
    t_end: float = 60.0,
    step: float = 0.001,
) -> tuple[float, float]:
    """Integrate the static pair; returns (final wrapped difference, measured
    frequency of oscillator 1 over the second half of the run).

    Serves as the simulation cross-check of the closed-form analysis.
    """
    theta1, e = 0.0, float(e0)
    n = int(round(t_end / step))
    half = n // 2
    theta1_half = 0.0

    def f(th1, ee):
        return w1 + k * math.sin(ee), (w2 - w1) - 2.0 * k * math.sin(ee)

    for i in range(n):
        a1, b1 = f(theta1, e)
        a2, b2 = f(theta1 + 0.5 * step * a1, e + 0.5 * step * b1)
        a3, b3 = f(theta1 + 0.5 * step * a2, e + 0.5 * step * b2)
        a4, b4 = f(theta1 + step * a3, e + step * b3)
        theta1 += (step / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
        e += (step / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
        if i + 1 == half:
            theta1_half = theta1
    mean_freq = (theta1 - theta1_half) / ((n - half) * step)
    return float(wrap_to_pi(e)), mean_freq


# -- trajectory metrics and export --------------------------------------------


@dataclass(frozen=True)
class ErrorMetrics:
    """Error-coordinate summary over a recorded run.

    sup_final_error and the coupling means are taken over the final 5% of the
    time span; time_to_tolerance is the first recorded time from which
    max_i |e_i| stays below the tolerance through the end (None if it never
    does, or when no tolerance was requested).
    """

    sup_final_error: float
    max_error_overall: float
    time_to_tolerance: float | None
    tolerance: float | None
    intra_coupling_limits: dict[tuple[int, int], float]

    def to_json_dict(self) -> dict:
        return {
            "sup_final_error": self.sup_final_error,
            "max_error_overall": self.max_error_overall,
            "time_to_tolerance": self.time_to_tolerance,
            "tolerance": self.tolerance,
            "intra_coupling_limits": {
                f"k_{i + 1}_{j + 1}": v for (i, j), v in sorted(self.intra_coupling_limits.items())
            },
        }


def error_metrics(traj: Trajectory, tol: float | None = None) -> ErrorMetrics:
    """Summarize error decay and intra-cluster coupling limits for a run."""
    if traj.n_records == 0:
        raise ValueError("trajectory has no records")
    if traj.partition is None or traj.errors is None:
        raise ValueError("error metrics need a trajectory recorded with a partition")

    abs_err = np.abs(traj.errors) if traj.errors.size else np.zeros((traj.n_records, 0))
    max_per_record = abs_err.max(axis=1) if abs_err.shape[1] else np.zeros(traj.n_records)
    window = traj.times >= 0.95 * traj.times[-1]

    sup_final = float(max_per_record[window].max())
    max_overall = float(max_per_record.max())

    time_to = None
    if tol is not None:
        above = np.nonzero(max_per_record >= tol)[0]
        if above.size == 0:
            time_to = float(traj.times[0])
        elif above[-1] + 1 < traj.n_records:
            time_to = float(traj.times[above[-1] + 1])

    structure = inter_cluster_structure(traj.network, traj.partition)
    intra = [(int(i), int(j)) for i, j in structure.intra_edges]
    column = {edge: c for c, edge in enumerate(traj.k_edges)}
    # one contiguous row per edge: each mean sums in the order of a mean over
    # that edge's column alone
    window_k = np.ascontiguousarray(traj.edge_couplings[window][:, [column[e] for e in intra]].T)
    limits = dict(zip(intra, window_k.mean(axis=1).tolist()))

    return ErrorMetrics(
        sup_final_error=sup_final,
        max_error_overall=max_overall,
        time_to_tolerance=time_to,
        tolerance=tol,
        intra_coupling_limits=limits,
    )


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write a recorded run as CSV.

    Columns: t, theta_<node>.., e_<node>.. (non-representatives, when a
    partition was recorded), k_<recv>_<src>.. for the meaningful edges.
    Node indices in headers are 1-based. Values are shortest round-trip
    decimal, so identical runs produce identical bytes.
    """
    n = traj.network.n_nodes
    headers = ["t"] + [f"theta_{i + 1}" for i in range(n)]
    headers += [f"e_{i + 1}" for i in traj.error_nodes]
    headers += [f"k_{i + 1}_{j + 1}" for i, j in traj.k_edges]

    errors = traj.errors if traj.errors is not None else np.zeros((traj.n_records, 0))

    # one record at a time: the whole table as strings would cost more memory
    # than the trajectory itself
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(headers) + "\n")
        for rec in range(traj.n_records):
            row = np.concatenate((
                traj.times[rec:rec + 1], traj.phases[rec], errors[rec], traj.edge_couplings[rec]
            ))
            fh.write(",".join(map(repr, row.tolist())) + "\n")
