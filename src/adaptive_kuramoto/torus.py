"""Invariant-torus construction by successive approximations.

On the cluster manifold the inter-cluster couplings are a function u(phi) of
the cluster phases phi in T^m, one component per inter-cluster edge in the
canonical order. u is the fixed point of

    u^(l+1)(phi) = integral_{-inf}^0 e^(gamma tau) mu G(phi_tau^(l)(phi)) dtau,

where phi_tau^(l) solves dphi/dtau = wbar + B(phi) u^(l)(phi) backwards from
phi, B is the representative drift matrix and G the per-edge forcing
Gamma(phi_r - phi_s). The iteration starts from u^(0) = 0 and contracts with
the factor reported by ``contraction_ratio`` whenever the sufficient
conditions hold. The improper integral is truncated at a horizon H (default
40 / gamma, tail below e^-40), and each backward trajectory is integrated by
RK4 with the quadrature accumulated on the same stages.

Functions on T^m are stored on a uniform per-axis grid of size R and
evaluated by periodic multilinear interpolation. Components of edges joining
the same ordered cluster pair coincide (the integrand depends on the pair
only), which the implementation exploits by iterating per pair and
broadcasting to edges.

The invariance defect of a candidate u is measured as

    max over grid points of | (du/dphi)(wbar + B u) + gamma u - mu G |

with the derivative from central differences on the periodic grid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _backend
from ._kernels_py import grid_points, rule_values
from .conditions import PlasticityParams, check_cluster_conditions
from .dynamics import NetworkState, wrap_to_2pi
from .network import (
    ClusterPartition,
    EdgeStructure,
    OscillatorNetwork,
    inter_cluster_structure,
)

__all__ = [
    "TorusFunction",
    "IterationLog",
    "IntraTorusValue",
    "ClusterManifold",
    "ConditionsNotSatisfied",
    "NoConvergence",
    "iterate_once",
    "solve_torus",
    "invariance_residual",
    "full_manifold",
    "export_surface",
    "save_torus",
    "load_torus",
]

RESIDUAL_MIN_RESOLUTION = 16  # smallest grid invariance_residual accepts


class ConditionsNotSatisfied(RuntimeError):
    """The sufficient conditions fail and force=False."""


class NoConvergence(RuntimeError):
    """Iteration budget exhausted; carries the log collected so far."""

    def __init__(self, message: str, log: "IterationLog"):
        super().__init__(message)
        self.log = log


@dataclass(frozen=True)
class TorusFunction:
    """Grid samples of u: shape (R,)*m + (c_out,), evaluated periodically.

    ``edge_order`` lists the inter-cluster edges (receiver, source), 0-based,
    in the canonical row-major order; component e of a value belongs to
    edge_order[e].
    """

    m: int
    resolution: int
    values: np.ndarray
    edge_order: tuple[tuple[int, int], ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        expected = (self.resolution,) * self.m + (len(self.edge_order),)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} != expected {expected}")
        frozen = values.copy()
        frozen.setflags(write=False)
        object.__setattr__(self, "values", frozen)
        object.__setattr__(
            self, "edge_order", tuple((int(i), int(j)) for i, j in self.edge_order)
        )

    @classmethod
    def zeros(cls, m: int, resolution: int, edge_order) -> "TorusFunction":
        edge_order = tuple(edge_order)
        shape = (resolution,) * m + (len(edge_order),)
        return cls(m, resolution, np.zeros(shape), edge_order)

    @property
    def c_out(self) -> int:
        return len(self.edge_order)

    @property
    def grid_size(self) -> int:
        return self.resolution**self.m

    def flat_values(self) -> np.ndarray:
        return self.values.reshape(self.grid_size, self.c_out)

    def _spectrum(self) -> np.ndarray:
        cached = getattr(self, "_spec", None)
        if cached is None:
            axes = tuple(range(self.m))
            cached = np.fft.fftn(self.values, axes=axes) / float(self.grid_size)
            object.__setattr__(self, "_spec", cached)
        return cached

    def evaluate(self, phi) -> np.ndarray:
        """u at angles phi: accepts (m,) or (P, m); returns (c_out,) or (P, c_out).

        Trigonometric interpolation of the stored grid: exact at the nodes
        and spectrally accurate between them for smooth fields, so point
        values carry the accuracy of the solve instead of a piecewise-linear
        floor.
        """
        phi = np.asarray(phi, dtype=np.float64)
        single = phi.ndim == 1
        pts = phi[None, :] if single else phi
        if pts.ndim != 2 or pts.shape[1] != self.m:
            raise ValueError(f"expected points with {self.m} angles")
        n_pts = pts.shape[0]
        if self.c_out == 0:
            out = np.zeros((n_pts, 0))
            return out[0] if single else out
        res = self.resolution
        wave = np.fft.fftfreq(res, d=1.0 / res)
        basis = [np.exp(1j * np.outer(pts[:, a], wave)) for a in range(self.m)]
        spec = self._spectrum()
        out = np.empty((n_pts, self.c_out))
        for e in range(self.c_out):
            acc = basis[0] @ spec[..., e].reshape(res, -1)
            for a in range(1, self.m):
                acc = np.einsum("pr,prk->pk", basis[a], acc.reshape(n_pts, res, -1))
            out[:, e] = acc.real.reshape(n_pts)
        return out[0] if single else out

    def sup_norm(self) -> float:
        """max over grid points of the Euclidean norm over components."""
        if self.c_out == 0:
            return 0.0
        return float(np.sqrt((self.flat_values() ** 2).sum(axis=1)).max())


@dataclass(frozen=True)
class IterationLog:
    """Successive-approximation record: z_l = |u^(l+1) - u^(l)|_0 per sweep."""

    differences: tuple[float, ...]
    theoretical_ratio: float
    converged: bool
    iterations_used: int

    def empirical_ratios(self) -> tuple[float, ...]:
        z = self.differences
        return tuple(z[i + 1] / z[i] for i in range(len(z) - 1) if z[i] > 0.0)

    def to_json_dict(self) -> dict:
        ratio = self.theoretical_ratio
        return {
            "differences": list(self.differences),
            "theoretical_ratio": ratio if math.isfinite(ratio) else None,
            "converged": self.converged,
            "iterations_used": self.iterations_used,
            "empirical_ratios": list(self.empirical_ratios()),
        }


def _sweep_values(
    flat: np.ndarray,
    structure: EdgeStructure,
    wbar: np.ndarray,
    pp: PlasticityParams,
    resolution: int,
    m: int,
    step: float,
    horizon: float,
) -> np.ndarray:
    """One successive-approximation pass on flattened values (G, c_out)."""
    agg = flat @ structure.rep_aggregation.T.astype(np.float64)
    kind, offset, table = pp.rule.kernel_encoding()
    out_pairs = _backend.torus_sweep(
        agg,
        np.full(m, resolution, dtype=np.int64),
        structure.pair_s,
        structure.pair_r,
        wbar,
        pp.gamma,
        pp.mu,
        kind,
        offset,
        table,
        horizon,
        step,
        _backend.thread_count(),
    )
    if not np.isfinite(out_pairs).all():
        raise RuntimeError("non-finite values in the torus iteration quadrature")
    return out_pairs[:, structure.edge_pair]


def _check_iteration_preconditions(net, part, pp, force: bool, need_overall: bool):
    report = check_cluster_conditions(net, part, pp)
    if force:
        return report
    if need_overall:
        if not report.overall:
            failed = [
                name
                for name, ok in (
                    ("frequency uniformity", report.a1_holds),
                    ("in-degree uniformity", report.a2_holds),
                    ("rate inequalities", report.a3_holds),
                )
                if not ok
            ]
            raise ConditionsNotSatisfied(
                f"sufficient conditions fail ({', '.join(failed)}); pass force=True to iterate anyway"
            )
    else:
        if not report.a2_holds:
            raise ConditionsNotSatisfied(
                "inter-cluster counts are not uniform; pass force=True to iterate anyway"
            )
        if pp.mu > 0 and report.lhs_a3 <= 0:
            raise ConditionsNotSatisfied(
                f"decay-rate margin is not positive (lhs = {report.lhs_a3}); "
                "pass force=True to iterate anyway"
            )
    return report


def _validate_compat(u: TorusFunction, structure: EdgeStructure, m: int) -> None:
    if u.m != m:
        raise ValueError(f"torus dimension {u.m} != cluster count {m}")
    expected = tuple((int(i), int(j)) for i, j in structure.edges)
    if u.edge_order != expected:
        raise ValueError("torus edge order does not match the network's canonical order")


def iterate_once(
    net: OscillatorNetwork,
    part: ClusterPartition,
    pp: PlasticityParams,
    u_prev: TorusFunction,
    horizon: float | None = None,
    step: float = 0.01,
    force: bool = False,
) -> TorusFunction:
    """One successive-approximation pass applied to ``u_prev``."""
    structure = inter_cluster_structure(net, part)
    _validate_compat(u_prev, structure, part.m)
    _check_iteration_preconditions(net, part, pp, force, need_overall=False)
    if horizon is None:
        horizon = 40.0 / pp.gamma
    if horizon <= 0 or step <= 0:
        raise ValueError("horizon and step must be > 0")
    wbar = net.frequencies[list(part.representatives)]
    flat = _sweep_values(
        u_prev.flat_values(), structure, wbar, pp, u_prev.resolution, part.m, step, horizon
    )
    shape = (u_prev.resolution,) * part.m + (structure.c_out,)
    return TorusFunction(part.m, u_prev.resolution, flat.reshape(shape), u_prev.edge_order)


def solve_torus(
    net: OscillatorNetwork,
    part: ClusterPartition,
    pp: PlasticityParams,
    resolution: int = 64,
    tol: float = 1e-10,
    max_iter: int = 100,
    step: float = 0.01,
    horizon: float | None = None,
    force: bool = False,
) -> tuple[TorusFunction, IterationLog]:
    """Iterate from u = 0 until |u^(l+1) - u^(l)|_0 < tol.

    Refuses to run when the sufficient conditions fail, unless ``force``.
    Raises NoConvergence when the budget is exhausted.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    report = _check_iteration_preconditions(net, part, pp, force, need_overall=True)
    if horizon is None:
        horizon = 40.0 / pp.gamma
    if horizon <= 0 or step <= 0:
        raise ValueError("horizon and step must be > 0")

    structure = inter_cluster_structure(net, part)
    theoretical = (
        report.ratio_a3 if report.a2_holds and math.isfinite(report.ratio_a3) else math.nan
    )
    wbar = net.frequencies[list(part.representatives)]
    m = part.m
    edge_order = tuple((int(i), int(j)) for i, j in structure.edges)
    shape = (resolution,) * m + (structure.c_out,)

    flat = np.zeros((resolution**m, structure.c_out))
    differences: list[float] = []
    for it in range(max_iter):
        new_flat = _sweep_values(flat, structure, wbar, pp, resolution, m, step, horizon)
        if structure.c_out:
            z = float(np.sqrt(((new_flat - flat) ** 2).sum(axis=1)).max())
        else:
            z = 0.0
        differences.append(z)
        flat = new_flat
        if z < tol:
            log = IterationLog(tuple(differences), theoretical, True, it + 1)
            torus = TorusFunction(m, resolution, flat.reshape(shape), edge_order)
            return torus, log

    log = IterationLog(tuple(differences), theoretical, False, max_iter)
    raise NoConvergence(
        f"no convergence to tol={tol} within {max_iter} iterations (last z = {differences[-1]})",
        log,
    )


def invariance_residual(
    net: OscillatorNetwork,
    part: ClusterPartition,
    pp: PlasticityParams,
    u: TorusFunction,
) -> float:
    """Invariance defect max_grid |(du/dphi)(wbar + B u) + gamma u - mu G|.

    Derivatives are central differences on the periodic grid. This is an
    independent per-edge evaluation (no pair collapsing), so it cross-checks
    the iteration kernels.
    """
    if u.resolution < RESIDUAL_MIN_RESOLUTION:
        raise ValueError(f"residual evaluation needs resolution >= {RESIDUAL_MIN_RESOLUTION}")
    structure = inter_cluster_structure(net, part)
    _validate_compat(u, structure, part.m)
    m, res = part.m, u.resolution
    c_out = structure.c_out
    if c_out == 0:
        return 0.0

    pts = grid_points((res,) * m)  # (G, m)
    flat = u.flat_values()
    s_of_edge = structure.pair_s[structure.edge_pair]
    r_of_edge = structure.pair_r[structure.edge_pair]
    diffs = pts[:, r_of_edge] - pts[:, s_of_edge]  # (G, c_out)

    # drift wbar + B u, summing representative-received edge components
    wbar = net.frequencies[list(part.representatives)]
    drift = np.tile(wbar, (pts.shape[0], 1))
    reps = part.representatives
    for e in range(c_out):
        i = structure.edges[e, 0]
        s = s_of_edge[e]
        if i == reps[s]:
            drift[:, s] += flat[:, e] * np.sin(diffs[:, e])

    grid_vals = u.values  # (R,)*m + (c_out,)
    h = 2.0 * np.pi / res
    residual = pp.gamma * grid_vals.reshape(-1, c_out).copy()
    for a in range(m):
        du = (np.roll(grid_vals, -1, axis=a) - np.roll(grid_vals, 1, axis=a)) / (2.0 * h)
        residual += du.reshape(-1, c_out) * drift[:, a][:, None]

    kind, offset, table = pp.rule.kernel_encoding()
    residual -= pp.mu * rule_values(kind, offset, table, diffs)
    return float(np.sqrt((residual**2).sum(axis=1)).max())


@dataclass(frozen=True)
class IntraTorusValue:
    """Constant intra-cluster coupling value on the manifold: mu Gamma(0) / gamma."""

    value: float


@dataclass(frozen=True)
class ClusterManifold:
    """Assembled invariant manifold: constant intra couplings + torus function.

    ``state_on_manifold(phi)`` realizes the manifold point with zero error
    coordinates: node phases equal their cluster phase, intra couplings at the
    constant value, inter couplings at u(phi).
    """

    intra: IntraTorusValue
    inter: TorusFunction
    network: OscillatorNetwork
    partition: ClusterPartition

    def state_on_manifold(self, phi) -> NetworkState:
        phi = np.asarray(phi, dtype=np.float64)
        if phi.shape != (self.partition.m,):
            raise ValueError(f"expected {self.partition.m} cluster phases")
        cluster_of = self.partition.cluster_of()
        theta = wrap_to_2pi(phi[cluster_of])
        n = self.network.n_nodes
        kmat = np.zeros((n, n))
        structure = inter_cluster_structure(self.network, self.partition)
        for i, j in structure.intra_edges:
            kmat[i, j] = self.intra.value
        u_here = self.inter.evaluate(phi)
        for e, (i, j) in enumerate(structure.edges):
            kmat[i, j] = u_here[e]
        return NetworkState(theta, kmat)


def full_manifold(
    net: OscillatorNetwork,
    part: ClusterPartition,
    pp: PlasticityParams,
    u: TorusFunction,
) -> ClusterManifold:
    """Bundle the torus function with the constant intra-cluster value."""
    structure = inter_cluster_structure(net, part)
    _validate_compat(u, structure, part.m)
    gamma0 = float(np.asarray(pp.rule(0.0)))
    return ClusterManifold(
        intra=IntraTorusValue(pp.mu * gamma0 / pp.gamma),
        inter=u,
        network=net,
        partition=part,
    )


def export_surface(u: TorusFunction, edge: tuple[int, int], path) -> None:
    """Write one component of a two-cluster torus as CSV rows (phi_1, phi_2, u).

    ``edge`` is the (receiver, source) node pair, 0-based; headers are 1-based.
    Only m = 2 is supported (m >= 3 has no planar surface to export).
    """
    if u.m != 2:
        raise ValueError("surface export needs a two-cluster torus (m = 2)")
    edge = (int(edge[0]), int(edge[1]))
    try:
        e = u.edge_order.index(edge)
    except ValueError:
        raise ValueError(
            f"edge ({edge[0] + 1}, {edge[1] + 1}) is not an inter-cluster edge of this torus"
        ) from None
    pts = grid_points((u.resolution,) * 2)
    flat = u.flat_values()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"phi_1,phi_2,u_{edge[0] + 1}_{edge[1] + 1}\n")
        for g in range(pts.shape[0]):
            fh.write(f"{float(pts[g, 0])!r},{float(pts[g, 1])!r},{float(flat[g, e])!r}\n")


# -- serialization -------------------------------------------------------------
#
# Line 1: JSON metadata {"m", "resolution", "edge_order" (1-based), extras...}.
# Then one line per grid point in row-major order, c_out decimal values each.


def save_torus(u: TorusFunction, path, params: dict | None = None) -> None:
    meta = {
        "m": u.m,
        "resolution": u.resolution,
        "edge_order": [[i + 1, j + 1] for i, j in u.edge_order],
    }
    if params:
        meta["parameters"] = params
    flat = u.flat_values()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        for g in range(flat.shape[0]):
            fh.write(" ".join(repr(float(v)) for v in flat[g]) + "\n")


def load_torus(path) -> tuple[TorusFunction, dict]:
    with open(path, encoding="utf-8") as fh:
        meta = json.loads(fh.readline())
        rows = [line.split() for line in fh if line.strip()]
    m, res = int(meta["m"]), int(meta["resolution"])
    edge_order = tuple((int(i) - 1, int(j) - 1) for i, j in meta["edge_order"])
    flat = np.array([[float(v) for v in row] for row in rows])
    if flat.size == 0:
        flat = flat.reshape(res**m, 0)
    if flat.shape[0] != res**m:
        raise ValueError(f"expected {res ** m} grid rows, found {flat.shape[0]}")
    values = flat.reshape((res,) * m + (len(edge_order),))
    return TorusFunction(m, res, values, edge_order), meta
