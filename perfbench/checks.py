"""Correctness checks of the operations' outputs.

Each check compares an artifact the scenario runner wrote against a
computation made here, apart from the program (a per-edge RK4, a closed form,
the paper's condition formulas, an exhaustive search), or against a property
the method must have. None compares against stored output of the program.
Each check function returns the numbers it measured and appends a message to
``failures`` for every check that does not hold.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REF_STEPS = 20  # steps of the per-edge reference RK4 compared per operation
REF_TOL = 1e-11  # same method, summation order differs: a few ulps per step
ERROR_SAMPLE_T = (0.0, 100.0, 200.0)  # error-decay samples on the five-node network
MANIFOLD_T_END = 100.0  # horizon of the trajectory started on the torus


class Problem:
    """Network, clusters and plasticity of a scenario dict, 0-based."""

    def __init__(self, scenario: dict):
        net = scenario["network"]
        self.adj = np.asarray(net["adjacency"], dtype=np.int64)
        self.w = np.asarray(net["frequencies"], dtype=np.float64)
        self.clusters = [tuple(i - 1 for i in c) for c in net["partition"]]
        self.cluster_of = np.empty(self.adj.shape[0], dtype=np.int64)
        for s, c in enumerate(self.clusters):
            self.cluster_of[list(c)] = s
        pl = scenario["plasticity"]
        if pl["rule"] != {"kind": "hebbian"}:
            raise ValueError("the checks assume the Hebbian rule")
        self.gamma, self.mu = float(pl["gamma"]), float(pl["mu"])
        self.delta = 1.0  # max(sup|cos|, sup|sin|)
        self.params = scenario["parameters"]

    @property
    def a1_holds(self) -> bool:
        return all(np.all(self.w[list(c)] == self.w[c[0]]) for c in self.clusters)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in np.argwhere(self.adj)]

    def conditions(self, adj) -> tuple[bool, float]:
        """(A1)-(A3) of the paper on ``adj``: (all hold, ratio_a3)."""
        m = len(self.clusters)
        c_sr = np.zeros((m, m), dtype=np.int64)
        a2 = True
        for s, c in enumerate(self.clusters):
            for r, pool in enumerate(self.clusters):
                if r != s:
                    counts = adj[np.ix_(c, pool)].sum(axis=1)
                    a2 &= bool(np.all(counts == counts[0]))
                    c_sr[s, r] = counts.max()
        lhs, ratio = a3_quantities(self, c_sr.sum(axis=1).max(), c_sr.sum(),
                                   int(adj[self.cluster_of[:, None] != self.cluster_of[None, :]].sum()))
        return bool(self.a1_holds and a2 and lhs > 0 and ratio < 1), float(ratio)


def a3_quantities(p: Problem, c_max, sum_c_sr, c_out):
    """lhs = w_min - mu delta c_max / gamma and the contraction ratio
    4 mu delta sqrt(c_out) sum c_sr (w_max + mu delta c_max / gamma)
    / (gamma^2 lhs); numpy-broadcast over candidate arrays."""
    w_abs = np.abs(p.w)
    sup = p.mu * p.delta * np.asarray(c_max, dtype=np.float64) / p.gamma
    lhs = w_abs.min() - sup
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (4.0 * p.mu * p.delta / p.gamma**2 * np.sqrt(c_out) * sum_c_sr
                 * (w_abs.max() + sup) / lhs)
    return lhs, np.where(lhs > 0, ratio, np.inf)


# -- simulate ------------------------------------------------------------------


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [[float(v) for v in line.rstrip("\n").split(",")] for line in fh]
    return header, np.array(rows)


def reference_rk4(p: Problem, theta, k: dict, steps: int, h: float):
    """The paper's equations, one edge at a time:
    dtheta_i = w_i + sum_j k_ij sin(theta_j - theta_i),
    dk_ij = -gamma k_ij + mu cos(theta_j - theta_i)."""
    edges = list(k)

    def rhs(th, kk):
        dth = list(p.w)
        dk = {}
        for i, j in edges:
            d = th[j] - th[i]
            dth[i] += kk[(i, j)] * math.sin(d)
            dk[(i, j)] = -p.gamma * kk[(i, j)] + p.mu * math.cos(d)
        return dth, dk

    theta = list(theta)
    for _ in range(steps):
        t1, k1 = rhs(theta, k)
        t2, k2 = rhs([a + 0.5 * h * b for a, b in zip(theta, t1)], {e: k[e] + 0.5 * h * k1[e] for e in edges})
        t3, k3 = rhs([a + 0.5 * h * b for a, b in zip(theta, t2)], {e: k[e] + 0.5 * h * k2[e] for e in edges})
        t4, k4 = rhs([a + h * b for a, b in zip(theta, t3)], {e: k[e] + h * k3[e] for e in edges})
        theta = [a + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(theta, t1, t2, t3, t4)]
        k = {e: k[e] + h / 6.0 * (k1[e] + 2 * k2[e] + 2 * k3[e] + k4[e]) for e in edges}
    return np.array(theta), k


def _angle_gap(a, b):
    return np.abs(np.angle(np.exp(1j * (np.asarray(a) - np.asarray(b)))))


def check_simulate(scenario: dict, out: Path, cls: str, failures: list) -> dict:
    from adaptive_kuramoto import (
        initial_state, network_from_dict, random_couplings, simulate,
    )
    from adaptive_kuramoto.scenarios import plasticity_from_dict

    p = Problem(scenario)
    prm = p.params
    header, data = read_csv(out / "trajectory.csv")
    col = {name: k for k, name in enumerate(header)}
    n = p.adj.shape[0]
    edges = p.edges
    theta_cols = [col[f"theta_{i + 1}"] for i in range(n)]
    k_cols = [col[f"k_{i + 1}_{j + 1}"] for i, j in edges]
    stride, h = int(prm["record_stride"]), float(prm["step"])
    name = scenario["name"]

    # The first records against the per-edge reference RK4.
    init = prm["initial"]
    theta0 = np.mod(np.asarray(init["phases"], dtype=np.float64), 2 * np.pi)
    if not np.array_equal(data[0, theta_cols], theta0):
        failures.append(f"{name}: t = 0 phases differ from the scenario's")
    k_row0 = data[0, k_cols]
    spec = init["coupling"]
    if not np.all((k_row0 >= spec["low"]) & (k_row0 <= spec["high"])):
        failures.append(f"{name}: initial couplings outside [{spec['low']}, {spec['high']}]")
    theta_ref, k_ref = theta0, dict(zip(edges, k_row0))
    ref_diff = 0.0
    for rec in range(1, REF_STEPS // stride + 1):
        theta_ref, k_ref = reference_rk4(p, theta_ref, k_ref, stride, h)
        ref_diff = max(
            ref_diff,
            float(_angle_gap(data[rec, theta_cols], theta_ref).max()),
            float(np.abs(data[rec, k_cols] - np.array([k_ref[e] for e in edges])).max()),
        )
    if not ref_diff <= REF_TOL:
        failures.append(f"{name}: first steps differ from the reference RK4 by {ref_diff:.3g}")

    # dk = -gamma k + mu Gamma with |Gamma| <= delta keeps |k| below
    # max(|k(0)|, mu delta / gamma); RK4 may overshoot by its step error.
    limit = np.maximum(np.abs(k_row0), p.mu * p.delta / p.gamma) + p.mu * h**4
    excess = float((np.abs(data[:, k_cols]) - limit).max())
    if excess > 0:
        failures.append(f"{name}: a coupling exceeds max(|k(0)|, mu delta/gamma) by {excess:.3g}")

    # trajectory.csv parses back bit for bit to the trajectory it came from.
    net, part = network_from_dict(scenario["network"])
    pp = plasticity_from_dict(scenario["plasticity"])
    kmat = random_couplings(net, spec["low"], spec["high"], spec["seed"])
    traj = simulate(net, pp, initial_state(net, init["phases"], kmat), float(prm["t_end"]),
                    h, stride, partition=part)
    expected = np.column_stack(
        [traj.times, traj.phases, traj.errors]
        + [traj.couplings[:, i, j] for i, j in traj.k_edges]
    )
    if expected.shape != data.shape or not np.array_equal(expected, data):
        failures.append(f"{name}: trajectory.csv does not parse back to the trajectory")

    result = {f"{cls}_ref_rk4_max_diff": ref_diff, f"{cls}_coupling_bound_excess": excess}
    if cls == "light":
        # The paper network meets (A1)-(A3), so the cluster manifold attracts:
        # the largest intra-cluster error falls from each sample to the next.
        e_cols = [k for k, name_ in enumerate(header) if name_.startswith("e_")]
        err = np.abs(data[:, e_cols]).max(axis=1)
        path = [float(err[int(round(t / (stride * h)))]) for t in ERROR_SAMPLE_T]
        if not all(b < a for a, b in zip(path, path[1:])):
            failures.append(f"{name}: intra errors {path} at t = {ERROR_SAMPLE_T} do not decay")
        result["light_error_path"] = path
    return result


# -- torus ---------------------------------------------------------------------


def read_torus(path: Path):
    """(values (G, c_out), 0-based edge order) of a torus.txt."""
    with open(path, encoding="utf-8") as fh:
        meta = json.loads(fh.readline())
        values = np.array([[float(v) for v in line.split()] for line in fh if line.strip()])
    edges = [(i - 1, j - 1) for i, j in meta["edge_order"]]
    return values.reshape(-1, len(edges)), edges


def grid(m: int, res: int) -> np.ndarray:
    """Row-major grid points on [0, 2 pi)^m, shape (res^m, m)."""
    axes = np.meshgrid(*([2 * np.pi * np.arange(res) / res] * m), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=-1)


def first_pass_closed_form(p: Problem, edges, res: int) -> np.ndarray:
    """u^(1) = mu (gamma cos D + W sin D) / (gamma^2 + W^2), D = phi_r - phi_s,
    W = wbar_r - wbar_s: the backward integral along the constant drift."""
    s = p.cluster_of[[i for i, _ in edges]]
    r = p.cluster_of[[j for _, j in edges]]
    pts = grid(len(p.clusters), res)
    wbar = p.w[[c[0] for c in p.clusters]]
    d = pts[:, r] - pts[:, s]
    om = wbar[r] - wbar[s]
    return p.mu * (p.gamma * np.cos(d) + om * np.sin(d)) / (p.gamma**2 + om**2)


def fourier_eval(values: np.ndarray, m: int, res: int, phi: np.ndarray) -> np.ndarray:
    """Trigonometric interpolation of grid samples (G, C) at points (P, m)."""
    spec = np.fft.fftn(values.reshape((res,) * m + (-1,)), axes=tuple(range(m))) / res**m
    wave = np.fft.fftfreq(res, d=1.0 / res)
    out = spec
    for a in range(m):
        basis = np.exp(1j * np.outer(phi[:, a], wave))  # (P, res)
        out = np.einsum("pk,pk...->p...", basis, out) if a else np.einsum("pk,k...->p...", basis, out)
    return out.real


def _differences(values: np.ndarray, m: int, res: int, order: int) -> float:
    """Largest |order-th periodic difference| along any axis, summed over axes."""
    grid_vals = values.reshape((res,) * m + (-1,))
    total = 0.0
    for a in range(m):
        d = grid_vals
        for _ in range(order):
            d = np.roll(d, -1, axis=a) - d
        total += float(np.abs(d).max())
    return total


def check_torus(scenario: dict, out: Path, cls: str, failures: list) -> dict:
    p = Problem(scenario)
    name = scenario["name"]
    res = int(p.params["resolution"])
    step = float(p.params["step"])
    horizon = float(p.params.get("horizon", 40.0 / p.gamma))
    values, edges = read_torus(out / "torus.txt")
    log = json.loads((out / "iteration_log.json").read_text(encoding="utf-8"))
    m = len(p.clusters)
    iters = log["iteration"]["iterations_used"]
    c_out = len(edges)
    if edges != [e for e in p.edges if p.cluster_of[e[0]] != p.cluster_of[e[1]]]:
        failures.append(f"{name}: torus edge order is not the row-major inter-cluster edge list")
    result = {f"{cls}_iterations": iters, f"{cls}_residual": log["residual"]}

    if cls == "light":
        # Simpson (RK4) quadrature error H h^4 max|f''''| / 2880 with
        # |f''''| <= mu (gamma + |W|)^4, the e^(-gamma H) tail, and rounding.
        wbar = p.w[[c[0] for c in p.clusters]]
        spread = float(np.ptp(wbar))
        tol = (horizon * step**4 * p.mu * (p.gamma + spread) ** 4 / 2880.0
               + p.mu / p.gamma * math.exp(-p.gamma * horizon) + 1e-13)
        err = float(np.abs(values - first_pass_closed_form(p, edges, res)).max())
        if iters != 1:
            failures.append(f"{name}: expected one pass, got {iters}")
        if not err <= tol:
            failures.append(f"{name}: u^(1) differs from the closed form by {err:.3g} (tol {tol:.3g})")
        result.update(light_first_pass_error=err, light_first_pass_tol=tol)
        return result

    # Contraction at least as fast as the (A3) ratio.
    _ok, ratio = p.conditions(p.adj)
    z = log["iteration"]["differences"]
    worst = max((b / a for a, b in zip(z, z[1:]) if a > 0), default=0.0)
    if not worst <= ratio:
        failures.append(f"{name}: iteration ratio {worst:.3g} above the theoretical {ratio:.3g}")

    # Residual: central-difference truncation (h^2/6)|u'''||V| per axis and
    # component, with |u'''| <= mu delta / gamma and |V_a| <= |wbar_a| + mu
    # delta c_max / gamma; twice that, over the c_out components.
    h = 2 * np.pi / res
    wbar = np.abs(p.w[[c[0] for c in p.clusters]])
    c_max = max(sum(int(p.adj[c[0], list(q)].sum()) for r, q in enumerate(p.clusters) if r != s)
                for s, c in enumerate(p.clusters))
    sup_u = p.mu * p.delta * c_max / p.gamma
    res_bound = 2.0 * math.sqrt(c_out) * h**2 / 6.0 * p.mu * p.delta / p.gamma * float((wbar + sup_u).sum())
    if not log["residual"] <= res_bound:
        failures.append(f"{name}: residual {log['residual']:.3g} above {res_bound:.3g}")

    # A trajectory started on the manifold stays on it. The sweep's bilinear
    # interpolation of u (error sum_a |second difference| / 8) perturbs the
    # drift; that moves u by at most mu delta c_max / gamma^2 times as much,
    # accumulated over the iteration by 1 / (1 - ratio). Allow twice that.
    from adaptive_kuramoto import full_manifold, load_torus, network_from_dict, simulate
    from adaptive_kuramoto.scenarios import plasticity_from_dict

    net, part = network_from_dict(scenario["network"])
    pp = plasticity_from_dict(scenario["plasticity"])
    u, _meta = load_torus(out / "torus.txt")
    phi0 = np.array([0.3 + 1.7 * s for s in range(m)])
    start = full_manifold(net, part, pp, u).state_on_manifold(phi0)
    traj = simulate(net, pp, start, MANIFOLD_T_END, step, 10)
    reps = [c[0] for c in p.clusters]
    on_grid = fourier_eval(values, m, res, traj.phases[:, reps])
    k_inter = np.stack([traj.couplings[:, i, j] for i, j in edges], axis=1)
    deviation = float(np.abs(k_inter - on_grid).max())
    dev_bound = (2.0 * p.mu * p.delta * c_max / p.gamma**2
                 * _differences(values, m, res, 2) / 8.0 / (1.0 - ratio))
    intra = [(i, j) for i, j in p.edges if p.cluster_of[i] == p.cluster_of[j]]
    intra_dev = float(max(abs(traj.couplings[:, i, j] - p.mu / p.gamma).max() for i, j in intra))
    if not deviation <= dev_bound:
        failures.append(f"{name}: manifold trajectory leaves u by {deviation:.3g} (bound {dev_bound:.3g})")
    if not intra_dev <= 1e-12:
        failures.append(f"{name}: intra couplings leave mu Gamma(0)/gamma by {intra_dev:.3g}")
    result.update(
        heavy_ratio_worst=worst, heavy_ratio_theory=ratio, heavy_residual_bound=res_bound,
        heavy_invariance_deviation=deviation, heavy_invariance_bound=dev_bound,
        heavy_intra_deviation=intra_dev,
    )
    return result


# -- design --------------------------------------------------------------------


def pair_counts(p: Problem):
    """Per ordered pair (s, r): in-counts from P_r of the nodes of P_s."""
    return {
        (s, r): p.adj[np.ix_(c, q)].sum(axis=1)
        for s, c in enumerate(p.clusters)
        for r, q in enumerate(p.clusters)
        if r != s
    }


def exhaustive_min_edits(p: Problem) -> tuple[int, int]:
    """Fewest edits over every uniform-target edit (every per-pair target
    0..|P_r|) whose edited network meets (A1)-(A3): (minimum, candidates)."""
    counts = pair_counts(p)
    pairs = list(counts)
    options = [len(p.clusters[r]) + 1 for _s, r in pairs]
    combos = np.indices(options, dtype=np.int8).reshape(len(pairs), -1).T  # (n, pairs)
    cost = np.zeros(combos.shape[0], dtype=np.int64)
    m = len(p.clusters)
    row_sum = np.zeros((combos.shape[0], m), dtype=np.int64)
    c_out = np.zeros(combos.shape[0], dtype=np.int64)
    for k, (s, r) in enumerate(pairs):
        t = combos[:, k]
        table = np.abs(counts[(s, r)][None, :] - np.arange(options[k])[:, None]).sum(axis=1)
        cost += table[t]
        row_sum[:, s] += t
        c_out += len(p.clusters[s]) * t
    lhs, ratio = a3_quantities(p, row_sum.max(axis=1), row_sum.sum(axis=1), c_out)
    passing = (lhs > 0) & (ratio < 1)
    best = int(cost[passing].min()) if p.a1_holds and passing.any() else -1
    return best, combos.shape[0]


def check_design(scenario: dict, out: Path, cls: str, failures: list) -> dict:
    p = Problem(scenario)
    name = scenario["name"]
    result = json.loads((out / "design.json").read_text(encoding="utf-8"))["design"]
    mask = np.zeros_like(p.adj)
    legal = True
    for i, j, v in result["perturbation"]["entries"]:
        i, j = i - 1, j - 1
        legal &= (
            v in (-1, 1) and i != j and mask[i, j] == 0
            and p.cluster_of[i] != p.cluster_of[j]
            and (p.adj[i, j] == 0 if v == 1 else p.adj[i, j] == 1)
        )
        mask[i, j] = v
    edits = int(np.count_nonzero(mask))
    if not legal:
        failures.append(f"{name}: the edit mask is not legal")
    if not result["feasible"] or edits != result["edits"]:
        failures.append(f"{name}: infeasible, or edit count {result['edits']} != mask size {edits}")
    ok, ratio = p.conditions(p.adj + mask)
    if not ok:
        failures.append(f"{name}: the edited network fails (A1)-(A3) (ratio {ratio:.3g})")
    lower = sum(
        int(min(np.abs(c - t).sum() for t in range(len(p.clusters[r]) + 1)))
        for (s, r), c in pair_counts(p).items()
    )
    if edits < lower:
        failures.append(f"{name}: {edits} edits, below the per-pair lower bound {lower}")
    best, candidates = exhaustive_min_edits(p)
    if edits != best:
        failures.append(f"{name}: {edits} edits, but the exhaustive minimum is {best}")
    return {
        f"{cls}_edits": edits, f"{cls}_lower_bound": lower,
        f"{cls}_exhaustive_min": best, f"{cls}_exhaustive_candidates": candidates,
        f"{cls}_edited_ratio": ratio,
    }


CHECKS = {"simulate": check_simulate, "torus": check_torus, "design": check_design}
