#!/usr/bin/env python3
"""Wall-clock comparison of the compiled and pure-Python kernels.

Runs the network integrator and one torus sweep on the five-node
two-cluster instance with both backends and prints a small table, then the
integrator's cost per RK4 step on random networks of N = 5, 20 and 80 nodes
where every node has 4 inputs (E = 4 N edges). Handy after touching the Cython sources:
the package falls back to the Python kernels silently when the extension is
missing, so a missing build shows up here as a suspiciously flat speedup.
"""

import argparse
import time

import numpy as np

from adaptive_kuramoto import (
    ClusterPartition,
    LearningRule,
    OscillatorNetwork,
    PlasticityParams,
    inter_cluster_structure,
    random_couplings,
)
from adaptive_kuramoto import _kernels_py

try:
    from adaptive_kuramoto import _kernels_cy
except ImportError:
    _kernels_cy = None


def _instance():
    adj = np.ones((5, 5), dtype=np.int64) - np.eye(5, dtype=np.int64)
    w2 = np.sqrt(2.0) / 3.0
    net = OscillatorNetwork(adj, [0.5, 0.5, 0.5, w2, w2])
    part = ClusterPartition(((0, 1, 2), (3, 4)))
    pp = PlasticityParams(gamma=1.0, mu=0.01, rule=LearningRule.hebbian())
    return net, part, pp


def _best(fn, args, repeat):
    out = fn(*args)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def _integrator_args(net, pp, t_end, step):
    theta0 = np.array([0.3, 0.45, 0.55, 0.0, -0.1])
    k0 = random_couplings(net, -0.015, 0.015, seed=7)
    kind, offset, table = pp.rule.kernel_encoding()
    n_steps = int(round(t_end / step))
    return (
        theta0, k0, net.adjacency, net.frequencies,
        pp.gamma, pp.mu, kind, offset, table,
        step, n_steps, 10,
    )


SCALING_SIZES = (5, 20, 80)
SCALING_IN_DEGREE = 4
SCALING_STEPS = 500


def _scaling_args(n):
    """Integrator inputs on a random network where every node receives from
    SCALING_IN_DEGREE others."""
    rng = np.random.default_rng(0)
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        others = np.delete(np.arange(n), i)
        adj[i, rng.choice(others, size=SCALING_IN_DEGREE, replace=False)] = 1
    k0 = np.where(adj != 0, rng.uniform(-0.015, 0.015, (n, n)), 0.0)
    kind, offset, table = LearningRule.hebbian().kernel_encoding()
    return (
        rng.uniform(0.0, 2.0 * np.pi, n), k0, adj, rng.uniform(0.4, 0.6, n),
        1.0, 0.01, kind, offset, table,
        0.01, SCALING_STEPS, 10,
    )


def _sweep_args(net, part, pp, res):
    structure = inter_cluster_structure(net, part)
    grid_shape = np.full(2, res, dtype=np.int64)
    phi = _kernels_py.grid_points(grid_shape)
    # nonzero, so the max|diff| column covers the interpolation
    agg = np.repeat(0.01 * np.cos(phi[:, [0]] - 2.0 * phi[:, [1]]), structure.n_pairs, axis=1)
    wbar = net.frequencies[list(part.representatives)]
    kind, offset, table = pp.rule.kernel_encoding()
    return (
        agg, grid_shape, structure.pair_s, structure.pair_r, wbar,
        pp.gamma, pp.mu, kind, offset, table,
        40.0, 0.01, 0,
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="timed repetitions, best-of")
    ap.add_argument("--t-end", type=float, default=50.0, help="integrator horizon")
    ap.add_argument("--resolution", type=int, default=16, help="torus sweep grid")
    ns = ap.parse_args()

    net, part, pp = _instance()
    cases = [
        ("integrate_network", _integrator_args(net, pp, ns.t_end, 0.01)),
        ("torus_sweep", _sweep_args(net, part, pp, ns.resolution)),
    ]

    print(f"{'kernel':<20} {'python':>10} {'compiled':>10} {'speedup':>8}  max|diff|")
    for name, args in cases:
        t_py, out_py = _best(getattr(_kernels_py, name), args, ns.repeat)
        if _kernels_cy is None:
            print(f"{name:<20} {t_py * 1e3:>8.1f}ms {'n/a':>10} {'n/a':>8}")
            continue
        t_cy, out_cy = _best(getattr(_kernels_cy, name), args, ns.repeat)
        ref = out_py[0] if isinstance(out_py, tuple) else out_py
        got = out_cy[0] if isinstance(out_cy, tuple) else out_cy
        diff = float(np.abs(np.asarray(ref) - np.asarray(got)).max())
        print(
            f"{name:<20} {t_py * 1e3:>8.1f}ms {t_cy * 1e3:>8.1f}ms "
            f"{t_py / t_cy:>7.1f}x  {diff:.2e}"
        )

    print(f"\nintegrate_network per RK4 step, in-degree {SCALING_IN_DEGREE}")
    print(f"{'N':>4} {'E':>5} {'python':>10} {'compiled':>10} {'speedup':>8}  max|diff|")
    per_step = 1e6 / SCALING_STEPS
    for n in SCALING_SIZES:
        args = _scaling_args(n)
        t_py, out_py = _best(_kernels_py.integrate_network, args, ns.repeat)
        row = f"{n:>4} {n * SCALING_IN_DEGREE:>5} {t_py * per_step:>8.1f}us"
        if _kernels_cy is not None:
            t_cy, out_cy = _best(_kernels_cy.integrate_network, args, ns.repeat)
            diff = max(float(np.abs(a - b).max()) for a, b in zip(out_py[:2], out_cy[:2]))
            row += f" {t_cy * per_step:>8.1f}us {t_py / t_cy:>7.1f}x  {diff:.2e}"
        print(row)

    if _kernels_cy is None:
        print("compiled extension not importable; only the fallback was timed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
