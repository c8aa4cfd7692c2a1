#!/usr/bin/env python3
"""Wall-clock comparison of the C and numpy network integrators.

Both kernels run behind the same adapter, ``_backend.integrate_network``
(dense adjacency and couplings in, (records, E) edge columns out), on the
same inputs: first the five-node two-cluster instance to t = 50, then
the cost per RK4 step on random networks of N = 5, 20, 80 and 320 nodes where
every node has 4 inputs (E = 4 N edges). Handy after touching
``_kernels_c.c``: the C kernel comes from the package's own loader,
``_backend.load_c_kernel``, which rebuilds it when the source has changed.
The package falls back to the numpy kernel silently when that build fails, so
here a failed build leaves the C columns empty. The torus sweep is numpy-only;
``perfbench --trace 1`` times it as ``kernels.torus_sweep``.
"""

import argparse
import time

import numpy as np

from adaptive_kuramoto import (
    LearningRule,
    OscillatorNetwork,
    PlasticityParams,
    random_couplings,
)
from adaptive_kuramoto import _backend, _kernels_py

try:
    _kernels_c = _backend.load_c_kernel()
except (OSError, ImportError):
    _kernels_c = None


def _instance():
    adj = np.ones((5, 5), dtype=np.int64) - np.eye(5, dtype=np.int64)
    w2 = np.sqrt(2.0) / 3.0
    net = OscillatorNetwork(adj, [0.5, 0.5, 0.5, w2, w2])
    pp = PlasticityParams(gamma=1.0, mu=0.01, rule=LearningRule.hebbian())
    return net, pp


def _best(kernel, args, repeat):
    """Best-of-``repeat`` seconds of ``_backend.integrate_network`` on
    ``kernel``, and its output."""
    _backend._impl = kernel
    out = _backend.integrate_network(*args)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        _backend.integrate_network(*args)
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


SCALING_SIZES = (5, 20, 80, 320)
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


def _compare(args, repeat, scale, unit):
    """One table row: numpy time, C time, speedup and max |C - numpy|."""
    t_py, out_py = _best(_kernels_py, args, repeat)
    row = f"{t_py * scale:>8.1f}{unit}"
    if _kernels_c is not None:
        t_c, out_c = _best(_kernels_c, args, repeat)
        diff = max(float(np.abs(a - b).max()) for a, b in zip(out_py[:2], out_c[:2]))
        row += f" {t_c * scale:>8.1f}{unit} {t_py / t_c:>7.1f}x  {diff:.2e}"
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3, help="timed repetitions, best-of")
    ap.add_argument("--t-end", type=float, default=50.0, help="five-node integrator horizon")
    ns = ap.parse_args()
    selected = _backend._impl
    try:
        net, pp = _instance()
        print(f"{'kernel':<20} {'numpy':>10} {'c':>10} {'speedup':>8}  max|diff|")
        args = _integrator_args(net, pp, ns.t_end, 0.01)
        print(f"{'integrate_network':<20} {_compare(args, ns.repeat, 1e3, 'ms')}")

        print(f"\nintegrate_network per RK4 step, in-degree {SCALING_IN_DEGREE}")
        print(f"{'N':>4} {'E':>5} {'numpy':>10} {'c':>10} {'speedup':>8}  max|diff|")
        for n in SCALING_SIZES:
            row = _compare(_scaling_args(n), ns.repeat, 1e6 / SCALING_STEPS, "us")
            print(f"{n:>4} {n * SCALING_IN_DEGREE:>5} {row}")
    finally:
        _backend._impl = selected

    if _kernels_c is None:
        print("C kernel could not be built; only the numpy kernel was timed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
