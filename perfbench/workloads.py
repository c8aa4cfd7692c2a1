"""Seeded inputs of the three workloads, written as scenario files.

Every input is a plain scenario dict of the kind `adaptive-kuramoto <task>`
reads. The seed changes the inputs (initial states, node labels, which
edges realize a degree profile) but never the amount of work, so the cost of
an operation is the same on every seed.
"""

from __future__ import annotations

import math

import numpy as np

W_PAPER = (0.5, 0.5, 0.5, math.sqrt(2.0) / 3.0, math.sqrt(2.0) / 3.0)
PAPER_CLUSTERS = ((0, 1, 2), (3, 4))
PAPER_PLASTICITY = {"gamma": 1.0, "mu": 0.01, "rule": {"kind": "hebbian"}}

# simulate, light: the paper's five-node network to t = 200
LIGHT_T_END = 200.0
LIGHT_OFFSET = 0.25  # max initial intra-cluster phase offset
# simulate, heavy: 80 nodes in two clusters of 40, uniform in-degrees
HEAVY_SIZES = (40, 40)
HEAVY_INTRA_DEGREE = 8
HEAVY_INTER_DEGREE = 4
HEAVY_FREQS = (1.0, 1.5)
HEAVY_T_END = 10.0
STEP = 0.01
RECORD_STRIDE = 10
# torus: R = 16, the smallest grid `invariance_residual` accepts; light stops
# after the first pass, heavy solves to 1e-4 (three passes). The horizon and
# step are a quarter of the defaults' cost (40 / gamma, 0.01), so a run holds
# about ten rounds; the truncated tail e^(-20) stays far below the tolerance.
TORUS_RESOLUTION = 16
TORUS_LIGHT_TOL = 1.0
TORUS_HEAVY_TOL = 1e-4
TORUS_STEP = 0.02
TORUS_HORIZON = 20.0
# design: per ordered cluster pair (s, r), the sorted in-counts from P_r of
# the nodes of P_s. The evaluated-candidate count depends on these counts
# only, so it is the same on every seed.
DESIGN_LIGHT_CLUSTERS = (4, 4, 4)
DESIGN_LIGHT_FREQS = (1.0, 1.1, 1.2)
DESIGN_LIGHT_MU = 0.01
DESIGN_LIGHT_PROFILE = {
    (0, 1): (0, 2, 2, 3), (0, 2): (1, 1, 2, 2),
    (1, 0): (1, 1, 1, 2), (1, 2): (2, 2, 3, 4),
    (2, 0): (2, 2, 2, 3), (2, 1): (1, 3, 3, 4),
}
# Two pairs without inputs keep the heavy list at 3^10 * 2^2 = 236,196
# candidates; the first one passes.
DESIGN_HEAVY_CLUSTERS = (2, 2, 2, 2)
DESIGN_HEAVY_FREQS = (1.0, 1.1, 1.2, 1.3)
DESIGN_HEAVY_MU = 0.002
DESIGN_HEAVY_PROFILE = {
    (0, 1): (1, 1), (0, 2): (0, 1), (0, 3): (1, 2),
    (1, 0): (1, 1), (1, 2): (0, 0), (1, 3): (1, 1),
    (2, 0): (1, 2), (2, 1): (1, 1), (2, 3): (0, 1),
    (3, 0): (1, 1), (3, 1): (2, 2), (3, 2): (0, 0),
}
DESIGN_MAX_EDITS = 1000


def _network(adj, freqs, clusters) -> dict:
    return {
        "adjacency": np.asarray(adj, dtype=int).tolist(),
        "frequencies": [float(w) for w in freqs],
        "partition": [[i + 1 for i in c] for c in clusters],
    }


def _scenario(name, task, network, plasticity, parameters) -> dict:
    return {
        "name": name,
        "task": task,
        "network": network,
        "plasticity": plasticity,
        "parameters": parameters,
    }


def _split(sizes):
    out, start = [], 0
    for size in sizes:
        out.append(tuple(range(start, start + size)))
        start += size
    return tuple(out)


def paper_network(perm=None) -> dict:
    """The five-node all-to-all network; node i is relabelled perm[i]."""
    perm = np.arange(5) if perm is None else np.asarray(perm)
    freqs = np.empty(5)
    freqs[perm] = W_PAPER
    adj = np.ones((5, 5), dtype=int) - np.eye(5, dtype=int)
    clusters = tuple(tuple(sorted(int(perm[i]) for i in c)) for c in PAPER_CLUSTERS)
    return _network(adj, freqs, clusters)


def _clustered_initial(rng, clusters, n, offset, k_low, k_high, k_seed) -> dict:
    """Cluster phases uniform on [0, 2 pi), members within +-offset of the
    representative, couplings uniform on the edges."""
    phases = np.empty(n)
    for c in clusters:
        base = rng.uniform(0.0, 2.0 * np.pi)
        phases[list(c)] = base + rng.uniform(-offset, offset, size=len(c))
        phases[c[0]] = base
    return {
        "phases": phases.tolist(),
        "coupling": {"kind": "uniform", "low": k_low, "high": k_high, "seed": k_seed},
    }


def _sim_params(t_end, initial) -> dict:
    return {"t_end": t_end, "step": STEP, "record_stride": RECORD_STRIDE, "initial": initial}


def simulate_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    light_init = _clustered_initial(
        rng, PAPER_CLUSTERS, 5, LIGHT_OFFSET, -0.015, 0.015, int(rng.integers(2**31))
    )

    clusters = _split(HEAVY_SIZES)
    n = sum(HEAVY_SIZES)
    adj = np.zeros((n, n), dtype=int)
    freqs = np.empty(n)
    for s, c in enumerate(clusters):
        freqs[list(c)] = HEAVY_FREQS[s]
        for r, pool in enumerate(clusters):
            degree = HEAVY_INTRA_DEGREE if r == s else HEAVY_INTER_DEGREE
            for i in c:
                candidates = [j for j in pool if j != i]
                adj[i, rng.choice(candidates, size=degree, replace=False)] = 1
    heavy_init = _clustered_initial(rng, clusters, n, 0.3, 0.0, 0.02, int(rng.integers(2**31)))

    return {
        "light": _scenario(
            "simulate_light", "simulate", paper_network(), PAPER_PLASTICITY,
            _sim_params(LIGHT_T_END, light_init),
        ),
        "heavy": _scenario(
            "simulate_heavy", "simulate", _network(adj, freqs, clusters), PAPER_PLASTICITY,
            _sim_params(HEAVY_T_END, heavy_init),
        ),
        "warmup": _scenario(
            "simulate_warmup", "simulate", paper_network(), PAPER_PLASTICITY,
            _sim_params(0.1, light_init),
        ),
    }


def torus_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    net = paper_network(rng.permutation(5))

    def params(tol, **extra):
        return {"resolution": TORUS_RESOLUTION, "tol": tol, "max_iter": 50,
                "step": TORUS_STEP, "horizon": TORUS_HORIZON, **extra}

    return {
        "light": _scenario("torus_light", "torus", net, PAPER_PLASTICITY, params(TORUS_LIGHT_TOL)),
        "heavy": _scenario("torus_heavy", "torus", net, PAPER_PLASTICITY, params(TORUS_HEAVY_TOL)),
        "warmup": _scenario(
            "torus_warmup", "torus", net, PAPER_PLASTICITY,
            {"resolution": TORUS_RESOLUTION, "tol": TORUS_LIGHT_TOL, "step": 0.1, "horizon": 0.2},
        ),
    }


def profile_network(rng, sizes, freqs, profile) -> dict:
    """A network whose per-pair in-counts are ``profile``, shuffled over the
    receivers and realized by random sources; clusters are directed rings."""
    clusters = _split(sizes)
    n = sum(sizes)
    adj = np.zeros((n, n), dtype=int)
    w = np.empty(n)
    for s, c in enumerate(clusters):
        w[list(c)] = freqs[s]
        for k, i in enumerate(c):
            if len(c) > 1:
                adj[i, c[k - 1]] = 1
    for (s, r), counts in profile.items():
        for i, count in zip(clusters[s], rng.permutation(counts)):
            adj[i, rng.choice(clusters[r], size=int(count), replace=False)] = 1
    return _network(adj, w, clusters)


def design_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])

    def scenario(name, sizes, freqs, profile, mu):
        net = profile_network(rng, sizes, freqs, profile)
        plasticity = {"gamma": 1.0, "mu": mu, "rule": {"kind": "hebbian"}}
        return _scenario(name, "design", net, plasticity, {"max_edits": DESIGN_MAX_EDITS})

    return {
        "light": scenario(
            "design_light", DESIGN_LIGHT_CLUSTERS, DESIGN_LIGHT_FREQS,
            DESIGN_LIGHT_PROFILE, DESIGN_LIGHT_MU,
        ),
        "heavy": scenario(
            "design_heavy", DESIGN_HEAVY_CLUSTERS, DESIGN_HEAVY_FREQS,
            DESIGN_HEAVY_PROFILE, DESIGN_HEAVY_MU,
        ),
        "warmup": scenario(
            "design_warmup", (2, 2), (1.0, 1.1), {(0, 1): (1, 1), (1, 0): (0, 1)}, 0.01
        ),
    }


INPUTS = {"simulate": simulate_inputs, "torus": torus_inputs, "design": design_inputs}
