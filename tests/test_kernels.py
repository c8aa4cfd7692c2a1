"""Compiled and pure-numpy kernels must agree to rounding, and the numpy
integrator with a per-edge pure-Python RK4."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adaptive_kuramoto
from adaptive_kuramoto import BACKEND, LearningRule, inter_cluster_structure
from adaptive_kuramoto import _backend, _kernels_py

try:
    from adaptive_kuramoto import _kernels_cy
except ImportError:
    _kernels_cy = None

needs_compiled = pytest.mark.skipif(_kernels_cy is None, reason="compiled kernels not built")


def test_backend_identifies_itself():
    assert BACKEND in ("cython", "python")
    assert _backend.BACKEND == BACKEND


def test_env_var_forces_python_backend():
    # the child must import the same copy of the package as this process,
    # installed or not, so its parent directory goes first on PYTHONPATH
    package_root = str(Path(adaptive_kuramoto.__file__).parents[1])
    env = dict(os.environ, ADAPTIVE_KURAMOTO_BACKEND="python")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", "import adaptive_kuramoto as ak; print(ak.BACKEND)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "python"


def test_grid_points_row_major():
    pts = _kernels_py.grid_points((2, 3))
    assert pts.shape == (6, 2)
    step = 2 * np.pi / 3
    assert np.allclose(pts[0], [0.0, 0.0])
    assert np.allclose(pts[1], [0.0, step])
    assert np.allclose(pts[3], [np.pi, 0.0])


def test_interp_periodic_nodes_and_midpoints():
    shape = (4,)
    values = np.array([[0.0], [1.0], [2.0], [3.0]])
    nodes = _kernels_py.grid_points(shape)
    got = _kernels_py.interp_periodic(values, shape, nodes)
    assert np.allclose(got, values)
    mid = np.array([[np.pi / 4]])  # halfway between nodes 0 and 1
    assert np.allclose(_kernels_py.interp_periodic(values, shape, mid), 0.5)
    # wrap-around cell interpolates between the last node and node 0
    wrap = np.array([[2 * np.pi - np.pi / 4]])
    assert np.allclose(_kernels_py.interp_periodic(values, shape, wrap), 1.5)
    # periodicity: shifting by 2*pi changes nothing
    shifted = _kernels_py.interp_periodic(values, shape, mid + 2 * np.pi)
    assert np.allclose(shifted, 0.5)


def test_interp_periodic_2d_multicolumn():
    shape = (8, 8)
    pts = _kernels_py.grid_points(shape)
    values = np.stack([np.cos(pts[:, 0] - pts[:, 1]), np.sin(pts[:, 0])], axis=1)
    rng = np.random.default_rng(5)
    q = rng.uniform(0, 2 * np.pi, size=(40, 2))
    got = _kernels_py.interp_periodic(values, shape, q)
    want = np.stack([np.cos(q[:, 0] - q[:, 1]), np.sin(q[:, 0])], axis=1)
    assert np.abs(got - want).max() < 0.35  # bilinear on a coarse grid
    exact = _kernels_py.interp_periodic(values, shape, pts)
    assert np.allclose(exact, values)


def test_rule_values_match_rule_objects():
    s = np.linspace(-7, 7, 61)
    for rule in (
        LearningRule.hebbian(),
        LearningRule.shifted_cosine(0.4),
        LearningRule.tabulated([1.0, 0.2, -1.0, 0.3]),
    ):
        kind, offset, table = rule.kernel_encoding()
        got = _kernels_py.rule_values(kind, offset, table, s)
        assert np.allclose(got, rule(s), atol=1e-12)


def _setup_five():
    adj = np.ones((5, 5), dtype=np.int64) - np.eye(5, dtype=np.int64)
    w = np.array([0.5, 0.5, 0.5, 0.4714, 0.4714])
    k0 = np.zeros((5, 5))
    rng = np.random.default_rng(2)
    k0[adj == 1] = rng.uniform(-0.01, 0.01, adj.sum())
    theta0 = rng.uniform(0, 2 * np.pi, 5)
    return adj, w, theta0, k0


# receiver-row adjacency: in-degrees 3, 1, 4, 2, 1, 0 (node 5 has no inputs)
SPARSE_ADJ = np.array([
    [0, 1, 1, 0, 1, 0],
    [1, 0, 0, 0, 0, 0],
    [1, 1, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 1],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0],
])
NON_EDGE_K = {(1, 3): 0.25, (5, 0): -0.5}  # must pass through untouched


def _tabulated_rule(table):
    n = len(table)

    def rule(s):
        t = (s % (2 * math.pi)) * n / (2 * math.pi)
        i0 = math.floor(t)
        frac = t - i0
        return table[i0 % n] * (1.0 - frac) + table[(i0 + 1) % n] * frac

    return rule


REFERENCE_RULES = [
    (LearningRule.hebbian(), math.cos),
    (LearningRule.shifted_cosine(0.7), lambda s: math.cos(s - 0.7)),
    (LearningRule.tabulated([1.0, 0.2, -1.0, 0.3, 0.5]), _tabulated_rule([1.0, 0.2, -1.0, 0.3, 0.5])),
]


def _reference_integrate(theta0, k0, adj, freqs, gamma, mu, rule, step, n_steps, stride):
    """Per-edge RK4 in plain floats; returns the finite records as
    (phases, {edge: coupling}) pairs, stopping at the first non-finite one."""
    edges = [(i, j) for i in range(len(adj)) for j in range(len(adj)) if adj[i][j]]

    def rhs(th, kk):
        dth = [float(w) for w in freqs]
        dk = {}
        for i, j in edges:
            d = th[j] - th[i]
            finite = math.isfinite(d)
            dth[i] += kk[i, j] * (math.sin(d) if finite else math.nan)
            dk[i, j] = -gamma * kk[i, j] + mu * (rule(d) if finite else math.nan)
        return dth, dk

    def shift(th, kk, a, dth, dk):
        return [x + a * v for x, v in zip(th, dth)], {e: kk[e] + a * dk[e] for e in edges}

    theta = [float(x) % (2 * math.pi) for x in theta0]
    k = {e: float(k0[e]) for e in edges}
    records = [(theta, k)]
    for _ in range(n_steps // stride):
        for _ in range(stride):
            t1, k1 = rhs(theta, k)
            t2, k2 = rhs(*shift(theta, k, 0.5 * step, t1, k1))
            t3, k3 = rhs(*shift(theta, k, 0.5 * step, t2, k2))
            t4, k4 = rhs(*shift(theta, k, step, t3, k3))
            theta = [
                (x + step / 6.0 * (a + 2.0 * b + 2.0 * c + d)) % (2 * math.pi)
                for x, a, b, c, d in zip(theta, t1, t2, t3, t4)
            ]
            k = {e: k[e] + step / 6.0 * (k1[e] + 2.0 * k2[e] + 2.0 * k3[e] + k4[e]) for e in edges}
        if not all(math.isfinite(v) for v in theta + list(k.values())):
            break
        records.append((theta, k))
    return records


def _sparse_case(gamma):
    rng = np.random.default_rng(11)
    k0 = np.where(SPARSE_ADJ != 0, rng.uniform(-1.0, 1.0, SPARSE_ADJ.shape), 0.0)
    for e, v in NON_EDGE_K.items():
        k0[e] = v
    theta0 = rng.uniform(-1.0, 7.0, 6)  # some outside [0, 2 pi) to exercise the wrap
    freqs = np.array([0.5, 0.9, 0.2, 1.3, 0.7, 1.1])
    return theta0, k0, freqs, gamma


@pytest.mark.parametrize("gamma, blows_up", [(0.5, False), (500.0, True)])
@pytest.mark.parametrize("rule, ref_rule", REFERENCE_RULES, ids=["hebbian", "shifted", "tabulated"])
def test_integrate_network_matches_per_edge_reference(rule, ref_rule, gamma, blows_up):
    theta0, k0, freqs, gamma = _sparse_case(gamma)
    mu, step, n_steps, stride = 0.3, 0.01, 400, 10
    kind, offset, table = rule.kernel_encoding()
    with np.errstate(all="ignore"):
        thetas, ks, n_valid = _kernels_py.integrate_network(
            theta0, k0, SPARSE_ADJ, freqs, gamma, mu, kind, offset, table, step, n_steps, stride
        )
    ref = _reference_integrate(theta0, k0, SPARSE_ADJ, freqs, gamma, mu, ref_rule, step, n_steps, stride)

    assert n_valid == len(ref)
    assert (n_valid < n_steps // stride + 1) == blows_up
    for e, v in NON_EDGE_K.items():
        assert (ks[:n_valid, e[0], e[1]] == v).all()
    assert (ks[:n_valid][:, SPARSE_ADJ == 0] == k0[SPARSE_ADJ == 0]).all()
    if blows_up:
        return  # on the way to overflow the phases are rounding noise mod 2 pi
    for rec, (theta_ref, k_ref) in enumerate(ref):
        gap = np.angle(np.exp(1j * (thetas[rec] - np.array(theta_ref))))
        assert np.abs(gap).max() <= 1e-11
        assert max(abs(ks[rec][e] - v) for e, v in k_ref.items()) <= 1e-11


@needs_compiled
def test_integrate_network_backends_agree():
    adj, w, theta0, k0 = _setup_five()
    kind, offset, table = LearningRule.hebbian().kernel_encoding()
    args = (theta0, k0, adj, w, 1.0, 0.01, kind, offset, table, 0.01, 500, 10)
    t_py, k_py, v_py = _kernels_py.integrate_network(*args)
    t_cy, k_cy, v_cy = _kernels_cy.integrate_network(*args)
    assert v_py == v_cy
    assert np.abs(t_py - t_cy).max() < 1e-11
    assert np.abs(k_py - k_cy).max() < 1e-11


@needs_compiled
def test_torus_sweep_backends_agree(five_node):
    net, part, pp = five_node
    structure = inter_cluster_structure(net, part)
    res = 8
    grid_shape = np.full(2, res, dtype=np.int64)
    g = res * res
    agg = np.zeros((g, structure.n_pairs))
    pair_s = np.array([p[0] for p in structure.pairs], dtype=np.int64)
    pair_r = np.array([p[1] for p in structure.pairs], dtype=np.int64)
    wbar = np.array([0.5, np.sqrt(2) / 3])
    kind, offset, table = pp.rule.kernel_encoding()
    args = (agg, grid_shape, pair_s, pair_r, wbar, pp.gamma, pp.mu, kind, offset, table, 40.0, 0.01)
    out_py = _kernels_py.torus_sweep(*args, 0)
    out_cy = _kernels_cy.torus_sweep(*args, 0)
    assert np.abs(out_py - out_cy).max() < 1e-12
