import itertools
import json
import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from adaptive_kuramoto import _backend, _kernels_py
from adaptive_kuramoto import (
    ClusterPartition,
    ConditionsNotSatisfied,
    LearningRule,
    NoConvergence,
    OscillatorNetwork,
    PlasticityParams,
    TorusFunction,
    export_surface,
    full_manifold,
    initial_state,
    inter_cluster_structure,
    invariance_residual,
    iterate_once,
    load_torus,
    rhs_full,
    save_torus,
    solve_torus,
)
from adaptive_kuramoto._kernels_py import grid_points
from adaptive_kuramoto.scenarios import parse_scenario, run_scenario
from adaptive_kuramoto.torus import MAX_TORUS_VALUES, _orbit_index


@pytest.fixture(scope="module")
def five_solution(five_node):
    net, part, pp = five_node
    u, log = solve_torus(net, part, pp, resolution=16)
    return u, log


def _zeros(net, part, resolution):
    structure = inter_cluster_structure(net, part)
    edge_order = tuple(map(tuple, structure.edges))
    return TorusFunction.zeros(part.m, resolution, edge_order)


def test_zeros_constructor(five_node):
    net, part, _ = five_node
    u0 = _zeros(net, part, 8)
    assert u0.m == 2
    assert u0.resolution == 8
    assert u0.c_out == 12
    assert u0.values.shape == (8, 8, 12)
    assert u0.sup_norm() == 0.0
    assert len(u0.edge_order) == 12


def test_evaluate_at_nodes_and_between(five_solution):
    u, _ = five_solution
    pts = grid_points((u.resolution,) * u.m)
    got = u.evaluate(pts)
    assert np.allclose(got, u.flat_values(), atol=1e-13)
    single = u.evaluate(np.array([0.3, 5.1]))
    assert single.shape == (u.c_out,)
    # periodic in every angle
    shifted = u.evaluate(np.array([0.3 + 2 * np.pi, 5.1 - 4 * np.pi]))
    assert np.allclose(shifted, single, atol=1e-12)


def test_evaluate_reproduces_band_limited_fields():
    # trig interpolation must recover any field whose harmonics fit the
    # grid, including between the nodes
    res = 16
    grid = grid_points((res, res))
    f = lambda p: np.cos(p[:, 0] - 2.0 * p[:, 1] + 0.3) + 0.25 * np.sin(3.0 * p[:, 1])
    vals = f(grid).reshape(res, res, 1)
    u = TorusFunction(2, res, vals, ((3, 0),))
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 2 * np.pi, size=(40, 2))
    assert np.allclose(u.evaluate(pts)[:, 0], f(pts), atol=1e-12)


def test_first_iterate_matches_closed_form(five_node):
    """From u = 0 one sweep must reproduce the explicit sinusoid
    mu (gamma cos psi + dw sin psi) / (gamma^2 + dw^2) with psi the
    source-minus-receiver representative phase difference."""
    net, part, pp = five_node
    u0 = _zeros(net, part, 16)
    u1 = iterate_once(net, part, pp, u0)
    pts = grid_points((16, 16))
    wbar = np.array([0.5, math.sqrt(2) / 3])
    cof = part.cluster_of()
    flat = u1.flat_values()
    worst = 0.0
    for e, (i, j) in enumerate(u1.edge_order):
        s, r = cof[i], cof[j]
        dw = wbar[r] - wbar[s]
        psi = pts[:, r] - pts[:, s]
        closed = pp.mu * (pp.gamma * np.cos(psi) + dw * np.sin(psi)) / (pp.gamma**2 + dw**2)
        worst = max(worst, np.abs(flat[:, e] - closed).max())
    assert worst < 1e-12


def test_same_pair_components_identical(five_solution, five_node):
    net, part, _ = five_node
    u, _ = five_solution
    structure = inter_cluster_structure(net, part)
    flat = u.flat_values()
    for p in range(structure.n_pairs):
        members = np.nonzero(structure.edge_pair == p)[0]
        for e in members[1:]:
            assert np.array_equal(flat[:, e], flat[:, members[0]])


def test_solve_converges_geometrically(five_solution, five_node):
    net, part, pp = five_node
    u, log = five_solution
    assert log.converged
    assert log.iterations_used <= 60
    assert log.theoretical_ratio == pytest.approx(0.8318781387797297, rel=1e-12)
    diffs = log.differences
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    burn_in = 3
    for ratio in log.empirical_ratios()[burn_in:]:
        assert ratio <= 1.1 * log.theoretical_ratio
    # sup-norm bound mu * delta * sqrt(c_out) / gamma
    bound = pp.mu * pp.delta * math.sqrt(12) / pp.gamma
    assert u.sup_norm() <= bound


def test_resolution_refinement_consistent(five_node, five_solution):
    net, part, pp = five_node
    u16, _ = five_solution
    u32, _ = solve_torus(net, part, pp, resolution=32)
    # the coarse grid is a subset of the fine one
    coarse = u16.values
    fine = u32.values[::2, ::2]
    assert np.abs(coarse - fine).max() < 1e-4


def test_invariance_residual_zero_function_oracle(five_node):
    """At u = 0 the residual is mu * max_phi ||Gamma(psi)||, attained where
    all twelve cosines hit 1 simultaneously: mu * sqrt(12)."""
    net, part, pp = five_node
    u0 = _zeros(net, part, 16)
    r = invariance_residual(net, part, pp, u0)
    assert r == pytest.approx(pp.mu * math.sqrt(12), rel=1e-12)


def test_invariance_residual_converged(five_node, five_solution):
    net, part, pp = five_node
    u, _ = five_solution
    r = invariance_residual(net, part, pp, u)
    assert r < 1e-3
    with pytest.raises(ValueError):
        invariance_residual(net, part, pp, _zeros(net, part, 8))


def test_iterate_horizon_tail_is_negligible(five_node):
    net, part, pp = five_node
    u0 = _zeros(net, part, 8)
    default = iterate_once(net, part, pp, u0)
    longer = iterate_once(net, part, pp, u0, horizon=60.0 / pp.gamma)
    short = iterate_once(net, part, pp, u0, horizon=1.0)
    assert np.abs(default.values - longer.values).max() < 1e-12
    assert np.abs(default.values - short.values).max() > 1e-4


def test_conditions_gate_and_force(seven_node_original):
    net, part, pp = seven_node_original
    with pytest.raises(ConditionsNotSatisfied):
        solve_torus(net, part, pp, resolution=16)
    u0 = _zeros(net, part, 8)
    with pytest.raises(ConditionsNotSatisfied):
        iterate_once(net, part, pp, u0)
    forced = iterate_once(net, part, pp, u0, force=True)
    assert np.isfinite(forced.values).all()
    assert forced.sup_norm() > 0


def test_no_convergence_carries_log(five_node):
    net, part, pp = five_node
    with pytest.raises(NoConvergence) as exc:
        solve_torus(net, part, pp, resolution=8, tol=1e-16, max_iter=2)
    log = exc.value.log
    assert not log.converged
    assert log.iterations_used == 2
    assert len(log.differences) == 2


def test_mu_zero_torus_is_trivial(five_node):
    net, part, _ = five_node
    pp0 = PlasticityParams(gamma=1.0, mu=0.0, rule=LearningRule.hebbian())
    u, log = solve_torus(net, part, pp0, resolution=8)
    assert u.sup_norm() == 0.0
    assert log.converged
    assert log.iterations_used == 1


def test_save_load_round_trip(five_solution, tmp_path):
    u, _ = five_solution
    path = tmp_path / "torus.txt"
    save_torus(u, path, params={"gamma": 1.0})
    u2, meta = load_torus(path)
    assert u2.m == u.m and u2.resolution == u.resolution
    assert u2.edge_order == u.edge_order
    assert np.array_equal(u2.values, u.values)  # repr round-trip is exact
    assert meta["parameters"] == {"gamma": 1.0}
    assert meta["edge_order"][0] == [1, 4]  # 1-based on disk


def test_export_surface(five_solution, tmp_path):
    u, _ = five_solution
    path = tmp_path / "surface.csv"
    export_surface(u, (0, 3), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "phi_1,phi_2,u_1_4"
    assert len(lines) == 1 + u.resolution**2
    row = lines[1].split(",")
    assert float(row[0]) == 0.0 and float(row[1]) == 0.0
    e = u.edge_order.index((0, 3))
    assert float(row[2]) == u.flat_values()[0, e]
    with pytest.raises(ValueError):
        export_surface(u, (0, 1), path)  # intra pair, not an inter edge


def test_full_manifold_states(five_node, five_solution):
    net, part, pp = five_node
    u, _ = five_solution
    manifold = full_manifold(net, part, pp, u)
    assert manifold.intra.value == pytest.approx(pp.mu / pp.gamma, rel=1e-15)
    phi = np.array([1.2, 4.5])
    state = manifold.state_on_manifold(phi)
    assert np.allclose(state.phases, [1.2, 1.2, 1.2, 4.5, 4.5])
    k = state.couplings
    assert k[0, 1] == pytest.approx(0.01)
    vals = u.evaluate(phi)
    for e, (i, j) in enumerate(u.edge_order):
        assert k[i, j] == pytest.approx(vals[e], abs=1e-15)


def test_anti_phase_constant_torus(five_node):
    """With equal representative frequencies the anti-phase substitution
    k_intra = mu/gamma, k_inter = -mu/gamma, phi_2 - phi_1 = pi is an
    equilibrium of every coordinate except the common rotation."""
    net5, part, pp = five_node
    net = OscillatorNetwork(net5.adjacency, np.full(5, 0.7))
    theta = np.array([0.0, 0.0, 0.0, np.pi, np.pi])
    k = np.zeros((5, 5))
    cof = part.cluster_of()
    for i, j in net.edges():
        k[i, j] = pp.mu / pp.gamma if cof[i] == cof[j] else -pp.mu / pp.gamma
    dtheta, dk = rhs_full(net, pp, initial_state(net, theta, k))
    assert np.abs(dtheta - 0.7).max() <= 1e-14  # pure common rotation
    assert np.abs(dk).max() <= 1e-14


# -- one start point per diagonal orbit ----------------------------------------


def _orbit_rows(res, m):
    """Row in grid_points((1,) + (res,)*(m-1)) of the orbit representative
    (0, i_1 - i_0, ...) mod res of each row-major grid point, by enumeration."""
    return np.array(
        [
            np.ravel_multi_index([(i - g[0]) % res for i in g[1:]], (res,) * (m - 1))
            for g in itertools.product(range(res), repeat=m)
        ]
    )


def _three_clusters():
    """Six nodes, all-to-all, three clusters of two; (A1)-(A3) hold (ratio 0.29)."""
    adj = np.ones((6, 6), dtype=int) - np.eye(6, dtype=int)
    net = OscillatorNetwork(adj, [0.5, 0.5, 0.55, 0.55, 0.6, 0.6])
    part = ClusterPartition(((0, 1), (2, 3), (4, 5)))
    pp = PlasticityParams(gamma=1.0, mu=0.001, rule=LearningRule.hebbian())
    return net, part, pp


def _full_grid_pass(net, part, pp, u):
    """iterate_once's values (G, c_out) as the full-grid kernel gives them."""
    structure = inter_cluster_structure(net, part)
    kind, offset, table = pp.rule.kernel_encoding()
    return _kernels_py.torus_sweep(
        u.flat_values() @ structure.rep_aggregation.T.astype(np.float64),
        (u.resolution,) * u.m, structure.pair_s, structure.pair_r,
        net.frequencies[list(part.representatives)], pp.gamma, pp.mu,
        kind, offset, table, 40.0 / pp.gamma, 0.01,
    )[:, structure.edge_pair]


@pytest.fixture
def sweep_points(monkeypatch):
    """Start-point count of every kernel call made through the backend."""
    counts = []
    kernel = _backend.torus_sweep

    def counting(*args, points=None):
        counts.append(math.prod(args[1]) if points is None else len(points))
        return kernel(*args, points=points)

    monkeypatch.setattr(_backend, "torus_sweep", counting)
    return counts


@pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
def test_orbit_sweep_matches_full_grid(m):
    res = 6
    pairs = [(s, r) for s in range(m) for r in range(m) if s != r]
    rng = np.random.default_rng(3)
    rows = _orbit_rows(res, m)
    agg = rng.uniform(-0.5, 0.5, size=(res ** (m - 1), len(pairs)))[rows]
    assert np.array_equal(_orbit_index(agg, res, m), rows)
    kind, offset, table = LearningRule.hebbian().kernel_encoding()
    args = (
        agg, (res,) * m, np.array([s for s, _ in pairs]), np.array([r for _, r in pairs]),
        rng.uniform(0.4, 0.6, m), 0.8, 0.3, kind, offset, table, 0.5, 0.05,
    )  # horizon and step of the per-point reference test in test_kernels.py
    full = _kernels_py.torus_sweep(*args)
    reduced = _kernels_py.torus_sweep(*args, points=grid_points((1,) + (res,) * (m - 1)))
    assert reduced.shape == (res ** (m - 1), len(pairs))
    assert np.abs(reduced[rows] - full).max() <= 1e-15


def test_non_invariant_iterate_sweeps_the_full_grid(five_node):
    net, part, pp = five_node
    structure = inter_cluster_structure(net, part)
    res = 8
    phi = grid_points((res, res))
    field = 0.01 * np.cos(phi[:, [0]] - 2.0 * phi[:, [1]])
    u_prev = TorusFunction(
        2, res, np.repeat(field, structure.c_out, axis=1).reshape(res, res, -1),
        tuple(map(tuple, structure.edges)),
    )
    agg = u_prev.flat_values() @ structure.rep_aggregation.T.astype(np.float64)
    assert _orbit_index(agg, res, 2) is None
    got = iterate_once(net, part, pp, u_prev)
    assert np.array_equal(got.flat_values(), _full_grid_pass(net, part, pp, u_prev))


def test_solution_is_invariant_under_the_diagonal_shift(five_solution):
    u, _ = five_solution
    assert np.array_equal(u.values, np.roll(u.values, 1, axis=(0, 1)))


def test_upsampled_warm_start_matches_the_full_grid(five_node, five_solution, sweep_points):
    """The R = 16 fixed point interpolated to R = 32 is diagonal-invariant only
    to rounding (a few eps), and still takes the reduced pass."""
    net, part, pp = five_node
    u16, _ = five_solution
    res = 32
    vals = u16.evaluate(grid_points((res, res))).reshape(res, res, u16.c_out)
    warm = TorusFunction(2, res, vals, u16.edge_order)
    got = iterate_once(net, part, pp, warm)
    assert sweep_points == [res]
    want = _full_grid_pass(net, part, pp, warm)
    assert np.abs(got.flat_values() - want).max() <= 1e-14


@pytest.mark.parametrize("m", [2, 3], ids=["m2", "m3"])
def test_solve_hands_the_kernel_one_point_per_orbit(m, five_node, sweep_points):
    net, part, pp = five_node if m == 2 else _three_clusters()
    res = 6
    _, log = solve_torus(net, part, pp, resolution=res, tol=1e-8, horizon=10.0, step=0.05)
    assert log.iterations_used >= 3
    assert sweep_points == [res ** (m - 1)] * log.iterations_used


@pytest.mark.parametrize(
    "argument, value",
    [("max_iter", 0), ("tol", math.nan), ("tol", 0.0), ("step", math.nan),
     ("step", -0.01), ("horizon", math.inf), ("horizon", 0.0)],
)
def test_bad_torus_arguments_fail_before_any_sweep(
    five_node, monkeypatch, tmp_path, argument, value
):
    net, part, pp = five_node

    def no_sweep(*args, **kwargs):
        raise AssertionError("no sweep may run for a bad argument")

    monkeypatch.setattr(_backend, "torus_sweep", no_sweep)
    with pytest.raises(ValueError, match=argument):
        solve_torus(net, part, pp, resolution=16, **{argument: value})
    if argument in ("step", "horizon"):
        with pytest.raises(ValueError, match=argument):
            iterate_once(net, part, pp, _zeros(net, part, 16), **{argument: value})
    data = json.loads(
        resources.files("adaptive_kuramoto").joinpath("scenario_data/five_node_torus.json").read_text()
    )
    data["parameters"][argument] = value
    with pytest.raises(ValueError, match=argument):
        run_scenario(parse_scenario(data), tmp_path)


def test_oversized_torus_grid_fails_fast():
    net, part, pp = _three_clusters()
    c_out = inter_cluster_structure(net, part).c_out
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"4096\^3 x {c_out}") as exc:
            solve_torus(net, part, pp, resolution=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(MAX_TORUS_VALUES) in str(exc.value)
    assert peak < 1_000_000  # bytes: nothing grid-sized was allocated
