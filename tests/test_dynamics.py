import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_kuramoto import (
    ClusterPartition,
    IntegrationBlowup,
    LearningRule,
    OscillatorNetwork,
    PlasticityParams,
    build_network,
    cluster_errors,
    error_metrics,
    initial_state,
    random_couplings,
    rhs_full,
    simulate,
    simulate_static_pair,
    switch_topology_scenario,
    trajectory_to_csv,
    two_oscillator_static_analysis,
    wrap_to_2pi,
    wrap_to_pi,
)
from adaptive_kuramoto import _backend, _kernels_py


@given(st.floats(-50.0, 50.0))
@settings(max_examples=200, deadline=None)
def test_wrap_ranges(x):
    y2 = float(wrap_to_2pi(x))
    yp = float(wrap_to_pi(x))
    # rounding can land exactly on the upper boundary for tiny negatives
    assert 0.0 <= y2 <= 2 * math.pi
    assert -math.pi <= yp <= math.pi
    # both agree with x modulo 2*pi
    assert math.isclose(math.cos(y2), math.cos(x), abs_tol=1e-9)
    assert math.isclose(math.sin(y2), math.sin(x), abs_tol=1e-9)
    assert math.isclose(math.cos(yp), math.cos(x), abs_tol=1e-9)


def test_initial_state_validation(five_node):
    net, _, _ = five_node
    st0 = initial_state(net, np.zeros(5))
    assert st0.couplings.shape == (5, 5)
    assert not st0.couplings.any()
    with pytest.raises(ValueError):
        initial_state(net, np.zeros(4))
    k = np.zeros((5, 5))
    k[0, 0] = 1.0  # no self-edge
    with pytest.raises(ValueError):
        initial_state(net, np.zeros(5), k)


def test_random_couplings_deterministic(five_node):
    net, _, _ = five_node
    a = random_couplings(net, -0.015, 0.015, 7)
    b = random_couplings(net, -0.015, 0.015, 7)
    c = random_couplings(net, -0.015, 0.015, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.abs(a).max() <= 0.015
    assert (a[net.adjacency == 0] == 0).all()
    with pytest.raises(ValueError):
        random_couplings(net, 1.0, -1.0, 0)


def test_cluster_errors_wrap():
    part = ClusterPartition(((0, 1), (2,)))
    phases = np.array([[0.1, 0.1 + 2 * math.pi + 0.2, 5.0]])
    e = cluster_errors(part, phases)
    assert e.shape == (1, 1)
    assert e[0, 0] == pytest.approx(0.2)


def test_two_oscillator_static_analysis():
    res = two_oscillator_static_analysis(0.9, 1.1, 1.0)
    assert res.synchronizable
    assert res.d == pytest.approx(math.asin(0.1), rel=1e-15)
    assert res.mean_freq == 1.0
    res2 = two_oscillator_static_analysis(0.0, 5.0, 1.0)
    assert not res2.synchronizable
    assert math.isnan(res2.d)
    with pytest.raises(ValueError):
        two_oscillator_static_analysis(1.0, 1.0, 0.0)


def test_simulate_static_pair_matches_analysis():
    final_diff, mean_freq = simulate_static_pair(0.9, 1.1, 1.0, e0=0.5, t_end=60.0)
    assert final_diff == pytest.approx(math.asin(0.1), abs=1e-6)
    assert mean_freq == pytest.approx(1.0, abs=1e-6)


def test_identical_oscillators_synchronize():
    final_diff, _ = simulate_static_pair(1.0, 1.0, 1.0, e0=0.3, t_end=30.0)
    assert abs(final_diff) < 1e-9


def test_trajectory_shape_and_stride(five_node):
    net, part, pp = five_node
    st0 = initial_state(net, np.linspace(0, 1, 5))
    traj = simulate(net, pp, st0, t_end=1.0, step=0.01, record_stride=10, partition=part)
    assert traj.times[0] == 0.0
    assert np.allclose(np.diff(traj.times), 0.1)
    assert traj.times[-1] == pytest.approx(1.0)
    assert traj.phases.shape == (len(traj.times), 5)
    assert traj.errors.shape == (len(traj.times), 3)
    assert traj.error_nodes == (1, 2, 4)
    assert len(traj.k_edges) == net.n_edges


def test_phase_shift_equivariance(five_node):
    net, part, pp = five_node
    theta = np.linspace(0, 1, 5)
    k0 = random_couplings(net, -0.01, 0.01, 3)
    a = simulate(net, pp, initial_state(net, theta, k0), 2.0, partition=part)
    b = simulate(net, pp, initial_state(net, theta + 1.234, k0), 2.0, partition=part)
    assert np.allclose(wrap_to_pi(b.phases - a.phases - 1.234), 0.0, atol=1e-10)
    assert np.allclose(a.edge_couplings, b.edge_couplings, atol=1e-10)


def test_coupling_bound(five_node):
    """|k_ij(t)| can never exceed max(|k0|, mu*delta/gamma)."""
    net, part, pp = five_node
    k0 = random_couplings(net, -0.5, 0.5, 11)
    traj = simulate(net, pp, initial_state(net, np.linspace(0, 2, 5), k0), 50.0)
    bound = max(np.abs(k0).max(), pp.mu * pp.delta / pp.gamma) + 1e-12
    assert np.abs(traj.edge_couplings).max() <= bound


def test_rk4_order():
    """Halving the step should cut the error about 16-fold."""
    net = build_network([[0, 1], [1, 0]], [0.9, 1.1])
    pp = PlasticityParams(gamma=1.0, mu=0.5, rule=LearningRule.hebbian())
    st0 = initial_state(net, np.array([0.0, 0.7]))

    def final_phases(step):
        traj = simulate(net, pp, st0, t_end=2.0, step=step, record_stride=int(round(2.0 / step)))
        return traj.phases[-1]

    ref = final_phases(0.0005)
    err_coarse = np.abs(final_phases(0.04) - ref).max()
    err_fine = np.abs(final_phases(0.02) - ref).max()
    ratio = err_coarse / err_fine
    assert 10.0 < ratio < 25.0


def test_simulate_rejects_bad_arguments(five_node):
    net, _, pp = five_node
    st0 = initial_state(net, np.zeros(5))
    with pytest.raises(ValueError):
        simulate(net, pp, st0, t_end=-1.0)
    with pytest.raises(ValueError):
        simulate(net, pp, st0, t_end=1.0, step=0.0)
    with pytest.raises(ValueError):
        simulate(net, pp, st0, t_end=1.0, record_stride=0)


@pytest.mark.filterwarnings("error")
def test_integration_blowup(kernels_c, monkeypatch):
    # RK4 on dk/dt = -gamma k is unstable for step*gamma > 2.78; both kernels
    # report it as IntegrationBlowup alone, with no numpy warning on the way
    net = build_network([[0, 1], [1, 0]], [1.0, 1.0])
    pp = PlasticityParams(gamma=500.0, mu=0.0, rule=LearningRule.hebbian())
    k = np.array([[0.0, 1.0], [1.0, 0.0]])
    for impl in (_kernels_py, kernels_c):
        monkeypatch.setattr(_backend, "_impl", impl)
        with pytest.raises(IntegrationBlowup) as exc:
            simulate(net, pp, initial_state(net, np.zeros(2), k), t_end=50.0, step=0.01)
        assert exc.value.trajectory.n_records >= 1
        assert np.isfinite(exc.value.trajectory.edge_couplings).all()


def test_error_metrics_window(five_node):
    net, part, pp = five_node
    st0 = initial_state(net, np.array([0.0, 0.3, 0.0, 0.0, 0.0]))
    traj = simulate(net, pp, st0, 100.0, partition=part)
    m = error_metrics(traj, tol=0.05)
    assert m.max_error_overall >= m.sup_final_error
    assert m.tolerance == 0.05
    assert m.time_to_tolerance is not None
    # after t_tol the error never exceeds tol again
    idx = np.searchsorted(traj.times, m.time_to_tolerance)
    assert np.abs(traj.errors[idx:]).max() <= 0.05 + 1e-12
    assert set(m.intra_coupling_limits) == {
        (i, j) for i, j in map(tuple, net.edges()) if part.cluster_of()[i] == part.cluster_of()[j]
    }
    window = traj.times >= 0.95 * traj.times[-1]
    for (i, j), limit in m.intra_coupling_limits.items():
        assert limit == traj.couplings[window, i, j].mean()


def test_error_metrics_requires_partition(five_node):
    net, _, pp = five_node
    traj = simulate(net, pp, initial_state(net, np.zeros(5)), 1.0)
    with pytest.raises(ValueError):
        error_metrics(traj)


def test_switch_trivial_when_after_end(five_node):
    net, part, pp = five_node
    adj = net.adjacency.copy()
    adj[0, 1] = 0
    net_after = OscillatorNetwork(adj, net.frequencies)
    st0 = initial_state(net, np.linspace(0, 1, 5))
    a = switch_topology_scenario(net, net_after, pp, st0, t_switch=5.0, t_end=5.0, partition=part)
    b = simulate(net, pp, st0, t_end=5.0, partition=part)
    assert np.array_equal(a.phases, b.phases)
    assert a.k_edges == b.k_edges
    assert np.array_equal(a.edge_couplings, b.edge_couplings)


def test_switch_stitches_exactly(five_node):
    net, part, pp = five_node
    adj = net.adjacency.copy()
    adj[0, 3] = 0
    net_after = OscillatorNetwork(adj, net.frequencies)
    st0 = initial_state(net, np.linspace(0, 1, 5))
    traj = switch_topology_scenario(net, net_after, pp, st0, 2.0, 4.0, partition=part)
    pre = simulate(net, pp, st0, 2.0, partition=part)
    n_pre = pre.n_records
    assert np.allclose(traj.times[:n_pre], pre.times)
    assert np.array_equal(traj.phases[:n_pre], pre.phases)
    # times keep one uniform stride across the switch
    assert np.allclose(np.diff(traj.times), traj.times[1] - traj.times[0])
    assert traj.times[-1] == pytest.approx(4.0)
    # the removed edge stays in the record but its coupling freezes
    assert (0, 3) in set(map(tuple, traj.k_edges))
    col = traj.k_edges.index((0, 3))
    after = traj.times >= 2.0
    frozen = traj.edge_couplings[after, col]
    assert np.all(frozen == frozen[0])
    pre_slice = traj.edge_couplings[~after, col]
    assert not np.all(pre_slice == pre_slice[0])  # it was live before


def test_switch_added_edge_starts_at_zero(five_node):
    net, part, pp = five_node
    adj = net.adjacency.copy()
    adj[0, 1] = 0
    before = OscillatorNetwork(adj, net.frequencies)
    k0 = random_couplings(before, 0.01, 0.01, 0)
    traj = switch_topology_scenario(
        before, net, pp, initial_state(before, np.zeros(5), k0), 1.0, 1.0 + 1e-9, partition=part
    )
    rec = np.searchsorted(traj.times, 1.0)
    assert traj.edge_couplings[rec, traj.k_edges.index((0, 1))] == 0.0


def test_switch_rejects_couplings_off_the_first_network(five_node):
    net, _, pp = five_node
    adj = net.adjacency.copy()
    adj[0, 1] = 0
    before = OscillatorNetwork(adj, net.frequencies)
    st0 = initial_state(net, np.zeros(5), random_couplings(net, 0.01, 0.02, 0))
    with pytest.raises(ValueError, match="no such edge"):
        switch_topology_scenario(before, net, pp, st0, 1.0, 2.0)


def _blowup_switch_case():
    """mu = 0, so every coupling obeys dk/dt = -gamma k on its own, and RK4 at
    step * gamma = 5 multiplies it by R(-5) = 13.7 per step: from |k| <= 1
    it overflows after about 270 steps. The largest coupling sits on edge
    (1, 0), live throughout, so with or without the switch the state passes
    1e295 at t = 2.6 and turns non-finite in the next record: the prefix
    holds 27 records. Edge (0, 2) is removed at the switch and (2, 1) added."""
    freqs = [1.0, 1.2, 0.8]
    before = build_network([[0, 1, 1], [1, 0, 0], [0, 0, 0]], freqs)
    after = build_network([[0, 1, 0], [1, 0, 0], [0, 1, 0]], freqs)
    pp = PlasticityParams(gamma=500.0, mu=0.0, rule=LearningRule.hebbian())
    st0 = initial_state(before, [0.1, 0.5, 2.0], random_couplings(before, 0.5, 1.0, 3))
    return before, after, pp, st0


UNION_EDGES = ((0, 1), (0, 2), (1, 0), (2, 1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernel", ["numpy", "c"])
def test_switch_blowup_before_the_switch(request, monkeypatch, kernel):
    impl = request.getfixturevalue("kernels_c") if kernel == "c" else _kernels_py
    monkeypatch.setattr(_backend, "_impl", impl)
    before, after, pp, st0 = _blowup_switch_case()
    with pytest.raises(IntegrationBlowup) as plain:
        simulate(before, pp, st0, t_end=5.0)
    with pytest.raises(IntegrationBlowup) as switched:
        switch_topology_scenario(before, after, pp, st0, t_switch=5.0, t_end=8.0)
    ref, traj = plain.value.trajectory, switched.value.trajectory

    # leg 1 is the plain run of the first network, cut at the same record
    assert traj.n_records == ref.n_records == 27
    assert switched.value.last_valid_time == pytest.approx(2.6)
    assert switched.value.last_valid_time == plain.value.last_valid_time == traj.times[-1]
    assert np.array_equal(traj.times, ref.times)
    assert np.array_equal(traj.phases, ref.phases)
    assert traj.network is before
    assert traj.k_edges == UNION_EDGES
    live = [UNION_EDGES.index(e) for e in ref.k_edges]
    assert np.array_equal(traj.edge_couplings[:, live], ref.edge_couplings)
    assert (traj.edge_couplings[:, UNION_EDGES.index((2, 1))] == 0.0).all()  # not added yet
    assert np.isfinite(traj.edge_couplings).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kernel", ["numpy", "c"])
def test_switch_blowup_after_the_switch(request, monkeypatch, kernel):
    impl = request.getfixturevalue("kernels_c") if kernel == "c" else _kernels_py
    monkeypatch.setattr(_backend, "_impl", impl)
    before, after, pp, st0 = _blowup_switch_case()
    with pytest.raises(IntegrationBlowup) as switched:
        switch_topology_scenario(before, after, pp, st0, t_switch=1.0, t_end=5.0)
    traj = switched.value.trajectory
    # reference: the plain pre-switch run, then a plain run of the second
    # network from its final state, with the removed edge's coupling dropped
    pre = simulate(before, pp, st0, t_end=1.0)
    k_switch = pre.final_state().couplings.copy()
    k_switch[0, 2] = 0.0
    with pytest.raises(IntegrationBlowup) as plain:
        simulate(after, pp, initial_state(after, pre.phases[-1], k_switch), t_end=4.0)
    post = plain.value.trajectory

    switch = pre.n_records - 1  # record of t = 1.0, shared by both legs
    assert traj.n_records == switch + post.n_records == 27
    assert switched.value.last_valid_time == traj.times[-1] == pytest.approx(2.6)
    assert switched.value.last_valid_time == pytest.approx(1.0 + plain.value.last_valid_time)
    assert np.array_equal(traj.phases[:switch + 1], pre.phases)
    assert np.array_equal(traj.phases[switch:], post.phases)
    assert traj.network is after
    assert traj.k_edges == UNION_EDGES
    live = [UNION_EDGES.index(e) for e in post.k_edges]
    assert np.array_equal(traj.edge_couplings[switch:, live], post.edge_couplings)
    removed = traj.edge_couplings[switch:, UNION_EDGES.index((0, 2))]
    assert (removed == pre.edge_couplings[-1, pre.k_edges.index((0, 2))]).all()
    assert np.isfinite(traj.edge_couplings).all()


def _dense_switch_reference(before, after, pp, st0, n1, n2, step, stride):
    """The dense stitching the edge columns replaced: every record a full
    N x N matrix whose entries off the current network's edges are copied
    through from the start of that leg."""
    kind, offset, table = pp.rule.kernel_encoding()

    def leg(net, theta0, k0, n_steps):
        thetas = np.zeros((n_steps // stride + 1, net.n_nodes))
        kes = np.zeros((thetas.shape[0], net.n_edges))
        thetas[0], kes[0] = theta0, k0[net.adjacency != 0]
        _backend.integrate_network(
            thetas, kes, net.edges(), net.frequencies, pp.gamma, pp.mu,
            kind, offset, table, step, n_steps, stride,
        )
        ks = np.empty((thetas.shape[0],) + k0.shape)
        ks[:] = k0
        ks[:, net.adjacency != 0] = kes
        return thetas, ks

    thetas1, ks1 = leg(before, st0.phases, st0.couplings, n1)
    thetas2, ks2 = leg(after, thetas1[-1], ks1[-1], n2)
    return np.concatenate([thetas1, thetas2[1:]]), np.concatenate([ks1, ks2[1:]])


@pytest.mark.parametrize("kernel", ["numpy", "c"])
def test_switch_edge_history_matches_dense_stitching(request, monkeypatch, five_node, kernel):
    impl = request.getfixturevalue("kernels_c") if kernel == "c" else _kernels_py
    monkeypatch.setattr(_backend, "_impl", impl)
    net, part, pp = five_node
    adj_before, adj_after = net.adjacency.copy(), net.adjacency.copy()
    adj_before[0, 1] = 0  # added at the switch
    adj_after[0, 3] = 0  # removed at the switch
    before = OscillatorNetwork(adj_before, net.frequencies)
    after = OscillatorNetwork(adj_after, net.frequencies)
    st0 = initial_state(before, np.linspace(0.2, 5.0, 5), random_couplings(before, -0.3, 0.3, 8))
    traj = switch_topology_scenario(before, after, pp, st0, 2.0, 4.0, partition=part)
    thetas, ks = _dense_switch_reference(before, after, pp, st0, 200, 200, 0.01, 10)

    recv, src = np.array(traj.k_edges).T
    assert np.array_equal(traj.phases, thetas)
    assert np.array_equal(traj.edge_couplings, ks[:, recv, src])
    final = traj.final_state()
    assert np.array_equal(final.phases, wrap_to_2pi(thetas[-1]))
    assert np.array_equal(final.couplings, ks[-1])
    switch = 20  # record of t = 2.0
    removed, added = traj.k_edges.index((0, 3)), traj.k_edges.index((0, 1))
    assert (traj.edge_couplings[switch:, removed] == ks[switch, 0, 3]).all()
    assert (traj.edge_couplings[:switch + 1, added] == 0.0).all()
    assert (traj.edge_couplings[switch + 1:, added] != 0.0).all()


def test_dense_couplings_view(five_node):
    net, _, pp = five_node
    st0 = initial_state(net, np.linspace(0, 1, 5), random_couplings(net, -0.1, 0.1, 2))
    traj = simulate(net, pp, st0, 1.0)
    assert "couplings" not in traj.__dict__
    dense = traj.couplings
    assert dense.shape == (traj.n_records, 5, 5)
    assert not dense.flags.writeable
    assert traj.couplings is dense  # built once
    recv, src = np.array(traj.k_edges).T
    assert np.array_equal(dense[:, recv, src], traj.edge_couplings)
    assert not dense[:, net.adjacency == 0].any()


def test_large_network_history_stays_on_edges(tmp_path):
    """N = 1000, 12 inputs per node (E = 12,000): simulate, error_metrics and
    trajectory_to_csv read the (records, E) columns; the dense view, 8 MB per
    record here, is never built."""
    n, half = 1000, 500
    rng = np.random.default_rng(3)
    adj = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        own = np.arange(half) + (i // half) * half
        other = np.arange(half) + (1 - i // half) * half
        adj[i, rng.choice(own[own != i], 8, replace=False)] = 1
        adj[i, rng.choice(other, 4, replace=False)] = 1
    net = OscillatorNetwork(adj, np.where(np.arange(n) < half, 1.0, 1.5))
    part = ClusterPartition((tuple(range(half)), tuple(range(half, n))))
    pp = PlasticityParams(gamma=1.0, mu=0.01, rule=LearningRule.hebbian())
    st0 = initial_state(net, rng.uniform(0, 2 * np.pi, n), random_couplings(net, 0.0, 0.02, 5))

    traj = simulate(net, pp, st0, t_end=0.1, step=0.01, record_stride=5, partition=part)
    assert traj.edge_couplings.shape == (3, 12000)
    metrics = error_metrics(traj)
    assert len(metrics.intra_coupling_limits) == 8000
    path = tmp_path / "large.csv"
    trajectory_to_csv(traj, path)
    header, *rows = path.read_text().splitlines()
    assert len(rows) == 3
    assert len(header.split(",")) == 1 + n + (n - 2) + 12000
    assert "couplings" not in traj.__dict__


def test_rhs_full_shapes(five_node):
    net, _, pp = five_node
    st0 = initial_state(net, np.linspace(0, 1, 5), random_couplings(net, -0.01, 0.01, 1))
    dtheta, dk = rhs_full(net, pp, st0)
    assert dtheta.shape == (5,)
    assert dk.shape == (5, 5)
    assert (dk[net.adjacency == 0] == 0).all()
    # with zero couplings the phases just rotate at natural frequency
    dtheta0, _ = rhs_full(net, pp, initial_state(net, np.zeros(5)))
    assert np.allclose(dtheta0, net.frequencies)


def test_trajectory_csv(five_node, tmp_path):
    net, part, pp = five_node
    traj = simulate(net, pp, initial_state(net, np.zeros(5)), 0.2, partition=part)
    path = tmp_path / "run.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1:6] == [f"theta_{i}" for i in range(1, 6)]
    assert "e_2" in header and "k_1_2" in header
    assert len(lines) == 1 + traj.n_records
    # repr round-trip: parse back a value and compare exactly
    first = lines[1].split(",")
    assert float(first[1]) == traj.phases[0, 0]


def _reference_csv_rows(traj):
    """The row writer trajectory_to_csv must match: one repr per indexed value."""
    for rec in range(traj.n_records):
        row = [repr(float(traj.times[rec]))]
        row += [repr(float(v)) for v in traj.phases[rec]]
        if traj.errors is not None:
            row += [repr(float(v)) for v in traj.errors[rec]]
        row += [repr(float(v)) for v in traj.edge_couplings[rec]]
        yield ",".join(row) + "\n"


@pytest.mark.parametrize("with_partition", [True, False])
def test_trajectory_csv_matches_per_value_writer(five_node, tmp_path, with_partition):
    net, part, pp = five_node
    st0 = initial_state(net, np.linspace(0.1, 5.9, 5), random_couplings(net, -0.3, 0.3, 4))
    traj = simulate(net, pp, st0, 2.0, partition=part if with_partition else None)
    path = tmp_path / "run.csv"
    trajectory_to_csv(traj, path)
    header, *rows = path.read_bytes().decode("utf-8").splitlines(keepends=True)
    assert ("e_2" in header) == with_partition
    assert rows == list(_reference_csv_rows(traj))
