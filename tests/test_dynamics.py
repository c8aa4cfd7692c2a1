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
    assert np.allclose(a.couplings, b.couplings, atol=1e-10)


def test_coupling_bound(five_node):
    """|k_ij(t)| can never exceed max(|k0|, mu*delta/gamma)."""
    net, part, pp = five_node
    k0 = random_couplings(net, -0.5, 0.5, 11)
    traj = simulate(net, pp, initial_state(net, np.linspace(0, 2, 5), k0), 50.0)
    bound = max(np.abs(k0).max(), pp.mu * pp.delta / pp.gamma) + 1e-12
    assert np.abs(traj.couplings).max() <= bound


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
        assert np.isfinite(exc.value.trajectory.couplings).all()


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
    assert np.array_equal(a.couplings, b.couplings)


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
    after = traj.times >= 2.0
    frozen = traj.couplings[after, 0, 3]
    assert np.all(frozen == frozen[0])
    pre_slice = traj.couplings[~after, 0, 3]
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
    assert traj.couplings[rec, 0, 1] == 0.0


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
        row += [repr(float(traj.couplings[rec, i, j])) for i, j in traj.k_edges]
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
