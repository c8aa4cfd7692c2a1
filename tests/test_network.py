import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_kuramoto import (
    ClusterPartition,
    OscillatorNetwork,
    apply_perturbation,
    build_network,
    check_frequencies,
    check_perturbed_conditions,
    compute_cardinalities,
    inter_cluster_structure,
    load_network_file,
    network_from_dict,
    network_to_dict,
    save_network_file,
)


def test_network_validation():
    with pytest.raises(ValueError):
        OscillatorNetwork([[0, 1], [1, 1]], [1.0, 2.0])  # self-loop
    with pytest.raises(ValueError):
        OscillatorNetwork([[0, 2], [1, 0]], [1.0, 2.0])  # entry not 0/1
    with pytest.raises(ValueError):
        OscillatorNetwork([[0, 1], [1, 0]], [1.0])  # frequency count
    with pytest.raises(ValueError):
        OscillatorNetwork([[0, 1, 0], [1, 0, 0]], [1.0, 2.0])  # not square
    net = build_network([[0, 1], [1, 0]], [1.0, 2.0])
    assert net.n_nodes == 2 and net.n_edges == 2


def test_network_arrays_readonly(five_node):
    net, _, _ = five_node
    with pytest.raises(ValueError):
        net.adjacency[0, 1] = 0
    with pytest.raises(ValueError):
        net.frequencies[0] = 9.0


def test_edges_are_receiver_source_row_major():
    net = build_network([[0, 1, 1], [0, 0, 0], [1, 0, 0]], [1.0, 1.0, 1.0])
    assert net.edges().tolist() == [[0, 1], [0, 2], [2, 0]]


def test_partition_validation():
    with pytest.raises(ValueError):
        ClusterPartition(())
    with pytest.raises(ValueError):
        ClusterPartition(((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        ClusterPartition(((0, 1), (3,)))  # gap
    with pytest.raises(ValueError):
        ClusterPartition(((0, 0, 1),))  # repeat
    with pytest.raises(ValueError):
        ClusterPartition(((0, 1), (2,)), representatives=(0, 1))  # rep outside
    part = ClusterPartition(((2, 0, 1), (3,)))
    assert part.clusters == ((0, 1, 2), (3,))
    assert part.representatives == (0, 3)
    assert part.cluster_of().tolist() == [0, 0, 0, 1]
    assert part.non_representatives() == (1, 2)


def test_five_node_cardinalities(five_node):
    net, part, _ = five_node
    card = compute_cardinalities(net, part)
    assert card.c_out == 12
    assert card.c_in == 8
    assert card.c_sr[0][1] == 2
    assert card.c_sr[1][0] == 3
    assert card.c_max == 3
    assert card.a2_holds
    assert card.violations == ()


def test_seven_node_a2(seven_node_original, seven_node_fixed):
    net, part, _ = seven_node_original
    card = compute_cardinalities(net, part)
    assert not card.a2_holds
    # node 7 (index 6) receives two inter-cluster edges, the rest of its
    # cluster receives one
    s, r, counts = card.violations[0]
    assert (s, r) == (1, 0)
    assert dict(counts)[6] == 2
    assert all(c == 1 for node, c in counts if node != 6)
    netf, partf, _ = seven_node_fixed
    cardf = compute_cardinalities(netf, partf)
    assert cardf.a2_holds
    assert cardf.c_sr[0][1] == 1 and cardf.c_sr[1][0] == 1
    assert cardf.c_out == 7


def test_cardinality_consistency(five_node, seven_node_fixed):
    for net, part, _ in (five_node, seven_node_fixed):
        card = compute_cardinalities(net, part)
        assert card.c_in + card.c_out == net.n_edges
        total = sum(
            card.c_sr[s][r] * len(part.clusters[s])
            for s in range(part.m)
            for r in range(part.m)
            if r != s
        )
        assert total == card.c_out  # uniform counts sum back to c_out


def test_check_frequencies(five_node):
    net, part, _ = five_node
    ok, violations = check_frequencies(net, part)
    assert ok and violations == ()
    w = net.frequencies.copy()
    w[1] += 1e-6
    bumped = OscillatorNetwork(net.adjacency, w)
    ok, violations = check_frequencies(bumped, part)
    assert not ok
    assert violations[0][0] == 0  # witness names the violating cluster
    ok, _ = check_frequencies(bumped, part, tol=1e-5)
    assert ok
    with pytest.raises(ValueError):
        check_frequencies(net, part, tol=-1.0)


def test_apply_perturbation_legality(five_node):
    net, _, _ = five_node
    out = apply_perturbation(net, _edit(value=-1))
    assert out.adjacency[0, 1] == 0
    assert out.adjacency.sum() == net.adjacency.sum() - 1
    assert np.array_equal(out.frequencies, net.frequencies)


def _edit(n=5, value=0):
    tilde = np.zeros((n, n), dtype=int)
    tilde[0, 1] = value
    return tilde


# case: (remove edge (0, 1) of the five-node network first, edit, message)
ILLEGAL_EDITS = {
    "diagonal": (False, np.ones((5, 5), dtype=int), "diagonal"),
    "edge-present": (False, _edit(value=1), "already present"),
    "wrong-shape": (False, _edit(n=4), "shape"),
    "entry-2": (False, _edit(value=2), r"-1, 0 or \+1"),
    "remove-absent": (True, _edit(value=-1), "not present"),
}
EDIT_ROUTES = {
    "apply": lambda net, tilde, part, pp: apply_perturbation(net, tilde),
    "perturbed-check": check_perturbed_conditions,
}


@pytest.mark.parametrize("route", EDIT_ROUTES)
@pytest.mark.parametrize("case", ILLEGAL_EDITS)
def test_illegal_edit_rejected(five_node, case, route):
    net, part, pp = five_node
    remove_first, tilde, message = ILLEGAL_EDITS[case]
    if remove_first:
        net = apply_perturbation(net, _edit(value=-1))
    with pytest.raises(ValueError, match=message):
        EDIT_ROUTES[route](net, tilde, part, pp)


def test_inter_cluster_structure(five_node):
    net, part, _ = five_node
    structure = inter_cluster_structure(net, part)
    assert structure.c_out == 12
    assert structure.n_pairs == 2
    assert structure.pairs == ((0, 1), (1, 0))
    # every edge is tagged with its (receiver cluster, source cluster) pair
    cof = part.cluster_of()
    for e, (i, j) in enumerate(structure.edges):
        s, r = cof[i], cof[j]
        p = structure.edge_pair[e]
        assert structure.pairs[p] == (s, r)
    # aggregation rows select exactly the representative-received edges
    assert structure.rep_aggregation.shape == (2, 12)
    assert structure.rep_aggregation.sum(axis=1).tolist() == [2, 3]
    assert structure.rep_counts[0, 1] == 2 and structure.rep_counts[1, 0] == 3
    # intra edges complete the edge set
    assert len(structure.intra_edges) + structure.c_out == net.n_edges


def test_network_dict_round_trip(five_node):
    net, part, _ = five_node
    data = network_to_dict(net, part)
    assert set(data) == {"adjacency", "frequencies", "partition"}
    assert data["partition"] == [[1, 2, 3], [4, 5]]  # 1-based on disk
    net2, part2 = network_from_dict(data)
    assert np.array_equal(net2.adjacency, net.adjacency)
    assert np.array_equal(net2.frequencies, net.frequencies)
    assert part2.clusters == part.clusters


def test_network_dict_rejects_unknown_keys(five_node):
    net, part, _ = five_node
    data = network_to_dict(net, part)
    data["extra"] = 1
    with pytest.raises(ValueError, match="extra"):
        network_from_dict(data)
    missing = network_to_dict(net, part)
    del missing["frequencies"]
    with pytest.raises(ValueError):
        network_from_dict(missing)


def test_network_file_round_trip(five_node, tmp_path):
    net, part, _ = five_node
    path = tmp_path / "net.json"
    save_network_file(path, net, part)
    net2, part2 = load_network_file(path)
    assert np.array_equal(net2.adjacency, net.adjacency)
    assert part2 == part


adjacency_st = st.integers(2, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def _strip_diagonal(rows):
    a = np.asarray(rows, dtype=int)
    np.fill_diagonal(a, 0)
    return a


@given(adjacency_st, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_perturbation_round_trip_property(rows, rnd):
    a = _strip_diagonal(rows)
    n = a.shape[0]
    net = OscillatorNetwork(a, np.ones(n))
    tilde = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            if i != j and rnd.random() < 0.4:
                tilde[i, j] = -1 if a[i, j] == 1 else 1
    out = apply_perturbation(net, tilde)
    back = apply_perturbation(out, -tilde)
    assert np.array_equal(back.adjacency, a)


@given(adjacency_st, st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_cardinalities_count_edges_property(rows, seed):
    a = _strip_diagonal(rows)
    n = a.shape[0]
    rnd = np.random.default_rng(seed)
    cut = int(rnd.integers(1, n))
    part = ClusterPartition((tuple(range(cut)), tuple(range(cut, n))))
    net = OscillatorNetwork(a, np.ones(n))
    card = compute_cardinalities(net, part)
    assert card.c_in + card.c_out == net.n_edges
    assert card.c_out == sum(
        card.per_node_incoming[i][r]
        for i in range(n)
        for r in range(2)
        if r != part.cluster_of()[i]
    )
