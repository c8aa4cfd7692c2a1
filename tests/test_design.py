import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_kuramoto import (
    ClusterPartition,
    DesignResult,
    LearningRule,
    OscillatorNetwork,
    PerturbationMatrix,
    PlasticityParams,
    apply_perturbation,
    brute_force_min_edits,
    c_tilde_out,
    check_perturbed_conditions,
    compute_cardinalities,
    design_topology,
    min_edits_for_targets,
)
from adaptive_kuramoto import design
from adaptive_kuramoto.conditions import _a3_quantities


def test_perturbation_matrix_validation():
    with pytest.raises(ValueError):
        PerturbationMatrix([[0, 2], [0, 0]])
    with pytest.raises(ValueError):
        PerturbationMatrix([[1, 0], [0, 0]])  # diagonal
    with pytest.raises(ValueError):
        PerturbationMatrix([[0, 1, 0], [0, 0, 0]])  # not square
    p = PerturbationMatrix([[0, 1], [-1, 0]])
    assert p.edit_count == 2
    assert p.edges_added() == ((0, 1),)
    assert p.edges_removed() == ((1, 0),)
    assert p.to_json_dict()["entries"] == [[1, 2, 1], [2, 1, -1]]
    z = PerturbationMatrix.zeros(3)
    assert z.edit_count == 0


def test_seven_node_design(seven_node_original):
    net, part, pp = seven_node_original
    result = design_topology(net, part, pp, max_edits=3)
    assert result.feasible
    assert result.edits == 1
    assert result.perturbation.sparse_entries() == ((6, 0, -1),)
    assert result.report.overall
    assert result.report.lhs_a3 == 0.495
    # the report is exactly the perturbed-conditions check of the edit
    direct = check_perturbed_conditions(net, result.perturbation, part, pp)
    assert direct.ratio_a3 == result.report.ratio_a3
    # and applying the perturbation yields a network that satisfies (A2)
    fixed = apply_perturbation(net, result.perturbation)
    assert compute_cardinalities(fixed, part).a2_holds


def test_design_zero_edit_on_satisfying_network(five_node):
    net, part, pp = five_node
    result = design_topology(net, part, pp, max_edits=2)
    assert result.feasible
    assert result.edits == 0
    assert result.perturbation.edit_count == 0
    assert result.report.overall


def test_design_requires_a1(five_node):
    net, part, pp = five_node
    w = net.frequencies.copy()
    w[1] = 0.51
    bumped = OscillatorNetwork(net.adjacency, w)
    with pytest.raises(ValueError):
        design_topology(bumped, part, pp, max_edits=1)


def test_design_infeasible_budget(seven_node_original):
    net, part, pp = seven_node_original
    result = design_topology(net, part, pp, max_edits=0)
    assert not result.feasible
    # diagnostic candidate: cheapest repair needs one edit, over budget
    assert result.edits == 1
    assert result.report is not None
    assert result.perturbation.edit_count == 1


def test_design_infeasible_when_no_candidate_passes(seven_node_original):
    """Cranking mu makes every uniform topology fail (A3); the result is a
    diagnostic with the best failing candidate, never an exception."""
    net, part, _ = seven_node_original
    hot = PlasticityParams(gamma=0.2, mu=0.05, rule=LearningRule.hebbian())
    result = design_topology(net, part, hot, max_edits=3)
    assert not result.feasible
    assert result.report is not None and not result.report.overall
    assert result.perturbation.edit_count <= 3


def test_design_edits_are_inter_cluster_only(seven_node_original, five_node):
    for net, part, pp in (seven_node_original, five_node):
        result = design_topology(net, part, pp, max_edits=4)
        cof = part.cluster_of()
        for i, j, _ in result.perturbation.sparse_entries():
            assert cof[i] != cof[j]


def test_min_edits_for_targets_explicit(five_node):
    net, part, _ = five_node
    # silence all edges from cluster 2 into cluster 1: six removals
    tilde = min_edits_for_targets(net, part, [[0, 0], [3, 0]])
    assert tilde.edit_count == 6
    assert all(v == -1 for _, _, v in tilde.sparse_entries())
    out = apply_perturbation(net, tilde)
    card = compute_cardinalities(out, part)
    assert card.c_sr[0][1] == 0 and card.c_sr[1][0] == 3
    assert card.a2_holds


def test_min_edits_additions_prefer_low_indices(seven_node_original):
    net, part, _ = seven_node_original
    # raising the target to 2 per node forces additions for nodes at count 1
    tilde = min_edits_for_targets(net, part, [[0, 1], [2, 0]])
    out = apply_perturbation(net, tilde)
    assert compute_cardinalities(out, part).a2_holds
    added = [(i, j) for i, j, v in tilde.sparse_entries() if v == 1]
    # node 4 (index 3) receives from node 2 already; the added source is the
    # lowest-index other node of cluster 1
    assert (3, 0) in added


def test_min_edits_target_validation(five_node):
    net, part, _ = five_node
    with pytest.raises(ValueError):
        min_edits_for_targets(net, part, [[0, 3], [0, 0]])  # exceeds |P_2|
    with pytest.raises(ValueError):
        min_edits_for_targets(net, part, [[0, -1], [0, 0]])


def test_c_tilde_out_signed(seven_node_original):
    net, part, _ = seven_node_original
    tilde = np.zeros((7, 7), dtype=int)
    tilde[6, 0] = -1
    assert c_tilde_out(net, part, tilde) == -1
    tilde[0, 6] = 1
    assert c_tilde_out(net, part, tilde) == 0
    tilde[1, 2] = -1  # intra edit does not count
    assert c_tilde_out(net, part, tilde) == 0


def test_brute_force_oracle(seven_node_original):
    net, part, pp = seven_node_original
    assert brute_force_min_edits(net, part, pp, budget=0) is None
    best = brute_force_min_edits(net, part, pp, budget=1)
    assert best is not None and best.feasible
    assert best.edits == 1
    designed = design_topology(net, part, pp, max_edits=1)
    assert best.perturbation.sparse_entries() == designed.perturbation.sparse_entries()


def test_design_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(99)
    rule = LearningRule.hebbian()
    checked = 0
    for _ in range(25):
        n = int(rng.integers(4, 7))
        a = (rng.random((n, n)) < 0.5).astype(int)
        np.fill_diagonal(a, 0)
        cut = int(rng.integers(1, n))
        w = np.empty(n)
        w[:cut] = 1.0
        w[cut:] = 1.3
        net = OscillatorNetwork(a, w)
        part = ClusterPartition((tuple(range(cut)), tuple(range(cut, n))))
        pp = PlasticityParams(gamma=1.0, mu=0.01, rule=rule)
        designed = design_topology(net, part, pp, max_edits=2)
        brute = brute_force_min_edits(net, part, pp, budget=2)
        if brute is None:
            assert not designed.feasible
        else:
            assert designed.feasible
            assert designed.edits == brute.edits  # same minimal edit count
            checked += 1
    assert checked >= 5  # the sample must actually exercise feasible cases


# -- closed-form scoring ------------------------------------------------------


def _closed_form(part, targets):
    """(c_max, sum T, c_out) of the network that realizes ``targets``."""
    rows = targets.sum(axis=1)
    sizes = np.array([len(c) for c in part.clusters])
    return int(rows.max()), int(targets.sum()), int((sizes * rows).sum())


@st.composite
def _realized_targets(draw):
    m = draw(st.sampled_from([2, 3]))
    sizes = [draw(st.integers(1, 3)) for _ in range(m)]
    n = sum(sizes)
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    adj = np.array(bits, dtype=int).reshape(n, n)
    np.fill_diagonal(adj, 0)
    w = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    bounds = np.cumsum([0] + sizes)
    part = ClusterPartition(tuple(tuple(range(bounds[s], bounds[s + 1])) for s in range(m)))
    targets = np.zeros((m, m), dtype=np.int64)
    for s in range(m):
        for r in range(m):
            if r != s:
                targets[s, r] = draw(st.integers(0, sizes[r]))
    rule = draw(st.sampled_from([LearningRule.hebbian(), LearningRule.shifted_cosine(0.7)]))
    pp = PlasticityParams(
        gamma=draw(st.floats(0.1, 2.0)),
        mu=draw(st.sampled_from([0.0, 0.001, 0.01, 0.05, 0.3])),
        rule=rule,
    )
    return OscillatorNetwork(adj, w), part, pp, targets


@given(_realized_targets())
@settings(max_examples=200, deadline=None)
def test_realized_targets_give_the_closed_form(instance):
    """The edit mask for T realizes T exactly, so every (A2)/(A3) input of the
    full check is a function of T, and (A3) is _a3_quantities bit for bit."""
    net, part, pp, targets = instance
    report = check_perturbed_conditions(
        net, min_edits_for_targets(net, part, targets), part, pp
    )
    c_max, total, c_out = _closed_form(part, targets)
    assert np.array_equal(report.cardinalities.c_sr, targets)
    assert report.a2_holds
    assert report.cardinalities.c_max == c_max
    assert report.sum_c_sr == total
    assert report.c_out_effective == c_out
    w_abs = np.abs(net.frequencies)
    lhs, ratio = _a3_quantities(
        float(w_abs.min()), float(w_abs.max()), pp, c_max, total, c_out
    )
    assert report.lhs_a3.hex() == lhs.hex()
    assert report.ratio_a3.hex() == ratio.hex()


def _reference_design(net, part, pp, max_edits):
    """The search with a mask and a full check for every candidate, in the
    same order: the implementation the closed form replaced."""
    per_node = compute_cardinalities(net, part).per_node_incoming
    m = part.m
    pairs = [(s, r) for s in range(m) for r in range(m) if s != r]
    options = []
    for s, r in pairs:
        counts = per_node[list(part.clusters[s]), r]
        upper = min(len(part.clusters[r]), int(counts.max()) + 1)
        options.append({t: int(np.abs(counts - t).sum()) for t in range(upper + 1)})
    candidates = []
    for combo in itertools.product(*(sorted(o) for o in options)):
        cost = sum(options[k][t] for k, t in enumerate(combo))
        matrix = np.zeros((m, m), dtype=np.int64)
        for (s, r), t in zip(pairs, combo):
            matrix[s, r] = t
        cmax = int(matrix.sum(axis=1).max()) if m > 1 else 0
        candidates.append((cost, cmax, int(matrix.sum()), combo, matrix))
    candidates.sort(key=lambda c: c[:4])

    best = None
    fallback = None
    for cost, _cmax, _total, _combo, matrix in candidates:
        affordable = cost <= max_edits
        if not affordable and fallback is not None:
            continue
        tilde = min_edits_for_targets(net, part, matrix)
        report = check_perturbed_conditions(net, tilde, part, pp)
        result = DesignResult(
            feasible=affordable and report.overall,
            edits=tilde.edit_count,
            targets=matrix,
            perturbation=tilde,
            report=report,
        )
        if fallback is None:
            fallback = result
        if not affordable:
            continue
        if result.feasible:
            return result
        ratio_key = report.ratio_a3 if math.isfinite(report.ratio_a3) else math.inf
        if best is None or (ratio_key, cost) < best[:2]:
            best = (ratio_key, cost, result)
    return best[2] if best is not None else fallback


def _random_design_instance(rng):
    m = int(rng.choice([2, 2, 3]))
    sizes = [int(rng.integers(1, 4 if m == 2 else 3)) for _ in range(m)]
    n = sum(sizes)
    adj = (rng.random((n, n)) < rng.uniform(0.2, 0.8)).astype(int)
    np.fill_diagonal(adj, 0)
    levels = rng.permutation([-1.3, -0.9, 0.0, 0.6, 1.0, 1.2])[:m]
    w = np.repeat(levels, sizes)
    bounds = np.cumsum([0] + sizes)
    part = ClusterPartition(tuple(tuple(range(bounds[s], bounds[s + 1])) for s in range(m)))
    rule = (
        LearningRule.hebbian()
        if rng.random() < 0.5
        else LearningRule.shifted_cosine(float(rng.uniform(-1.0, 1.0)))
    )
    pp = PlasticityParams(
        gamma=float(rng.uniform(0.3, 1.5)),
        mu=float(rng.choice([0.0, 0.002, 0.01, 0.05, 0.3])),
        rule=rule,
    )
    return OscillatorNetwork(adj, w), part, pp, int(rng.integers(0, 8))


def test_design_matches_per_candidate_reference():
    rng = np.random.default_rng(2024)
    outcomes = []
    for _ in range(240):
        net, part, pp, budget = _random_design_instance(rng)
        got = design_topology(net, part, pp, max_edits=budget)
        assert got.to_json_dict() == _reference_design(net, part, pp, budget).to_json_dict()
        outcomes.append(got.feasible)
    assert sum(outcomes) >= 50 and outcomes.count(False) >= 50


@pytest.mark.parametrize("max_edits, mu", [(3, None), (0, None), (3, 0.05)])
def test_design_checks_only_the_returned_candidate(seven_node_original, monkeypatch, max_edits, mu):
    net, part, pp = seven_node_original
    if mu is not None:
        pp = PlasticityParams(gamma=pp.gamma, mu=mu, rule=pp.rule)
    calls = {"check_perturbed_conditions": 0, "min_edits_for_targets": 0}
    for name in calls:
        inner = getattr(design, name)

        def counted(*args, _name=name, _inner=inner, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(design, name, counted)
    design_topology(net, part, pp, max_edits=max_edits)
    assert calls == {"check_perturbed_conditions": 1, "min_edits_for_targets": 1}


@pytest.mark.parametrize("field", ["overall", "ratio_a3"])
def test_design_raises_when_the_check_disagrees(seven_node_original, monkeypatch, field):
    net, part, pp = seven_node_original
    real = design.check_perturbed_conditions

    def tampered(*args, **kwargs):
        report = real(*args, **kwargs)
        value = not report.overall if field == "overall" else math.nextafter(report.ratio_a3, 0.0)
        return dataclasses.replace(report, **{field: value})

    monkeypatch.setattr(design, "check_perturbed_conditions", tampered)
    with pytest.raises(RuntimeError, match="disagrees"):
        design_topology(net, part, pp, max_edits=3)


def test_oversized_design_search_fails_fast():
    """Four 3-node clusters with every inter-cluster edge present: each of the
    12 ordered pairs has targets 0..3, so 4**12 candidate tables."""
    n = 12
    adj = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
    w = np.repeat([1.0, 1.1, 1.2, 1.3], 3)
    part = ClusterPartition(tuple(tuple(range(3 * s, 3 * s + 3)) for s in range(4)))
    pp = PlasticityParams(gamma=1.0, mu=0.01, rule=LearningRule.hebbian())
    with pytest.raises(ValueError, match=str(4**12)) as exc:
        design_topology(OscillatorNetwork(adj, w), part, pp, max_edits=5)
    assert str(design.MAX_DESIGN_CANDIDATES) in str(exc.value)
