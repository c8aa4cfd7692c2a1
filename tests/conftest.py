"""Shared instances: the worked 5-node and 7-node networks, and the C
kernel built from the source tree.

Adjacency rows are receiver-oriented: a[i][j] = 1 means node i receives
from node j.
"""

import math

import numpy as np
import pytest

from adaptive_kuramoto import (
    ClusterPartition,
    LearningRule,
    OscillatorNetwork,
    PlasticityParams,
)
from adaptive_kuramoto import _backend

W2 = math.sqrt(2.0) / 3.0
W45 = math.sqrt(4.0 / 5.0)

SEVEN_ADJ = [
    [0, 1, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, 1],
    [1, 0, 0, 1, 0, 0, 0],
    [0, 1, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, 0, 1],
    [1, 0, 1, 1, 0, 0, 0],
]


@pytest.fixture(scope="session")
def five_node():
    adj = np.ones((5, 5), dtype=int) - np.eye(5, dtype=int)
    w = [0.5, 0.5, 0.5, W2, W2]
    net = OscillatorNetwork(adj, w)
    part = ClusterPartition(((0, 1, 2), (3, 4)))
    pp = PlasticityParams(gamma=1.0, mu=0.01, rule=LearningRule.hebbian())
    return net, part, pp


@pytest.fixture(scope="session")
def seven_node_original():
    w = [0.5, 0.5, 0.5, W45, W45, W45, W45]
    net = OscillatorNetwork(SEVEN_ADJ, w)
    part = ClusterPartition(((0, 1, 2), (3, 4, 5, 6)))
    pp = PlasticityParams(gamma=0.2, mu=0.001, rule=LearningRule.hebbian())
    return net, part, pp


@pytest.fixture(scope="session")
def seven_node_fixed(seven_node_original):
    net, part, pp = seven_node_original
    adj = net.adjacency.copy()
    adj[6, 0] = 0
    return OscillatorNetwork(adj, net.frequencies), part, pp


@pytest.fixture(scope="session")
def kernels_c(tmp_path_factory):
    """The C kernel module, built from the source tree into a temporary
    directory by the package's own loader. Skips only when no C compiler is
    found; a compile error fails the test."""
    try:
        return _backend.load_c_kernel(tmp_path_factory.mktemp("kernels_c"))
    except FileNotFoundError as exc:
        pytest.skip(f"no C compiler ({exc.filename})")
