"""Sufficient conditions for an invariant multi-cluster toroidal manifold.

For a partitioned network with adaptive coupling

    dtheta_i/dt = w_i + sum_j a_ij k_ij sin(theta_j - theta_i)
    dk_ij/dt    = -gamma k_ij + mu Gamma(theta_j - theta_i)

the cluster decomposition persists on an attracting invariant torus when

  (A1) natural frequencies agree within each cluster,
  (A2) every node of P_s receives the same number c_sr of inputs from P_r,
  (A3) with delta = max(sup|Gamma|, sup|Gamma'|), w_min = min_i |w_i|,
       w_max = max_i |w_i|, c_max = max_s sum_{r != s} c_sr:

         lhs_a3   = w_min - mu gamma^-1 delta c_max > 0
         ratio_a3 = 4 mu gamma^-2 delta sqrt(c_out) (sum_{s != r} c_sr)
                    (w_max + mu gamma^-1 delta c_max) / lhs_a3  < 1.

ratio_a3 is also the contraction factor of the successive-approximation
construction of the torus, so it is shared with the torus solver.

The perturbed-topology check is the same check on the edited adjacency
A + tilde_A: counts are taken on the edited network, and its edge total is
c_out + tilde_c_out, where tilde_c_out is the signed sum of the
inter-cluster entries of tilde_A. The two routes agree by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels_py import rule_values
from .network import (
    CardinalityReport,
    ClusterPartition,
    OscillatorNetwork,
    apply_perturbation,
    c_tilde_out,
    check_frequencies,
    compute_cardinalities,
    _readonly,
)

__all__ = [
    "LearningRule",
    "PlasticityParams",
    "ConditionReport",
    "check_cluster_conditions",
    "check_perturbed_conditions",
    "contraction_ratio",
]

_RULE_KINDS = ("hebbian", "shifted-cosine", "tabulated")
_DELTA_GRID = 4096  # refinement grid for tabulated-rule bounds


@dataclass(frozen=True)
class LearningRule:
    """2*pi-periodic plasticity rule Gamma.

    kind "hebbian" is Gamma(s) = cos(s); "shifted-cosine" is cos(s - offset);
    "tabulated" interpolates ``table`` linearly and periodically, with
    table[k] = Gamma(2 pi k / len(table)).
    """

    kind: str
    offset: float = 0.0
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}, expected one of {_RULE_KINDS}")
        if self.kind == "tabulated":
            if self.table is None:
                raise ValueError("tabulated rule needs a sample table")
            table = np.asarray(self.table, dtype=np.float64)
            if table.ndim != 1 or table.size < 3:
                raise ValueError("rule table must be 1-D with at least 3 samples")
            if not np.isfinite(table).all():
                raise ValueError("rule table must be finite")
            object.__setattr__(self, "table", _readonly(table, np.float64))
        elif self.table is not None:
            raise ValueError(f"{self.kind} rule takes no table")
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")

    @classmethod
    def hebbian(cls) -> "LearningRule":
        return cls("hebbian")

    @classmethod
    def shifted_cosine(cls, offset: float) -> "LearningRule":
        return cls("shifted-cosine", offset=float(offset))

    @classmethod
    def tabulated(cls, samples) -> "LearningRule":
        return cls("tabulated", table=np.asarray(samples, dtype=np.float64))

    def __call__(self, s):
        return rule_values(*self.kernel_encoding(), np.asarray(s, dtype=np.float64))

    def derivative(self, s):
        """dGamma/ds; central differences on a 2*pi/4096 stencil for tables."""
        s = np.asarray(s, dtype=np.float64)
        if self.kind == "hebbian":
            return -np.sin(s)
        if self.kind == "shifted-cosine":
            return -np.sin(s - self.offset)
        h = 2.0 * np.pi / _DELTA_GRID
        return (self(s + h) - self(s - h)) / (2.0 * h)

    def c1_bound(self) -> float:
        """delta = max(sup|Gamma|, sup|Gamma'|), the C^1 bound entering (A3)."""
        if self.kind in ("hebbian", "shifted-cosine"):
            return 1.0
        grid = np.linspace(0.0, 2.0 * np.pi, _DELTA_GRID, endpoint=False)
        vals = self(grid)
        slopes = self.derivative(grid)
        return float(max(np.abs(vals).max(), np.abs(slopes).max()))

    # compact encoding consumed by the numeric kernels (no Python callbacks)
    def kernel_encoding(self) -> tuple[int, float, np.ndarray]:
        code = _RULE_KINDS.index(self.kind)
        table = self.table if self.table is not None else np.zeros(0)
        return code, float(self.offset), np.asarray(table, dtype=np.float64)

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "shifted-cosine":
            out["offset"] = self.offset
        if self.kind == "tabulated":
            out["samples"] = self.table.tolist()
        return out


@dataclass(frozen=True)
class PlasticityParams:
    """Decay rate gamma, plasticity gain mu, rule Gamma and its C^1 bound delta.

    delta is computed from the rule when not supplied. mu = 0 is accepted as a
    degenerate limit for tests (couplings decay to zero, ratio_a3 = 0); any
    production use has mu > 0.
    """

    gamma: float
    mu: float
    rule: LearningRule
    delta: float = field(default=0.0)

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be finite and > 0")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValueError("mu must be finite and >= 0")
        delta = self.delta if self.delta else self.rule.c1_bound()
        if not (math.isfinite(delta) and delta > 0):
            raise ValueError("delta must be finite and > 0 (rule cannot be identically zero)")
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "delta", float(delta))

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "mu": self.mu,
            "delta": self.delta,
            "rule": self.rule.to_json_dict(),
        }


def _a3_quantities(
    w_min: float,
    w_max: float,
    pp: PlasticityParams,
    c_max: int,
    sum_c_sr: int,
    c_out_effective: int,
) -> tuple[float, float]:
    """Evaluate the two (A3) quantities. Shared with the closed-form candidate
    scoring of the topology design, so the two agree bit for bit."""
    coupling_sup = pp.mu * pp.delta * c_max / pp.gamma
    lhs = w_min - coupling_sup
    if pp.mu == 0.0:
        return lhs, 0.0
    if lhs <= 0.0:
        return lhs, math.inf
    ratio = (
        4.0
        * pp.mu
        / pp.gamma**2
        * pp.delta
        * math.sqrt(c_out_effective)
        * sum_c_sr
        * (w_max + coupling_sup)
        / lhs
    )
    return lhs, ratio


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the sufficient-condition check with all intermediates.

    When a2_holds is False the (A3) numbers are computed from the per-pair
    maxima for diagnostics and a3_applicable is False; overall is then False
    regardless of a3_holds. ratio_a3 is +inf when lhs_a3 <= 0 (and mu > 0),
    and 0 when mu = 0.
    """

    a1_holds: bool
    a2_holds: bool
    a3_holds: bool
    a3_applicable: bool
    w_min: float
    w_max: float
    lhs_a3: float
    ratio_a3: float
    cardinalities: CardinalityReport
    overall: bool
    gamma: float
    mu: float
    delta: float
    sum_c_sr: int
    c_out_effective: int
    a1_violations: tuple = ()
    c_tilde_out: int | None = None
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        out = {
            "a1_holds": self.a1_holds,
            "a2_holds": self.a2_holds,
            "a3_holds": self.a3_holds,
            "a3_applicable": self.a3_applicable,
            "overall": self.overall,
            "w_min": self.w_min,
            "w_max": self.w_max,
            "lhs_a3": self.lhs_a3,
            "ratio_a3": self.ratio_a3,
            "gamma": self.gamma,
            "mu": self.mu,
            "delta": self.delta,
            "coupling_sup": self.mu * self.delta * self.cardinalities.c_max / self.gamma,
            "sum_c_sr": self.sum_c_sr,
            "c_out_effective": self.c_out_effective,
            "cardinalities": self.cardinalities.to_json_dict(),
            "a1_violations": [
                {"cluster": s + 1, "nodes": [i + 1, j + 1]}
                for s, (i, j) in self.a1_violations
            ],
            "notes": list(self.notes),
        }
        if self.c_tilde_out is not None:
            out["c_tilde_out"] = self.c_tilde_out
        if not math.isfinite(self.ratio_a3):
            out["ratio_a3"] = "inf"
        return out

    def with_notes(self, notes) -> "ConditionReport":
        return replace(self, notes=tuple(self.notes) + tuple(notes))


def check_cluster_conditions(
    net: OscillatorNetwork,
    part: ClusterPartition,
    pp: PlasticityParams,
    freq_tol: float = 0.0,
) -> ConditionReport:
    """Check (A1)-(A3) for a network and partition."""
    a1, a1_violations = check_frequencies(net, part, tol=freq_tol)
    card = compute_cardinalities(net, part)
    w_abs = np.abs(net.frequencies)
    w_min = float(w_abs.min())
    w_max = float(w_abs.max())
    sum_c_sr = int(card.c_sr.sum())
    lhs, ratio = _a3_quantities(w_min, w_max, pp, card.c_max, sum_c_sr, card.c_out)
    a3 = bool(lhs > 0.0 and ratio < 1.0)
    return ConditionReport(
        a1_holds=a1,
        a2_holds=card.a2_holds,
        a3_holds=a3,
        a3_applicable=card.a2_holds,
        w_min=w_min,
        w_max=w_max,
        lhs_a3=lhs,
        ratio_a3=ratio,
        cardinalities=card,
        overall=bool(a1 and card.a2_holds and a3),
        gamma=pp.gamma,
        mu=pp.mu,
        delta=pp.delta,
        sum_c_sr=sum_c_sr,
        c_out_effective=card.c_out,
        a1_violations=a1_violations,
    )


def check_perturbed_conditions(
    net: OscillatorNetwork,
    tilde_a,
    part: ClusterPartition,
    pp: PlasticityParams,
    freq_tol: float = 0.0,
) -> ConditionReport:
    """Check the conditions for the edited topology A + tilde_A.

    This is ``check_cluster_conditions`` on ``apply_perturbation(net,
    tilde_a)``, so counts come from the edited adjacency and the edge total
    is c_out + tilde_c_out by construction. The report also carries
    tilde_c_out, the signed inter-cluster edit sum.
    """
    report = check_cluster_conditions(apply_perturbation(net, tilde_a), part, pp, freq_tol)
    return replace(report, c_tilde_out=c_tilde_out(net, part, tilde_a))


def contraction_ratio(
    net: OscillatorNetwork, part: ClusterPartition, pp: PlasticityParams
) -> float:
    """Contraction factor of the torus iteration (the ratio_a3 quantity).

    Requires uniform inter-cluster counts and lhs_a3 > 0; raises otherwise.
    Returns 0 for mu = 0.
    """
    report = check_cluster_conditions(net, part, pp)
    if not report.a2_holds:
        raise ValueError("inter-cluster counts are not uniform; contraction factor undefined")
    if pp.mu > 0.0 and report.lhs_a3 <= 0.0:
        raise ValueError(f"decay-rate margin is not positive (lhs = {report.lhs_a3})")
    return report.ratio_a3
