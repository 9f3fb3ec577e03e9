"""Seeded Monte Carlo harness.

Scenario: M independent one-sided Gaussian tests.  Truth indicators are
Bernoulli(p); effect sizes are |N(nu, 1)|; observations are N(xi*theta, 1)
with unit variance and a null mean of zero, and p-values are upper-tail.
The allocator-driven procedures receive the generated effect sizes for
every hypothesis (nulls included) as their effect-size inputs.

Reproducibility: each replicate draws from three dedicated Philox
(counter-based) streams keyed by (seed, M, p, nu, replicate, stream), so a
cell's results are bit-identical however replicates or cells are
scheduled, and any cell equals its singleton re-run.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy.special import ndtr

from .allocate import optimal_sizes, sidak_sizes
from .model import RocModel, roc
from .procedures import (
    Decision,
    TruthAssignment,
    decide_bh,
    decide_bonferroni,
    decide_fdr_opt,
    decide_stepdown_sidak,
    decide_strong_fwer,
    decide_weak_fwer,
)

__all__ = [
    "PROCEDURE_TAGS",
    "CellResult",
    "Panel",
    "ReplicateLosses",
    "ReplicateTable",
    "RiskEstimates",
    "ScenarioConfig",
    "efficiency_vs_sidak",
    "generate_panel",
    "risk_metrics",
    "run_cell",
    "run_table",
]

PROCEDURE_TAGS = (
    "weak-fwer-opt",
    "strong-fwer-opt",
    "fdr-opt",
    "bh",
    "stepdown-sidak",
    "bonferroni",
)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell: panel size, alternative proportion, effect-size
    location, budget, replication count, and base seed."""

    M: int
    p: float
    nu: float
    qstar: float
    reps: int
    seed: int
    procedures: tuple[str, ...] = ("fdr-opt", "bh")
    kfwer_levels: tuple[int, ...] = (1,)

    def __post_init__(self):
        if int(self.M) != self.M or self.M < 1:
            raise ValueError(f"M must be a positive integer, got {self.M!r}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        if not math.isfinite(self.nu):
            raise ValueError(f"nu must be finite, got {self.nu!r}")
        if not (0.0 <= self.qstar <= 1.0):
            raise ValueError(f"qstar must lie in [0, 1], got {self.qstar!r}")
        if int(self.reps) != self.reps or self.reps < 1:
            raise ValueError(f"reps must be a positive integer, got {self.reps!r}")
        object.__setattr__(self, "procedures", tuple(self.procedures))
        object.__setattr__(self, "kfwer_levels", tuple(int(k) for k in self.kfwer_levels))
        unknown = [t for t in self.procedures if t not in PROCEDURE_TAGS]
        if unknown:
            raise ValueError(f"unknown procedure tags {unknown}; known: {PROCEDURE_TAGS}")
        if any(k < 1 for k in self.kfwer_levels):
            raise ValueError("kfwer levels must be >= 1")


@dataclass(frozen=True)
class Panel:
    """One replicate: truth, effect sizes, observations, p-values."""

    theta: TruthAssignment
    xi: np.ndarray
    x: np.ndarray
    s: np.ndarray


@dataclass(frozen=True)
class ReplicateLosses:
    """Losses realized by one decision on one panel."""

    false_positives: int
    true_positives: int
    missed: int
    n_alternatives: int
    fdp: float
    mdr_std: float


@dataclass(frozen=True)
class ReplicateTable:
    """Per-replicate loss arrays for one procedure in one cell."""

    fdp: np.ndarray
    mdr_std: np.ndarray
    false_positives: np.ndarray
    true_positives: np.ndarray
    missed: np.ndarray
    n_alternatives: np.ndarray


@dataclass(frozen=True)
class RiskEstimates:
    """Monte Carlo risk estimates with standard errors."""

    fdr: float
    se_fdr: float
    mdr_std: float
    se_mdr_std: float
    fwer: float
    se_fwer: float
    kfwer: Mapping[int, float]
    etp: float
    se_etp: float
    efp: float
    se_efp: float
    reps: int


@dataclass(frozen=True)
class CellResult:
    config: ScenarioConfig
    estimates: dict[str, RiskEstimates]
    replicates: dict[str, ReplicateTable]


def _float_bits(x: float) -> int:
    return int.from_bytes(struct.pack("<d", float(x)), "little")


def _stream(config: ScenarioConfig, rep_index: int, stream_id: int) -> np.random.Generator:
    entropy = (
        int(config.seed) & _MASK64,
        int(config.M),
        _float_bits(config.p),
        _float_bits(config.nu),
        int(rep_index),
        int(stream_id),
    )
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def generate_panel(config: ScenarioConfig, rep_index: int) -> Panel:
    """Draw one replicate, deterministically in (config, rep_index).

    Truth, effect sizes, and observation noise come from three independent
    keyed streams, so any one of them can be varied or replayed without
    disturbing the others.
    """
    if rep_index < 0:
        raise ValueError("rep_index must be >= 0")
    M = config.M
    theta = (_stream(config, rep_index, 0).random(M) < config.p).astype(np.int8)
    xi = np.abs(config.nu + _stream(config, rep_index, 1).standard_normal(M))
    x = xi * theta + _stream(config, rep_index, 2).standard_normal(M)
    s = ndtr(-x)
    return Panel(theta=TruthAssignment(theta), xi=xi, x=x, s=s)


def risk_metrics(decision: Decision, truth: TruthAssignment) -> ReplicateLosses:
    """Single-replicate losses for one decision, with the 0/0 = 0
    convention for the false discovery proportion and for the standardized
    missed-discovery rate when no alternative is true."""
    reject = decision.reject
    theta = truth.theta
    if reject.size != theta.size:
        raise ValueError(f"decision has M={reject.size} but truth has M={theta.size}")
    n_rej = int(reject.sum())
    fp = int((reject & (theta == 0)).sum())
    tp = n_rej - fp
    n_alt = int(theta.sum())
    missed = n_alt - tp
    return ReplicateLosses(
        false_positives=fp,
        true_positives=tp,
        missed=missed,
        n_alternatives=n_alt,
        fdp=fp / n_rej if n_rej > 0 else 0.0,
        mdr_std=missed / n_alt if n_alt > 0 else 0.0,
    )


def efficiency_vs_sidak(model: RocModel, alpha: float) -> float:
    """Average power of the optimal allocation relative to Sidak's, in
    percent: 100 * sum rho_m(eta_m_opt) / sum rho_m(eta_m_Sidak)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    gammas = model.gammas
    opt = optimal_sizes(model, alpha).sizes
    sid = sidak_sizes(model.M, alpha).sizes
    return float(100.0 * roc(gammas, opt).sum() / roc(gammas, sid).sum())


def _decide(tag: str, model: RocModel, s: np.ndarray, budget: float) -> Decision:
    if tag == "weak-fwer-opt":
        return decide_weak_fwer(model, s, budget)
    if tag == "strong-fwer-opt":
        return decide_strong_fwer(model, s, budget)
    if tag == "fdr-opt":
        return decide_fdr_opt(model, s, budget)
    if tag == "bh":
        return decide_bh(s, budget)
    if tag == "stepdown-sidak":
        return decide_stepdown_sidak(s, budget)
    if tag == "bonferroni":
        return decide_bonferroni(s, budget)
    raise ValueError(f"unknown procedure tag {tag!r}")


def _mean_se(values: np.ndarray, reps: int) -> tuple[float, float]:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return mean, se


def _estimates(table: ReplicateTable, levels: tuple[int, ...], reps: int) -> RiskEstimates:
    fdr, se_fdr = _mean_se(table.fdp, reps)
    mdr, se_mdr = _mean_se(table.mdr_std, reps)
    fwer, se_fwer = _mean_se((table.false_positives >= 1).astype(float), reps)
    etp, se_etp = _mean_se(table.true_positives.astype(float), reps)
    efp, se_efp = _mean_se(table.false_positives.astype(float), reps)
    kfwer = {k: float((table.false_positives >= k).mean()) for k in levels}
    return RiskEstimates(
        fdr=fdr, se_fdr=se_fdr, mdr_std=mdr, se_mdr_std=se_mdr,
        fwer=fwer, se_fwer=se_fwer, kfwer=kfwer,
        etp=etp, se_etp=se_etp, efp=efp, se_efp=se_efp, reps=reps,
    )


def run_cell(config: ScenarioConfig) -> CellResult:
    """Run every requested procedure over the cell's replicates and average
    the replicate losses.  Identical configs give identical results."""
    reps = config.reps
    tags = config.procedures
    acc = {
        tag: {
            "fdp": np.empty(reps), "mdr_std": np.empty(reps),
            "false_positives": np.empty(reps, dtype=np.int64),
            "true_positives": np.empty(reps, dtype=np.int64),
            "missed": np.empty(reps, dtype=np.int64),
            "n_alternatives": np.empty(reps, dtype=np.int64),
        }
        for tag in tags
    }
    for rep in range(reps):
        panel = generate_panel(config, rep)
        model = RocModel.from_gammas(panel.xi)
        for tag in tags:
            losses = risk_metrics(_decide(tag, model, panel.s, config.qstar), panel.theta)
            slot = acc[tag]
            slot["fdp"][rep] = losses.fdp
            slot["mdr_std"][rep] = losses.mdr_std
            slot["false_positives"][rep] = losses.false_positives
            slot["true_positives"][rep] = losses.true_positives
            slot["missed"][rep] = losses.missed
            slot["n_alternatives"][rep] = losses.n_alternatives
    replicates = {tag: ReplicateTable(**acc[tag]) for tag in tags}
    estimates = {
        tag: _estimates(replicates[tag], config.kfwer_levels, reps) for tag in tags
    }
    return CellResult(config=config, estimates=estimates, replicates=replicates)


def run_table(
    Ms: Iterable[int],
    ps: Iterable[float],
    nus: Iterable[float],
    qstar: float,
    reps: int,
    seed: int,
    procedures: tuple[str, ...] = ("fdr-opt", "bh"),
    workers: int = 1,
) -> list[CellResult]:
    """Cross-product grid of cells, one CellResult per (M, p, nu).

    Cells are independent and individually seeded, so ``workers > 1``
    distributes whole cells across processes without changing any result.
    """
    configs = [
        ScenarioConfig(M=M, p=p, nu=nu, qstar=qstar, reps=reps, seed=seed,
                       procedures=tuple(procedures))
        for M in Ms for p in ps for nu in nus
    ]
    if workers > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_cell, configs))
    return [run_cell(config) for config in configs]
