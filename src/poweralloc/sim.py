"""Seeded Monte Carlo harness.

Scenario: M independent one-sided Gaussian tests.  Truth indicators are
Bernoulli(p); effect sizes are |N(nu, 1)|; observations are N(xi*theta, 1)
with unit variance and a null mean of zero, and p-values are upper-tail.
The allocator-driven procedures receive the generated effect sizes for
every hypothesis (nulls included) as their effect-size inputs.

A replicate solves one panel: ``run_cell`` calls each requested rule on
the same model and p-values, and the model-based stepwise rules of one
replicate share one pass over its panel (see ``procedures``).

Loss accounting is by array: a cell keeps one (reps, M) rejection matrix
per procedure next to the (reps, M) truth matrix, and the per-replicate
false and true positives, misses, false discovery proportions and
standardized missed-discovery rates come from a few column reductions of
those matrices, with 0/0 = 0 for both rates.

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
from typing import Callable, Iterable, NamedTuple

import numpy as np
from scipy.special import ndtr

from .allocate import _validate_count, optimal_sizes, sidak_sizes
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
    "ReplicateTable",
    "RiskEstimates",
    "ScenarioConfig",
    "efficiency_vs_sidak",
    "generate_panel",
    "run_cell",
    "run_table",
]


class _Procedure(NamedTuple):
    budget: str  # the name of the rule's budget: "alpha" or "q"
    reads_gammas: bool  # whether the rule reads the effect sizes
    rule: Callable[[RocModel | None, np.ndarray, float], Decision]


# The rules are looked up in this module each time they run, not bound
# here: a wrapper put on a name such as ``sim.decide_bh`` (as the
# benchmark's tracer does) must be what every caller reaches.
_CATALOGUE = {
    "weak-fwer-opt": _Procedure("alpha", True, lambda m, s, b: decide_weak_fwer(m, s, b)),
    "strong-fwer-opt": _Procedure("q", True, lambda m, s, b: decide_strong_fwer(m, s, b)),
    "fdr-opt": _Procedure("q", True, lambda m, s, b: decide_fdr_opt(m, s, b)),
    "bh": _Procedure("q", False, lambda m, s, b: decide_bh(s, b)),
    "stepdown-sidak": _Procedure("q", False, lambda m, s, b: decide_stepdown_sidak(s, b)),
    "bonferroni": _Procedure("alpha", False, lambda m, s, b: decide_bonferroni(s, b)),
}
PROCEDURE_TAGS = tuple(_CATALOGUE)
# The procedures a cell runs when none are named.
_DEFAULT_PROCEDURES = ("fdr-opt", "bh")

_MASK64 = (1 << 64) - 1
# Values that Python would read as a number but a parameter refuses.
_NOT_NUMBERS = (bool, np.bool_, str, bytes)


def _integral(value, subject: str) -> int:
    """``value`` as an int; a fraction, a boolean or a string is refused,
    not truncated, read as 0 or 1, or parsed.  The message names
    ``subject``."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value or isinstance(value, _NOT_NUMBERS):
        raise ValueError(f"{subject} must be an integer, got {value!r}")
    return number


def _real(value, subject: str) -> float:
    """``value`` as a float; null, a boolean, a string or a list is
    refused.  The message names ``subject``."""
    if not isinstance(value, _NOT_NUMBERS):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"{subject} must be a number, got {value!r}")


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
    procedures: tuple[str, ...] = _DEFAULT_PROCEDURES

    def __post_init__(self):
        for name, check in (("M", _integral), ("p", _real), ("nu", _real),
                            ("qstar", _real), ("reps", _integral), ("seed", _integral)):
            object.__setattr__(self, name, check(getattr(self, name), name))
        _validate_count(self.M)
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        if not math.isfinite(self.nu):
            raise ValueError(f"nu must be finite, got {self.nu!r}")
        if not (0.0 <= self.qstar <= 1.0):
            raise ValueError(f"qstar must lie in [0, 1], got {self.qstar!r}")
        if self.reps < 1:
            raise ValueError(f"reps must be a positive integer, got {self.reps!r}")
        object.__setattr__(self, "procedures", tuple(self.procedures))
        unknown = [t for t in self.procedures if t not in PROCEDURE_TAGS]
        if unknown:
            raise ValueError(f"unknown procedure tags {unknown}; known: {PROCEDURE_TAGS}")
        repeated = sorted({t for t in self.procedures if self.procedures.count(t) > 1})
        if repeated:
            raise ValueError(f"repeated procedure tags {repeated}; give each tag once")


@dataclass(frozen=True)
class Panel:
    """One replicate: truth, effect sizes, observations, p-values."""

    theta: TruthAssignment
    xi: np.ndarray
    x: np.ndarray
    s: np.ndarray


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


def efficiency_vs_sidak(model: RocModel, alpha: float) -> float:
    """Average power of the optimal allocation relative to Sidak's, in
    percent: 100 * sum rho_m(eta_m_opt) / sum rho_m(eta_m_Sidak)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return _power_vs_sidak(model.gammas, optimal_sizes(model, alpha).sizes, alpha)


def _power_vs_sidak(gammas: np.ndarray, sizes: np.ndarray, alpha: float) -> float:
    """100 * sum rho_m(sizes_m) / sum rho_m(eta_Sidak) at budget alpha."""
    sidak = sidak_sizes(gammas.size, alpha).sizes
    return float(100.0 * roc(gammas, sizes).sum() / roc(gammas, sidak).sum())


def _decide(tag: str, model: RocModel | None, s: np.ndarray, budget: float) -> Decision:
    return _CATALOGUE[tag].rule(model, s, budget)


def _mean_se(values: np.ndarray, reps: int) -> tuple[float, float]:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return mean, se


def _replicate_table(reject: np.ndarray, theta: np.ndarray) -> ReplicateTable:
    """Per-replicate losses of the (reps, M) rejection matrix against the
    (reps, M) 0/1 truth matrix, with the 0/0 = 0 convention for the false
    discovery proportion and for the standardized missed-discovery rate
    when no alternative is true."""
    if reject.shape != theta.shape:
        raise ValueError(f"rejections have shape {reject.shape} but truth has {theta.shape}")
    alternative = theta.astype(bool)
    n_rejected = reject.sum(axis=1)
    false_positives = (reject & ~alternative).sum(axis=1)
    true_positives = n_rejected - false_positives
    n_alternatives = alternative.sum(axis=1)
    missed = n_alternatives - true_positives
    return ReplicateTable(
        fdp=false_positives / np.maximum(n_rejected, 1),
        mdr_std=missed / np.maximum(n_alternatives, 1),
        false_positives=false_positives,
        true_positives=true_positives,
        missed=missed,
        n_alternatives=n_alternatives,
    )


def _estimates(table: ReplicateTable, reps: int) -> RiskEstimates:
    fdr, se_fdr = _mean_se(table.fdp, reps)
    mdr, se_mdr = _mean_se(table.mdr_std, reps)
    fwer, se_fwer = _mean_se((table.false_positives >= 1).astype(float), reps)
    etp, se_etp = _mean_se(table.true_positives.astype(float), reps)
    efp, se_efp = _mean_se(table.false_positives.astype(float), reps)
    return RiskEstimates(
        fdr=fdr, se_fdr=se_fdr, mdr_std=mdr, se_mdr_std=se_mdr,
        fwer=fwer, se_fwer=se_fwer,
        etp=etp, se_etp=se_etp, efp=efp, se_efp=se_efp, reps=reps,
    )


def run_cell(config: ScenarioConfig) -> CellResult:
    """Run every requested procedure over the cell's replicates and average
    the replicate losses.  Identical configs give identical results."""
    reps = config.reps
    tags = config.procedures
    theta = np.empty((reps, config.M), dtype=np.int8)
    rejects = {tag: np.empty((reps, config.M), dtype=bool) for tag in tags}
    for rep in range(reps):
        panel = generate_panel(config, rep)
        theta[rep] = panel.theta.theta
        model = RocModel.from_gammas(panel.xi)
        for tag in tags:
            rejects[tag][rep] = _decide(tag, model, panel.s, config.qstar).reject
    replicates = {tag: _replicate_table(rejects[tag], theta) for tag in tags}
    estimates = {tag: _estimates(replicates[tag], reps) for tag in tags}
    return CellResult(config=config, estimates=estimates, replicates=replicates)


def run_table(
    Ms: Iterable[int],
    ps: Iterable[float],
    nus: Iterable[float],
    qstar: float,
    reps: int,
    seed: int,
    procedures: tuple[str, ...] = _DEFAULT_PROCEDURES,
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
