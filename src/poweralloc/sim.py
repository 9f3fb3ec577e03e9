"""Seeded Monte Carlo harness.

Scenario: M independent one-sided Gaussian tests.  Truth indicators are
Bernoulli(p); effect sizes are |N(nu, 1)|; observations are N(xi*theta, 1)
with unit variance and a null mean of zero, and p-values are upper-tail.
The allocator-driven procedures receive the generated effect sizes for
every hypothesis (nulls included) as their effect-size inputs.

A cell is decided as a stack: ``run_cell`` draws its replicates' panels,
one model per replicate, and opens them as one stack
(``allocate.stacked``).  It then decides replicate by replicate, each
rule once per replicate through ``decide``, but the rules' solves are
made for the stack: the weak-FWER rule's first call runs every
replicate's multiplier search in lockstep, and at M <= 128 the
model-based stepwise rules make the passes of SOLVE_BLOCK // (16 M)
replicates together, 16 columns of each at a time.  The first rule that
asks solves each replicate's pass until that rule is decided on it, and
the second extends only the passes it needs more of, so a pass stops
where both rules are decided or W saturates: a cell reads no W, so its
passes are not solved on to where W saturates (see ``procedures`` and
``allocate``).  Every replicate's decision is bitwise the one it gets
alone.  A cell of more than ``CELL_BLOCK`` p-values is
stacked a run of whole replicates at a time, so a cell's working memory
does not grow with its replicate count.

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
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np
from scipy.special import ndtr

from .allocate import _validate_count, optimal_sizes, sidak_sizes, stacked
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
    "decide",
    "efficiency_vs_sidak",
    "generate_panel",
    "run_cell",
    "run_table",
]


class _Procedure(NamedTuple):
    budget: str  # the name of the rule's budget: "alpha" or "q"
    below_one: bool  # whether the budget lies in [0, 1), not [0, 1]
    reads_gammas: bool  # whether the rule reads the effect sizes
    rule: Callable[[RocModel | None, np.ndarray, float], Decision]


# The rules are looked up in this module each time they run, not bound
# here: a wrapper put on a name such as ``sim.decide_bh`` (as the
# benchmark's tracer does) must be what every caller reaches.  The weak
# FWER rule's budget is an allocation's, which must be below 1.
_CATALOGUE = {
    "weak-fwer-opt": _Procedure("alpha", True, True, lambda m, s, b: decide_weak_fwer(m, s, b)),
    "strong-fwer-opt": _Procedure("q", False, True, lambda m, s, b: decide_strong_fwer(m, s, b)),
    "fdr-opt": _Procedure("q", False, True, lambda m, s, b: decide_fdr_opt(m, s, b)),
    "bh": _Procedure("q", False, False, lambda m, s, b: decide_bh(s, b)),
    "stepdown-sidak": _Procedure("q", False, False, lambda m, s, b: decide_stepdown_sidak(s, b)),
    "bonferroni": _Procedure("alpha", False, False, lambda m, s, b: decide_bonferroni(s, b)),
}
PROCEDURE_TAGS = tuple(_CATALOGUE)
# The procedures a cell runs when none are named.
_DEFAULT_PROCEDURES = ("fdr-opt", "bh")

# The most p-values a cell opens as one stack (1 MB of them).
CELL_BLOCK = 1 << 17

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
        if self.qstar == 1.0:
            below_one = [t for t in self.procedures if _CATALOGUE[t].below_one]
            if below_one:
                raise ValueError(f"qstar must lie in [0, 1) for {below_one}, whose budget "
                                 f"is an allocation's, got {self.qstar!r}")


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
    sidak = sidak_sizes(gammas.size, alpha).sizes[:1]  # one size, broadcast
    return float(100.0 * roc(gammas, sizes).sum() / roc(gammas, sidak).sum())


def decide(tag: str, model: RocModel | None, s, budget: float) -> Decision:
    """The decision of the procedure ``tag`` (one of ``PROCEDURE_TAGS``) at
    ``budget`` on one panel, its model and p-values; the p-value-only rules
    ignore ``model``.  Within ``allocate.stacked``, a panel of the stack
    is solved with the others (see the module docstring)."""
    return _CATALOGUE[tag].rule(model, s, budget)


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
    """The mean and standard error over the replicates of the false
    discovery proportion, the standardized missed-discovery rate, any false
    positive (the FWER), and the true and false positive counts; each row's
    mean and standard deviation are those of the row alone."""
    values = np.stack([table.fdp, table.mdr_std, table.false_positives >= 1,
                       table.true_positives, table.false_positives]).astype(float)
    means = values.mean(axis=1)
    ses = values.std(axis=1, ddof=1) / math.sqrt(reps) if reps > 1 else np.zeros(5)
    (fdr, mdr, fwer, etp, efp), (se_fdr, se_mdr, se_fwer, se_etp, se_efp) = (
        means.tolist(), ses.tolist())
    return RiskEstimates(
        fdr=fdr, se_fdr=se_fdr, mdr_std=mdr, se_mdr_std=se_mdr,
        fwer=fwer, se_fwer=se_fwer,
        etp=etp, se_etp=se_etp, efp=efp, se_efp=se_efp, reps=reps,
    )


def run_cell(config: ScenarioConfig) -> CellResult:
    """Run every requested procedure over the cell's replicates and average
    the replicate losses.  Identical configs give identical results.

    The replicates are solved as stacks of at most ``CELL_BLOCK`` p-values
    (see the module docstring)."""
    reps, M = config.reps, config.M
    tags = config.procedures
    theta = np.empty((reps, M), dtype=np.int8)
    rejects = {tag: np.empty((reps, M), dtype=bool) for tag in tags}
    per_stack = max(1, CELL_BLOCK // M)
    for r0 in range(0, reps, per_stack):
        rows = range(r0, min(reps, r0 + per_stack))
        panels = [generate_panel(config, rep) for rep in rows]
        models = [RocModel.from_gammas(panel.xi) for panel in panels]
        with stacked(models, np.stack([panel.s for panel in panels])):
            for rep, panel, model in zip(rows, panels, models):
                theta[rep] = panel.theta.theta
                for tag in tags:
                    rejects[tag][rep] = decide(tag, model, panel.s, config.qstar).reject
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
        # Imported here: only a parallel run needs multiprocessing, and
        # importing it costs every process that imports this module.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_cell, configs))
    return [run_cell(config) for config in configs]
