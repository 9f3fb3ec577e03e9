"""Shared fixtures and the hypothesis profiles.

The full simulation grid (27 cells at 2000 replicates) is expensive, so it
is computed once per session and shared by the FDR-control and
MDR-dominance acceptance tests.

Property tests draw the same examples on every run (the ``tier1`` profile),
so a failure replays; ``pytest --hypothesis-profile explore`` draws fresh
ones and keeps failures in the example database.
"""

import time

import numpy as np
import pytest
from hypothesis import settings

from poweralloc import procedures, run_table
from poweralloc.sim import ScenarioConfig, run_cell

GRID_SEED = 20260809
GRID_QSTAR = 0.1
GRID_REPS = 2000

settings.register_profile("tier1", derandomize=True, print_blob=True)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def paper_grid():
    """All 27 (M, p, nu) cells at q*=0.1, 2000 replicates, plus wall time."""
    start = time.perf_counter()
    cells = run_table(
        Ms=(20, 50, 100),
        ps=(0.1, 0.2, 0.4),
        nus=(1.0, 2.0, 4.0),
        qstar=GRID_QSTAR,
        reps=GRID_REPS,
        seed=GRID_SEED,
        procedures=("fdr-opt", "bh"),
    )
    elapsed = time.perf_counter() - start
    return cells, elapsed


@pytest.fixture(scope="session")
def null_grid():
    """Global-null cells (p = 0) for the FDR band check."""
    return [
        run_cell(
            ScenarioConfig(M=M, p=0.0, nu=2.0, qstar=GRID_QSTAR, reps=GRID_REPS,
                           seed=GRID_SEED, procedures=("fdr-opt",))
        )
        for M in (20, 50)
    ]


class _Passes(list):
    def __init__(self):
        super().__init__()
        self.begun, self.cols = [], []

    def clear(self):
        super().clear()
        self.begun.clear()
        self.cols.clear()


@pytest.fixture
def panel_solves(monkeypatch):
    """The passes over a panel made during a test, which starts with an
    empty memo: one list per call of ``procedures._panel_blocks`` of the
    widths of its column blocks, each block being one ``_size_profile``
    call.  A block of a stack of panels counts the columns of all of them.

    ``cols`` holds each call's scan columns: (n, k) for a stack of n
    panels, as a pass at M <= 128 gives them, and (k,) for one panel, as a
    pass above gives them and the rules' reads past a pass do.  ``begun``
    holds one count per call: of the panels whose pass it began, with the
    first column of the scan.  A pass is one call per block, the step-down
    resume starts past the pass and the step-up probes are single columns
    past it, so only a pass's first block is counted.
    """
    passes = _Passes()
    blocks = procedures._panel_blocks

    def counting(gammas, log_d, rank, cols, anchor=None, scratch=None):
        passes.append([])
        passes.cols.append(cols.copy())
        first = np.take_along_axis(rank, cols[..., :1], axis=-1)
        passes.begun.append(int(np.count_nonzero(first == 0)))
        for block in blocks(gammas, log_d, rank, cols, anchor, scratch):
            passes[-1].append(block[0].size)
            yield block

    monkeypatch.setattr(procedures, "_panel_blocks", counting)
    procedures._panel_memo.cache_clear()
    return passes
