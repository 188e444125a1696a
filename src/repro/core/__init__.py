"""The paper's contribution: the DSQL two-phase diversified query solver."""

from repro.core.config import VARIANTS, DSQLConfig, variant_config
from repro.core.dsql import DSQL, diversified_search
from repro.core.phase1 import run_phase1, tcand_snapshot
from repro.core.phase2 import run_phase2
from repro.core.result import DSQResult
from repro.core.search import LevelSearchEngine
from repro.core.state import SearchStats, SolutionState

__all__ = [
    "DSQL",
    "diversified_search",
    "DSQLConfig",
    "VARIANTS",
    "variant_config",
    "DSQResult",
    "SearchStats",
    "SolutionState",
    "LevelSearchEngine",
    "run_phase1",
    "run_phase2",
    "tcand_snapshot",
]
