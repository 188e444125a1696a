"""Baselines: first-k, COM interleaving, random-start, enumerate-then-cover."""

from repro.baselines.com import COMResult, com_search
from repro.baselines.enumerate_then_cover import (
    STRATEGIES,
    generate_all,
    select_top_k,
)
from repro.baselines.firstk import FirstKResult, first_k_baseline
from repro.baselines.random_start import RandomStartResult, random_start_search

__all__ = [
    "COMResult",
    "com_search",
    "FirstKResult",
    "first_k_baseline",
    "RandomStartResult",
    "random_start_search",
    "STRATEGIES",
    "generate_all",
    "select_top_k",
]
