"""Baselines: first-k, COM interleaving, random-start, enumerate-then-cover."""

from repro.baselines.com import com_search
from repro.baselines.enumerate_then_cover import (
    STRATEGIES,
    generate_all,
    select_top_k,
)
from repro.baselines.firstk import first_k_baseline
from repro.baselines.random_start import random_start_search

__all__ = [
    "com_search",
    "first_k_baseline",
    "random_start_search",
    "STRATEGIES",
    "generate_all",
    "select_top_k",
]
