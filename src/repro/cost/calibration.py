"""Online EWMA calibration of the raw cost model, plus table persistence.

The raw estimator (:mod:`repro.cost.estimator`) is a static model: it
knows pool sizes and degree distributions but not the constant factors of
the engine (kernel mix, early termination at ``k`` embeddings, budget
truncation). Those factors are graph- and workload-dependent but fairly
stable, which makes them a good fit for online correction: after every
executed query we observe ``ln(actual / raw_estimate)`` and fold it into
an exponentially weighted moving average. ``exp(ewma)`` is then the
multiplicative calibration factor applied to future raw estimates.

A second EWMA tracks the *absolute* log error, which drives the width of
the confidence band reported with every estimate — a freshly built (or
badly mispredicting) calibration yields a wide band, a converged one a
tight band.

State is two floats + a counter per graph, so the whole table
serializes to a tiny JSON document that the service catalog can persist
across restarts (``save_calibration`` / ``load_calibration``).
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

__all__ = [
    "CalibrationState",
    "EwmaCalibration",
    "save_calibration",
    "load_calibration",
    "DEFAULT_EWMA_ALPHA",
]

# Smoothing for both EWMAs. 0.25 reaches ~90% of a level shift within
# eight observations — fast enough to converge inside one benchmark pass,
# slow enough that a single outlier query cannot whipsaw the factor.
DEFAULT_EWMA_ALPHA = 0.25

# Band geometry: band = clamp(exp(BAND_SCALE * ewma_abs_log_err), lo, hi).
# The initial abs-log-error seeds an 8x band for an uncalibrated graph.
_BAND_SCALE = 1.5
_BAND_MIN = 2.0
_BAND_MAX = 64.0
_INITIAL_ABS_LOG_ERR = math.log(8.0) / _BAND_SCALE

# Both observed quantities are offset by +1 before the log so that
# zero-work queries (empty frontier, memo replays of trivial searches)
# stay finite instead of poisoning the average.
_LOG_OFFSET = 1.0


@dataclass(frozen=True)
class CalibrationState:
    """One graph's calibration, as an immutable value.

    :class:`EwmaCalibration` replaces its state on every change and never
    writes to one, so a reader that reads the current object once sees a
    factor, band and count from the same moment, and an unchanged object
    means an unchanged calibration.
    """

    log_bias: float = 0.0
    abs_log_err: float = _INITIAL_ABS_LOG_ERR
    observations: int = 0

    @property
    def factor(self) -> float:
        """Multiplicative correction applied to raw estimates."""
        return math.exp(self.log_bias)

    @property
    def band(self) -> float:
        """Multiplicative half-width of the confidence band (>= 1)."""
        raw = math.exp(_BAND_SCALE * self.abs_log_err)
        return min(_BAND_MAX, max(_BAND_MIN, raw))

    def to_dict(self) -> Dict[str, float]:
        return {
            "log_bias": self.log_bias,
            "abs_log_err": self.abs_log_err,
            "observations": self.observations,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "CalibrationState":
        log_bias = float(data.get("log_bias", 0.0))
        abs_log_err = float(data.get("abs_log_err", _INITIAL_ABS_LOG_ERR))
        observations = int(data.get("observations", 0))
        if not math.isfinite(log_bias):
            log_bias = 0.0
        if not math.isfinite(abs_log_err) or abs_log_err < 0:
            abs_log_err = _INITIAL_ABS_LOG_ERR
        return cls(log_bias, abs_log_err, max(0, observations))


class EwmaCalibration:
    """Thread-safe EWMA over the log estimation error of one graph.

    Writers (:meth:`observe`, :meth:`restore`) serialize on a lock and
    replace the :class:`CalibrationState`; readers take no lock and read
    the current one (:meth:`snapshot`) once.
    """

    __slots__ = ("_alpha", "_state", "_lock")

    def __init__(self, alpha: float = DEFAULT_EWMA_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self._alpha = alpha
        self._state = CalibrationState()
        self._lock = threading.Lock()

    @property
    def factor(self) -> float:
        """Multiplicative correction applied to raw estimates."""
        return self._state.factor

    @property
    def band(self) -> float:
        """Multiplicative half-width of the confidence band (>= 1)."""
        return self._state.band

    @property
    def observations(self) -> int:
        return self._state.observations

    def observe(self, raw_estimate: float, actual: float) -> float:
        """Fold one (raw estimate, actual work) pair into the average.

        Returns the signed log error of this observation. Non-finite or
        negative inputs are ignored (returns 0.0) so a pathological
        caller cannot corrupt the table.
        """
        if not (math.isfinite(raw_estimate) and math.isfinite(actual)):
            return 0.0
        if raw_estimate < 0 or actual < 0:
            return 0.0
        err = math.log(actual + _LOG_OFFSET) - math.log(raw_estimate + _LOG_OFFSET)
        with self._lock:
            state = self._state
            a = self._alpha
            if state.observations == 0:
                self._state = CalibrationState(err, abs(err), 1)
            else:
                self._state = CalibrationState(
                    (1.0 - a) * state.log_bias + a * err,
                    (1.0 - a) * state.abs_log_err + a * abs(err),
                    state.observations + 1,
                )
        return err

    def snapshot(self) -> CalibrationState:
        """The current state: one object, never written to."""
        return self._state

    def restore(self, state: CalibrationState) -> None:
        """Replace the state with a copy of ``state`` (a new object even when
        equal, so whatever was priced at the old one is priced again)."""
        with self._lock:
            self._state = CalibrationState(state.log_bias, state.abs_log_err, state.observations)


# ----------------------------------------------------------------------
# Table persistence: {graph name -> CalibrationState} as JSON.
# ----------------------------------------------------------------------
_TABLE_VERSION = 1


def write_atomically(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` then rename it into place: a failed write
    leaves the previous file whole. Both warm files (this table and the
    catalog's plan specs) are written through it."""
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(target)


def save_calibration(path: Union[str, Path], table: Dict[str, CalibrationState]) -> None:
    """Write a calibration table atomically (:func:`write_atomically`)."""
    payload = {
        "version": _TABLE_VERSION,
        "graphs": {name: state.to_dict() for name, state in sorted(table.items())},
    }
    write_atomically(path, json.dumps(payload, indent=1) + "\n")


def load_calibration(path: Union[str, Path]) -> Optional[Dict[str, CalibrationState]]:
    """Read a calibration table; ``None`` if missing or unreadable.

    A stale or corrupt table must never prevent the service from starting
    — calibration is an optimization, so any parse problem degrades to
    "start uncalibrated".
    """
    target = Path(path)
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("version") != _TABLE_VERSION:
        return None
    graphs = payload.get("graphs")
    if not isinstance(graphs, dict):
        return None
    table: Dict[str, CalibrationState] = {}
    for name, data in graphs.items():
        if not isinstance(data, dict):
            continue
        try:
            table[str(name)] = CalibrationState.from_dict(data)
        except (ValueError, TypeError, OverflowError):
            continue  # a field that does not parse: skipped like a non-dict entry
    return table
