"""Workload Scheduling Unit (WSU): pixel pairing + subtile streaming.

The WSU attacks workload imbalance at two levels (Sec. 5.2):

* *pixel level*: within a subtile, pixels with heavy and light fragment counts
  are paired onto the same RC lane, using the completion order recorded in the
  previous iteration (a FIFO of light pixels and a LIFO of heavy pixels) - the
  model ranks pixels on the previous iteration's fragment counts, passed in
  explicitly as ``reference``, so the pairing is slightly stale, exactly like
  the hardware;
* *subtile level*: subtiles are streamed to whichever RE frees up first rather
  than being statically mapped, which is list scheduling in arrival order.

``schedule`` returns the modelled RE cycles for a whole iteration under a
selectable combination of the two techniques plus the ideal bound, enabling
the Fig. 17(a) ablation.  It is a pure function of its arguments.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.hardware.config import RTGSArchitectureConfig
from repro.hardware.rendering_engine import RenderingEngine


class SchedulingMode(str, Enum):
    """Which imbalance-mitigation techniques are active."""

    NONE = "none"
    STREAMING = "streaming"
    PAIRING = "pairing"
    BOTH = "both"
    IDEAL = "ideal"


_PAIRED_MODES = (SchedulingMode.PAIRING, SchedulingMode.BOTH, SchedulingMode.IDEAL)


@dataclass
class WSUResult:
    """Outcome of scheduling one iteration's subtiles onto the REs."""

    total_cycles: int
    per_engine_cycles: np.ndarray
    imbalance: float  # (max - mean) / max over engines
    mode: SchedulingMode


@dataclass
class WorkloadSchedulingUnit:
    """Models the WSU's pairing tables and streaming dispatch."""

    config: RTGSArchitectureConfig
    engine: RenderingEngine | None = None

    def __post_init__(self) -> None:
        if self.engine is None:
            self.engine = RenderingEngine(self.config)

    # -- pixel-level pairing -----------------------------------------------------
    def pairing(self, current: np.ndarray, reference: np.ndarray | None = None) -> np.ndarray:
        """Heavy/light pairing of each subtile's pixels: rank k with rank n-1-k.

        Pixels are ranked by ``reference`` (the previous iteration's counts)
        when its shape matches ``current``, else by ``current`` itself.
        Returns ``(S, P/2, 2)`` pixel indices into the padded subtile rows.
        """
        stale = reference is not None and np.shape(reference) == np.shape(current)
        source = self.engine.subtile_rows(reference if stale else current)
        order = np.argsort(source, axis=1, kind="stable")
        half = order.shape[1] // 2
        return np.stack([order[:, :half], order[:, ::-1][:, :half]], axis=2)

    def subtile_cycles(
        self,
        current: np.ndarray,
        mode: SchedulingMode = SchedulingMode.BOTH,
        reference: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-subtile ``(forward, backward)`` RE cycles under ``mode``'s pairing."""
        paired = SchedulingMode(mode) in _PAIRED_MODES
        return self.engine.cycles(current, self.pairing(current, reference) if paired else None)

    # -- iteration-level scheduling --------------------------------------------------
    def schedule(
        self,
        current: np.ndarray,
        mode: SchedulingMode = SchedulingMode.BOTH,
        include_backward: bool = True,
        reference: np.ndarray | None = None,
    ) -> WSUResult:
        """Model RE cycles for an iteration's ``(S, P)`` subtile workloads under ``mode``.

        Pairing ranks pixels on ``reference`` (the previous iteration's
        workloads) and falls back to ``current`` when it is ``None`` or
        shaped differently.
        """
        forward, backward = self.subtile_cycles(current, mode, reference)
        return self.dispatch(forward + backward if include_backward else forward, mode)

    def dispatch(self, subtile_cycles: np.ndarray, mode: SchedulingMode) -> WSUResult:
        """Distribute per-subtile cycles over the REs as ``mode`` dictates."""
        mode = SchedulingMode(mode)
        n_engines = self.config.n_rendering_engines
        if subtile_cycles.size == 0:
            return WSUResult(0, np.zeros(n_engines, dtype=np.int64), 0.0, mode)

        if mode == SchedulingMode.IDEAL:
            per_engine = np.full(n_engines, subtile_cycles.sum() / n_engines)
        elif mode in (SchedulingMode.STREAMING, SchedulingMode.BOTH):
            per_engine = self._stream(subtile_cycles, n_engines)
        else:
            # Fixed subtile-to-RE mapping: subtile s runs on RE s mod n.
            engines = np.arange(subtile_cycles.size) % n_engines
            per_engine = np.bincount(engines, weights=subtile_cycles, minlength=n_engines)

        total = int(np.ceil(per_engine.max()))
        mean = float(per_engine.mean())
        imbalance = 0.0 if total == 0 else (total - mean) / total
        return WSUResult(total, per_engine, imbalance, mode)

    # -- internals ----------------------------------------------------------------
    @staticmethod
    def _stream(subtile_cycles: np.ndarray, n_engines: int) -> np.ndarray:
        """Streaming dispatch: the next subtile goes to the earliest-free RE.

        Ties go to the lowest engine index: the heap orders ``(load, engine)``.
        """
        heap = [(0, engine) for engine in range(n_engines)]
        for cycles in subtile_cycles.tolist():
            load, engine = heap[0]
            heapq.heapreplace(heap, (load + cycles, engine))
        per_engine = np.zeros(n_engines, dtype=np.float64)
        for load, engine in heap:
            per_engine[engine] = load
        return per_engine
