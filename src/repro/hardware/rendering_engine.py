"""Rendering Engine (RE) cycle model: Rendering Cores, RBCs and the R&B Buffer.

Each RE processes one 4x4-pixel subtile.  Its 8 Rendering Cores each own two
pixels: every pixel has a dedicated alpha-computing unit (12-cycle latency)
while one alpha-blending unit (3 cycles) is shared by the pair, so a lane's
forward time is governed by the *sum* of its two pixels' fragment counts -
which is exactly why the WSU pairs heavy pixels with light ones.

For Step 4 Rendering BP, the Rendering Backpropagation Core recomputes the
alpha gradient in 20 cycles unless the R&B Buffer supplies the forward-pass
intermediates, which cuts it to 4 cycles and balances the pipeline against the
8-cycle 2D covariance/position gradient unit (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.config import RTGSArchitectureConfig


@dataclass(frozen=True)
class RBBuffer:
    """Rendering & Backpropagation reuse buffer (double-buffered, chunked).

    The buffer prefetches chunks of forward intermediates (``chunk_size``
    values of ``\\hat{C}_{P,k}`` per pixel) while the current chunk is being
    consumed, so reuse only breaks down if a chunk is larger than the buffer
    half reserved for it.
    """

    capacity_kb: float = 16.0
    chunk_size: int = 4
    bytes_per_entry: int = 16  # colour contribution + alpha + transmittance (fp32)

    def chunk_bytes(self, pixels_per_subtile: int) -> int:
        """Bytes needed to hold one chunk for every pixel of a subtile."""
        return self.chunk_size * self.bytes_per_entry * pixels_per_subtile

    def supports_reuse(self, pixels_per_subtile: int) -> bool:
        """True when double buffering fits in the capacity (it does for 4x4 subtiles)."""
        return 2 * self.chunk_bytes(pixels_per_subtile) <= self.capacity_kb * 1024

    def alpha_grad_cycles(
        self, config: RTGSArchitectureConfig, pixels_per_subtile: int | None = None
    ) -> int:
        """Effective alpha-gradient latency given the reuse capability."""
        pixels = pixels_per_subtile or config.pixels_per_subtile
        if self.supports_reuse(pixels):
            return config.alpha_grad_cycles_reuse
        return config.alpha_grad_cycles_baseline


@dataclass
class RenderingEngine:
    """Cycle model of the REs, one subtile per RE."""

    config: RTGSArchitectureConfig
    use_rb_buffer: bool = True
    use_pipeline_balancing: bool = True
    rb_buffer: RBBuffer | None = None

    def __post_init__(self) -> None:
        if self.rb_buffer is None:
            self.rb_buffer = RBBuffer(capacity_kb=self.config.rb_buffer_kb)

    def subtile_rows(self, workloads: np.ndarray) -> np.ndarray:
        """``(S, P)`` per-pixel fragment counts as int64, zero-padded to fill the RE's lanes.

        A subtile smaller than the RE leaves lanes idle, so rows narrower than
        ``pixels_per_subtile`` (or of odd width) gain zero-workload pixels.
        """
        rows = np.asarray(workloads, dtype=np.int64)
        width = rows.shape[1]
        missing = max(self.config.pixels_per_subtile, width + width % 2) - width
        return np.pad(rows, ((0, 0), (0, missing))) if missing else rows

    def cycles(
        self, workloads: np.ndarray, pairing: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Step 3 and Step 4 (pixel-level gradient) cycles of each subtile.

        ``workloads`` holds one row of per-pixel fragment counts per subtile;
        ``pairing`` is an optional ``(S, P/2, 2)`` array of pixel indices
        assigning two pixels to each RC lane (produced by the WSU).  Without
        it pixels are paired in storage order.  Returns ``(forward,
        backward)`` int64 arrays of shape ``(S,)``; empty subtiles cost 0.
        """
        rows = self.subtile_rows(workloads)
        n_subtiles, width = rows.shape
        if pairing is not None:
            rows = np.take_along_axis(rows, np.reshape(pairing, (n_subtiles, width)), axis=1)
        # A lane's time grows with its load, so the heaviest lane sets the subtile's.
        heaviest = rows.reshape(n_subtiles, width // 2, 2).sum(axis=2).max(axis=1).astype(float)
        config = self.config

        if self.use_pipeline_balancing:
            # One fragment per cycle steady state after the pipeline fills.
            forward = heaviest + config.alpha_compute_cycles + config.alpha_blend_cycles
        else:
            # Unbalanced resources: blending serialises behind alpha computing.
            interval = 1 + config.alpha_blend_cycles / max(config.alpha_compute_cycles, 1)
            forward = heaviest * interval + config.alpha_compute_cycles

        if self.use_rb_buffer:
            alpha_grad = self.rb_buffer.alpha_grad_cycles(config)
        else:
            alpha_grad = config.alpha_grad_cycles_baseline
        grad_2d = config.grad_2d_cycles
        if self.use_pipeline_balancing:
            # The initiation interval is set by the slower of the two units
            # relative to the per-fragment budget (Fig. 8): with reuse both fit
            # under the 8-cycle 2D-gradient stage, giving ~1 fragment/cycle.
            interval = max(1.0, alpha_grad / grad_2d)
        else:
            interval = (alpha_grad + grad_2d) / grad_2d
        backward = heaviest * interval + alpha_grad + grad_2d

        busy = heaviest > 0
        return (
            np.where(busy, np.ceil(forward), 0).astype(np.int64),
            np.where(busy, np.ceil(backward), 0).astype(np.int64),
        )
