"""Analytical GPU cost model for the base 3DGS-SLAM implementations.

The model converts a :class:`~repro.slam.records.WorkloadSnapshot` (fragments
processed, tile/Gaussian intersection pairs, gradient updates) into per-stage
latencies for a CUDA GPU, following the proportionality the paper's profiling
establishes: Step 3 Rendering and Step 4 Rendering BP dominate, and Step 4 is
inflated by atomic-add serialisation.  Per-stage throughputs are expressed as
operations per core per cycle so the same model covers the ONX edge GPU and
the RTX 3090 by swapping the :class:`~repro.hardware.config.DeviceSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.atomic import AtomicAddModel, DISTWARModel
from repro.hardware.config import DEVICE_SPECS, DeviceSpec
from repro.hardware.energy import EnergyBreakdown, EnergyModel, EnergyParameters
from repro.slam.records import WorkloadSnapshot


@dataclass
class StageLatency:
    """Per-pipeline-stage latency of one iteration, in seconds."""

    preprocessing: float = 0.0
    sorting: float = 0.0
    rendering: float = 0.0
    rendering_bp: float = 0.0
    preprocessing_bp: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.preprocessing
            + self.sorting
            + self.rendering
            + self.rendering_bp
            + self.preprocessing_bp
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "preprocessing": self.preprocessing,
            "sorting": self.sorting,
            "rendering": self.rendering,
            "rendering_bp": self.rendering_bp,
            "preprocessing_bp": self.preprocessing_bp,
        }

    def __add__(self, other: "StageLatency") -> "StageLatency":
        return StageLatency(
            preprocessing=self.preprocessing + other.preprocessing,
            sorting=self.sorting + other.sorting,
            rendering=self.rendering + other.rendering,
            rendering_bp=self.rendering_bp + other.rendering_bp,
            preprocessing_bp=self.preprocessing_bp + other.preprocessing_bp,
        )


@dataclass(frozen=True)
class GPUCostParameters:
    """Per-item cycle costs of the CUDA kernels (per core)."""

    preprocess_cycles_per_gaussian: float = 220.0
    sort_cycles_per_pair: float = 14.0
    forward_cycles_per_fragment: float = 32.0
    backward_cycles_per_fragment: float = 78.0
    preprocess_bp_cycles_per_gaussian: float = 260.0
    pose_reduce_cycles_per_gaussian: float = 12.0
    # Fraction of the nominal core-cycles/second actually sustained by these
    # memory-bound kernels.
    utilization: float = 0.35
    # Share of Step 1 Preprocessing that is view-independent (covariance
    # assembly, opacity activation, SH/colour evaluation).  Batched mapping
    # computes it once per window, so views of a batch are charged that share
    # at 1/batch_size; the view-dependent remainder (camera transform, EWA
    # linearisation, culling) is charged in full per view.
    shared_preprocess_fraction: float = 0.6
    # Geometry-cache amortisation (repro.gaussians.geom_cache).  A cache hit
    # reuses the full Step 1-2 pipeline, paying only the epoch check and the
    # buffer handoff; a refresh render additionally gathers fresh
    # per-Gaussian colours/opacities (a fraction of Step 1) while still
    # skipping Step 2 sorting entirely.
    cache_hit_step12_fraction: float = 0.03
    cache_splice_preprocess_fraction: float = 0.15


class EdgeGPUModel:
    """Latency + energy model of a base algorithm running on a CUDA GPU."""

    def __init__(
        self,
        device: DeviceSpec | str = "onx",
        parameters: GPUCostParameters | None = None,
        use_distwar: bool = False,
        workload_scale: float = 1.0,
    ):
        if isinstance(device, str):
            device = DEVICE_SPECS[device]
        self.device = device
        self.parameters = parameters or GPUCostParameters()
        self.use_distwar = use_distwar
        self.workload_scale = float(workload_scale)
        self._atomic = AtomicAddModel()
        self._distwar = DISTWARModel()
        self.energy_model = EnergyModel(
            EnergyParameters.for_technology(device.technology_nm),
            static_power_w=device.power_w,
        )

    # -- latency ------------------------------------------------------------------
    def _seconds(self, cycles: float) -> float:
        utilization = getattr(self.device, "kernel_utilization", self.parameters.utilization)
        throughput = self.device.n_cores * self.device.frequency_ghz * 1e9 * utilization
        return cycles / throughput

    def iteration_latency(self, snapshot: WorkloadSnapshot) -> StageLatency:
        """Per-stage latency of one tracking/mapping iteration."""
        params = self.parameters
        scale = self.workload_scale
        n_projected = snapshot.n_projected * scale
        n_pairs = snapshot.n_tile_pairs * scale
        fragments = snapshot.total_fragments * scale
        updates = snapshot.total_pixel_level_updates * scale

        preprocessing = n_projected * params.preprocess_cycles_per_gaussian
        if snapshot.batch_size > 1:
            # Per-view snapshot of a batched mapping window: the
            # view-independent share of Step 1 was computed once for the
            # whole window, so each view carries 1/batch_size of it.
            shared = params.shared_preprocess_fraction
            preprocessing *= (1.0 - shared) + shared / snapshot.batch_size
        sorting = n_pairs * params.sort_cycles_per_pair * max(np.log2(max(n_pairs, 2)), 1.0)
        if snapshot.cache_status == "hit":
            # Step 1-2 served from the geometry cache: only revalidation cost.
            preprocessing *= params.cache_hit_step12_fraction
            sorting *= params.cache_hit_step12_fraction
        elif snapshot.cache_status == "refresh":
            # Cached geometry with a fresh appearance gather; sorting and
            # tiling are reused wholesale.
            preprocessing *= params.cache_splice_preprocess_fraction
            sorting *= params.cache_hit_step12_fraction
        rendering = fragments * params.forward_cycles_per_fragment

        rendering_bp = 0.0
        preprocessing_bp = 0.0
        if snapshot.includes_backward:
            rendering_bp = updates * params.backward_cycles_per_fragment
            aggregator = self._distwar if self.use_distwar else self._atomic
            rendering_bp += aggregator.aggregation_cycles(snapshot) * scale
            preprocessing_bp = n_projected * params.preprocess_bp_cycles_per_gaussian
            if snapshot.stage == "tracking":
                preprocessing_bp += n_projected * params.pose_reduce_cycles_per_gaussian

        # Atomic serialisation stalls the whole SM, so it does not parallelise
        # across cores the way the other terms do; approximate by charging it
        # at reduced effective parallelism.
        return StageLatency(
            preprocessing=self._seconds(preprocessing),
            sorting=self._seconds(sorting),
            rendering=self._seconds(rendering),
            rendering_bp=self._seconds(rendering_bp),
            preprocessing_bp=self._seconds(preprocessing_bp),
        )

    def frame_latency(self, snapshots: list[WorkloadSnapshot]) -> StageLatency:
        """Total per-stage latency over all iterations of one frame."""
        total = StageLatency()
        for snapshot in snapshots:
            total = total + self.iteration_latency(snapshot)
        return total

    # -- energy ---------------------------------------------------------------------
    def iteration_energy(self, snapshot: WorkloadSnapshot) -> EnergyBreakdown:
        """Energy of one iteration: dynamic op/memory energy + static power x latency."""
        latency = self.iteration_latency(snapshot).total
        scale = self.workload_scale
        fragments = snapshot.total_fragments * scale
        updates = snapshot.total_pixel_level_updates * scale
        n_projected = snapshot.n_projected * scale
        compute_ops = fragments * 40 + updates * 90 + n_projected * 300
        # GPU gradient aggregation bounces through L2/DRAM; rendering streams
        # Gaussian parameters from DRAM each iteration.
        l2_accesses = fragments * 2 + updates * 3
        dram_accesses = n_projected * 14 + updates * 1.5
        return self.energy_model.energy(
            compute_ops=compute_ops,
            sram_accesses=fragments,
            l2_accesses=l2_accesses,
            dram_accesses=dram_accesses,
            latency_s=latency,
        )

    def frame_energy(self, snapshots: list[WorkloadSnapshot]) -> EnergyBreakdown:
        total = EnergyBreakdown()
        for snapshot in snapshots:
            total = total + self.iteration_energy(snapshot)
        return total
