"""GauSPU-style GPU plug-in baseline (MICRO'24), used for the Tab. 7 / Fig. 16 comparison.

GauSPU accelerates 3DGS-SLAM with a large array of rendering engines and
warp-level sparse-pixel sampling, but (per Tab. 1 of the RTGS paper):

* its pixel-redundancy detection counts Gaussians per pixel during tracking
  only and breaks down during mapping, where new Gaussians keep appearing;
* it balances workloads at the tile level only (streaming / tile merging),
  ignoring pixel-level imbalance inside a tile;
* it has no blending-BP computation reuse (no R&B buffer) and merges gradients
  less aggressively than a dedicated GMU.

The model reuses the RTGS unit models with those capabilities switched off and
a GauSPU-sized RE array, attached to the RTX 3090 host used in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hardware.config import DEVICE_SPECS, RTGSArchitectureConfig
from repro.hardware.energy import EnergyBreakdown
from repro.hardware.gpu_model import CostModel, StageLatency
from repro.hardware.plugin import RTGSFeatureFlags, RTGSPlugin
from repro.slam.records import WorkloadSnapshot


def gauspu_architecture() -> RTGSArchitectureConfig:
    """GauSPU-like provisioning: many simple REs, no R&B/GMU-specific buffers."""
    return replace(
        RTGSArchitectureConfig(),
        n_rendering_engines=128 // 8,  # 128 lanes organised as 16 engines of 8 lanes
        rcs_per_re=8,
        n_preprocessing_engines=8,
        n_gmus=1,
        rb_buffer_kb=0.0,
        area_mm2=30.0,
        power_w=9.4,
    )


@dataclass
class GauSPUModel(CostModel):
    """Latency/energy model of a GauSPU-accelerated GPU."""

    host_device: str = "rtx3090"
    workload_scale: float = 1.0
    tracking_pixel_sampling: float = 0.55  # fraction of pixels kept by sparse sampling

    def __post_init__(self) -> None:
        features = RTGSFeatureFlags(
            use_pipeline_balancing=True,
            use_gmu=False,
            use_rb_buffer=False,
            use_wsu=False,
            use_streaming=True,
            reuse_sorting=False,
        )
        self._plugin = RTGSPlugin(
            architecture=gauspu_architecture(),
            host_device=self.host_device,
            features=features,
            workload_scale=self.workload_scale,
        )

    def iteration_cost(
        self, snapshot: WorkloadSnapshot, reference: WorkloadSnapshot | None = None
    ) -> tuple[StageLatency, EnergyBreakdown]:
        """Latency and energy with sparse sampling applied to tracking."""
        latency = self._plugin.iteration_latency(snapshot, reference)
        factor = 1.0
        if snapshot.stage == "tracking":
            # Sparse pixel sampling thins the rendering / BP workload during
            # tracking (its Gaussian set is fixed), but not during mapping.
            factor = self.tracking_pixel_sampling
            latency = StageLatency(
                preprocessing=latency.preprocessing,
                sorting=latency.sorting,
                rendering=latency.rendering * factor,
                rendering_bp=latency.rendering_bp * factor,
                preprocessing_bp=latency.preprocessing_bp,
            )
        # Energy is priced on the sampled latency and the sampled per-pixel
        # counts, like the latency.
        return latency, self._plugin.iteration_energy(snapshot, latency, pixel_fraction=factor)

    @property
    def device_power_w(self) -> float:
        return DEVICE_SPECS["gauspu"].power_w
