"""The RTGS plug-in system model: GPU host + RE/WSU/R&B/GMU/PE accelerator.

``RTGSPlugin`` turns per-iteration workload snapshots into per-stage latency
and energy, with the workload partitioning of Sec. 5.5: the host GPU keeps
Step 1 Preprocessing and Step 2 Sorting (plus the pruning bookkeeping), while
the plug-in executes Step 3 Rendering, Step 4 Rendering BP and Step 5
Preprocessing BP.  Feature flags expose every technique individually so the
Fig. 17(b) speedup-breakdown ablation can be generated by toggling them.

``evaluate_configurations`` is the harness used by the benchmark suite to
compare the ONX baseline, DISTWAR, GauSPU and RTGS on the same SLAM run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.atomic import AtomicAddModel
from repro.hardware.config import DEVICE_SPECS, DeviceSpec, RTGSArchitectureConfig
from repro.hardware.energy import EnergyBreakdown, EnergyModel, EnergyParameters
from repro.hardware.gmu import GradientMergingUnit
from repro.hardware.gpu_model import CostModel, EdgeGPUModel, GPUCostParameters, StageLatency
from repro.hardware.preprocessing_engine import PreprocessingEngine
from repro.hardware.rendering_engine import RenderingEngine
from repro.hardware.wsu import SchedulingMode, WorkloadSchedulingUnit
from repro.metrics.performance import FPSMeter
from repro.slam.records import WorkloadSnapshot


@dataclass
class RTGSFeatureFlags:
    """Which hardware techniques are enabled (all on = full RTGS)."""

    use_pipeline_balancing: bool = True
    use_gmu: bool = True
    use_rb_buffer: bool = True
    use_wsu: bool = True
    use_streaming: bool = True
    reuse_sorting: bool = True

    def scheduling_mode(self) -> SchedulingMode:
        if self.use_wsu and self.use_streaming:
            return SchedulingMode.BOTH
        if self.use_wsu:
            return SchedulingMode.PAIRING
        if self.use_streaming:
            return SchedulingMode.STREAMING
        return SchedulingMode.NONE


class RTGSPlugin(CostModel):
    """Latency/energy model of a GPU with the RTGS plug-in attached."""

    def __init__(
        self,
        architecture: RTGSArchitectureConfig | None = None,
        host_device: DeviceSpec | str = "onx",
        features: RTGSFeatureFlags | None = None,
        workload_scale: float = 1.0,
    ):
        self.architecture = architecture or RTGSArchitectureConfig()
        if isinstance(host_device, str):
            host_device = DEVICE_SPECS[host_device]
        self.host_device = host_device
        self.features = features or RTGSFeatureFlags()
        self.workload_scale = float(workload_scale)

        engine = RenderingEngine(
            self.architecture,
            use_rb_buffer=self.features.use_rb_buffer,
            use_pipeline_balancing=self.features.use_pipeline_balancing,
        )
        self.wsu = WorkloadSchedulingUnit(self.architecture, engine=engine)
        self.gmu = GradientMergingUnit(self.architecture)
        self.pe = PreprocessingEngine(self.architecture)
        self._atomic = AtomicAddModel()
        self._host_gpu = EdgeGPUModel(
            host_device, GPUCostParameters(), workload_scale=workload_scale
        )
        self.energy_model = EnergyModel(
            EnergyParameters.for_technology(28),
            static_power_w=self.architecture.power_w,
        )

    # -- latency -----------------------------------------------------------------
    def _seconds(self, cycles: float) -> float:
        return cycles / self.architecture.frequency_hz

    def iteration_latency(
        self, snapshot: WorkloadSnapshot, reference: WorkloadSnapshot | None = None
    ) -> StageLatency:
        """Per-stage latency of one iteration on GPU + RTGS plug-in.

        The WSU pairs pixels on ``reference``'s workloads (the previous
        iteration), or on ``snapshot``'s own when there is none; forward and
        backward share that pairing.
        """
        host = self._host_gpu.iteration_latency(snapshot)
        sorting_reuse = 0.25 if self.features.reuse_sorting else 1.0

        mode = self.features.scheduling_mode()
        forward, backward = self.wsu.subtile_cycles(
            snapshot.pixel_workloads_per_subtile(),
            mode,
            None if reference is None else reference.pixel_workloads_per_subtile(),
        )
        forward_cycles = self.wsu.dispatch(forward, mode).total_cycles

        scale = self.workload_scale
        rendering = self._seconds(forward_cycles * scale)

        rendering_bp = 0.0
        preprocessing_bp = 0.0
        if snapshot.includes_backward:
            combined_cycles = self.wsu.dispatch(forward + backward, mode).total_cycles
            backward_cycles = max(combined_cycles - forward_cycles, 0)
            if self.features.use_gmu:
                merge_cycles = self.gmu.merging_cycles(snapshot)
                # The GMU pipeline overlaps with the RBCs; only the excess shows.
                bp_cycles = max(backward_cycles, merge_cycles)
            else:
                # Without a GMU the aggregation falls back to atomic updates,
                # spread over the parallel accumulator lanes the plug-in has.
                lanes = max(self.architecture.n_gmus * self.architecture.gmu_inputs_per_cycle, 1)
                bp_cycles = backward_cycles + self._atomic.aggregation_cycles(snapshot) / lanes
            rendering_bp = self._seconds(bp_cycles * scale)
            preprocessing_bp = self._seconds(self.pe.preprocessing_bp_cycles(snapshot) * scale)

        return StageLatency(
            preprocessing=host.preprocessing,
            sorting=host.sorting * sorting_reuse,
            rendering=rendering,
            rendering_bp=rendering_bp,
            preprocessing_bp=preprocessing_bp,
        )

    def iteration_cost(
        self, snapshot: WorkloadSnapshot, reference: WorkloadSnapshot | None = None
    ) -> tuple[StageLatency, EnergyBreakdown]:
        """Latency of one iteration and its energy (:meth:`iteration_energy`)."""
        latency = self.iteration_latency(snapshot, reference)
        return latency, self.iteration_energy(snapshot, latency)

    def iteration_energy(
        self, snapshot: WorkloadSnapshot, latency: StageLatency, pixel_fraction: float = 1.0
    ) -> EnergyBreakdown:
        """Plug-in dynamic energy of the iteration's counts + static power x ``latency``.

        ``pixel_fraction`` scales the per-pixel counts (fragments and
        pixel-level updates) for a model that renders only that fraction of
        the pixels.
        """
        scale = self.workload_scale
        fragments = snapshot.total_fragments * scale * pixel_fraction
        updates = snapshot.total_pixel_level_updates * scale * pixel_fraction
        n_projected = snapshot.n_projected * scale
        compute_ops = fragments * 40 + updates * 60 + n_projected * 220
        # Dedicated SRAMs capture almost all intermediate traffic; the Gaussian
        # Sharing Cache spills to L2, and DRAM only sees the initial parameter
        # fetch (further reduced by sorting reuse).
        sram_accesses = fragments * 3 + updates * 2
        l2_accesses = n_projected * 4
        dram_accesses = n_projected * 2
        energy = self.energy_model.energy(
            compute_ops=compute_ops,
            sram_accesses=sram_accesses,
            l2_accesses=l2_accesses,
            dram_accesses=dram_accesses,
            latency_s=latency.total,
        )
        # Host GPU static power while it performs preprocessing + sorting.
        energy.static_j += self.host_device.power_w * (latency.preprocessing + latency.sorting)
        return energy


# -- system-level evaluation helpers ------------------------------------------------
@dataclass
class SystemEvaluation:
    """FPS and energy of one SLAM run on one hardware configuration."""

    name: str
    tracking_fps: float
    overall_fps: float
    energy_per_frame_j: float
    meter: FPSMeter = field(repr=False, default=None)


def _group_snapshots_by_frame(
    snapshots: list[WorkloadSnapshot],
) -> dict[int, dict[str, list[WorkloadSnapshot]]]:
    grouped: dict[int, dict[str, list[WorkloadSnapshot]]] = {}
    for snapshot in snapshots:
        frame = grouped.setdefault(snapshot.frame_index, {"tracking": [], "mapping": []})
        frame[snapshot.stage].append(snapshot)
    return grouped


def evaluate_system(
    snapshots: list[WorkloadSnapshot],
    model,
    name: str,
    accelerate_mapping: bool = True,
    baseline_mapping_model=None,
) -> SystemEvaluation:
    """Model FPS/energy for a SLAM run's snapshots on ``model``.

    ``accelerate_mapping=False`` reproduces the paper's "Ours w/o Mapping"
    configuration: tracking runs on the accelerator while mapping falls back
    to ``baseline_mapping_model`` (the plain GPU).
    """
    meter = FPSMeter()
    energy_total = 0.0
    accelerated = accelerate_mapping or baseline_mapping_model is None
    mapping_model = model if accelerated else baseline_mapping_model
    for _, stages in sorted(_group_snapshots_by_frame(snapshots).items()):
        tracking_latency, tracking_energy = model.frame_cost(stages["tracking"])
        mapping_latency, mapping_energy = mapping_model.frame_cost(stages["mapping"])
        meter.add_frame(tracking=tracking_latency.total, mapping=mapping_latency.total)
        energy_total += tracking_energy.total_j
        energy_total += mapping_energy.total_j
    n_frames = max(meter.n_frames, 1)
    return SystemEvaluation(
        name=name,
        tracking_fps=meter.tracking_fps,
        overall_fps=meter.overall_fps,
        energy_per_frame_j=energy_total / n_frames,
        meter=meter,
    )


def evaluate_configurations(
    snapshots: list[WorkloadSnapshot],
    device: str = "onx",
    workload_scale: float = 1.0,
) -> dict[str, SystemEvaluation]:
    """Evaluate the standard hardware configurations of Fig. 15 on one run."""
    baseline = EdgeGPUModel(device, workload_scale=workload_scale)
    distwar = EdgeGPUModel(device, use_distwar=True, workload_scale=workload_scale)
    rtgs = RTGSPlugin(host_device=device, workload_scale=workload_scale)
    return {
        "baseline": evaluate_system(snapshots, baseline, f"{device} baseline"),
        "distwar": evaluate_system(snapshots, distwar, f"{device} + DISTWAR"),
        "rtgs_tracking_only": evaluate_system(
            snapshots,
            rtgs,
            "RTGS w/o mapping",
            accelerate_mapping=False,
            baseline_mapping_model=baseline,
        ),
        "rtgs": evaluate_system(snapshots, rtgs, "RTGS w/ mapping"),
    }
