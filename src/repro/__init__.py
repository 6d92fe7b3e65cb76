"""repro: a Python reproduction of RTGS (MICRO 2025).

RTGS: Real-Time 3D Gaussian Splatting SLAM via Multi-Level Redundancy
Reduction.  The package provides:

* ``repro.gaussians`` - a differentiable 3D Gaussian Splatting rasterizer
  (projection, tile intersection, sorting, alpha blending, full backward pass)
* ``repro.engine`` - the unified ``RenderEngine`` session API over a
  pluggable backend registry: owns backend selection, the geometry cache,
  the fragment arena and workload-snapshot emission for every render
* ``repro.slam`` - tracking / mapping / keyframing pipelines mirroring the
  base algorithms the paper builds on (GS-SLAM, MonoGS, Photo-SLAM, SplaTAM)
* ``repro.datasets`` - procedural RGB-D datasets standing in for TUM-RGBD,
  Replica, ScanNet and ScanNet++
* ``repro.core`` - the RTGS algorithm: adaptive Gaussian pruning and dynamic
  downsampling, plus the pruning baselines it is compared against
* ``repro.hardware`` - cycle/energy models of the edge GPU baseline, DISTWAR,
  GauSPU and the RTGS plug-in (RE, WSU, R&B Buffer, GMU, PE)
* ``repro.profiling`` and ``repro.metrics`` - the measurements behind the
  paper's profiling and evaluation sections
* ``repro.testing`` - the scenario matrix and golden fixtures pinning every
  backend against the direct implementations and committed reference outputs
"""

__version__ = "0.1.0"

__all__ = [
    "core",
    "datasets",
    "engine",
    "gaussians",
    "hardware",
    "metrics",
    "profiling",
    "slam",
    "testing",
    "utils",
]
