"""Tables 4 & 5: architecture configuration and device specifications."""

from benchmarks.conftest import print_table
from repro.hardware import DEVICE_SPECS, RTGSArchitectureConfig, scale_device


def test_table5_device_specs(benchmark):
    arch = RTGSArchitectureConfig()
    scaled = benchmark.pedantic(
        lambda: {nm: scale_device(DEVICE_SPECS["rtgs"], nm) for nm in (12, 8)},
        rounds=1,
        iterations=1,
    )
    rows = [
        [spec.name, spec.technology_nm, f"{spec.sram_kb:.0f}", spec.core_description,
         f"{spec.area_mm2:.2f}", f"{spec.power_w:.2f}"]
        for spec in DEVICE_SPECS.values()
    ]
    print_table(
        "Table 5: device specifications",
        ["device", "node(nm)", "SRAM(KB)", "cores", "area(mm2)", "power(W)"],
        rows,
    )
    print_table(
        "Table 4: RTGS architecture configuration",
        ["quantity", "value"],
        [
            ["REs x (RCs & RBCs)", f"{arch.n_rendering_engines} x {arch.rcs_per_re}"],
            ["PEs", arch.n_preprocessing_engines],
            ["GMUs", arch.n_gmus],
            ["frequency", f"{arch.frequency_hz / 1e6:.0f} MHz"],
            ["total SRAM", f"{arch.total_sram_kb:.0f} KB"],
            ["area", f"{arch.area_mm2} mm2"],
            ["power", f"{arch.power_w} W"],
        ],
    )
    assert arch.total_sram_kb == 197.0
    assert abs(scaled[12].area_mm2 - DEVICE_SPECS["rtgs-12nm"].area_mm2) < 1e-6
    assert abs(scaled[8].power_w - DEVICE_SPECS["rtgs-8nm"].power_w) < 1e-6
