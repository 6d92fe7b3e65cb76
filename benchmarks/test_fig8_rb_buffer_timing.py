"""Figure 8: R&B Buffer parameter reuse and the Rendering-BP pipeline balance.

With reuse, the alpha-gradient unit takes 4 cycles instead of 20, which
balances it against the 8-cycle 2D-gradient unit and roughly halves the
backward cycles of a subtile.
"""

import numpy as np

from benchmarks.conftest import print_table
from repro.hardware import RBBuffer, RTGSArchitectureConfig, RenderingEngine


def test_fig8_rb_buffer(benchmark):
    arch = RTGSArchitectureConfig()
    fragments = np.full(16, 48)  # a busy subtile

    def compute():
        with_reuse = RenderingEngine(arch, use_rb_buffer=True).backward_cycles(fragments)
        without_reuse = RenderingEngine(arch, use_rb_buffer=False).backward_cycles(fragments)
        return with_reuse, without_reuse

    with_reuse, without_reuse = benchmark.pedantic(compute, rounds=1, iterations=1)
    buffer = RBBuffer(capacity_kb=arch.rb_buffer_kb)
    rows = [
        ["alpha grad latency w/o reuse (cycles)", arch.alpha_grad_cycles_baseline],
        ["alpha grad latency w/ reuse (cycles)", buffer.alpha_grad_cycles(arch)],
        ["subtile BP cycles w/o reuse", without_reuse],
        ["subtile BP cycles w/ reuse", with_reuse],
        ["BP speedup from reuse", f"{without_reuse / with_reuse:.2f}x"],
    ]
    print_table("Fig. 8: R&B Buffer reuse timing", ["quantity", "value"], rows)
    assert buffer.alpha_grad_cycles(arch) == 4
    assert without_reuse / with_reuse > 1.5
