"""Figure 4: Gaussian gradient distribution during tracking (Observation 3).

The paper finds the top ~14% of Gaussians carry the bulk of the pose-gradient
magnitude; this harness reproduces the skew statistics from real tracking
gradients on the tum-like dataset.
"""

import numpy as np

from benchmarks.conftest import get_run, get_sequence, print_table
from repro.engine import default_engine
from repro.profiling import gradient_distribution
from repro.slam import Frame, photometric_geometric_loss


def test_fig4_gradient_skew(benchmark):
    sequence = get_sequence("tum")
    run = get_run("mono_gs", "tum")
    cloud = run.cloud
    engine = default_engine()
    frame = Frame.from_rgbd(sequence.frame(3))
    render = engine.render(cloud, frame.camera, run.estimated_trajectory[3])
    loss = photometric_geometric_loss(render, frame)

    def compute():
        grads = engine.backward(render, cloud, loss.dL_dimage, loss.dL_ddepth)
        return gradient_distribution(grads)

    distribution = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [
        ["top 14% share of gradient mass", f"{distribution.top_fraction_share(0.14):.2%}"],
        ["fraction needed for 80% of mass", f"{distribution.fraction_needed_for_share(0.8):.2%}"],
        ["gini coefficient", f"{distribution.gini_coefficient():.3f}"],
        ["n gaussians", str(distribution.n_gaussians)],
    ]
    print_table("Fig. 4: tracking gradient distribution (tum-like, MonoGS)", ["metric", "value"], rows)
    assert distribution.top_fraction_share(0.14) > 0.3
    assert distribution.fraction_needed_for_share(0.8) < 0.7
    assert np.all(distribution.scores >= 0)
