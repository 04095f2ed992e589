"""Working memory of ``fit`` and the baseline above the caller's views.

Each pipeline scales the views straight into its one working copy: ``fit``
into its augmented views, the baseline into the row blocks of its stacked
design, which it releases before K-means rounding.  The peaks are measured
by ``tracemalloc`` at shapes where the views outweigh every other operand.
"""

WORKING_MEMORY_SCRIPT = """
import tracemalloc

from mmclust.solver import FitConfig, fit
from mmclust.synth import SynthSpec, baseline_regression_cluster, generate


def peak_over_views(pipeline, n, dims, k, config):
    spec = SynthSpec(n_instances=n, n_views=len(dims), n_clusters=k, dims=dims, seed=1)
    dataset = generate(spec)
    tracemalloc.start()
    pipeline(dataset, k, config)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(peak / sum(v.nbytes for v in dataset.views))


peak_over_views(baseline_regression_cluster, 50000, (20, 20, 20), 10, FitConfig(rank=10))
peak_over_views(fit, 2000, (200, 200, 200), 3, FitConfig(rank=3, max_outer_iters=2))
"""


def test_peak_above_the_views(fresh_interpreter):
    baseline, fit = fresh_interpreter(WORKING_MEMORY_SCRIPT)
    # with separate normalized and stacked copies the peaks read 3.12x
    # (baseline) and 2.05x (fit) the views; with one working copy, 1.52x and
    # 1.07x
    assert baseline <= 2.0
    assert fit <= 1.5
