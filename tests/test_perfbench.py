"""The benchmark harness under perfbench/ still runs against the package.

The harness reads names of the package that no library caller needs
(``backend.kernel``'s extras, the wave ``spectrum._l_term_full`` that its
tracer wraps) and drives ``spectrum.sweep_mass`` and the CLI. These tests
run its self-check, then one traced round of each workload with its checks
and the per-layer figures of that round, so a change that drops such a
name fails here. Nothing is timed: the calibration slices and the kernel
samples are cut to their least, and the CLI's output file goes to a
temporary directory, so nothing under perfbench/ is written.
"""

import math
import random
import sys
from pathlib import Path

import pytest

import procasphere

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
HARNESS = {"kernel_samples", "run", "selfcheck", "tracer", "workloads"}


@pytest.fixture
def harness(monkeypatch, tmp_path):
    # The harness imports its modules by their bare names and the package
    # from src/ of this checkout; afterwards neither stays importable.
    src = BENCH.parent / "src"
    if not Path(procasphere.__file__).resolve().is_relative_to(src):
        pytest.skip("procasphere is not imported from this checkout's src/")
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    import kernel_samples
    import run

    monkeypatch.setattr(run, "CALIB_ITERS", 100)
    monkeypatch.setattr(run.W, "OUT_DIR", tmp_path)
    monkeypatch.setattr(kernel_samples, "MIN_SECONDS", 0.0)
    yield run
    for name in HARNESS & set(sys.modules) - before:
        del sys.modules[name]


def test_selfcheck_passes(harness):
    import selfcheck

    assert selfcheck.main() == 0


@pytest.mark.parametrize("workload", ["figure-grid", "small-gap",
                                      "force-cli"])
def test_traced_round_and_its_layer_figures(harness, workload):
    import kernel_samples
    import tracer as tracing

    run = harness
    ctx = run.Context()
    order = list(run.W.BATCHES[workload].problems)
    tracer = tracing.Tracer()
    remove = tracer.install(ctx.spectrum)
    try:
        rnd = run.run_round(ctx, workload, order, tracer)
    finally:
        remove()
    attempted, _failed, _misses, problems = run.check_round(ctx, workload,
                                                            rnd)
    assert attempted >= len(order)
    assert problems + run.check_oracle_wave(ctx, workload) == []

    kernel = ctx.spectrum.kernel
    metrics = tracing.layer_metrics(
        tracer, lambda x, mu, ratio: kernel.gamma_arg(x, mu) * ratio)
    metrics.update(kernel_samples.kernel_metrics(kernel, tracer.nodes,
                                                 random.Random(1)))
    assert metrics
    bad = {k: v for k, v in metrics.items() if not math.isfinite(v)}
    assert not bad
