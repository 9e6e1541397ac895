"""Microbenchmarks of the software inference substrate itself.

These are not a table in the paper; they track the cost of the NumPy software
path (the "PS part" stand-in) so regressions in the substrate are visible,
and they benchmark the hardware/software co-execution runtime end to end on
a reduced model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_network
from repro.hwsw import HwSwRuntime, Partition
from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.nn.layers import Parameter


def test_conv2d_forward_speed(benchmark, rng):
    x = Tensor(rng.normal(size=(8, 16, 32, 32)))
    w = Parameter(rng.normal(size=(16, 16, 3, 3)) * 0.1)
    result = benchmark(lambda: F.conv2d(x, w, stride=1, padding=1))
    assert result.shape == (8, 16, 32, 32)


def test_small_model_software_inference(benchmark, rng):
    model = build_network("rODENet-3", 20, num_classes=10, base_width=8)
    model.eval()
    x = Tensor(rng.normal(size=(4, 3, 32, 32)))

    def run():
        with no_grad():
            return model(x)

    logits = benchmark(run)
    assert logits.shape == (4, 10)


def test_hwsw_runtime_prediction(benchmark, rng):
    model = build_network("rODENet-3", 20, num_classes=10, base_width=4)
    model.eval()
    runtime = HwSwRuntime(model, Partition.offload("layer3_2"))
    batch = rng.normal(0, 0.4, size=(1, 3, 16, 16))

    logits, report = benchmark(runtime.predict, batch)
    assert logits.shape == (1, 10)
    assert report.pl_invocations["layer3_2"] == 6


@pytest.fixture
def rng():
    return np.random.default_rng(0)
