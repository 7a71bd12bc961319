"""Fixed reference work that gauges the machine's speed during a run.

On a shared machine the speed of the same code drifts by tens of percent
over minutes.  Timing this kernel between the timed operations and
dividing by its mean cancels most of that drift.  The kernel mixes the
library's kinds of cost: sorting a set of edge tuples (`Graph.edge_array`),
a large elementwise pass (`forward_many`), fancy-indexed group means
(the bias matrix) and small dense matmuls (BLAS).  It never calls the
library, so library changes cannot move it, and its arrays stay small
(about 5 MB) so that it barely adds to the run's peak memory.
"""

from __future__ import annotations

import time

import numpy as np


class Reference:
    """Inputs of the reference kernel, built once per run, and its timings.

    The kernel runs before every timed operation, and again until its
    total time reaches `share` of the operations' total time, so long
    operations get as many reference samples as many short ones.
    """

    def __init__(self, share: float):
        self.share = share
        self.op_seconds = 0.0
        rng = np.random.default_rng(12345)
        self.pairs = frozenset((int(a), int(b)) for a, b in rng.integers(0, 1000, size=(22000, 2)) if a < b)
        self.dense = rng.standard_normal((8, 1000, 64))
        self.classes = rng.integers(0, 2, size=(20, 150, 1000)).astype(np.uint8)
        self.idx = np.sort(rng.choice(1000, 225, replace=False))
        self.a = rng.standard_normal((1000, 64))
        self.w = rng.standard_normal((64, 64))
        self.times: list[float] = []

    def run(self) -> None:
        """Run the kernel once and record its wall time."""
        t0 = time.perf_counter()
        sorted(self.pairs)
        for _ in range(3):
            np.maximum(self.dense * 1.0001 + 0.5, 0.0)
        for _ in range(3):
            (self.classes[:, :, self.idx] == 1).mean(axis=2)
        for _ in range(10):
            self.a @ self.w
        self.times.append(time.perf_counter() - t0)

    def before_op(self) -> None:
        self.run()
        while sum(self.times) < self.share * self.op_seconds:
            self.run()

    def after_op(self, wall: float) -> None:
        self.op_seconds += wall
