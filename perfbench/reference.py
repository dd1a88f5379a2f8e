"""Iteration costs measured against a fixed reference kernel.

On a small shared machine the CPU's speed changes by up to ~1.6x for tens of
seconds at a time, whatever runs on it. A fixed numpy kernel that does not
use slqr is timed between operations and, on learner workloads, before and
after every rollout. Each stretch of an operation between two timings is
divided by the mean of the kernel times at its ends, which cancels the
machine's speed; the kernel's own time is cut out of the operation's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

REPEATS = 3   # each timing is the best of this many kernel runs


@dataclass(frozen=True)
class Timing:
    start: float
    end: float
    seconds: float           # best time of the kernel
    starts_iteration: bool   # taken just before a learner rollout


class Reference:
    """Call to time the kernel; every timing is kept in ``log``."""

    def __init__(self):
        self.small = np.full((3, 3), 0.1)
        self.square = np.random.default_rng(0).normal(size=(64, 64))
        self.log: list[Timing] = []

    def __call__(self, starts_iteration: bool = False) -> None:
        # Small-matrix products in a Python loop, then LAPACK: slqr's mix.
        start = time.perf_counter()
        best = float("inf")
        for _ in range(REPEATS):
            begin = time.perf_counter()
            x = np.ones(3)
            for _ in range(400):
                x = self.small @ x + 1.0
            np.linalg.eigvals(self.square)
            best = min(best, time.perf_counter() - begin)
        self.log.append(Timing(start, time.perf_counter(), best, starts_iteration))


def account(op, log: list[Timing]) -> None:
    """Set ``op.seconds``, ``op.iteration_s`` and ``op.costs``.

    ``op.start``/``op.end`` bound the operation; ``log`` must hold a timing
    ending before it and one starting after it. Each timing inside the
    operation that ``starts_iteration`` opens a new iteration; with none
    inside, the operation's time is shared evenly by its ``op.iterations``.
    """
    inside = [t for t in log if op.start <= t.start and t.end <= op.end]
    left = [t for t in log if t.end <= op.start][-1]
    right = next(t for t in log if t.start >= op.end)
    bounds = [left] + inside + [right]
    edges = [op.start] + [x for t in inside for x in (t.start, t.end)] + [op.end]
    groups: list[list[float]] = []   # [seconds, cost] per iteration
    for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
        length = edges[2 * j + 1] - edges[2 * j]
        if not groups or (a.starts_iteration and a is not inside[0]):
            groups.append([0.0, 0.0])
        groups[-1][0] += length
        groups[-1][1] += length / ((a.seconds + b.seconds) / 2)
    op.seconds = sum(g[0] for g in groups)
    if len(groups) == 1:
        share = max(op.iterations, 1)
        groups = [[g / share for g in groups[0]]] * share
    op.iteration_s = [g[0] for g in groups]
    op.costs = [g[1] for g in groups]
