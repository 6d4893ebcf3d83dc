"""A fixed calibration kernel that measures how fast the machine runs now.

The benchmark runs on shared machines whose speed drifts by tens of
percent from minute to minute. `SpeedProbe.sample` times a fixed piece of
work that never touches cvarvi, in the three shapes the pipeline has:
a pure-Python heap shortest-path search (Yen), a loop of small dense
matrix-vector products (Lemke, extragradient) and an argsort of a few
thousand floats (order-statistic CVaR). A sample's time over a fixed
reference time is the machine's slowdown at that moment; `Meter` divides
each measured step by the slowdown of the samples taken around it.
"""

from __future__ import annotations

import heapq
import select
import statistics
import subprocess
import sys
import time

import numpy as np

# Median probe time over 15 runs on a shared 2-vCPU Xeon (Sapphire Rapids,
# KVM guest), Python 3.11.7, numpy 2.4.6. Only the ratio to it matters; the
# per-run medians there ranged from 0.59 to 1.11 times this value.
REFERENCE_S = 0.038
REFERENCE_MEMORY_S = 0.24  # the same for one MemoryProbe pass, over fewer runs


class SpeedProbe:
    def __init__(self):
        rng = np.random.Generator(np.random.Philox(7))
        n = 300
        self.adj = [
            [(int(j), float(c)) for j, c in zip(rng.choice(n, 6, replace=False), rng.uniform(1, 9, 6))]
            for _ in range(n)
        ]
        self.mat = rng.standard_normal((33, 33))
        self.vec = rng.standard_normal(33)
        self.values = rng.uniform(size=(8, 5000))
        self.samples: list[float] = []

    def _work(self) -> float:
        total = 0.0
        for source in range(0, 300, 10):
            dist = {source: 0.0}
            heap = [(0.0, source)]
            done = set()
            while heap:
                d, u = heapq.heappop(heap)
                if u in done:
                    continue
                done.add(u)
                for w, c in self.adj[u]:
                    if d + c < dist.get(w, np.inf):
                        dist[w] = d + c
                        heapq.heappush(heap, (d + c, w))
            total += len(done)
        x = self.vec.copy()
        for _ in range(1500):
            x = self.mat @ x
            x /= np.linalg.norm(x)
        for row in self.values:
            total += float(row[np.argsort(-row, kind="stable")[:250]].sum())
        return total + float(x[0])

    def sample(self, clock=time.perf_counter) -> float:
        """Run the kernel once; return its slowdown against REFERENCE_S."""
        t0 = clock()
        self._work()
        elapsed = clock() - t0
        self.samples.append(elapsed)
        return elapsed / REFERENCE_S

    def slowdown(self) -> float:
        """Median slowdown over the run: above 1 the machine was slower."""
        return statistics.median(self.samples) / REFERENCE_S


class MemoryProbe:
    """The reference batch's shape instead: Philox uniforms and a stable
    argsort over 10^6 floats (8 MB, beyond L2), which follows the speed of
    large-array passes where the small kernel does not. Each sample runs it
    twice; nothing is kept between samples, so it adds nothing to peak RSS
    outside the sample itself."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        for _ in range(2):
            values = np.random.Generator(np.random.Philox(11)).uniform(size=10**6)
            np.argsort(-values, kind="stable")
        elapsed = (time.perf_counter() - t0) / 2
        self.samples.append(elapsed)
        return elapsed / REFERENCE_MEMORY_S


class Meter:
    """Wall time of a stretch of work, cut into segments by `split`.

    With a probe, a sample is taken at the start and at every split,
    outside the segments, and each segment is divided by the mean slowdown
    of the two samples around it: `scaled_s` is the time the work would
    have taken on the reference machine, `raw_s` the plain wall time.
    Without a probe the two are equal.
    """

    def __init__(self, probe: SpeedProbe | MemoryProbe | None = None):
        self.probe = probe
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._factor = probe.sample() if probe is not None else 1.0
        self._t0 = time.perf_counter()

    def split(self) -> tuple[float, float]:
        """End the current segment; return its raw and scaled seconds."""
        segment = time.perf_counter() - self._t0
        factor = self.probe.sample() if self.probe is not None else 1.0
        scaled = segment / ((self._factor + factor) / 2.0)
        self.raw_s += segment
        self.scaled_s += scaled
        self._factor = factor
        self._t0 = time.perf_counter()
        return segment, scaled


class BackgroundProbe:
    """Probe samples from a separate process while the pool workers keep
    both CPUs busy. The process times the kernel in its own CPU time, so
    waiting for a CPU behind the workers does not count; what is left is
    how fast a CPU runs while this benchmark loads all of them."""

    def __init__(self, interval_s: float = 0.5):
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(interval_s)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def stop(self) -> float:
        """End the process; return the median slowdown it saw (1.0 if it
        took no sample)."""
        out, _ = self.proc.communicate(timeout=30)
        factors = [float(line) for line in out.split()]
        return statistics.median(factors) if factors else 1.0


def _sample_until_stdin_closes(interval_s: float) -> None:
    probe = SpeedProbe()
    while True:
        print(probe.sample(clock=time.thread_time), flush=True)
        ready, _, _ = select.select([sys.stdin], [], [], interval_s)
        if ready and not sys.stdin.read(1):
            return


if __name__ == "__main__":
    _sample_until_stdin_closes(float(sys.argv[1]))
