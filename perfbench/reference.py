"""A fixed reference kernel that gauges how fast this machine runs right now.

The host that runs the benchmark is shared: what runs beside it changes the
speed of one core by up to about 1.7x within seconds, with no CPU steal or
run-queue wait to show for it (measured on a 2-vCPU KVM guest of an Intel
Xeon host). A timed run measures this kernel before each pass and after the
last, and scales the pass's time by ``NOMINAL_S`` over the mean of the two
measurements around it, so its time metrics read as times on a machine
where the kernel takes ``NOMINAL_S``. Over 8 minutes of alternating
commands, this cut the spread of 20-second medians of fk and haar-test
command times from 16-20 % to 7-10 % of their median.

The kernel runs in a helper process of its own, pinned with the worker to
one CPU. In the worker's process its speed would depend on the state the
program leaves the memory allocator in: there it ran about 20 % slower
before the first command than after it.

The kernel uses numpy only, never ``spinfock``: a change to the program
leaves it unchanged. Its mix follows the program's hot loop: batched
Hermitian eigendecompositions and products of 2x2 and 16x16 complex
matrices, elementwise maths on an array of 1.6 MB, and a Python loop that
draws from many small generators.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# A round figure: on a 2-vCPU KVM guest of an Intel Xeon (Sapphire Rapids)
# host, BLAS pinned to one thread, the kernel read 0.06-0.13 s in-process
# and 0.09-0.15 s in the helper.
NOMINAL_S = 0.1
REPEATS = 3


class Kernel:
    """Inputs built once per process, so that each timing covers only work."""

    def __init__(self):
        rng = np.random.default_rng(20210201)
        small = rng.standard_normal((2048, 2, 2)) + 1j * rng.standard_normal((2048, 2, 2))
        wide = rng.standard_normal((96, 16, 16)) + 1j * rng.standard_normal((96, 16, 16))
        self.small = 0.5 * (small + np.conj(np.swapaxes(small, 1, 2)))
        self.wide = 0.5 * (wide + np.conj(np.swapaxes(wide, 1, 2)))
        self.flat = rng.standard_normal(200_000)
        self.checksum = self._once()  # warm-up

    def _once(self) -> float:
        total = 0.0
        for m in (self.small, self.wide):
            u = np.eye(m.shape[-1], dtype=complex)
            for _ in range(4):
                w, v = np.linalg.eigh(m)
                step = (v * np.exp(-0.01j * w)[..., None, :]) @ np.conj(np.swapaxes(v, 1, 2))
                u = u @ step
            total += float(np.abs(u).sum())
        x = self.flat
        for _ in range(6):
            x = np.cos(0.5 * x) + np.sinc(x / np.pi) * x
        total += float(x.sum())
        for i in range(300):
            gen = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(i,)))
            total += float(gen.standard_normal(8).sum())
        return total

    def measure(self) -> float:
        """Median wall time of a few repeats of the kernel, in seconds."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            checksum = self._once()
            times.append(time.perf_counter() - start)
            if checksum != self.checksum:
                raise RuntimeError("reference kernel is not deterministic")
        return statistics.median(times)


class Helper:
    """The kernel in a process of its own, on the CPUs its caller may use."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.reference"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def measure(self) -> float:
        self.proc.stdin.write("measure\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference helper exited with {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def main() -> int:
    """Serve one measurement per line read from stdin, until stdin closes."""
    kernel = Kernel()
    kernel.measure()  # warm-up: the allocator settles after a few repeats
    while sys.stdin.readline():
        sys.stdout.write(f"{kernel.measure()!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
