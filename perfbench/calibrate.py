"""Operation timing scaled by a machine-speed calibration kernel.

On a shared host the speed of a CPU-second changes from second to second,
because other tenants compete for the same cores, caches and memory; on a
2-vCPU Xeon the same closed-loop replicate took anywhere from 0.10 to 0.21 CPU
seconds within one minute. The benchmark therefore times each operation in
CPU seconds, runs this fixed kernel on the same CPU just before and after it
(or beside it, while a child process runs), and scales the operation's CPU
time by ``REFERENCE_S`` / (the mean CPU time of those kernel calls). The kernel uses numpy only, never ``ocorobust``, so no change to the
program under test can move it. Like the closed loops it is interpreter-bound
Python around small dense linear algebra.
"""

from __future__ import annotations

import statistics
import subprocess
import time

import numpy as np

# CPU seconds of one full kernel call (KERNEL_N iterations) on the machine the
# benchmark was set up on (2 vCPU Xeon, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.020
KERNEL_N = 800
# Kernel calls before an in-process operation: at least one, and enough to
# keep the kernel's CPU time at this share of the operations' CPU time.
SHARE = 0.1
# Beside a child process: short calls, one every SAMPLE_GAP_S seconds.
SAMPLE_N = 100
SAMPLE_GAP_S = 0.02

_RNG = np.random.default_rng(20240109)
_A = _RNG.standard_normal((8, 8)) + 8.0 * np.eye(8)
_B = _RNG.standard_normal(8)


def kernel(n=KERNEL_N):
    acc = 0.0
    seen = {}
    for i in range(n):
        x = np.linalg.solve(_A, _B)
        r = _A @ x - _B
        acc += float(x @ x) + float(np.max(np.abs(r)))
        seen[i % 61] = acc
        acc += sum(range(i % 17)) * 1e-9
    return acc


def kernel_cpu_s(n=KERNEL_N):
    """CPU seconds of a kernel call of ``n`` iterations in this process, per
    KERNEL_N iterations."""
    start = time.process_time()
    kernel(n)
    return (time.process_time() - start) * KERNEL_N / n


class Untimed:
    """Runs operations the way ``CalibratedTimer`` does, timing nothing."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def run_process(self, args, timeout, **kwargs):
        return subprocess.run(args, timeout=timeout, **kwargs).returncode


untimed = Untimed()


class CalibratedTimer:
    """Times operations in CPU seconds on the clock ``cpu_time`` and scales
    each by kernel calls made on the same CPU at about the same time."""

    def __init__(self, cpu_time):
        self.cpu_time = cpu_time
        self.ops = []   # CPU seconds of each operation
        self.cal = []   # cal[i]: kernel CPU seconds operation i is scaled by
        self._kernel_s = 0.0  # CPU seconds of all kernel calls between operations
        self._after = False   # whether the last operation still needs calls after it

    def _kernel_calls(self):
        calls = [kernel_cpu_s()]
        while self._kernel_s + sum(calls) < SHARE * sum(self.ops):
            calls.append(kernel_cpu_s())
        self._kernel_s += sum(calls)
        return calls

    def __call__(self, fn, *args, **kwargs):
        """Runs ``fn`` in this process, between kernel calls."""
        calls = self._kernel_calls()
        if self._after:
            self.cal[-1] += calls     # just after the previous operation
        self.cal.append(list(calls))  # just before this one
        self._after = True
        start = self.cpu_time()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ops.append(self.cpu_time() - start)

    def run_process(self, args, timeout, **kwargs):
        """Runs a child process while short kernel calls sample the CPU beside
        it; returns its exit code. The child must not fill a pipe."""
        self._after = False
        start = self.cpu_time()
        calls = []
        deadline = time.monotonic() + timeout
        proc = subprocess.Popen(args, **kwargs)
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise subprocess.TimeoutExpired(args, timeout)
                calls.append(kernel_cpu_s(SAMPLE_N))
                time.sleep(SAMPLE_GAP_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            self.ops.append(self.cpu_time() - start)
            self.cal.append(calls or [kernel_cpu_s()])
        return proc.returncode

    def finish(self):
        """Each operation's CPU seconds at the reference machine speed."""
        if self._after:
            self.cal[-1] += self._kernel_calls()
            self._after = False
        return [cpu * REFERENCE_S / statistics.fmean(cal) for cpu, cal in zip(self.ops, self.cal)]
