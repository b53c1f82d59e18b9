"""How fast the machine runs right now, sampled all through a run.

A shared VM runs the same code 1.3-1.8x slower for a second to minutes at a
time, and every timing moves with it.  While a run measures, a timer signal
(SIGALRM, every TICK_S) runs one pass of a fixed reference kernel and keeps
its time.  Each timing of the program is then scaled to the speed at which
one pass takes its nominal time:

    reported = measured * nominal / mean(passes during the timed window)

`clock()` is the benchmark's one clock: wall time minus the time spent in
the sampler, so a pass that lands inside a timed window is not counted in it.

The kernels use numpy only, never peftlab, so no change to the program moves
them.  Each workload's kernel runs the kind of code that workload runs,
because no one kind slows the same way as all three:

- "rotations": rotations of 64-element vectors in a Python loop, as in the
  Jacobi SVD;
- "blocks": a pre-norm transformer block on a 17x64 f32 token matrix, with a
  list of closures standing in for the autodiff tape, as in the ViT forward
  and backward.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

_perf = time.perf_counter
_paused = 0.0  # seconds spent in the sampler so far


def clock() -> float:
    """Seconds, with the sampler's own time left out."""
    while True:  # a tick between the two reads would move one of them only
        paused = _paused
        now = _perf()
        if paused == _paused:
            return now - paused


TICK_S = 0.05  # one pass per tick: about 5 % of a run
NEAREST = 4  # a window with fewer passes inside it is scaled by this many nearest ones
ROTATIONS = 100
BLOCKS = 6

_rng = np.random.default_rng(0)
_A = _rng.normal(size=64)
_B = _rng.normal(size=64)
_TOKENS = _rng.normal(size=(17, 64)).astype(np.float32)
_QKV = (0.1 * _rng.normal(size=(64, 192))).astype(np.float32)
_OUT = (0.1 * _rng.normal(size=(64, 64))).astype(np.float32)
_FC1 = (0.1 * _rng.normal(size=(64, 256))).astype(np.float32)
_FC2 = (0.1 * _rng.normal(size=(256, 64))).astype(np.float32)


def _rotations() -> float:
    a, b, acc = _A.copy(), _B.copy(), 0.0
    for _ in range(ROTATIONS):
        acc += float(a @ b) / float(np.sqrt((a @ a) * (b @ b)))
        a, b = 0.6 * a - 0.8 * b, 0.8 * a + 0.6 * b
    return acc


def _norm(x: np.ndarray) -> np.ndarray:
    d = x - x.mean(axis=-1, keepdims=True)
    return d / np.sqrt((d * d).mean(axis=-1, keepdims=True) + 1e-6)


def _blocks() -> float:
    tape, x = [], _TOKENS
    for _ in range(BLOCKS):
        qkv = _norm(x) @ _QKV
        tape.append((qkv, lambda g: g @ _QKV.T))
        q, k, v = (qkv[:, i * 64:(i + 1) * 64].reshape(17, 4, 16).transpose(1, 0, 2)
                   for i in range(3))
        s = q @ k.transpose(0, 2, 1) * 0.25
        s = np.exp(s - s.max(axis=-1, keepdims=True))
        s = s / s.sum(axis=-1, keepdims=True)
        a = (s @ v).transpose(1, 0, 2).reshape(17, 64)
        tape.append((a, lambda g: g @ _OUT.T))
        x = x + a @ _OUT
        h = _norm(x) @ _FC1
        h = 0.5 * h * (1.0 + np.tanh(0.79788456 * (h + 0.044715 * h * h * h)))
        tape.append((h, lambda g: g @ _FC2))
        x = x + h @ _FC2
    for y, backward in reversed(tape):
        backward(y)
    return float(x[0, 0])


# kernel: (function, nominal ms).  The nominal time is about the kernel's median in a
# benchmark run on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, one BLAS thread), so that
# reported figures read close to that machine's measured ones.
KERNELS = {"rotations": (_rotations, 1.4), "blocks": (_blocks, 1.6)}


class Sampler:
    """One pass of the named kernels per timer tick, between `start` and `stop`.

    `times` (on `clock()`) and `passes_ms` list the passes in order.
    """

    def __init__(self, kernels: tuple[str, ...]):
        self.kernels = [KERNELS[k][0] for k in kernels]
        self.nominal_ms = sum(KERNELS[k][1] for k in kernels)
        self.times: list[float] = []
        self.passes_ms: list[float] = []
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame) -> None:
        global _paused
        if self._busy:
            return
        self._busy = True
        t0 = _perf()
        for kernel in self.kernels:
            kernel()
        t1 = _perf()
        self.times.append(t0 - _paused)
        self.passes_ms.append((t1 - t0) * 1e3)
        _paused += _perf() - t0
        self._busy = False

    def start(self) -> None:
        for _ in range(3):  # warm the kernels' code and data
            for kernel in self.kernels:
                kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def factor(self, start: float, end: float) -> float:
        """Nominal over the mean pass in [start, end], or of the NEAREST passes to it."""
        times, passes = self.times, self.passes_ms
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        if hi - lo < NEAREST:
            mid = (start + end) / 2
            lo = hi = bisect.bisect_left(times, mid)
            while hi - lo < min(NEAREST, len(times)):
                if lo > 0 and (hi == len(times) or mid - times[lo - 1] < times[hi] - mid):
                    lo -= 1
                else:
                    hi += 1
        if hi == lo:
            return 1.0
        return self.nominal_ms / (sum(passes[lo:hi]) / (hi - lo))
