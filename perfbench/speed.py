"""Machine-speed probe: scales timed intervals to a fixed reference speed.

On a shared host each vCPU alternates, every few seconds, between a fast
state and one about 1.5× slower (other tenants on the same physical core).
A job of a few seconds catches a random share of slow time, so the same job
timed back to back varied by 9% (coefficient of variation, fig4 unit on a
2-vCPU x86-64 container), and runs of the same code moved by a quarter.

A helper process pinned to each CPU the timed code runs on executes
:func:`kernel` — a fixed ~1 ms mix of small-array NumPy (an ICP step), a
dense distance block (a KSG window) and JSON plus hashing (a store read) —
every :data:`INTERVAL_S` and logs when it started and how long it took.  The
kernel never changes, so its duration tracks only the CPU's current speed.
:meth:`SpeedProbe.factor` turns the samples that fall inside a timed interval
into ``REFERENCE_S / mean duration``; multiplying the interval by it gives
the time at the reference speed.  On the box above this brought the same
job's variation from 9% to 2%.  The helper takes about 2% of its CPU.

Run as a script, this module is the helper::

    python3 perfbench/speed.py --cpu 0 --out probe-0.log
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Seconds between the end of one probe sample and the start of the next.
INTERVAL_S = 0.05
#: Probe duration that defines the reference speed (the kernel's fast-state
#: duration on the box above, rounded): a factor of 1 means that speed.
REFERENCE_S = 1e-3
#: An interval holding fewer samples borrows the nearest ones outside it.
MIN_SAMPLES = 5

_rng = np.random.default_rng(2012)
_SOURCE = _rng.standard_normal((50, 2))
_TARGET = _rng.standard_normal((50, 2))
_WINDOW = _rng.standard_normal((48, 100))
_DOCUMENT = {f"key{i}": _rng.standard_normal(8).tolist() for i in range(10)}


def kernel() -> None:
    """The fixed probe workload (about 1 ms at the reference speed)."""
    points = _SOURCE
    for _ in range(3):
        distances = ((points[:, None, :] - _TARGET[None, :, :]) ** 2).sum(-1)
        matched = _TARGET[distances.argmin(1)]
        u, _, vt = np.linalg.svd((points - points.mean(0)).T @ (matched - matched.mean(0)))
        points = points @ (u @ vt)
    np.partition(_WINDOW @ _WINDOW.T, 4, axis=1)
    text = json.dumps(_DOCUMENT, sort_keys=True)
    hashlib.sha256(text.encode()).hexdigest()
    json.loads(text)


def _serve(cpu: int, out: Path) -> None:
    """Probe ``cpu`` until the parent process ends or stops this one."""
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    kernel()
    with out.open("w") as log:
        while os.getppid() == parent:
            time.sleep(INTERVAL_S)
            # perf_counter is CLOCK_MONOTONIC on Linux: one clock for every process.
            start = time.perf_counter()
            kernel()
            log.write(f"{start!r} {time.perf_counter() - start!r}\n")
            log.flush()


class SpeedProbe:
    """Probe helpers on ``cpus`` for the duration of a ``with`` block.

    Samples are read when the block exits; :meth:`factor` is for after it.
    """

    def __init__(self, cpus: list[int], scratch: Path) -> None:
        self.cpus = list(cpus)
        self.scratch = scratch
        self.samples: dict[int, np.ndarray] = {}
        self._children: list[subprocess.Popen] = []

    def _log(self, cpu: int) -> Path:
        return self.scratch / f"speed-{cpu}.log"

    def __enter__(self) -> "SpeedProbe":
        try:
            for cpu in self.cpus:
                command = [sys.executable, __file__, "--cpu", str(cpu), "--out", str(self._log(cpu))]
                self._children.append(subprocess.Popen(command))
            deadline = time.monotonic() + 60
            while not all(self._log(cpu).is_file() and self._log(cpu).stat().st_size for cpu in self.cpus):
                if time.monotonic() > deadline or any(child.poll() is not None for child in self._children):
                    raise RuntimeError("speed probe did not start")
                time.sleep(INTERVAL_S)
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop()
        for cpu in self.cpus:
            rows = [line.split() for line in self._log(cpu).read_text().splitlines()]
            # A line cut short by the stop has one field; drop it.
            self.samples[cpu] = np.array([[float(a), float(b)] for a, b, *_ in (r for r in rows if len(r) == 2)])

    def _stop(self) -> None:
        for child in self._children:
            child.terminate()
        for child in self._children:
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()

    def factor(self, start: float, end: float, cpus: list[int] | None = None) -> float:
        """``REFERENCE_S`` over the mean probe duration during ``[start, end]``.

        Samples of ``cpus`` (default: every probed CPU) count.  An interval
        too short to hold :data:`MIN_SAMPLES` per CPU takes the ones whose
        start lies nearest to its middle.
        """
        durations = []
        for samples in (self.samples[cpu] for cpu in cpus or self.cpus):
            inside = samples[(samples[:, 0] >= start) & (samples[:, 0] <= end)]
            if len(inside) < MIN_SAMPLES:
                middle = (start + end) / 2
                inside = samples[np.argsort(np.abs(samples[:, 0] - middle))[:MIN_SAMPLES]]
            durations.extend(inside[:, 1])
        return REFERENCE_S / float(np.mean(durations))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Log probe durations on one CPU until stopped.")
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    _serve(args.cpu, args.out)
