"""Reference kernel, interleaved with a timed call to read the host's speed.

The benchmark runs on a virtual CPU of a shared host.  Other tenants slow it
by 10 to 30 %, in spells that last from seconds to minutes, so the wall time
of the same job differs from run to run by more than the changes the
benchmark has to resolve.  The spells slow a fixed piece of numpy work and
darcyfem alike: run in alternation with short solves (0.3 to 0.8 s), this
kernel's time correlates with theirs at 0.6 to 0.9, and over a few seconds
the ratio of the two varies about half as much as the solves' time.
So while a job runs, ``ReferenceSampler`` pauses it every ``PERIOD`` seconds
(from a ``SIGALRM`` handler, between two Python bytecodes), runs one unit of
the kernel and resumes.  The job's own time excludes the pauses, and
``run.py`` reports it as a multiple of the median unit time sampled during
that job: the median, because a unit now and then stalls for several times
its length, and a stall inside a unit does not slow the job.

The kernel does the kinds of work darcyfem's solve does: conjugate gradients
with a CSR matrix of about the size of the pressure Schur complement, a
batched element ``einsum`` with a ``bincount`` scatter, and many small numpy
calls from a Python loop.  Its inputs are fixed: they depend neither on the
seed nor on darcyfem, so a change to darcyfem moves the ratio by its effect
on the job's time alone.  The handler touches nothing of the job's, so the
job's results stay the same bit for bit.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

GRID = 100          # CSR matrix: 5-point Laplacian on a GRID x GRID grid
CG_ITERS = 60       # conjugate-gradient iterations per round
ELEMENTS = 20000    # element blocks per einsum and scatter
ROUNDS = 4          # CG-plus-scatter rounds per unit (about 0.025 s)
PERIOD = 0.1        # seconds of the job's own time between two units


def reference_inputs():
    """Build the kernel's inputs (untimed)."""
    import numpy as np
    import scipy.sparse as sp

    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(GRID, GRID))
    eye = sp.identity(GRID)
    s = (sp.kron(t, eye) + sp.kron(eye, t)).tocsr()
    rng = np.random.default_rng(0)
    return (s, rng.standard_normal(s.shape[0]),
            rng.standard_normal((ELEMENTS, 3, 3)),
            rng.standard_normal((ELEMENTS, 3)),
            rng.integers(0, s.shape[0], size=(ELEMENTS, 3)))


def reference_unit(s, b, blocks, vectors, index) -> float:
    """One unit of the kernel; returns a checksum so no work is skipped."""
    import numpy as np

    acc = 0.0
    for _ in range(ROUNDS):
        x = np.zeros_like(b)
        r = b.copy()
        p = r.copy()
        rr = r @ r
        for _ in range(CG_ITERS):
            sp_ = s @ p
            a = rr / (p @ sp_)
            x += a * p
            r -= a * sp_
            rr_new = r @ r
            p = r + (rr_new / rr) * p
            rr = rr_new
        local = np.einsum("mij,mj->mi", blocks, vectors)
        acc += float(np.bincount(index.ravel(), weights=local.ravel(),
                                 minlength=s.shape[0]) @ x)
    return acc


@dataclass
class Pauses:
    """What one sampled call recorded: the pauses as (start, end) pairs and
    the seconds of the kernel unit run in each."""

    spans: list = field(default_factory=list)
    units: list = field(default_factory=list)

    def paused_before(self, t: float) -> float:
        """Seconds of pauses that ended by ``t``."""
        return sum(end - start for start, end in self.spans if end <= t)


class ReferenceSampler:
    """Interleaves reference units with a call, on the main thread only."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.inputs = reference_inputs()
        reference_unit(*self.inputs)  # warm-up

    def unit(self) -> float:
        t0 = time.perf_counter()
        reference_unit(*self.inputs)
        return time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Run a unit every ``period`` seconds of the body's own time.

        The timer is one-shot and re-armed when a unit ends, so units never
        nest and the body always gets a whole period between two of them.
        A body too short for any pause gets one unit after it, outside it.
        """
        pauses = Pauses()

        def handler(signum, frame):
            start = time.perf_counter()
            pauses.units.append(self.unit())
            signal.setitimer(signal.ITIMER_REAL, self.period)
            pauses.spans.append((start, time.perf_counter()))

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        try:
            yield pauses
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if not pauses.units:
                pauses.units.append(self.unit())
