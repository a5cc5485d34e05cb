"""Span tracing of darcyfem's public calls, recorded from outside the library.

The library has no tracing of its own yet, so the benchmark swaps every
binding of the traced functions and methods inside the loaded ``darcyfem``
modules for a timing wrapper, and puts the originals back afterwards.  A span
has a name, a start, an end, the id of the span that was open when it began
and the id of the job it belongs to; spans are kept in memory and written out
when the run ends.

This module imports neither numpy nor darcyfem at load time, so the set-up
probe can time those imports itself.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# (span name, owner "module" or "module:Class", attribute).  A module-level
# function is replaced in every darcyfem module that imported it, so calls
# through ``from .x import f`` bindings are traced too.
TRACED = (
    ("mesh.generate", "darcyfem.mesh", "generate_structured"),
    ("mesh.generate", "darcyfem.mesh", "generate_lshape"),
    ("mesh.refine", "darcyfem.mesh", "refine"),
    ("assembly.setup", "darcyfem.assembly:Assembler", "__init__"),
    ("assembly.step", "darcyfem.assembly:Assembler", "step"),
    ("assembly.pressure", "darcyfem.assembly:Assembler", "solve_pressure"),
    ("assembly.recover", "darcyfem.assembly:Assembler", "recover_velocity"),
    ("indicators.setup", "darcyfem.indicators:IndicatorContext", "__init__"),
    ("indicators.compute", "darcyfem.indicators:IndicatorContext", "compute"),
    ("nonlinear_solver.solve", "darcyfem.nonlinear_solver", "solve"),
    ("nonlinear_solver.true_error", "darcyfem.nonlinear_solver", "true_error"),
    ("nonlinear_solver.sweep", "darcyfem.nonlinear_solver", "alpha_sweep"),
    ("adaptivity.mark", "darcyfem.adaptivity", "mark"),
    ("adaptivity.loop", "darcyfem.adaptivity", "adaptive_loop"),
)


def _pressure_counts(args, ret):
    # darcyfem always passes the system positionally: solve_pressure(self, s, ...)
    system = args[1]
    return {"cg_iters": int(ret[1]), "n": int(system.s.shape[0]),
            "nnz": int(system.s.nnz)}


# Counts recorded at the same boundary as the span, from the call's
# arguments and return value.
COUNTS = {
    "assembly.pressure": _pressure_counts,
    "nonlinear_solver.solve": lambda args, ret: {
        "outer_iters": int(ret.iterations)},
    "adaptivity.loop": lambda args, ret: {"levels": len(ret)},
}


def resolve(owner: str, attr: str):
    """Return ``(holder, original)`` for an entry of :data:`TRACED`."""
    module_name, _, class_name = owner.partition(":")
    holder = importlib.import_module(module_name)
    if class_name:
        holder = getattr(holder, class_name)
        return holder, holder.__dict__[attr]
    return holder, getattr(holder, attr)


def _bindings(holder, attr, original):
    """Every (namespace, name) in darcyfem that refers to ``original``."""
    if isinstance(holder, type):
        return [(holder, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "darcyfem"
                                  or name.startswith("darcyfem.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                found.append((module, key))
    return found


@contextmanager
def patched(replacements):
    """Swap bindings for the duration of the block.

    ``replacements`` is a list of ``(owner, attr, make)`` where ``make``
    takes the original callable and returns its replacement.
    """
    saved = []
    try:
        for owner, attr, make in replacements:
            holder, original = resolve(owner, attr)
            wrapper = make(original)
            for namespace, key in _bindings(holder, attr, original):
                saved.append((namespace, key, original))
                setattr(namespace, key, wrapper)
        yield
    finally:
        for namespace, key, original in reversed(saved):
            setattr(namespace, key, original)


@contextmanager
def capture_solves():
    """Collect the result of every ``nonlinear_solver.solve`` call.

    A call that raises leaves ``None`` in its slot, so the list stays aligned
    with the calls made.
    """
    results = []

    def make(original):
        @functools.wraps(original)
        def solve(*args, **kwargs):
            try:
                res = original(*args, **kwargs)
            except BaseException:
                results.append(None)
                raise
            results.append(res)
            return res
        return solve

    with patched([("darcyfem.nonlinear_solver", "solve", make)]):
        yield results


@dataclass
class Span:
    sid: int
    parent: int | None
    job: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one benchmark run (single thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.job = 0

    def _wrap(self, name, original):
        counter = COUNTS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(sid=len(self.spans),
                        parent=self._open[-1] if self._open else None,
                        job=self.job, name=name, start=time.perf_counter())
            self.spans.append(span)
            self._open.append(span.sid)
            try:
                ret = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span.counts = counter(args, ret)
            return ret
        return traced

    @contextmanager
    def active(self, job: int):
        """Trace every call in :data:`TRACED` made inside the block."""
        self.job = job
        make = [(owner, attr, functools.partial(self._wrap, name))
                for name, owner, attr in TRACED]
        with patched(make):
            yield

    def job_spans(self, job: int) -> list[Span]:
        return [s for s in self.spans if s.job == job]

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def child_seconds(spans: list[Span]) -> dict[int, float]:
    """Sum of the direct children's durations, per parent span id."""
    out: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            out[s.parent] = out.get(s.parent, 0.0) + s.seconds
    return out


def nesting_violations(spans: list[Span], slack: float = 1e-9) -> list[str]:
    """Spans whose children cover more time than the span itself."""
    kids = child_seconds(spans)
    return [f"span {s.sid} ({s.name}): children {kids[s.sid]:.9f} s "
            f"> own {s.seconds:.9f} s"
            for s in spans if kids.get(s.sid, 0.0) > s.seconds + slack]


def self_seconds(spans: list[Span], name: str) -> float:
    """Duration of the named spans minus the time their children cover."""
    kids = child_seconds(spans)
    return sum(s.seconds - kids.get(s.sid, 0.0)
               for s in spans if s.name == name)
