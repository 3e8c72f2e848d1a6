"""Span tracer for the traced benchmark runs.

The tracer wraps every public function and public method of the traced
fusedet modules.  It patches each name wherever the package binds it, so a
function that another module imported with ``from ... import`` (for
example ``harness.gmta_step`` or ``model.fusion_forward``) is traced at the
call site that looks it up.

Each call is a span with a parent: the span that was open when it began.
Spans are folded into a per-name table as they end, so memory use does not
grow with the run.  For every name the table keeps

- ``incl_s``: total duration of its spans;
- ``self_s``: duration minus the part covered by direct child spans;
- ``net_s``: duration minus the part covered by spans of other modules,
  so ``gmta.gmta_step`` net time is the step without its backward passes;
- ``calls`` and the call count per parent name.

Spans are charged to the phase named when tracing was switched on.

Memory comes from ``tracemalloc``, which runs only while tracing is on:
the peak traced total of each phase, and the bytes an operation leaves
behind.  For a
span named in ``call_spans`` that is the traced total at its exit minus
the total at its entry; for ``step_span``, which ends every training
step, it is the total at one exit minus the total at the exit before.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import tracemalloc

PACKAGE = "fusedet"
TRACED_MODULES = (
    "autodiff",
    "fusion_net",
    "model",
    "diffusion",
    "losses",
    "gmta",
    "harness",
    "metrics",
    "synthdata",
)


class Tracer:
    """Installs span-recording wrappers into the fusedet package."""

    def __init__(self, call_spans=(), step_span: str | None = None):
        self.call_spans = frozenset(call_spans)
        self.step_span = step_span
        self.phase = ""
        self.tables: dict[str, dict[str, dict]] = {}
        self.op_calls: dict[str, int] = {}
        self.retained: dict[str, dict[str, list[int]]] = {}
        self.peaks: dict[str, int] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._var_type = None
        self._step_mark: int | None = None

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        self._var_type = sys.modules[f"{PACKAGE}.autodiff"].Var
        package_modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for short in TRACED_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self._wrap(f"{short}.{name}", short, obj, is_op=(short == "autodiff"))
                    for owner in package_modules:
                        for attr, value in list(vars(owner).items()):
                            if value is obj:
                                self._patch(owner, attr, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(short, obj)

    def _wrap_class(self, short: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            span = f"{short}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                kind = type(attr)
                self._patch(cls, name, kind(self._wrap(span, short, attr.__func__, is_op=False)))
            elif inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(span, short, attr, is_op=False))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- spans ----------------------------------------------------------

    def _wrap(self, span: str, module: str, fn, is_op: bool):
        stack = self._stack
        clock = time.perf_counter

        per_call = span in self.call_spans
        per_step = span == self.step_span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame: [span, module, child time, foreign time]
            frame = [span, module, 0.0, 0.0]
            stack.append(frame)
            held = tracemalloc.get_traced_memory()[0] if per_call else 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self._close(frame, dt)
            if per_call:
                self._retain(span, tracemalloc.get_traced_memory()[0] - held)
            elif per_step:
                held = tracemalloc.get_traced_memory()[0]
                if self._step_mark is not None:
                    self._retain(span, held - self._step_mark)
                self._step_mark = held
            if is_op and isinstance(result, self._var_type):
                self.op_calls[self.phase] = self.op_calls.get(self.phase, 0) + 1
            return result

        return traced

    def _retain(self, span: str, nbytes: int) -> None:
        self.retained.setdefault(self.phase, {}).setdefault(span, []).append(nbytes)

    def _close(self, frame: list, dt: float) -> None:
        span, module, child, foreign = frame
        parent = self._stack[-1] if self._stack else None
        table = self.tables.setdefault(self.phase, {})
        row = table.get(span)
        if row is None:
            row = table[span] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "net_s": 0.0, "parents": {}}
        row["calls"] += 1
        row["incl_s"] += dt
        row["self_s"] += dt - child
        row["net_s"] += dt - foreign
        pname = parent[0] if parent is not None else "<root>"
        row["parents"][pname] = row["parents"].get(pname, 0) + 1
        if parent is not None:
            parent[2] += dt
            parent[3] += foreign if parent[1] == module else dt

    @contextlib.contextmanager
    def tracing(self, phase: str):
        """Trace calls made inside the block and charge them to `phase`.

        Wrappers and ``tracemalloc`` are on only inside the block, so code
        outside it runs at full speed.
        """
        self.install()
        tracemalloc.start()
        self.phase = phase
        self._step_mark = None
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            self.peaks[phase] = max(self.peaks.get(phase, 0), peak)
            tracemalloc.stop()
            self.uninstall()

    # -- queries --------------------------------------------------------

    def row(self, phase: str, span: str) -> dict:
        return self.tables.get(phase, {}).get(span, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "net_s": 0.0})

    def ops(self, phase: str) -> int:
        return self.op_calls.get(phase, 0)
