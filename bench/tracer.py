"""Spans recorded around the program's public methods, installed from outside.

The tracer replaces a list of class attributes with timing wrappers for the
duration of a ``with`` block and puts the originals back on exit.  Nothing in
the program is edited or depends on it: a method that no longer exists is
reported under :attr:`Tracer.missing` instead of failing the run.  Spans stay
in memory and are written once, as Chrome trace-event JSON, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    """One call of a wrapped method."""

    id: int
    name: str
    thread: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A method to wrap: ``module.owner.method`` recorded as span ``name``.

    ``observe(result)`` returns span attributes read from the call's result.
    """

    module: str
    owner: str
    method: str
    name: str
    observe: Callable[[Any], dict] | None = None


class Tracer:
    """Installs :class:`Target` wrappers and collects their spans."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        # Span name -> why it could not be wrapped or observed.
        self.missing: dict[str, str] = {}
        self._installed: list[tuple[type, str, Any]] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._origin = time.perf_counter()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def install(self) -> None:
        for target in self.targets:
            try:
                owner = getattr(importlib.import_module(target.module), target.owner)
                function = getattr(owner, target.method)
            except (ImportError, AttributeError) as error:
                self.missing[target.name] = f"{type(error).__name__}: {error}"
                continue
            # Remember the class's own attribute (None when inherited), so
            # restore() puts back exactly what was there.
            self._installed.append((owner, target.method, owner.__dict__.get(target.method)))
            setattr(owner, target.method, self._wrap(function, target))

    def restore(self) -> None:
        while self._installed:
            owner, method, original = self._installed.pop()
            if original is None:
                delattr(owner, method)
            else:
                setattr(owner, method, original)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function: Callable, target: Target) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(instance, *args, **kwargs):
            stack = tracer._stack()
            span = Span(
                id=next(tracer._ids),
                name=target.name,
                thread=threading.get_ident(),
                parent=stack[-1].id if stack else None,
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = function(instance, *args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if target.observe is not None:
                try:
                    span.attrs.update(target.observe(result))
                except Exception as error:  # an observer must never fail the run
                    tracer.missing.setdefault(
                        target.name, f"observe {type(error).__name__}: {error}"
                    )
            return result

        return traced

    # -- queries ---------------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def self_seconds(self, name: str) -> float:
        """Total duration of ``name`` spans minus the time their child spans cover."""
        ids = {span.id for span in self.named(name)}
        covered = sum(span.seconds for span in self.spans if span.parent in ids)
        return sum(span.seconds for span in self.named(name)) - covered

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        pid = os.getpid()
        events = [
            {
                "name": span.name,
                "ph": "X",
                "pid": pid,
                "tid": span.thread,
                "ts": (span.start - self._origin) * 1e6,
                "dur": span.seconds * 1e6,
                "args": {"id": span.id, "parent": span.parent, **span.attrs},
            }
            for span in sorted(self.spans, key=lambda span: span.start)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: os.PathLike) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
