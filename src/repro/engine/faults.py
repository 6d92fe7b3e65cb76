"""Deterministic fault injection for the sharded backend.

The sharded backend's one failure path — close the whole pool and finish the
lost views in the parent (:mod:`repro.engine.sharded`) — is only
trustworthy if every failure mode it claims to survive can be produced on
demand, deterministically, in tests and in the CI chaos job.  This module is
that switchboard: a :class:`FaultPlan` names *sites* — (worker, batch
operation, optional view) coordinates — at which a shard worker should
**crash** (hard ``os._exit``), **hang** (sleep past the dispatch deadline),
run **slow** (sleep, then answer normally) or return a **poisoned**
(structurally invalid) reply.  The parent resolves the plan against each
dispatch and ships the matching sites to the workers inside the
request payload; workers apply them blindly before touching shared memory.
Nothing here runs unless a plan is activated, so the production hot path
pays only a ``None`` check.

Plans come from three places, in precedence order:

1. :func:`set_fault_plan` / the :func:`fault_plan` context manager
   (tests, :mod:`repro.testing.matrix`),
2. the ``REPRO_SHARD_FAULTS`` environment variable (CI chaos job),
3. nothing — the default.

Spec grammar (``;``-separated entries)::

    KIND@WORKER.BATCH[.VIEW][:OPT,OPT,...]
    random:SEED:RATE[:KIND+KIND+...]

``KIND`` is one of ``crash|hang|slow|poison``; ``WORKER`` and ``BATCH`` are
integers or ``*`` (any).  ``BATCH`` counts *dispatch operations* on the
backend instance (each sharded forward dispatch and each sharded backward
dispatch increments it), so ``crash@1.0`` means "worker 1 crashes on the
first sharded operation".  ``VIEW`` restricts the site to dispatches where
that view index is part of the worker's assignment.  Options: ``delay=SECONDS``
(sleep length for ``slow``/``hang``), ``sticky`` (fire every time instead
of once), ``wedge`` (ignore ``SIGTERM`` first, so only ``kill()`` can stop
the worker — exercises the pool close's terminate -> kill escalation),
``phase=render|backward`` (restrict to one dispatch phase).

``random`` mode seeds a per-(operation, worker) draw through
:func:`repro.utils.random.derive_seed`: with probability ``RATE`` the
worker suffers one of the listed kinds (default ``crash+slow+poison`` —
``hang`` is excluded because it costs a full deadline per firing).  The
same seed always yields the same fault schedule, which is what lets the
hypothesis property in ``tests/test_sharded.py`` assert bitwise equality
for *any* schedule.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.utils.random import derive_seed

ENV_SHARD_FAULTS = "REPRO_SHARD_FAULTS"

FAULT_KINDS = ("crash", "hang", "slow", "poison")

_DEFAULT_RANDOM_KINDS = ("crash", "slow", "poison")
_DEFAULT_SLOW_DELAY_S = 0.05


@dataclass(frozen=True)
class FaultSite:
    """One injection site: *kind* fired at (worker, batch[, view])."""

    kind: str
    worker: int | None  # None = any worker
    batch: int | None  # None = any dispatch operation
    view: int | None = None  # only when the worker's dispatch includes this view
    delay_s: float = 0.0
    sticky: bool = False
    wedge: bool = False
    phase: str | None = None  # "render" | "backward" | None = any

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.phase not in (None, "render", "backward"):
            raise ValueError(f"unknown fault phase {self.phase!r}")
        if self.delay_s < 0:
            raise ValueError(f"fault delay must be >= 0, got {self.delay_s}")

    def matches(
        self,
        *,
        op_index: int,
        phase: str,
        worker_id: int,
        views: Sequence[int],
    ) -> bool:
        if self.phase is not None and self.phase != phase:
            return False
        if self.worker is not None and self.worker != worker_id:
            return False
        if self.batch is not None and self.batch != op_index:
            return False
        if self.view is not None and self.view not in views:
            return False
        return True

    def wire(self, key: str) -> dict:
        """The payload shipped to (and applied blindly by) the worker."""
        delay = self.delay_s
        if delay == 0.0 and self.kind == "slow":
            delay = _DEFAULT_SLOW_DELAY_S
        return {"key": key, "kind": self.kind, "delay": delay, "wedge": self.wedge}


@dataclass(frozen=True)
class FaultPlan:
    """A set of explicit sites plus an optional seeded random component."""

    sites: tuple[FaultSite, ...] = ()
    seed: int | None = None  # random mode off when None
    rate: float = 0.0
    random_kinds: tuple[str, ...] = _DEFAULT_RANDOM_KINDS

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        for kind in self.random_kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r} in random_kinds")

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_SHARD_FAULTS`` grammar (see module docstring)."""
        sites: list[FaultSite] = []
        seed: int | None = None
        rate = 0.0
        random_kinds = _DEFAULT_RANDOM_KINDS
        for raw_entry in text.split(";"):
            entry = raw_entry.strip()
            if not entry:
                continue
            if entry.startswith("random:"):
                parts = entry.split(":")
                if len(parts) not in (3, 4):
                    raise ValueError(
                        f"bad random fault entry {entry!r}; "
                        "expected random:SEED:RATE[:KIND+KIND]"
                    )
                seed = _parse_int(parts[1], entry)
                rate = _parse_float(parts[2], entry)
                if len(parts) == 4:
                    random_kinds = tuple(k for k in parts[3].split("+") if k)
                continue
            head, _, opts = entry.partition(":")
            kind, sep, site_txt = head.partition("@")
            if not sep:
                raise ValueError(
                    f"bad fault entry {entry!r}; expected KIND@WORKER.BATCH[.VIEW]"
                )
            coords = site_txt.split(".")
            if len(coords) not in (2, 3):
                raise ValueError(
                    f"bad fault site {site_txt!r} in {entry!r}; "
                    "expected WORKER.BATCH[.VIEW]"
                )
            worker = _parse_coord(coords[0], entry)
            batch = _parse_coord(coords[1], entry)
            view = _parse_coord(coords[2], entry) if len(coords) == 3 else None
            delay_s = 0.0
            sticky = False
            wedge = False
            phase: str | None = None
            for opt in opts.split(","):
                opt = opt.strip()
                if not opt:
                    continue
                if opt == "sticky":
                    sticky = True
                elif opt == "wedge":
                    wedge = True
                elif opt.startswith("delay="):
                    delay_s = _parse_float(opt[len("delay=") :], entry)
                elif opt.startswith("phase="):
                    phase = opt[len("phase=") :]
                else:
                    raise ValueError(f"unknown fault option {opt!r} in {entry!r}")
            sites.append(
                FaultSite(
                    kind=kind,
                    worker=worker,
                    batch=batch,
                    view=view,
                    delay_s=delay_s,
                    sticky=sticky,
                    wedge=wedge,
                    phase=phase,
                )
            )
        return cls(sites=tuple(sites), seed=seed, rate=rate, random_kinds=random_kinds)

    def sites_for(
        self,
        *,
        op_index: int,
        phase: str,
        assignment: Mapping[int, Sequence[int]],
        fired: set,
    ) -> dict[int, list[dict]]:
        """Resolve the plan for one dispatch.

        ``assignment`` maps worker id -> the view indices it is about to
        receive.  ``fired`` is the caller-owned set of already-consumed
        (non-sticky) site keys; keys returned here are *not* added to it —
        the caller disarms sites once the dispatch's outcome is observed.
        Returns worker id -> wire payloads (possibly empty dict).
        """
        out: dict[int, list[dict]] = {}
        for worker_id, views in assignment.items():
            payloads: list[dict] = []
            for index, site in enumerate(self.sites):
                key = f"s{index}"
                if not site.sticky and key in fired:
                    continue
                if site.matches(
                    op_index=op_index, phase=phase, worker_id=worker_id, views=views
                ):
                    payloads.append(site.wire(key))
            if self.seed is not None and self.rate > 0.0 and self.random_kinds:
                rng = np.random.default_rng(
                    derive_seed(self.seed, op_index * 131 + worker_id + 1)
                )
                if rng.random() < self.rate:
                    kind = self.random_kinds[
                        int(rng.integers(len(self.random_kinds)))
                    ]
                    site = FaultSite(kind=kind, worker=worker_id, batch=op_index)
                    payloads.append(site.wire(f"r{op_index}.{worker_id}"))
            if payloads:
                out[worker_id] = payloads
        return out

    def sticky_keys(self) -> set:
        return {
            f"s{index}" for index, site in enumerate(self.sites) if site.sticky
        }


# ---------------------------------------------------------------------------
# Active-plan plumbing

_ACTIVE: FaultPlan | None = None
# Cache of the last env parse so active_fault_plan() stays cheap when the
# variable is set for a whole process (the CI chaos job).
_ENV_CACHE: tuple[str, FaultPlan] | None = None


def set_fault_plan(plan: FaultPlan | str | None) -> None:
    """Install ``plan`` process-wide (``None`` clears it).

    Strings are parsed with :meth:`FaultPlan.parse`.  An installed plan
    takes precedence over ``REPRO_SHARD_FAULTS``.
    """
    global _ACTIVE
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    _ACTIVE = plan


@contextmanager
def fault_plan(plan: FaultPlan | str) -> Iterator[FaultPlan]:
    """Scoped :func:`set_fault_plan`; restores the previous plan on exit."""
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    previous = _ACTIVE
    set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)


def active_fault_plan() -> FaultPlan | None:
    """The plan the sharded backend should consult right now, if any."""
    global _ENV_CACHE
    if _ACTIVE is not None:
        return _ACTIVE
    raw = os.environ.get(ENV_SHARD_FAULTS)
    if not raw:
        return None
    if _ENV_CACHE is None or _ENV_CACHE[0] != raw:
        _ENV_CACHE = (raw, FaultPlan.parse(raw))
    return _ENV_CACHE[1]


def _parse_int(raw: str, entry: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"bad integer {raw!r} in fault entry {entry!r}") from None


def _parse_float(raw: str, entry: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"bad number {raw!r} in fault entry {entry!r}") from None


def _parse_coord(raw: str, entry: str) -> int | None:
    if raw == "*":
        return None
    return _parse_int(raw, entry)


__all__ = [
    "ENV_SHARD_FAULTS",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSite",
    "active_fault_plan",
    "fault_plan",
    "set_fault_plan",
]
