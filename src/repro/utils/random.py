"""Seeded random number generation helpers.

Every stochastic component of the reproduction (scene generation, trajectory
noise, workload synthesis) takes an explicit ``numpy.random.Generator`` so
that experiments are deterministic end to end.  These helpers centralise the
conventions for creating and deriving generators.
"""

from __future__ import annotations

import numpy as np

_DEFAULT_SEED = 20251018  # MICRO'25 presentation date, purely a mnemonic.


def default_rng(seed: int | None = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` seeded deterministically.

    Parameters
    ----------
    seed:
        Explicit seed.  When ``None`` the library-wide default seed is used so
        repeated runs produce identical results.
    """
    if seed is None:
        seed = _DEFAULT_SEED
    return np.random.default_rng(seed)


def derive_seed(base: int | None, worker_id: int) -> int:
    """Derive a deterministic seed from ``base`` and an index ``worker_id``.

    Used where one seed must fan out into independent draws:
    :class:`repro.engine.FaultPlan` draws each (operation, worker) site of a
    random fault schedule from it, and the scenario matrix derives each
    cell's fault seed and each reference view's loss from it.  ``base=None``
    uses the library-wide default seed.  Distinct ``(base, worker_id)`` pairs produce
    decorrelated seeds (via ``numpy.random.SeedSequence``), and the function
    is pure: it does not consume entropy from any shared generator.
    """
    if base is None:
        base = _DEFAULT_SEED
    base = int(base)
    # SeedSequence accepts arbitrary-size non-negative ints, so the full base
    # participates (no truncation); the sign flag keeps -x and x distinct.
    sequence = np.random.SeedSequence([abs(base), int(base < 0), int(worker_id)])
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def derive_rng(rng: np.random.Generator, *keys: int | str) -> np.random.Generator:
    """Derive a child generator from ``rng`` and a sequence of keys.

    The derivation is deterministic given the parent state and keys, which lets
    independent subsystems (e.g. per-frame noise and per-scene geometry) draw
    from decorrelated streams without sharing mutable state.
    """
    material = [int(rng.integers(0, 2**31 - 1))]
    for key in keys:
        if isinstance(key, str):
            material.append(abs(hash(key)) % (2**31 - 1))
        else:
            material.append(int(key) % (2**31 - 1))
    seed_seq = np.random.SeedSequence(material)
    return np.random.default_rng(seed_seq)
