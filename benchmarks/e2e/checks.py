"""Correctness checks on the benchmark's outputs (run outside the timed window).

Every check returns a list of human-readable failures; an empty list
means the output is correct.  :func:`front_digest` condenses results
into one hash, so a later change can show bit-identity of its fronts
against its parent on the same seed.
"""

from __future__ import annotations

import hashlib

from repro import evaluate
from repro.mo.dominance import dominates

__all__ = ["check_result", "front_digest", "front_key"]


def front_key(result) -> tuple:
    """The bit-exact identity of one run: its archive front and, for
    simulated runs, the simulated clock."""
    rows = tuple(
        (e.objectives.distance.hex(), e.objectives.vehicles, e.objectives.tardiness.hex())
        for e in result.archive
    )
    sim = result.simulated_time
    return (result.evaluations, None if sim is None else float(sim).hex(), rows)


def front_digest(keys) -> str:
    digest = hashlib.sha256()
    for key in keys:
        digest.update(repr(key).encode())
    return digest.hexdigest()[:16]


def check_result(label: str, result, instance, budget: int, searchers: int) -> list[str]:
    """Budget, objective and archive invariants of one finished run.

    ``searchers`` independent searches each stop within one
    neighborhood past the budget (the initial solution counts as one
    evaluation), so the total lies in
    ``[budget, budget + neighborhood_size]`` per searcher.
    """
    errors = []
    size = result.params.neighborhood_size
    low, high = budget * searchers, (budget + size) * searchers
    if not low <= result.evaluations <= high:
        errors.append(
            f"{label}: {result.evaluations} evaluations outside [{low}, {high}]"
        )
    if not result.archive:
        errors.append(f"{label}: empty archive")
    for entry in result.archive:
        fresh = evaluate(instance, entry.item)
        if tuple(fresh) != tuple(entry.objectives):
            errors.append(
                f"{label}: archived objectives {tuple(entry.objectives)} differ "
                f"from a fresh evaluation {tuple(fresh)}"
            )
            break
    objectives = [e.objectives for e in result.archive]
    for a in objectives:
        if any(dominates(b, a) for b in objectives):
            errors.append(f"{label}: archive holds dominated point {tuple(a)}")
            break
    return errors
