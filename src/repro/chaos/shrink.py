"""Delta debugging for fault schedules (Zeller's ddmin).

When a seeded chaos run violates an invariant, its fault schedule is
usually mostly noise: three partitions, a stall and an adversarial
window, of which one partition at one moment is what actually tickles
the bug.  :func:`shrink_schedule` reduces a failing schedule to a
*1-minimal* one — removing any single remaining action makes the
failure disappear — by re-executing candidate subsets through a caller
-supplied predicate (deterministic replay makes each re-execution
faithful).

Actions the caller marks with ``keep`` (typically the end-of-window
repair block) are always retained, so the shrinker cannot "reproduce"
the failure by simply never repairing the network.

The shrinker is generic over the schedule type: any dataclass with an
``actions`` list whose items carry an ``at`` time — the simulator's
:class:`~repro.net.fault.FaultSchedule` and the TCP backend's
:class:`~repro.transport.netem.NetemSchedule` alike.  Candidates are
``dataclasses.replace`` copies, so every other field (a netem
schedule's ``origin``) rides along.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, List, Optional, Sequence, TypeVar

Schedule = TypeVar("Schedule")


def shrink_schedule(
    schedule: Schedule,
    failing: Callable[[Schedule], bool],
    keep: Optional[Callable[[Any], bool]] = None,
    max_runs: int = 200,
) -> Schedule:
    """ddmin over the schedule's action list.

    ``failing(candidate)`` must return True when the candidate schedule
    still reproduces the failure; it is never called more than
    ``max_runs`` times (the current best reduction is returned when the
    budget runs out).  ``keep`` marks actions that are part of every
    candidate (e.g. the final repair actions).
    """
    always = [a for a in schedule.actions if keep is not None and keep(a)]
    shrinkable: List[Any] = [
        a for a in schedule.actions if not (keep is not None and keep(a))
    ]
    runs = 0

    def candidate(subset: Sequence[Any]) -> Schedule:
        return replace(
            schedule, actions=sorted(list(subset) + always, key=lambda a: a.at)
        )

    def test(subset: Sequence[Any]) -> bool:
        nonlocal runs
        if runs >= max_runs:
            return False
        runs += 1
        return failing(candidate(subset))

    if not test(shrinkable):
        raise ValueError(
            "schedule does not reproduce the failure (predicate is False"
            " on the full action list)"
        )

    granularity = 2
    while len(shrinkable) >= 2:
        chunks = _split(shrinkable, granularity)
        reduced = False
        # Try each chunk alone...
        for chunk in chunks:
            if test(chunk):
                shrinkable = list(chunk)
                granularity = 2
                reduced = True
                break
        if reduced:
            continue
        # ...then each complement.
        if granularity > 2:
            for index in range(len(chunks)):
                complement = [
                    action
                    for j, chunk in enumerate(chunks)
                    for action in chunk
                    if j != index
                ]
                if test(complement):
                    shrinkable = complement
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
        if reduced:
            continue
        if granularity >= len(shrinkable):
            break
        granularity = min(len(shrinkable), granularity * 2)

    return candidate(shrinkable)


def _split(items: List[Any], pieces: int) -> List[List[Any]]:
    """Split into ``pieces`` nearly equal contiguous chunks."""
    size, remainder = divmod(len(items), pieces)
    chunks: List[List[Any]] = []
    cursor = 0
    for index in range(pieces):
        extent = size + (1 if index < remainder else 0)
        if extent == 0:
            continue
        chunks.append(items[cursor : cursor + extent])
        cursor += extent
    return chunks
