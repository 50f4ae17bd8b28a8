"""Static daemon configuration — the equivalent of ``spread.conf``.

Spread daemons read a static configuration naming every daemon that may
ever participate (the *potential* membership); the membership protocol
then discovers which of them are currently alive and connected.  The
timeouts here drive failure detection and the membership state machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import SpreadError


@dataclass(frozen=True)
class SpreadConfig:
    """Configuration shared by all daemons of one deployment.

    Parameters
    ----------
    daemons:
        Names of every potential daemon, unique and non-empty.
    hello_interval:
        Heartbeat period (seconds).  Heartbeats also advance the total
        order, so this bounds agreed-delivery latency under silence.
    fail_timeout:
        Silence from a view member longer than this marks it failed.
    gather_timeout:
        How long a daemon collects gather announcements before the
        coordinator proposes a membership.
    sync_timeout:
        How long the coordinator waits for sync (cut) responses before
        restarting the membership protocol without the laggards.
    nack_timeout:
        Age of a sequence gap before a retransmission request is sent.
    ipc_delay:
        One-way latency of the daemon<->client same-machine channel.
    ordering:
        Total-order engine: ``"lamport"`` (timestamp-based, the default)
        or ``"ring"`` (Totem-style rotating token sequencer, the protocol
        family the real Spread descends from).
    """

    daemons: Tuple[str, ...]
    hello_interval: float = 0.020
    fail_timeout: float = 0.100
    gather_timeout: float = 0.040
    sync_timeout: float = 0.500
    nack_timeout: float = 0.030
    ipc_delay: float = 0.00005
    ordering: str = "lamport"
    # Byte payloads above this are fragmented by the client library and
    # reassembled at receivers (Spread's SP_scat behaviour).
    max_message_size: int = 65536
    # Sender-side coalescing: reliable data messages bound for the same
    # destination travel as one Packed datagram (only the Lamport engine
    # packs).  Always on; the field stays only as the unpacked reference
    # (False) that tests/chaos/test_packing_equivalence.py A/Bs against,
    # and because benchmarks/e2e/run.py stamps it into every result.
    packing: bool = True

    def __post_init__(self) -> None:
        if not self.daemons:
            raise SpreadError("configuration needs at least one daemon")
        if len(set(self.daemons)) != len(self.daemons):
            raise SpreadError("duplicate daemon names in configuration")
        if any(not name for name in self.daemons):
            raise SpreadError("empty daemon name in configuration")
        for attribute in (
            "hello_interval",
            "fail_timeout",
            "gather_timeout",
            "sync_timeout",
            "nack_timeout",
            "ipc_delay",
        ):
            if getattr(self, attribute) <= 0:
                raise SpreadError(f"{attribute} must be positive")
        if self.fail_timeout <= self.hello_interval:
            raise SpreadError("fail_timeout must exceed hello_interval")
        if self.ordering not in ("lamport", "ring"):
            raise SpreadError(
                f"unknown ordering engine {self.ordering!r};"
                " use 'lamport' or 'ring'"
            )
        if self.max_message_size <= 0:
            raise SpreadError("max_message_size must be positive")

    @classmethod
    def for_daemons(cls, *names: str, **overrides) -> "SpreadConfig":
        """Convenience constructor: ``SpreadConfig.for_daemons("d1", "d2")``."""
        return cls(daemons=tuple(names), **overrides)

    def index_of(self, daemon: str) -> int:
        """Stable index of a daemon in the configuration."""
        try:
            return self.daemons.index(daemon)
        except ValueError:
            raise SpreadError(f"daemon {daemon!r} not in configuration") from None
