"""Large-message fragmentation and reassembly.

Real Spread bounds a single message (~100 KB) and offers scatter/gather
(``SP_scat``) for larger payloads.  This module gives the client library
the same behaviour: byte payloads above the configured threshold are
split into fragments that ride ordinary ordered multicast; receivers
reassemble and deliver one event, transparently.

Fragments of one logical message share the sender's fragment id; the
per-sender ordering guarantees (FIFO and above) make reassembly a
simple append — a gap or reordering within one sender's fragments is
impossible at the service levels that deliver them.

The data plane is zero-copy on both sides: :func:`split_payload` hands
out read-only ``memoryview`` slices of the original payload (no bytes
are duplicated at send time), and the :class:`Reassembler` writes each
arriving chunk straight into a preallocated ``bytearray`` at its final
offset — one copy per byte end to end, instead of slice-copies plus a
``b"".join`` of the whole message.

The reassembler is nevertheless hardened against an adversarial
substrate (the chaos crucible's duplication faults): a re-delivered
fragment is idempotent, and a fragment belonging to a message id the
sender has already completed (a *superseded* id) is dropped with a
trace event instead of corrupting the reassembly buffer or leaking a
partial entry that can never complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import IllegalMessageError
from repro.sim.trace import Tracer


@dataclass(frozen=True)
class MessageFragment:
    """One slice of an oversized payload.

    ``chunk`` is ``bytes`` or a read-only ``memoryview`` (the zero-copy
    split path); content equality and hashing treat the two identically.
    """

    fragment_id: int  # per-sender-connection counter
    index: int
    total: int
    chunk: Any  # bytes | memoryview

    def wire_size(self) -> int:
        return 32 + len(self.chunk)

    def __reduce__(self):
        # memoryview chunks are not picklable (and need not be: pickling
        # is serialization, so materializing the slice is the copy the
        # wire format would make anyway).
        return (
            MessageFragment,
            (self.fragment_id, self.index, self.total, bytes(self.chunk)),
        )


def split_payload(
    payload, max_size: int, fragment_id: int
) -> List[MessageFragment]:
    """Split ``payload`` into fragments of at most ``max_size`` bytes.

    The chunks are read-only ``memoryview`` slices over the payload —
    no byte is copied at split time.
    """
    if max_size <= 0:
        raise IllegalMessageError("fragment size must be positive")
    if isinstance(payload, memoryview):
        view = payload
    else:
        # bytes(payload) is a no-op for bytes and materializes bytearray
        # (a mutable buffer would make the fragments unhashable and the
        # slices aliases of live data).
        view = memoryview(bytes(payload))
    total = max(1, (len(view) + max_size - 1) // max_size)
    return [
        MessageFragment(
            fragment_id=fragment_id,
            index=index,
            total=total,
            chunk=view[index * max_size : (index + 1) * max_size],
        )
        for index in range(total)
    ]


class _Partial:
    """Reassembly state for one (sender, fragment id).

    ``buffer`` is preallocated at ``chunk_size * total`` once the common
    chunk size is known (any non-final fragment reveals it); chunks are
    written at ``index * chunk_size``.  A final fragment arriving before
    the size is known (impossible under FIFO, tolerated for hardening)
    waits in ``stash``.
    """

    __slots__ = ("total", "chunk_size", "buffer", "have", "tail_len", "stash")

    def __init__(self, total: int) -> None:
        self.total = total
        self.chunk_size: Optional[int] = None
        self.buffer: Optional[bytearray] = None
        self.have: Set[int] = set()
        self.tail_len: Optional[int] = None
        self.stash: Dict[int, bytes] = {}

    def stored(self, index: int):
        """The already-stored content at ``index`` (duplicate checks)."""
        if index in self.stash:
            return self.stash[index]
        chunk_size = self.chunk_size
        length = (
            self.tail_len
            if index == self.total - 1 and self.tail_len is not None
            else chunk_size
        )
        offset = index * chunk_size
        return memoryview(self.buffer)[offset : offset + length]

    def write(self, index: int, chunk) -> int:
        """Place one chunk; returns the bytes copied."""
        is_final = index == self.total - 1
        if self.chunk_size is None and not is_final:
            self.chunk_size = len(chunk)
            self.buffer = bytearray(self.chunk_size * self.total)
            stash, self.stash = self.stash, {}
            copied = 0
            for stashed_index, stashed in stash.items():
                copied += self.write(stashed_index, stashed)
            offset = index * self.chunk_size
            self.buffer[offset : offset + len(chunk)] = chunk
            self.have.add(index)
            return copied + len(chunk)
        if self.buffer is None:
            # Final fragment first (size still unknown): hold it aside.
            self.stash[index] = bytes(chunk)
            self.have.add(index)
            self.tail_len = len(chunk)
            return len(chunk)
        if not is_final and len(chunk) != self.chunk_size:
            raise IllegalMessageError(
                "fragment size inconsistent within one message"
            )
        if is_final:
            self.tail_len = len(chunk)
        offset = index * self.chunk_size
        self.buffer[offset : offset + len(chunk)] = chunk
        self.have.add(index)
        return len(chunk)

    def result(self) -> bytes:
        length = (self.total - 1) * (self.chunk_size or 0) + (
            self.tail_len if self.tail_len is not None else self.chunk_size
        )
        return bytes(memoryview(self.buffer)[:length])


class Reassembler:
    """Collects fragments per (sender, fragment id) into whole payloads."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self._partial: Dict[Tuple[str, int], _Partial] = {}
        # Highest fragment id already fully reassembled, per sender:
        # anything at or below it is superseded and must not reopen a
        # buffer (fragment ids grow monotonically per connection).
        self._completed: Dict[str, int] = {}
        self._tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.stale_dropped = 0
        self.duplicates_ignored = 0
        self.bytes_copied = 0  # payload bytes written into buffers

    def accept(self, sender: str, fragment: MessageFragment) -> Optional[bytes]:
        """Feed one fragment; returns the whole payload when complete.

        Duplicated fragments are idempotent; fragments of a superseded
        message id are dropped (with a ``fragments.stale_drop`` trace
        event) rather than corrupting the buffer.
        """
        total = fragment.total
        index = fragment.index
        if total < 1 or not 0 <= index < total:
            raise IllegalMessageError(
                f"malformed fragment {index}/{total}"
            )
        if fragment.fragment_id <= self._completed.get(sender, 0):
            self.stale_dropped += 1
            if self._tracer.enabled:
                self._tracer.record(
                    "fragments.stale_drop",
                    sender=sender,
                    fragment_id=fragment.fragment_id,
                    index=index,
                    completed_upto=self._completed.get(sender, 0),
                )
            return None
        key = (sender, fragment.fragment_id)
        partial = self._partial.get(key)
        if partial is None:
            if total == 1:
                # Single-fragment message: nothing to assemble.
                self._completed[sender] = max(
                    self._completed.get(sender, 0), fragment.fragment_id
                )
                self.bytes_copied += len(fragment.chunk)
                return bytes(fragment.chunk)
            partial = _Partial(total)
            self._partial[key] = partial
        if partial.total != total:
            raise IllegalMessageError(
                "fragment total changed mid-message"
            )
        if index in partial.have:
            if partial.stored(index) != fragment.chunk:
                raise IllegalMessageError(
                    f"conflicting re-delivery of fragment"
                    f" {index}/{total} from {sender}"
                )
            self.duplicates_ignored += 1
            if self._tracer.enabled:
                self._tracer.record(
                    "fragments.duplicate",
                    sender=sender,
                    fragment_id=fragment.fragment_id,
                    index=index,
                )
            return None
        self.bytes_copied += partial.write(index, fragment.chunk)
        if len(partial.have) < total:
            return None
        del self._partial[key]
        previous = self._completed.get(sender, 0)
        self._completed[sender] = max(previous, fragment.fragment_id)
        return partial.result()

    def pending_count(self) -> int:
        """Messages currently awaiting fragments (for monitoring)."""
        return len(self._partial)

    def drop_sender(self, sender: str) -> None:
        """Forget a departed sender: its open partials and its completed
        mark, so a new connection under the same pid, whose fragment ids
        restart at 1, is not dropped as stale."""
        for key in [key for key in self._partial if key[0] == sender]:
            del self._partial[key]
        self._completed.pop(sender, None)
