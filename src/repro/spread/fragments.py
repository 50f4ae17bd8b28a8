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

:func:`split_payload` hands out read-only ``memoryview`` slices of the
original payload, so no byte is duplicated at send time.  On the TCP
backend each chunk then travels beside the pickled envelope as an
out-of-band buffer (:mod:`repro.transport.wire`), and the copies a byte
of a fragmented message goes through are, per hop:

* the sender's frame encoder joins the chunk into the frame;
* the receiver's decoder appends the read to its stream buffer, then
  copies the chunk out of it, once (a daemon forwards that copy as is);

and, at the receiving client only, one more: the :class:`Reassembler`
keeps each chunk as it arrived and joins them into the ``bytes`` the
application receives when the last one is in (``bytes_copied`` counts
these bytes).  On the simulator that join is the only copy.

The reassembler is nevertheless hardened against an adversarial
substrate (the chaos crucible's duplication faults): a re-delivered
fragment is idempotent, and a fragment belonging to a message id the
sender has already completed (a *superseded* id) is dropped with a
trace event instead of corrupting the reassembly buffer or leaking a
partial entry that can never complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import IllegalMessageError
from repro.sim.trace import Tracer


@dataclass(frozen=True)
class MessageFragment:
    """One slice of an oversized payload.

    ``chunk`` is ``bytes`` or a read-only ``memoryview`` (the zero-copy
    split path); content equality and hashing treat the two identically.
    The wire codec sends the chunk out of band and hands the receiver
    ``bytes``.
    """

    fragment_id: int  # per-sender-connection counter
    index: int
    total: int
    chunk: Any  # bytes | memoryview

    def wire_size(self) -> int:
        return 32 + len(self.chunk)


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

    ``chunks`` holds each arrived chunk by index, as it came: chunks are
    immutable (``bytes`` off the wire, slices of the sender's ``bytes``
    on the simulator), so nothing is copied until :meth:`result` joins
    them.  Every non-final chunk has the common size and the final one
    is no larger, whichever arrives first: a longer final chunk would
    grow the message.
    """

    __slots__ = ("total", "chunks", "chunk_size", "tail_len")

    def __init__(self, total: int) -> None:
        self.total = total
        self.chunks: Dict[int, Any] = {}
        self.chunk_size: Optional[int] = None
        self.tail_len: Optional[int] = None

    def add(self, index: int, chunk) -> None:
        final = index == self.total - 1
        size = len(chunk)
        common = self.chunk_size
        if common is None and not final:
            common = size
        tail = size if final else self.tail_len
        if (not final and size != common) or (
            common is not None and tail is not None and tail > common
        ):
            raise IllegalMessageError(
                "fragment size inconsistent within one message"
            )
        self.chunk_size, self.tail_len = common, tail
        self.chunks[index] = chunk

    def result(self) -> bytes:
        chunks = self.chunks
        return b"".join([chunks[index] for index in range(self.total)])


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
        self.bytes_copied = 0  # payload bytes copied into whole messages

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
        if index in partial.chunks:
            if partial.chunks[index] != fragment.chunk:
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
        partial.add(index, fragment.chunk)
        if len(partial.chunks) < total:
            return None
        del self._partial[key]
        previous = self._completed.get(sender, 0)
        self._completed[sender] = max(previous, fragment.fragment_id)
        whole = partial.result()
        self.bytes_copied += len(whole)
        return whole

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
