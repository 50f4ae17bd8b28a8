"""Fixed-base exponentiation tables: the control-plane fast path.

The key-agreement control plane is dominated by 512-bit modular
exponentiations (the paper's Tables 2-4 count them; Figure 4 shows they
are ~88% of join CPU time).  CPython's ``pow`` performs ~590 internal
multiply-reduce steps for a 512-bit exponent; a Python-level multiply
costs barely more than one of those internal steps, so *precomputation*
— trading one-time table construction for far fewer multiplies per
exponentiation — wins exactly as it does for OpenSSL's fixed-base
paths.

One table shape, :class:`CombTable` — an h=8 Lim-Lee comb: one shared
squaring chain plus a 255-entry combination table.  An exponentiation
is ~64 squarings + ~64 multiplications (~3.5x over ``pow``);
construction is ~700 multiplies (≈ one ``pow``, ~0.5 ms and ~25 KB at
512 bits), cheap enough for the group generator ``g`` of each
:class:`~repro.crypto.dh.DHParams` and for *dynamically discovered* hot
bases alike: long-term public keys looked up by every joiner, and the
per-token shared bases of CKD round 3 (see :mod:`repro.crypto.multiexp`).

Tables are held in :class:`FixedBaseCache`, an LRU keyed by
``(base, modulus)`` exactly like the data plane's
:class:`~repro.crypto.cipher_cache.CipherCache`.  Generators are
registered eagerly by ``DHParams`` and built on first use; any other
base is *promoted* (a table is built) once it has been seen
``promote_after`` times, which catches long-lived directory keys
without ever paying a table for a one-shot base.

The backend is a pure drop-in: every table evaluates the same
``base ** exponent mod modulus`` integer ``pow`` computes, so results
are bit-identical, and :func:`~repro.crypto.bigint.mod_exp` records the
exponentiation on its :class:`~repro.crypto.counters.ExpCounter`
*before* the backend is chosen, so Tables 2-4 regenerate identically
with the fast path on or off.  ``set_fast_backend(False)`` (or the
:func:`fast_backend` context manager) forces bare ``pow`` — that is the
reference side of the A/B harness (:mod:`repro.bench.keyagree`).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Set, Tuple

#: Below this modulus size a table cannot beat ``pow`` (the exponent is
#: short and Python-level loop overhead dominates); the small and tiny
#: test groups fall through to ``pow`` untouched.
MIN_MODULUS_BITS = 256

#: Build a table for a non-registered base once it has been used this
#: many times with the same modulus.
PROMOTE_AFTER = 3

# spread[b] places bit j of byte b at bit position 8*j: the byte-wise
# bit transpose used to extract comb digits with O(bytes) big-int work
# instead of O(bits) single-bit probes.
_SPREAD = []
for _byte in range(256):
    _x = 0
    for _j in range(8):
        if (_byte >> _j) & 1:
            _x |= 1 << (8 * _j)
    _SPREAD.append(_x)
del _byte, _x, _j


class CombTable:
    """Lim-Lee comb, h=8: one squaring chain shared by all exponents.

    The exponent's bits are viewed as an 8-row matrix (row ``i`` holds
    bits ``[i*a, (i+1)*a)``); the 255-entry table holds every combination
    ``base ** sum(2**(i*a) for i in subset)``, and an evaluation is one
    square + at most one multiply per column — the *simultaneous
    squaring* structure: the chain of column squarings is computed once
    per exponent instead of once per row.
    """

    __slots__ = ("modulus", "capacity_bits", "_columns", "_table", "uses")

    def __init__(self, base: int, modulus: int, bits: Optional[int] = None) -> None:
        bits = bits if bits is not None else modulus.bit_length()
        columns = -(-bits // 8)
        columns = (columns + 7) & ~7  # whole bytes: byte-spread extraction
        self.modulus = modulus
        self.capacity_bits = 8 * columns
        self._columns = columns
        self.uses = 0
        table = [1] * 256
        x = base % modulus
        for row in range(8):
            table[1 << row] = x
            if row < 7:
                for _ in range(columns):
                    x = (x * x) % modulus
        for j in range(3, 256):
            low = j & -j
            if j != low:
                table[j] = (table[j ^ low] * table[low]) % modulus
        self._table = table

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod modulus`` (exponent must fit)."""
        self.uses += 1
        columns = self._columns
        modulus = self.modulus
        table = self._table
        spread = _SPREAD
        row_mask = (1 << columns) - 1
        # packed bits [8c, 8c+8) = the comb digit of column c
        packed = 0
        for row in range(8):
            bits = (exponent >> (row * columns)) & row_mask
            gathered = 0
            shift = 0
            while bits:
                gathered |= spread[bits & 0xFF] << shift
                bits >>= 8
                shift += 64
            packed |= gathered << row
        acc = 1
        for column in range(columns - 1, -1, -1):
            if acc != 1:
                acc = (acc * acc) % modulus
            digit = (packed >> (8 * column)) & 0xFF
            if digit:
                acc = (acc * table[digit]) % modulus
        return acc % modulus


class FixedBaseCache:
    """LRU of fixed-base tables keyed by ``(base, modulus)``.

    Three ways a base gets a table:

    * :meth:`register` (``DHParams`` generators): remembered forever,
      built lazily on first :meth:`lookup`;
    * promotion: any base :meth:`lookup`-ed ``promote_after`` times gets
      a table (long-term public keys in a living group);
    * :meth:`precompute`: explicit construction (deployment start-up,
      the perf harness's directory warm-up).
    """

    __slots__ = (
        "maxsize",
        "promote_after",
        "_tables",
        "_registered",
        "_sightings",
        "hits",
        "misses",
        "builds",
        "evictions",
    )

    def __init__(
        self, maxsize: int = 256, promote_after: int = PROMOTE_AFTER
    ) -> None:
        if maxsize < 1:
            raise ValueError("fixed-base cache needs room for at least one table")
        self.maxsize = maxsize
        self.promote_after = promote_after
        self._tables: "OrderedDict[Tuple[int, int], CombTable]" = OrderedDict()
        self._registered: Set[Tuple[int, int]] = set()
        self._sightings: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0

    # -- registration ------------------------------------------------------

    def register(self, base: int, modulus: int) -> None:
        """Mark a long-lived base (a generator): table built on first use."""
        self._registered.add((base % modulus, modulus))

    def precompute(self, base: int, modulus: int) -> CombTable:
        """Build (or fetch) a table right now — start-up precomputation."""
        key = (base % modulus, modulus)
        table = self._tables.get(key)
        if table is None:
            table = self._build(key)
        else:
            self._tables.move_to_end(key)
        return table

    # -- the hot-path lookup -----------------------------------------------

    def lookup(self, base: int, modulus: int) -> Optional[CombTable]:
        """The table for a base, building registered/hot ones on demand.

        Returns ``None`` (caller falls back to ``pow``) until the base
        earns a table.
        """
        key = (base, modulus)
        table = self._tables.get(key)
        if table is not None:
            self.hits += 1
            self._tables.move_to_end(key)
            return table
        if key in self._registered:
            return self._build(key)
        sightings = self._sightings.get(key, 0) + 1
        if sightings >= self.promote_after:
            self._sightings.pop(key, None)
            return self._build(key)
        self.misses += 1
        self._sightings[key] = sightings
        self._sightings.move_to_end(key)
        if len(self._sightings) > 4 * self.maxsize:
            self._sightings.popitem(last=False)
        return None

    def _build(self, key: Tuple[int, int]) -> CombTable:
        table = CombTable(*key)
        self.builds += 1
        self._tables[key] = table
        if len(self._tables) > self.maxsize:
            self._tables.popitem(last=False)
            self.evictions += 1
        return table

    # -- bookkeeping -------------------------------------------------------

    def invalidate(self, base: int, modulus: int) -> bool:
        """Drop one base's table (and pending sightings)."""
        key = (base % modulus, modulus)
        self._sightings.pop(key, None)
        return self._tables.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every table and sighting and reset statistics.

        Registered generators stay registered (they are structural, not
        state) and will simply rebuild on next use.
        """
        self._tables.clear()
        self._sightings.clear()
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return key in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    def stats(self) -> Dict[str, int]:
        """Counters for tests and the perf harness."""
        return {
            "size": len(self._tables),
            "maxsize": self.maxsize,
            "registered": len(self._registered),
            "tracked_bases": len(self._sightings),
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "evictions": self.evictions,
        }


#: Process-wide cache and backend switch.
_default_cache: Optional[FixedBaseCache] = None
_fast_enabled = True


def default_cache() -> FixedBaseCache:
    """The shared process-wide fixed-base table cache."""
    global _default_cache
    if _default_cache is None:
        _default_cache = FixedBaseCache()
    return _default_cache


def register_generator(base: int, modulus: int) -> None:
    """Eagerly mark a group generator for fixed-base treatment."""
    if modulus.bit_length() >= MIN_MODULUS_BITS:
        default_cache().register(base, modulus)


def fast_backend_enabled() -> bool:
    return _fast_enabled


def set_fast_backend(enabled: bool) -> None:
    """Turn the table backend on/off process-wide (A/B harness hook)."""
    global _fast_enabled
    _fast_enabled = bool(enabled)


@contextmanager
def fast_backend(enabled: bool) -> Iterator[None]:
    """Temporarily force the backend on or off."""
    previous = _fast_enabled
    set_fast_backend(enabled)
    try:
        yield
    finally:
        set_fast_backend(previous)


def fast_pow(base: int, exponent: int, modulus: int) -> Optional[int]:
    """Table-backed ``base ** exponent mod modulus``, or ``None``.

    ``None`` means "no table applies — use ``pow``": the backend is
    disabled, the modulus is small, the base is degenerate (0, 1), the
    exponent is negative or wider than the table, or the base simply has
    not earned a table yet.  ``base`` must already be reduced into
    ``[0, modulus)`` (:func:`~repro.crypto.bigint.mod_exp` guarantees
    this).
    """
    if (
        not _fast_enabled
        or base < 2
        or exponent < 0
        or modulus.bit_length() < MIN_MODULUS_BITS
    ):
        return None
    table = default_cache().lookup(base, modulus)
    if table is None or exponent.bit_length() > table.capacity_bits:
        return None
    return table.pow(exponent)
