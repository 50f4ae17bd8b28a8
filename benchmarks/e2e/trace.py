"""Timing wrappers around each layer's public entry points.

The traced run installs a wrapper on every entry point in
:data:`ENTRY_POINTS` — class attributes for methods and, for module-level
functions, *every* ``repro.*`` binding of the function object (a
``from x import f`` makes a second binding the caller actually uses).
Everything runs on one thread, so a plain stack is enough: a span's self
time is its duration minus the time covered by the spans it encloses, and
a layer's self time is the sum over its spans.  Totals are kept per entry
point as the run goes; the first :data:`RAW_SPAN_CAP` spans are also kept
whole (name, start, end, parent, operation id) and written at the end as
JSONL and as a Chrome trace.

The library is never edited: :func:`install` swaps attributes,
:func:`uninstall` puts the originals back, :func:`installed` lists what is
currently wrapped (an untraced run must leave that empty).
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: Whole spans kept for the JSONL / Chrome trace (aggregates cover all).
RAW_SPAN_CAP = 100_000

#: Pseudo-layer for the benchmark's own code (generator, callbacks).
HARNESS = "harness"

_KEYAGREE_MODULE = ("on_view", "on_restart", "on_token", "refresh", "reset", "secret")
_ORDERING = ("submit", "ingest", "note_hello", "periodic")

#: layer -> ("module:Class" or "module", attribute names).  A leading
#: ``*`` marks an entry that must record at least one call on the
#: workload where its layer does most work (see ``COVERAGE``): these are
#: the hot paths and every function imported by name somewhere.
ENTRY_POINTS: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {
    "secure.session": [
        ("repro.secure.session:SecureClient", ("send", "send_many", "*join", "*leave")),
        ("repro.secure.session:SecureGroupSession", ("*handle_event",)),
    ],
    "secure.dataprotect": [
        ("repro.secure.dataprotect:DataProtector",
         ("*seal", "seal_many", "*unseal", "unseal_many")),
    ],
    "crypto.blowfish": [
        ("repro.secure.ciphers:CipherSuite", ("*encrypt_with", "*decrypt_with")),
    ],
    "crypto.hmac": [
        ("repro.crypto.hmac_mac:HmacKey", ("*digest", "*verify")),
    ],
    "crypto.bigint": [
        ("repro.crypto.bigint", ("*mod_exp",)),
        ("repro.crypto.multiexp",
         ("multi_exp", "shared_base_powers", "shared_exponent_powers")),
        ("repro.crypto.fixed_base", ("*fast_pow",)),
    ],
    "keyagree": [
        ("repro.secure.handlers.cliques_handler:CliquesModule", _KEYAGREE_MODULE),
        ("repro.secure.handlers.ckd_handler:CKDModule", _KEYAGREE_MODULE),
        ("repro.secure.handlers.tgdh_handler:TGDHModule", _KEYAGREE_MODULE),
        ("repro.cliques.context:CliquesContext",
         ("create_first", "prep_join", "process_upflow", "process_downflow",
          "leave", "refresh", "prep_merge", "process_merge_chain",
          "process_merge_collect", "process_merge_response", "reset")),
        ("repro.ckd.protocol:CKDContext",
         ("create_first", "start_change", "start_join", "process_hello",
          "process_response", "process_keydist", "leave", "refresh",
          "start_takeover", "reset")),
        ("repro.tgdh.context:TGDHContext",
         ("create_first", "make_join_request", "start_event", "refresh",
          "process_tree", "process_update", "reset")),
    ],
    "spread.flush": [
        ("repro.spread.flush:FlushClient",
         ("*multicast", "*flush_ok", "*join", "*leave")),
    ],
    "spread.fragments": [
        ("repro.spread.fragments", ("*split_payload",)),
        ("repro.spread.fragments:Reassembler", ("*accept",)),
    ],
    "transport.client": [
        ("repro.transport.client:TcpSpreadClient",
         ("*multicast", "join", "leave", "*flush_writes")),
    ],
    "spread.client": [
        ("repro.spread.client:SpreadClient",
         ("*multicast", "*join", "*leave", "*deliver_event")),
    ],
    "transport.wire": [
        ("repro.transport.wire", ("*encode_frame",)),
        ("repro.transport.wire:FrameDecoder", ("*feed",)),
    ],
    "transport.auth": [
        ("repro.transport.auth:FrameAuth", ("*tag", "*verify")),
        ("repro.transport.auth", ("*restricted_loads",)),
    ],
    "transport.tcp": [
        ("repro.transport.tcp:TcpTransport", ("*send",)),
    ],
    "spread.daemon": [
        ("repro.spread.daemon:SpreadDaemon",
         ("*on_message", "*client_multicast", "client_join", "client_leave")),
    ],
    "spread.ordering": [
        ("repro.spread.ordering:ViewPipeline", _ORDERING),
        ("repro.spread.ring:RingPipeline", _ORDERING),
    ],
    "spread.membership": [
        ("repro.spread.membership:MembershipEngine",
         ("trigger", "on_gather", "on_propose", "on_sync", "on_install")),
    ],
    "sim.kernel": [
        ("repro.sim.kernel:Kernel", ("run", "*run_until", "*call_at", "*call_later")),
    ],
    "net.network": [
        ("repro.net.network:Network", ("*send", "multicast")),
    ],
}

LAYERS: Tuple[str, ...] = tuple(ENTRY_POINTS)

_FLOODS = ("sealed_flood_tcp", "plain_flood_tcp", "bulk_tcp")
_TCP = _FLOODS + ("churn_tcp",)

#: layer -> (workload where it does most work, workloads where the timed
#: phase must record no call at all).  ``None`` as the busy workload: the
#: layer only works during set-up (``spread.membership`` is the *daemon*
#: membership engine; group joins and leaves never reach it while the
#: three daemons stay up), so there is no timed-phase call to demand.
COVERAGE: Dict[str, Tuple[Optional[str], Tuple[str, ...]]] = {
    "secure.session": ("churn_sim", ("plain_flood_tcp", "bulk_tcp")),
    "secure.dataprotect": ("sealed_flood_tcp", ("plain_flood_tcp", "bulk_tcp", "churn_sim")),
    "crypto.blowfish": ("sealed_flood_tcp", ("plain_flood_tcp", "bulk_tcp", "churn_sim")),
    "crypto.hmac": ("sealed_flood_tcp", ("plain_flood_tcp", "bulk_tcp")),
    "crypto.bigint": ("churn_sim", _FLOODS),
    "keyagree": ("churn_sim", _FLOODS),
    "spread.flush": ("churn_sim", ("plain_flood_tcp", "bulk_tcp")),
    "spread.fragments": ("bulk_tcp", ("sealed_flood_tcp", "plain_flood_tcp", "churn_tcp", "churn_sim")),
    "transport.client": ("plain_flood_tcp", ("churn_sim",)),
    "spread.client": ("churn_sim", _TCP),
    "transport.wire": ("plain_flood_tcp", ("churn_sim",)),
    "transport.auth": ("plain_flood_tcp", ("churn_sim",)),
    "transport.tcp": ("plain_flood_tcp", ("churn_sim",)),
    "spread.daemon": ("plain_flood_tcp", ()),
    "spread.ordering": ("plain_flood_tcp", ()),
    "spread.membership": (None, _FLOODS),
    "sim.kernel": ("churn_sim", _TCP),
    "net.network": ("churn_sim", _TCP),
}

_MARK = "__e2e_traced__"


class Recorder:
    """Span stack plus per-entry totals for one traced phase."""

    def __init__(self) -> None:
        self.names: List[str] = []       # entry id -> "layer:Owner.attr"
        self.layer_of: List[str] = []    # entry id -> layer
        self.required: List[bool] = []   # entry id -> marked with '*'
        self.self_ns: List[int] = []
        self.calls: List[int] = []
        self.active = False
        self.op = 0                      # operation id of the enclosing root
        self._child: List[int] = []      # per open span: ns covered by children
        self._open: List[int] = []       # per open span: raw index (or -1)
        self.raw: List[Tuple[int, int, int, int, int]] = []
        #: instances seen by entries registered with ``collect`` (used to
        #: read public counters of objects the library keeps private).
        self.seen: Dict[str, Set[Any]] = {}

    def register(self, layer: str, name: str, required: bool = False) -> int:
        self.names.append(f"{layer}:{name}")
        self.layer_of.append(layer)
        self.required.append(required)
        self.self_ns.append(0)
        self.calls.append(0)
        return len(self.names) - 1

    # -- explicit spans for the harness' own code ---------------------------

    def enter(self) -> int:
        """Open a span; returns its start time for :meth:`exit`."""
        self._child.append(0)
        if len(self.raw) < RAW_SPAN_CAP:
            self._open.append(len(self.raw))
            self.raw.append((0, 0, 0, 0, 0))  # filled in at exit
        else:
            self._open.append(-1)
        return time.perf_counter_ns()

    def exit(self, eid: int, started: int, op: Optional[int] = None) -> None:
        """Close the innermost span.  A library span carries the id of
        the operation it turned out to serve (``self.op``, set by a
        harness span inside or around it); a harness span says its own."""
        ended = time.perf_counter_ns()
        duration = ended - started
        self.self_ns[eid] += duration - self._child.pop()
        self.calls[eid] += 1
        index = self._open.pop()
        if self._child:
            self._child[-1] += duration
        if index >= 0:
            parent = self._open[-1] if self._open else -1
            self.raw[index] = (
                eid, started, ended, parent, self.op if op is None else op
            )
        if not self._child:
            self.op = 0  # the root span closed: its operation is over

    # -- results ----------------------------------------------------------------

    def by_layer(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        for eid, layer in enumerate(self.layer_of):
            row = out.setdefault(layer, {"self_ns": 0, "calls": 0})
            row["self_ns"] += self.self_ns[eid]
            row["calls"] += self.calls[eid]
        return out

    def by_entry(self) -> Dict[str, Dict[str, int]]:
        return {
            name: {"self_ns": self.self_ns[eid], "calls": self.calls[eid]}
            for eid, name in enumerate(self.names)
        }

    def write(self, directory: Path, stem: str) -> Dict[str, str]:
        """Write the kept spans as JSONL and as a Chrome trace."""
        from repro.obs.spans import Span, write_chrome_trace

        directory.mkdir(parents=True, exist_ok=True)
        jsonl = directory / f"{stem}.spans.jsonl"
        chrome = directory / f"{stem}.trace.json"
        origin = self.raw[0][1] if self.raw else 0
        spans = []
        with open(jsonl, "w", encoding="utf-8") as handle:
            for index, (eid, start, end, parent, op) in enumerate(self.raw):
                if end == 0:
                    continue  # still open when the phase ended
                name = self.names[eid]
                handle.write(json.dumps({
                    "id": index, "name": name, "start_ns": start - origin,
                    "end_ns": end - origin, "parent": parent, "op": op,
                }))
                handle.write("\n")
                layer = self.layer_of[eid]
                spans.append(Span(
                    name=name.split(":", 1)[1], category=layer, actor=layer,
                    start=(start - origin) / 1e9, end=(end - origin) / 1e9,
                    attrs={"op": op, "parent": parent},
                ))
        write_chrome_trace(chrome, spans)
        return {"spans_jsonl": str(jsonl), "chrome_trace": str(chrome)}


def _wrap(fn: Callable, rec: Recorder, eid: int, collect: Optional[str]) -> Callable:
    if inspect.iscoroutinefunction(fn):
        # A span cannot stay open across a suspension (other tasks would
        # nest inside it), so coroutine entry points are counted, not timed.
        def traced(*args, **kwargs):
            if rec.active:
                rec.calls[eid] += 1
            return fn(*args, **kwargs)
    else:
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if collect is not None:
                rec.seen[collect].add(args[0])
            started = rec.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit(eid, started)

    setattr(traced, _MARK, fn)
    traced.__name__ = getattr(fn, "__name__", "traced")
    traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
    return traced


def _entries():
    """Yield ``(layer, owner, attribute, required)`` for every entry point;
    ``owner`` is the class, or the module for a function."""
    for layer, groups in ENTRY_POINTS.items():
        for target, attrs in groups:
            module_name, _, cls_name = target.partition(":")
            owner = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            for attr in attrs:
                yield layer, owner, attr.lstrip("*"), attr.startswith("*")


def _function_bindings(fn: Callable, name: str) -> List[Any]:
    """Every loaded ``repro`` module that binds ``fn`` under ``name``."""
    return [
        module for mod_name, module in list(sys.modules.items())
        if module is not None
        and (mod_name == "repro" or mod_name.startswith("repro."))
        and getattr(module, name, None) is fn
    ]


#: (holder, attribute, original) for everything currently wrapped.
_installed: List[Tuple[Any, str, Any]] = []

#: Entry points whose ``self`` the recorder collects: label -> bucket.
_COLLECT = {"Reassembler.accept": "reassemblers"}


def install() -> Recorder:
    """Wrap every entry point; returns the recorder (inactive until
    ``recorder.active = True``)."""
    if _installed:
        raise RuntimeError("trace wrappers are already installed")
    rec = Recorder()
    for bucket in _COLLECT.values():
        rec.seen[bucket] = set()
    for layer, owner, attr, required in _entries():
        label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        original = vars(owner)[attr]
        wrapper = _wrap(
            original, rec, rec.register(layer, label, required),
            _COLLECT.get(label),
        )
        holders = (
            [owner] if inspect.isclass(owner)
            else _function_bindings(original, attr)
        )
        for holder in holders:
            setattr(holder, attr, wrapper)
            _installed.append((holder, attr, original))
    return rec


def uninstall() -> None:
    """Restore every original attribute."""
    while _installed:
        holder, attr, original = _installed.pop()
        setattr(holder, attr, original)


def installed() -> List[str]:
    """Names of the entry points that currently carry a wrapper."""
    return [
        f"{layer}:{owner.__name__}.{attr}"
        for layer, owner, attr, _ in _entries()
        if hasattr(vars(owner).get(attr), _MARK)
    ]
