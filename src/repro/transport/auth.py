"""Frame authentication and restricted unpickling for the TCP backend.

Closes the transport's trust hole: wire frames used to be pickled
payloads protected only by a CRC, so anyone who could reach a daemon's
peer or client port could forge membership traffic — or worse, execute
arbitrary code through ``pickle.loads``.  This module supplies the two
halves of the fix:

* :class:`FrameAuth` — HMAC-SHA256 tags under a pre-shared deployment
  key loaded from a key file.  A frame's tag covers
  ``header || body || SHA-256(buffer)...``: the header, the pickled
  envelope (with the buffer lengths before it) and the digest of each
  out-of-band buffer (a fragment chunk, see :mod:`repro.transport.wire`).
  Verification is constant-time.  Every process in a deployment shares
  one key (the deployment file's ``keyfile``); a frame whose tag does
  not verify is rejected before its body is ever unpickled.  The
  tag is a tagged frame's only integrity check: the CRC-32 is computed
  on untagged frames alone.

* :class:`VerifiedBuffer` — a received buffer that keeps the digest its
  frame's tag was verified under.  When a daemon forwards a fragment
  unchanged, :meth:`FrameAuth.tag` reuses that digest instead of hashing
  the chunk again, so each fragment is hashed once by its sender and
  once by each receiver.  A digest is bound to an immutable ``bytes``
  object and only the decoder creates one, so it cannot go stale; a
  slice or a copy is plain ``bytes`` and is hashed again.

* :func:`restricted_loads` — a :class:`pickle.Unpickler` whose
  ``find_class`` only resolves classes defined in the registered
  wire-kind modules (:data:`WIRE_SAFE_MODULES`).  Even an
  *authenticated* body never reaches bare ``pickle.loads``: a key leak
  no longer implies code execution (defense in depth).

The pre-shared key authenticates *transport peers*, not group members:
it proves a frame was produced by a process holding the deployment key.
Group-level guarantees (confidentiality, membership authentication,
key freshness) remain the secure-session layer's job — see
``docs/TRANSPORT.md`` for the full threat model.

Key files hold the key as one hex line (whitespace ignored) so they can
be generated, inspected, and copied with ordinary tools::

    python -m repro.transport.auth generate deploy.key
    python -m repro.transport.auth fingerprint deploy.key
"""

from __future__ import annotations

import argparse
import hmac
import importlib
import io
import pickle
import secrets
import sys
from hashlib import sha256
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.crypto.hmac_mac import (
    SHA256_DIGEST_SIZE,
    HmacSha256Key,
    hmac_sha256_digest,
)
from repro.errors import FrameAuthError, RestrictedUnpickleError

#: Size of the per-frame HMAC-SHA256 tag on the wire.
TAG_SIZE = SHA256_DIGEST_SIZE

#: Refuse keys shorter than this many bytes (after hex decoding).
MIN_KEY_BYTES = 16

#: Bytes of fresh entropy in a generated key file.
GENERATED_KEY_BYTES = 32


class VerifiedBuffer(bytes):
    """A frame buffer received under a tag that verified, with the
    SHA-256 (``sha256``) the tag was checked against.

    Only :meth:`FrameAuth.verify` sets ``sha256``; :meth:`FrameAuth.tag`
    trusts it for this exact object and nothing derived from it.
    """

    sha256: bytes


def _digest(buffer: Any) -> bytes:
    if type(buffer) is VerifiedBuffer:
        return buffer.sha256
    return sha256(buffer).digest()


class FrameAuth:
    """A prepared deployment key for HMAC-SHA256 frame tags.

    Hashes the padded key's inner/outer blocks once (midstate caching,
    mirroring :class:`repro.crypto.hmac_mac.HmacKey`) so each frame pays
    only for its own bytes.  A frame's out-of-band buffers enter the tag
    as their SHA-256 digests, after the header and body.
    """

    __slots__ = ("_key", "key_id")

    def __init__(self, key: bytes) -> None:
        if len(key) < MIN_KEY_BYTES:
            raise FrameAuthError(
                f"deployment key too short: {len(key)} bytes "
                f"(minimum {MIN_KEY_BYTES})"
            )
        self._key = HmacSha256Key(key)
        # Short public identifier for logs/errors; reveals nothing about
        # the key bytes beyond a one-way fingerprint prefix.
        self.key_id = hmac_sha256_digest(b"repro-keyid", key)[:4].hex()

    @classmethod
    def from_keyfile(cls, path: Union[str, Path]) -> "FrameAuth":
        """Load a deployment key from a hex-encoded key file."""
        return cls(load_keyfile(path))

    def tag(self, header: bytes, body: bytes, buffers: Iterable = ()) -> bytes:
        """The HMAC-SHA256 tag authenticating ``header || body`` and the
        SHA-256 of each buffer.  A :class:`VerifiedBuffer` forwarded
        whole contributes the digest it arrived under, unhashed."""
        return self._key.digest(header, body, *map(_digest, buffers))

    def verify(
        self,
        header: bytes,
        body: bytes,
        tag: bytes,
        buffers: Sequence[VerifiedBuffer] = (),
    ) -> bool:
        """Constant-time verification of a frame tag.  Each buffer is
        hashed here and keeps its digest as ``sha256``."""
        for buffer in buffers:
            buffer.sha256 = sha256(buffer).digest()
        expected = self._key.digest(
            header, body, *[buffer.sha256 for buffer in buffers]
        )
        return hmac.compare_digest(expected, tag)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FrameAuth(key_id={self.key_id})"


def load_keyfile(path: Union[str, Path]) -> bytes:
    """Read and decode a hex key file, validating its length."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FrameAuthError(f"cannot read key file {path}: {exc}") from exc
    compact = "".join(text.split())
    try:
        key = bytes.fromhex(compact)
    except ValueError:
        raise FrameAuthError(f"key file {path} is not hex-encoded")
    if len(key) < MIN_KEY_BYTES:
        raise FrameAuthError(
            f"key file {path} holds only {len(key)} key bytes "
            f"(minimum {MIN_KEY_BYTES})"
        )
    return key


def generate_keyfile(path: Union[str, Path], force: bool = False) -> bytes:
    """Write a fresh random deployment key to ``path`` (mode 0600).

    Refuses to overwrite an existing file unless ``force`` — silently
    rotating a live deployment's key would cut off every running
    daemon.
    """
    key = secrets.token_bytes(GENERATED_KEY_BYTES)
    target = Path(path)
    if target.exists() and not force:
        raise FrameAuthError(
            f"key file {target} already exists (pass force to overwrite)"
        )
    target.write_text(key.hex() + "\n")
    try:
        target.chmod(0o600)
    except OSError:  # pragma: no cover - exotic filesystems
        pass
    return key


# ---------------------------------------------------------------------------
# Restricted unpickling
# ---------------------------------------------------------------------------

#: Core modules whose classes a wire frame body may reference.
#: Everything a registered wire kind transitively pickles lives here:
#: Spread envelopes and their nested events, client IPC verbs,
#: secure-layer sealed/control payloads, and key-agreement tokens.
#: Extensions add their own through :func:`register_wire_module`.
WIRE_SAFE_MODULES: Tuple[str, ...] = (
    "repro.types",
    "repro.spread.messages",
    "repro.spread.events",
    "repro.spread.flush",
    "repro.spread.fragments",
    "repro.spread.ring",
    "repro.transport.protocol",
    "repro.secure.events",
    "repro.secure.cascade",
    "repro.secure.dataprotect",
    "repro.cliques.tokens",
    "repro.ckd.protocol",
    "repro.tgdh.tokens",
)

#: Builtin constructors old pickle protocols may reference for container
#: types that newer protocols encode as opcodes.
_SAFE_BUILTINS: FrozenSet[str] = frozenset(
    {"set", "frozenset", "bytearray", "complex"}
)

_EXTRA_MODULES: Set[str] = set()


def register_wire_module(module: str) -> None:
    """Allow classes from ``module`` in wire frame bodies.

    The extension seam: :mod:`repro.ext` registers its modules here at
    import, so the core allowlist names none of them.
    """
    _EXTRA_MODULES.add(module)


def _module_allowed(module: str) -> bool:
    return module in WIRE_SAFE_MODULES or module in _EXTRA_MODULES


#: Every (module, name) a frame body has resolved, so that each class
#: goes through the import machinery once per process, not once per
#: frame.  Only allowed classes enter, and the allowlist only grows, so
#: an entry never goes stale.
_RESOLVED: Dict[Tuple[str, str], type] = {}


class _RestrictedUnpickler(pickle.Unpickler):
    """``find_class`` limited to classes in the wire-safe modules."""

    def find_class(self, module: str, name: str) -> Any:
        resolved = _RESOLVED.get((module, name))
        if resolved is not None:
            return resolved
        if not _module_allowed(module):
            if module == "builtins" and name in _SAFE_BUILTINS:
                import builtins

                return getattr(builtins, name)
            raise RestrictedUnpickleError(
                f"frame body references {module}.{name}, outside the "
                f"wire-kind allowlist"
            )
        if "." in name:
            # Dotted lookups could traverse attributes of an allowed
            # class; no registered wire kind is a nested class.
            raise RestrictedUnpickleError(
                f"frame body references nested attribute {module}.{name}"
            )
        obj = getattr(importlib.import_module(module), name, None)
        if not isinstance(obj, type):
            raise RestrictedUnpickleError(
                f"frame body references non-class {module}.{name}"
            )
        _RESOLVED[module, name] = obj
        return obj


def restricted_loads(data: bytes, buffers: Optional[Iterable] = None) -> Any:
    """Unpickle a wire frame body, resolving only allowlisted classes.

    The single choke point through which every byte received off a
    socket is deserialized; ``buffers`` are the frame's out-of-band
    buffers, in order (pickle protocol 5).  Raises
    :class:`~repro.errors.RestrictedUnpickleError` when the body
    references anything outside :data:`WIRE_SAFE_MODULES` (plus the
    handful of safe builtin container constructors).
    """
    return _RestrictedUnpickler(io.BytesIO(data), buffers=buffers).load()


# ---------------------------------------------------------------------------
# CLI: key file management
# ---------------------------------------------------------------------------


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.transport.auth",
        description="Manage pre-shared deployment key files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a fresh random key file")
    gen.add_argument("path", help="key file to create")
    gen.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing key file",
    )

    fpr = sub.add_parser(
        "fingerprint", help="print the key id of an existing key file"
    )
    fpr.add_argument("path", help="key file to inspect")

    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            generate_keyfile(args.path, force=args.force)
            print(f"wrote {GENERATED_KEY_BYTES * 8}-bit key to {args.path}")
            return 0
        auth = FrameAuth.from_keyfile(args.path)
        print(auth.key_id)
        return 0
    except FrameAuthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
