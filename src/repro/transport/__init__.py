"""repro.transport — the real-network backend behind the transport seam.

The deterministic sim kernel stays the reference backend; this package
makes the seams it sat behind explicit and adds an asyncio TCP backend
so the *same* daemons, clients and secure sessions run over real
sockets (docs/TRANSPORT.md):

* :mod:`repro.transport.base` — the ``Transport`` / ``Clock`` seam
  contracts (Protocols; backends duck-type).
* :mod:`repro.transport.wire` — length-prefixed, versioned,
  tag- or CRC-checked frame codec with an incremental decoder.
* :mod:`repro.transport.protocol` — client ↔ daemon IPC verbs.
* :mod:`repro.transport.rtclock` — ``RealtimeClock``: the kernel
  scheduling surface bridged to ``asyncio.loop.call_at``.
* :mod:`repro.transport.tcp` — ``TcpTransport``: daemon-to-daemon
  datagrams over per-peer TCP connections, plus the ``TransportMap``
  address directory.
* :mod:`repro.transport.host` — ``DaemonHost``: real daemons on one
  asyncio loop (client listeners included).
* :mod:`repro.transport.daemon` — the CLI
  (``python -m repro.transport.daemon CONFIG [--machine NAME]``).
* :mod:`repro.transport.client` — ``TcpSpreadClient``: the shared
  Spread client core (:mod:`repro.spread.client`) over a socket, with
  auto-reconnect and heartbeat liveness.
* :mod:`repro.transport.netem` — WAN-shaped fault injection: a seeded
  shaping TCP proxy (``NetemLink``/``NetemWorld``) plus declarative
  ``NetemSchedule`` fault scripts.
* :mod:`repro.transport.auth` — frame authentication: HMAC-SHA256 tags
  under a pre-shared deployment key (``FrameAuth``, key-file CLI) plus
  the restricted unpickler wire bodies decode through.
* :mod:`repro.transport.deploy` — deployment config files (TOML/JSON:
  daemon names, hosts, ports, key file) parsed to a ``Deployment``;
  the one description of a real deployment.
* :mod:`repro.transport.launch` — ``python -m repro.transport.launch``:
  spawn the daemon processes of a deployment, wait for readiness,
  tear down cleanly.

Submodules that need the Spread stack (``host``, ``client``) are
re-exported lazily so importing :mod:`repro.transport` from low-level
code can never create an import cycle with :mod:`repro.spread`.
"""

from repro.transport.auth import AUTH_DISABLED, FrameAuth, restricted_loads
from repro.transport.rtclock import RealtimeClock
from repro.transport.tcp import TcpTransport, TransportMap
from repro.transport.wire import FrameDecoder, decode_frame, encode_frame

__all__ = [
    "RealtimeClock",
    "TcpTransport",
    "TransportMap",
    "FrameDecoder",
    "decode_frame",
    "encode_frame",
    "AUTH_DISABLED",
    "FrameAuth",
    "restricted_loads",
    "Deployment",
    "DaemonSpec",
    "load_deployment",
    "DaemonHost",
    "TcpSpreadClient",
    "LinkShape",
    "NetemLink",
    "NetemSchedule",
    "NetemWorld",
]


def __getattr__(name):
    if name == "DaemonHost":
        from repro.transport.host import DaemonHost

        return DaemonHost
    if name == "TcpSpreadClient":
        from repro.transport.client import TcpSpreadClient

        return TcpSpreadClient
    if name in ("LinkShape", "NetemLink", "NetemSchedule", "NetemWorld"):
        import repro.transport.netem as _netem

        return getattr(_netem, name)
    if name in ("Deployment", "DaemonSpec", "load_deployment"):
        import repro.transport.deploy as _deploy

        return getattr(_deploy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
