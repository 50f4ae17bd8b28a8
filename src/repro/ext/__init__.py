"""Extensions beyond what the paper builds and measures.

The paper leaves two services as future work (§8), and both are here,
outside the core:

* :mod:`repro.ext.daemon_model` — the §5 *daemon model*: one key per
  daemon view seals all inter-daemon traffic, through the daemon's one
  hook (``SpreadDaemon.security``);
* :mod:`repro.ext.nonmember` — authentic, private communication between
  a secure group and non-members, over the public client API.

Nothing in the core imports this package.  Its payloads cross the TCP
transport as ordinary wire frames, so importing it allows its modules
in frame bodies.
"""

from repro.transport.auth import register_wire_module

from repro.ext.daemon_model import DaemonSecurity, secure_all_daemons
from repro.ext.nonmember import GroupGateway, OutsiderChannel, OutsiderDataEvent

for _module in ("repro.ext.daemon_model", "repro.ext.nonmember"):
    register_wire_module(_module)

__all__ = [
    "DaemonSecurity",
    "secure_all_daemons",
    "GroupGateway",
    "OutsiderChannel",
    "OutsiderDataEvent",
]
