"""Extensions beyond what the paper builds and measures.

The paper leaves its security services beyond the group key as future
work (§8), and they are here, outside the core:

* :mod:`repro.ext.daemon_model` — the §5 *daemon model*: one key per
  daemon view seals all inter-daemon traffic, through the daemon's one
  hook (``SpreadDaemon.security``);
* :mod:`repro.ext.nonmember` — authentic, private communication between
  a secure group and non-members, over the public client API;
* :mod:`repro.ext.member_auth` — intra-group member authentication;
* :mod:`repro.ext.refresh` — §4.4's controller refresh on a timer.

Nothing in the core imports this package.  The client-side services
subscribe through ``SecureClient.on_event``, read only public session
state, and deliver what they produce to their own ``queue``.  Their
payloads cross the TCP transport as ordinary wire frames, so importing
this package allows their modules in frame bodies.
"""

from repro.transport.auth import register_wire_module

from repro.ext.daemon_model import DaemonSecurity, secure_all_daemons
from repro.ext.member_auth import MemberAuthenticatedEvent, MemberAuthenticator
from repro.ext.nonmember import GroupGateway, OutsiderChannel, OutsiderDataEvent
from repro.ext.refresh import auto_refresh

for _module in (
    "repro.ext.daemon_model", "repro.ext.nonmember", "repro.ext.member_auth"
):
    register_wire_module(_module)

__all__ = [
    "DaemonSecurity",
    "secure_all_daemons",
    "GroupGateway",
    "OutsiderChannel",
    "OutsiderDataEvent",
    "MemberAuthenticator",
    "MemberAuthenticatedEvent",
    "auto_refresh",
]
