"""repro — Secure Group Communication in Asynchronous Networks with
Failures (ICDCS 2000), reproduced in Python.

The package rebuilds the whole system the paper describes:

* :mod:`repro.sim` / :mod:`repro.net` — deterministic discrete-event
  simulation of an asynchronous network with crashes and partitions;
* :mod:`repro.spread` — a Spread-like group communication toolkit
  (daemons, clients, ordering, membership, Extended Virtual Synchrony,
  the Flush/View-Synchrony layer);
* :mod:`repro.crypto` — from-scratch Blowfish, HMAC over ``hashlib``
  SHA-1, safe-prime Diffie-Hellman, with exponentiation counting;
* :mod:`repro.cliques` / :mod:`repro.ckd` / :mod:`repro.tgdh` — the two
  group key management protocols the paper evaluates, plus tree-based
  group DH;
* :mod:`repro.secure` — the paper's contribution: the secure group
  communication layer;
* :mod:`repro.ext` — the paper's §8 future work, outside the core: the
  daemon model and the non-member gateway;
* :mod:`repro.transport` — the same stack over real asyncio TCP sockets;
* :mod:`repro.testbed` — the paper's deployment, pre-wired;
* :mod:`repro.chaos` / :mod:`repro.obs` — fault crucibles and
  observability;
* :mod:`repro.bench` — what regenerates every table and figure of the
  paper's evaluation (stack performance is measured by
  ``benchmarks/e2e/run.py``, see ``BENCHMARK.json``).

Quickest start::

    from repro.testbed import SecureTestbed
    testbed = SecureTestbed()
    alice = testbed.add_member("alice", "d0", group="chat")
    testbed.wait_secure_view(["alice"], group="chat")

See README.md, DESIGN.md and docs/ARCHITECTURE.md.
"""

__version__ = "1.0.0"
__all__ = ["__version__"]
