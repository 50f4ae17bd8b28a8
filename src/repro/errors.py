"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  Sub-hierarchies mirror the package
layout: simulation kernel, network substrate, group communication (Spread),
cryptography, key agreement (Cliques/CKD) and the secure group layer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulation kernel errors."""


class ClockError(SimulationError):
    """An event was scheduled in the past, or the clock moved backwards."""


class ProcessError(SimulationError):
    """A simulated process was used incorrectly (e.g. after crash)."""


class DeadlockError(SimulationError):
    """The simulation ran out of events before a run-until condition held."""


# ---------------------------------------------------------------------------
# Network substrate
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for network substrate errors."""


class UnknownAddressError(NetworkError):
    """A message was addressed to a node the network does not know."""


class LinkError(NetworkError):
    """Invalid link configuration (e.g. negative latency)."""


class PartitionError(NetworkError):
    """Invalid partition specification (e.g. overlapping components)."""


class FaultError(NetworkError):
    """Invalid fault schedule: unknown action kind or unregistered target."""


# ---------------------------------------------------------------------------
# Group communication (Spread substrate)
# ---------------------------------------------------------------------------


class SpreadError(ReproError):
    """Base class for group communication toolkit errors."""


class ConnectionClosedError(SpreadError):
    """Operation attempted on a closed or disconnected client connection."""


class NotMemberError(SpreadError):
    """Operation requires group membership the client does not have."""


class IllegalServiceError(SpreadError):
    """An unsupported service type was requested for a message."""


class IllegalMessageError(SpreadError):
    """A malformed wire message was received or constructed."""


class DaemonDownError(SpreadError):
    """The daemon a client is attached to has crashed."""


class FlushError(SpreadError):
    """Flush-layer (View Synchrony) protocol violation."""


class SendBlockedError(FlushError):
    """A send was attempted while the flush layer requires a flush_ok."""


# ---------------------------------------------------------------------------
# Cryptography
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic substrate errors."""


class ParameterError(CryptoError):
    """Invalid Diffie-Hellman or cipher parameters."""


class KeyError_(CryptoError):
    """Invalid key material (size, range, or composition)."""


class CipherError(CryptoError):
    """Encryption or decryption failure (bad block size, bad padding)."""


class IntegrityError(CryptoError):
    """A message failed its integrity (MAC) check."""


# ---------------------------------------------------------------------------
# Key agreement protocols
# ---------------------------------------------------------------------------


class KeyAgreementError(ReproError):
    """Base class for group key agreement protocol errors."""


class CliquesError(KeyAgreementError):
    """Cliques (A-GDH.2) protocol violation or misuse."""


class TokenError(CliquesError):
    """A malformed or out-of-sequence Cliques protocol token."""


class ControllerError(KeyAgreementError):
    """An operation was attempted by a member that is not the controller."""


class CKDError(KeyAgreementError):
    """Centralized Key Distribution protocol violation or misuse."""


class TGDHError(KeyAgreementError):
    """Tree-based group Diffie-Hellman protocol violation or misuse."""


# ---------------------------------------------------------------------------
# Secure group layer
# ---------------------------------------------------------------------------


class SecureGroupError(ReproError):
    """Base class for secure group layer errors."""


class NoGroupKeyError(SecureGroupError):
    """Data was sent/received before a group key was established."""


class StaleKeyError(SecureGroupError):
    """A message was protected under a key epoch that is no longer valid."""


class ModuleNotFoundError_(SecureGroupError):
    """An unknown key-agreement or cipher module name was requested."""


class ModuleRegistrationError(SecureGroupError):
    """A key-agreement module registration conflicts with an existing one."""


# ---------------------------------------------------------------------------
# Real transport (repro.transport)
# ---------------------------------------------------------------------------


class TransportError(ReproError):
    """Base class for real-transport (socket backend) errors."""


class FrameError(TransportError):
    """A wire frame was malformed: bad magic/version, an oversized or
    truncated body, a checksum mismatch, or a kind/type disagreement."""


class WireVersionError(FrameError):
    """A frame carried a wire version this build does not speak (e.g. a
    replayed VERSION=2 frame against a VERSION=3 endpoint)."""


class FrameAuthError(FrameError):
    """Frame authentication failed: missing or unexpected HMAC tag, or a
    tag that does not verify under the deployment key."""


class RestrictedUnpickleError(FrameError):
    """A frame body referenced a class outside the registered wire-kind
    allowlist while being unpickled."""


class DeployError(TransportError):
    """A deployment config file is malformed or internally inconsistent."""
