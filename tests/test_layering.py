"""Lint: the dependency arrow between the library and ``repro.bench``
points one way, and the crucible has one driver.

``repro.bench`` regenerates the paper's tables and figures *from* the
library; the library never reaches back into it.  And ``repro.bench`` is
the paper's evaluation only — stack performance is ``benchmarks/e2e`` —
so it stays off the fault crucibles and the real transport, and a new
module in it is a decision, not a drive-by.

The paper's instruments drive the key-agreement modules through the
registry and the one ``ProtocolGroup`` pump, so they hold no protocol by
name: "who pays the serial cost" is read off the operation record.

``repro.chaos`` runs one crucible on two backends: the driver and its
simulator backend stay importable where sockets do not exist, and each
step of a run is written once.

``repro.crypto`` has one hash policy: every digest in ``src`` comes from
``hashlib`` through ``repro.crypto.hmac_mac`` (only Blowfish, the
paper's cipher, is from scratch), so there is no second SHA-1 to drift
from the first.

The Spread client is one core with two connections: fragmentation,
reassembly and the event queue are written once, so a client fix cannot
land on one backend only.

The paper's future-work services live in ``repro.ext``, outside the
core: the core never imports them, the simulator path never loads them
(nor the socket transport), the daemon reaches them through one
three-call hook, and only the transport codec turns objects into bytes.
The secure session keeps no identity material and no extension entry
point, and nothing outside ``repro.secure`` reads a session's private
state.  The session does no I/O: ``SecureClient`` performs the effects
it returns, and the extensions reach the flush layer through the client.

Behaviour has no environment switches: no library module reads a
``REPRO_*`` variable (a deployment's key file is named in its file).

The secure data path imports at module level: the session, the data
protector and the flush layer run an ``import`` statement per event if
one sits in a function body, and none of theirs closes a cycle.

A real-time deployment's membership timers follow one rule from its
failure timeout, written once in ``repro.transport.deploy``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO / "src"
BENCH = SRC_ROOT / "repro" / "bench"
CHAOS = SRC_ROOT / "repro" / "chaos"
EXT = SRC_ROOT / "repro" / "ext"
SPREAD = SRC_ROOT / "repro" / "spread"
TRANSPORT = SRC_ROOT / "repro" / "transport"

#: What regenerates the paper, and nothing else.
BENCH_MODULES = {
    "__init__", "expcount", "platform_model", "reporting", "report",
    "keyagree", "sweep",
}


def _imports(path: Path) -> Iterator[Tuple[int, str]]:
    """(line, absolute module name) for every import in ``path``,
    function-local ones included."""
    inside = SRC_ROOT in path.parents  # scripts outside src import absolutely
    package = list(path.relative_to(SRC_ROOT).parts[:-1]) if inside else []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield node.lineno, module
            # ``from repro import bench`` names the submodule as an alias.
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def _offenders(paths, forbidden: Tuple[str, ...]) -> list:
    found = {}
    for path in sorted(paths):
        for line, module in _imports(path):
            if any(module == f or module.startswith(f + ".") for f in forbidden):
                found.setdefault(f"{path.relative_to(REPO)}:{line}", module)
    return [f"{where}: {module}" for where, module in found.items()]


def test_library_does_not_import_bench():
    library = [
        p for p in (SRC_ROOT / "repro").rglob("*.py") if BENCH not in p.parents
    ]
    offenders = _offenders(library, ("repro.bench",))
    assert not offenders, (
        "library code imports repro.bench — move what it needs into the"
        " library instead:\n" + "\n".join(offenders)
    )


def test_bench_stays_off_the_crucibles_and_the_transport():
    offenders = _offenders(
        BENCH.rglob("*.py"), ("repro.chaos", "repro.transport")
    )
    assert not offenders, (
        "repro.bench regenerates the paper on the simulator; fault and"
        " socket measurements belong to repro.chaos and benchmarks/e2e:\n"
        + "\n".join(offenders)
    )


def test_bench_contains_only_the_paper_modules():
    assert {p.stem for p in BENCH.glob("*.py")} == BENCH_MODULES
    assert not [p for p in BENCH.iterdir() if p.is_dir() and p.name != "__pycache__"]


def test_crucible_driver_and_sim_backend_need_no_sockets():
    offenders = _offenders(
        [CHAOS / "harness.py", CHAOS / "invariants.py", CHAOS / "shrink.py"],
        ("repro.transport", "asyncio"),
    )
    assert not offenders, (
        "the crucible driver and its simulator backend must run where"
        " sockets do not exist; TCP-only code belongs to"
        " repro.chaos.transport_crucible:\n" + "\n".join(offenders)
    )
    # The CLI reaches the TCP backend under --backend tcp only: nothing
    # socket-bound is imported at its top level.
    cli = ast.parse((CHAOS / "crucible.py").read_text(encoding="utf-8"))
    eager = []
    for node in cli.body:
        if isinstance(node, ast.Import):
            eager += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            eager.append(node.module or "")
    assert not [
        name for name in eager
        if name == "asyncio"
        or name.startswith(("repro.transport", "repro.chaos.transport_crucible"))
    ], f"crucible.py imports the TCP side eagerly: {eager}"


def test_each_crucible_step_is_defined_once():
    """One run, one result: a second ``wait_quiescence`` (or probe
    round, end state, traffic pump, result class) is a second harness."""
    defined = {}
    for path in sorted(CHAOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(path.name)
    for name in ("wait_quiescence", "run_probes", "end_state", "start_traffic",
                 "probe_counts", "execute"):
        assert defined.get(name) == ["harness.py"], (name, defined.get(name))
    results = [name for name in defined if name.endswith("Result")]
    assert results == ["ChaosResult"] and defined["ChaosResult"] == ["harness.py"]


#: Everything that measures a key-agreement module without being one.
PROTOCOL_AGNOSTIC = [
    SRC_ROOT / "repro" / "testbed.py",
    *sorted(BENCH.glob("*.py")),
    REPO / "benchmarks" / "conftest.py",
    REPO / "examples" / "protocol_comparison.py",
]
PROTOCOL_NAMES = {"cliques", "ckd", "tgdh"}


def test_the_paper_instruments_branch_on_no_protocol_name():
    """Run lists may name the modules; a comparison against a name (or a
    membership test in a literal holding one) is a protocol-specific
    branch, and those live in ``repro.secure.handlers`` only."""
    offenders = []
    for path in PROTOCOL_AGNOSTIC:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            named = {
                leaf.value
                for operand in [node.left, *node.comparators]
                for leaf in ast.walk(operand)
                if isinstance(leaf, ast.Constant)
            } & PROTOCOL_NAMES
            if named:
                offenders.append(
                    f"{path.relative_to(REPO)}:{node.lineno}: {sorted(named)}"
                )
    assert not offenders, "\n".join(offenders)


def test_the_paper_instruments_import_no_context_or_token_class():
    offenders = [
        offender
        for offender in _offenders(
            PROTOCOL_AGNOSTIC, ("repro.cliques", "repro.ckd", "repro.tgdh")
        )
        # The long-term key directory is shared infrastructure.
        if not offender.endswith(
            ("repro.cliques.directory", "repro.cliques.directory.KeyDirectory")
        )
    ]
    assert not offenders, (
        "drive the modules through the registry and ProtocolGroup, not"
        " their contexts and tokens:\n" + "\n".join(offenders)
    )


def test_one_hash_provider():
    assert importlib.util.find_spec("repro.crypto.sha1") is None, (
        "a from-scratch SHA-1 is back in src; the test oracle is"
        " tests/crypto/reference.py::ReferenceSHA1"
    )
    offenders = _offenders(
        [SRC_ROOT / "repro" / "crypto" / "hmac_mac.py"], ("repro",)
    )
    assert not offenders, (
        "repro.crypto.hmac_mac is a leaf on the stdlib:\n" + "\n".join(offenders)
    )


def test_fragmentation_and_reassembly_are_called_from_one_module():
    callers = {"split_payload": set(), "Reassembler": set()}
    for path in sorted([*SPREAD.glob("*.py"), *TRANSPORT.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name in callers:
                callers[name].add(path.relative_to(SRC_ROOT).as_posix())
    assert all(len(modules) == 1 for modules in callers.values()), callers


def test_the_event_queue_is_defined_once():
    classes = [
        getattr(importlib.import_module(module), name)
        for module, name in (
            ("repro.spread.client", "SpreadClient"),
            ("repro.transport.client", "TcpSpreadClient"),
            ("repro.spread.flush", "FlushClient"),
            ("repro.secure.session", "SecureClient"),
            ("repro.ext.nonmember", "GroupGateway"),
            ("repro.ext.member_auth", "MemberAuthenticator"),
        )
    ]
    for method in ("receive", "drain", "on_event", "_emit"):
        owners = {
            next(k for k in cls.__mro__ if method in vars(k)).__qualname__
            for cls in classes
        }
        assert len(owners) == 1, (method, sorted(owners))


def test_no_one_sided_client_seam():
    for module, name in (
        ("repro.spread.client", "SimDaemonEndpoint"),
        ("repro.transport.client", "SpreadListener"),
    ):
        assert not hasattr(importlib.import_module(module), name), (module, name)


def _calls(path: Path, name: str) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if called == name:
                return True
    return False


def _library():
    return sorted((SRC_ROOT / "repro").rglob("*.py"))


def test_the_core_does_not_import_the_extensions():
    extensions = {p.stem for p in EXT.glob("*.py")}
    assert {"daemon_model", "nonmember", "member_auth", "refresh"} <= extensions, (
        extensions
    )
    core = [p for p in _library() if EXT not in p.parents]
    offenders = _offenders(core, ("repro.ext",))
    assert not offenders, (
        "the core imports an extension; the arrow points from repro.ext"
        " into the core only:\n" + "\n".join(offenders)
    )


def test_the_simulator_path_loads_no_transport_and_no_extension():
    probe = (
        "import sys, repro.testbed; print(sorted(m for m in sys.modules"
        " if m.startswith(('repro.transport', 'repro.ext'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    ).stdout.strip()
    assert out == "[]", out


def test_only_the_transport_codec_pickles():
    importers = {
        path.relative_to(SRC_ROOT / "repro").as_posix()
        for path in _library()
        for __, module in _imports(path)
        if module == "pickle" or module.startswith("pickle.")
    }
    assert importers == {"transport/wire.py", "transport/auth.py"}, importers
    callers = {
        path.relative_to(SRC_ROOT / "repro").as_posix()
        for path in _library()
        if _calls(path, "restricted_loads")
    }
    assert callers == {"transport/wire.py"}, callers


def test_the_daemon_has_one_three_call_hook_and_no_network_alias():
    from repro.net.network import Network
    from repro.sim.kernel import Kernel
    from repro.spread.config import SpreadConfig
    from repro.spread.daemon import SpreadDaemon

    kernel = Kernel()
    daemon = SpreadDaemon(
        kernel, "d0", Network(kernel), SpreadConfig(daemons=("d0",))
    )
    assert not hasattr(daemon, "network")
    assert daemon.security is None
    used = set()
    tree = ast.parse((SPREAD / "daemon.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "security"
        ):
            used.add(node.attr)
    assert used == {"on_install", "outbound", "intercept"}, used


def test_the_wire_allowlist_names_core_modules_and_ext_registers_its_own():
    from repro.transport import auth

    for module in auth.WIRE_SAFE_MODULES:
        importlib.import_module(module)
        assert not module.startswith("repro.ext"), module
    importlib.import_module("repro.ext")
    for module in (
        "repro.ext.daemon_model", "repro.ext.nonmember", "repro.ext.member_auth"
    ):
        assert auth._module_allowed(module), module


def test_the_session_holds_no_extension():
    core = [p for p in _library() if EXT not in p.parents]
    offenders = [
        f"{path.relative_to(REPO)}:{line}: {module}"
        for path in core
        for line, module in _imports(path)
        if "member_auth" in module.split(".")
    ]
    assert not offenders, "\n".join(offenders)
    from repro.secure.session import SecureClient, SecureGroupSession

    for name in ("challenge_member", "enable_auto_refresh"):
        assert not hasattr(SecureGroupSession, name), name
    assert not hasattr(SecureClient, "authenticate")
    parameters = inspect.signature(SecureGroupSession.__init__).parameters
    assert not {"params", "long_term", "directory"} & set(parameters), parameters


def _reads_session_private(node: ast.AST) -> bool:
    """``session._x``, ``self._session._x`` or ``….sessions[…]._x``."""
    if not (
        isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
    ):
        return False
    owner = node.value
    if isinstance(owner, ast.Subscript):
        owner = owner.value
        return isinstance(owner, ast.Attribute) and owner.attr == "sessions"
    name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", "")
    return name in ("session", "_session")


def test_nothing_outside_the_secure_package_reads_a_sessions_private_state():
    secure = SRC_ROOT / "repro" / "secure"
    outside = [
        *(p for p in _library() if secure not in p.parents),
        *sorted((REPO / "examples").glob("*.py")),
    ]
    offenders = [
        f"{path.relative_to(REPO)}:{node.lineno}: .{node.attr}"
        for path in outside
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _reads_session_private(node)
    ]
    assert not offenders, (
        "read the session's public state (has_key, view_key, attempt,"
        " key_fingerprint, ...) instead:\n" + "\n".join(offenders)
    )


SESSION = SRC_ROOT / "repro" / "secure" / "session.py"


def _class_named(tree: ast.AST, name: str) -> ast.ClassDef:
    return next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == name
    )


def test_the_session_does_no_io():
    """Events in, effects out: the session holds no flush layer, clock or
    delivery callback, and the one driver that performs its effects is
    ``SecureClient`` — one timer call and one send-error catch."""
    from repro.secure.session import SecureGroupSession

    tree = ast.parse(SESSION.read_text(encoding="utf-8"))
    session = _class_named(tree, "SecureGroupSession")
    io = {"flush", "kernel", "_emit", "call_later"} & {
        node.attr for node in ast.walk(session) if isinstance(node, ast.Attribute)
    }
    assert not io, io
    for name in ("flush", "kernel", "_emit"):
        assert not hasattr(SecureGroupSession, name), name
    parameters = inspect.signature(SecureGroupSession.__init__).parameters
    assert not {"flush", "emit"} & set(parameters), parameters

    timer_calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "call_later"
    ]
    catches = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and any(
            isinstance(leaf, ast.Name) and leaf.id == "SendBlockedError"
            for leaf in ast.walk(node.type)
        )
    ]
    assert len(timer_calls) == 1 and len(catches) == 1, (timer_calls, catches)
    driver = _class_named(tree, "SecureClient")
    assert all(
        any(node is inner for inner in ast.walk(driver))
        for node in timer_calls + catches
    )


def _reads_session_flush(node: ast.AST) -> bool:
    """``session.flush``, ``self._session.flush`` or ``….sessions[…].flush``."""
    if not (isinstance(node, ast.Attribute) and node.attr == "flush"):
        return False
    owner = node.value
    if isinstance(owner, ast.Subscript):
        owner = owner.value
        return isinstance(owner, ast.Attribute) and owner.attr == "sessions"
    name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", "")
    return name in ("session", "_session")


def test_the_extensions_reach_the_flush_layer_through_the_client():
    offenders = [
        f"{path.relative_to(REPO)}:{node.lineno}"
        for path in sorted(EXT.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _reads_session_flush(node)
    ]
    assert not offenders, (
        "a session has no flush layer; use client.flush:\n" + "\n".join(offenders)
    )


def _environment_reads(path: Path) -> list:
    """Lines of ``path`` that read the process environment or name a
    ``REPRO_*`` variable; a whole-environment copy (``dict(os.environ)``,
    handed to child processes) reads no variable and is not one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    copies = {
        id(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
        and len(node.args) == 1
    }
    lines = []
    for node in ast.walk(tree):
        environ = (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
        )
        named = (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith("REPRO_")
        )
        if (environ and id(node) not in copies) or named:
            lines.append(node.lineno)
    return lines


def test_only_the_deployment_key_file_is_read_from_the_environment():
    """No library module reads a ``REPRO_*`` variable: the deployment
    file names its key file, and nothing else has a switch."""
    readers = {
        path.relative_to(SRC_ROOT / "repro").as_posix(): lines
        for path in _library()
        if (lines := _environment_reads(path))
    }
    assert readers == {}, readers


#: Modules on the per-event secure data path.
HOT_PATH_MODULES = ("secure/session.py", "secure/dataprotect.py", "spread/flush.py")


def test_the_secure_data_path_imports_at_module_level():
    local = []
    for name in HOT_PATH_MODULES:
        tree = ast.parse((SRC_ROOT / "repro" / name).read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [
                    f"{name}:{node.lineno}"
                    for node in ast.walk(function)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert local == [], local


#: The membership timers a real-time deployment derives from its
#: failure timeout.
DERIVED_TIMERS = {"gather_timeout", "sync_timeout"}


def _derives_from_fail_timeout(value: ast.AST) -> bool:
    return any(
        (isinstance(node, ast.Name) and node.id.lower() == "fail_timeout")
        or (isinstance(node, ast.Attribute) and node.attr.lower() == "fail_timeout")
        for node in ast.walk(value)
    )


def test_the_real_time_timer_rule_is_written_once():
    """``gather = 2×``, ``sync = 4×`` the failure timeout lives in
    ``repro.transport.deploy.realtime_config``; the daemon CLI and the
    TCP crucible call it instead of restating it."""
    derived = []
    for path in _library():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            values = []
            if isinstance(node, ast.keyword) and node.arg in DERIVED_TIMERS:
                values.append(node.value)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {getattr(t, "id", getattr(t, "attr", None)) for t in targets}
                if names & DERIVED_TIMERS:
                    values.append(node.value)
            derived += [
                f"{path.relative_to(SRC_ROOT / 'repro').as_posix()}:{value.lineno}"
                for value in values
                if _derives_from_fail_timeout(value)
            ]
    assert {where.split(":")[0] for where in derived} == {"transport/deploy.py"}, derived
