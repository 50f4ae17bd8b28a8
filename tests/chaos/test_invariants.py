"""The invariant checker against hand-built traces: every checker must
flag its violation and stay silent on legitimate histories."""

from repro.chaos.invariants import (
    EndState,
    InvariantChecker,
    trace_fingerprint,
)
from repro.sim.trace import TraceEvent


def ev(kind, **fields):
    return TraceEvent(kind=kind, fields=fields)


def install(me, view):
    return ev("daemon.install", me=me, view=view)


def deliver(me, view, sender, seq):
    return ev("daemon.deliver", me=me, view=view, sender=sender, seq=seq,
              msg_kind="app")


# -- view synchrony ---------------------------------------------------------------


def test_view_synchrony_flags_different_sets_same_transit():
    trace = [
        install("d0", "v1"), install("d1", "v1"),
        deliver("d0", "v1", "d0", 1),  # d1 misses this one
        install("d0", "v2"), install("d1", "v2"),
    ]
    violations = InvariantChecker(trace).check_view_synchrony()
    assert len(violations) == 1
    assert violations[0].invariant == "view_synchrony"
    assert "d0" in violations[0].detail and "d1" in violations[0].detail


def test_view_synchrony_allows_divergence_across_partition():
    """Daemons that part ways (different successors) may deliver
    different suffixes — EVS promises same-set only to co-movers."""
    trace = [
        install("d0", "v1"), install("d1", "v1"),
        deliver("d0", "v1", "d0", 1),
        install("d0", "v2a"),  # d0 splits off
        install("d1", "v2b"),  # d1 goes the other way
    ]
    assert InvariantChecker(trace).check_view_synchrony() == []


def test_view_synchrony_exempts_crashed_daemon():
    trace = [
        install("d0", "v1"), install("d1", "v1"),
        deliver("d0", "v1", "d0", 1),
        ev("process.crash", name="d1"),
        install("d0", "v2"),
    ]
    assert InvariantChecker(trace).check_view_synchrony() == []


def test_view_synchrony_counts_flush_time_deliveries():
    """A delivery traced after the successor install (the flush of the
    old view's complement) still belongs to the old view's set."""
    trace = [
        install("d0", "v1"), install("d1", "v1"),
        deliver("d0", "v1", "d0", 1),
        install("d0", "v2"), install("d1", "v2"),
        deliver("d1", "v1", "d0", 1),  # flushed late, same set
    ]
    assert InvariantChecker(trace).check_view_synchrony() == []


def test_view_synchrony_final_views_compared_only_when_quiescent():
    trace = [
        install("d0", "v1"), install("d1", "v1"),
        deliver("d0", "v1", "d0", 1),
    ]
    # Mid-flight trace end: the delivery may simply not have happened yet.
    assert InvariantChecker(trace).check_view_synchrony(quiescent=False) == []
    # Quiescent trace end: nothing is in flight, the sets must agree.
    assert len(InvariantChecker(trace).check_view_synchrony(quiescent=True)) == 1


# -- key agreement ----------------------------------------------------------------


def confirm(me, fingerprint, members=("m0", "m1")):
    return ev("secure.confirmed", me=me, group="g", view="v1", attempt=0,
              members=list(members), fingerprint=fingerprint)


def test_key_agreement_flags_fingerprint_mismatch():
    trace = [confirm("m0", "aaaa"), confirm("m1", "bbbb")]
    violations = InvariantChecker(trace).check_key_agreement()
    assert len(violations) == 1
    assert violations[0].invariant == "key_agreement"


def test_key_agreement_flags_member_set_disagreement():
    trace = [
        confirm("m0", "aaaa", members=("m0", "m1")),
        confirm("m1", "aaaa", members=("m0", "m1", "m2")),
    ]
    violations = InvariantChecker(trace).check_key_agreement()
    assert len(violations) == 1


def test_key_agreement_ok_when_identical():
    trace = [confirm("m0", "aaaa"), confirm("m1", "aaaa")]
    assert InvariantChecker(trace).check_key_agreement() == []


def test_key_agreement_separate_attempts_not_compared():
    trace = [
        ev("secure.confirmed", me="m0", group="g", view="v1", attempt=0,
           members=["m0"], fingerprint="aaaa"),
        ev("secure.confirmed", me="m1", group="g", view="v1", attempt=1,
           members=["m0"], fingerprint="bbbb"),
    ]
    assert InvariantChecker(trace).check_key_agreement() == []


# -- secrecy ----------------------------------------------------------------------


def test_secrecy_ok_for_matching_epoch():
    trace = [
        ev("secure.send", me="m0", group="g", epoch="e1", digest="d1"),
        ev("secure.data", me="m1", group="g", sender="m0", epoch="e1",
           digest="d1"),
    ]
    assert InvariantChecker(trace).check_secrecy() == []


def test_secrecy_flags_cross_epoch_open():
    trace = [
        ev("secure.send", me="m0", group="g", epoch="e1", digest="d1"),
        ev("secure.data", me="m1", group="g", sender="m0", epoch="e2",
           digest="d1"),
    ]
    violations = InvariantChecker(trace).check_secrecy()
    assert len(violations) == 1
    assert "cross-epoch" in violations[0].detail


def test_secrecy_flags_corruption_reaching_application():
    trace = [
        ev("secure.send", me="m0", group="g", epoch="e1", digest="d1"),
        ev("secure.data", me="m1", group="g", sender="m0", epoch="e1",
           digest="FLIPPED"),
    ]
    violations = InvariantChecker(trace).check_secrecy()
    assert len(violations) == 1
    assert "corruption" in violations[0].detail


def test_secrecy_flags_data_named_as_another_senders():
    """``b`` delivers ``a``'s plaintext named as ``mallory``'s: the digest
    was sent in the epoch, but not by the sender the record names."""
    trace = [
        confirm("a", "aaaa", members=("a", "b")),
        confirm("b", "aaaa", members=("a", "b")),
        ev("secure.send", me="a", group="g", epoch="g|v1|0", digest="d1"),
        ev("secure.data", me="b", group="g", sender="mallory",
           epoch="g|v1|0", digest="d1"),
    ]
    violations = InvariantChecker(trace).check_secrecy()
    assert len(violations) == 1
    assert "mallory" in violations[0].detail


def test_secrecy_flags_a_sender_outside_the_secure_view():
    trace = [
        confirm("b", "aaaa", members=("a", "b")),
        ev("secure.send", me="mallory", group="g", epoch="g|v1|0",
           digest="d1"),
        ev("secure.data", me="b", group="g", sender="mallory",
           epoch="g|v1|0", digest="d1"),
    ]
    violations = InvariantChecker(trace).check_secrecy()
    assert len(violations) == 1
    assert "outside its secure view" in violations[0].detail


def test_secrecy_ok_for_a_member_of_the_secure_view():
    trace = [
        confirm("b", "aaaa", members=("a", "b")),
        ev("secure.send", me="a", group="g", epoch="g|v1|0", digest="d1"),
        ev("secure.data", me="b", group="g", sender="a", epoch="g|v1|0",
           digest="d1"),
    ]
    assert InvariantChecker(trace).check_secrecy() == []


# -- convergence ------------------------------------------------------------------


def good_end_state():
    return EndState(
        daemon_views={"d0": "v9", "d1": "v9"},
        member_keyed={"m0": True, "m1": True},
        member_fingerprints={"m0": "aaaa", "m1": "aaaa"},
        probes_expected=2,
        probes_received={"m0": 2, "m1": 2},
        converged=True,
    )


def test_convergence_ok():
    assert InvariantChecker([]).check_convergence(good_end_state()) == []


def test_convergence_flags_timeout():
    state = good_end_state()
    state.converged = False
    state.detail = "no quiescence"
    violations = InvariantChecker([]).check_convergence(state)
    assert [v.invariant for v in violations] == ["convergence"]


def test_convergence_flags_split_views_unkeyed_and_short_probes():
    state = good_end_state()
    state.daemon_views["d1"] = "v8"
    state.member_keyed["m1"] = False
    state.member_fingerprints["m1"] = "bbbb"
    state.probes_received["m0"] = 1
    violations = InvariantChecker([]).check_convergence(state)
    assert len(violations) == 4


# -- the full battery and stats ---------------------------------------------------


def test_run_collects_stats_and_reject_reasons():
    trace = [
        ev("net.corrupt", source="n0", destination="n1", payload_kind="bytes"),
        ev("secure.reject", me="m0", group="g", sender="m1",
           reason="mac_fail"),
        ev("secure.reject", me="m0", group="g", sender="m1",
           reason="stale_epoch"),
        ev("fault.fire", fault="heal", at=1.0, targets=[], components=[]),
    ]
    report = InvariantChecker(trace).run(good_end_state())
    assert report.ok
    assert report.stats["net.corrupt"] == 1
    assert report.stats["secure.reject"] == 2
    assert report.stats["secure.reject.mac_fail"] == 1
    assert report.stats["secure.reject.stale_epoch"] == 1
    assert report.stats["fault.fire"] == 1
    assert "all invariants hold" == report.summary()


def test_report_summary_names_broken_invariants():
    trace = [confirm("m0", "aaaa"), confirm("m1", "bbbb")]
    report = InvariantChecker(trace).run()
    assert not report.ok
    assert "key_agreement" in report.summary()


# -- fingerprints -----------------------------------------------------------------


def test_fingerprint_deterministic_and_order_sensitive():
    a = [ev("x", n=1), ev("y", n=2)]
    assert trace_fingerprint(a) == trace_fingerprint(list(a))
    assert trace_fingerprint(a) != trace_fingerprint(list(reversed(a)))


def test_fingerprint_ignores_kernel_events():
    base = [ev("x", n=1)]
    noisy = [ev("kernel.event", time=0.1, label="tick")] + base
    assert trace_fingerprint(base) == trace_fingerprint(noisy)
