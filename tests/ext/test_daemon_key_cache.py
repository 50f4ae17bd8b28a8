"""The daemon model computes each long-term pairwise secret once."""

from tests.ext.test_daemon_model import make_secured_cluster, wait_all_keyed

CYCLES = 3


def _offer_channels_bounded(layers):
    return all(
        len(layer._pairwise) <= len(layer.members) - 1 for layer in layers.values()
    )


def test_rekeys_reuse_the_long_term_pairwise_secret():
    cluster, layers = make_secured_cluster()
    wait_all_keyed(cluster, layers)
    controller = layers["d0"]
    first_keying = controller.counter.get("daemon_pairwise")
    assert first_keying == 2  # one per peer
    for __ in range(CYCLES):
        cluster.daemons["d2"].crash()
        cluster.run_until(lambda: cluster.converged(["d0", "d1"]))
        wait_all_keyed(cluster, layers, ["d0", "d1"])
        assert _offer_channels_bounded(layers)
        cluster.daemons["d2"].recover()
        cluster.settle()
        wait_all_keyed(cluster, layers)
        assert _offer_channels_bounded(layers)
    assert controller.keys_established >= 1 + 2 * CYCLES  # two views a cycle
    assert controller.counter.get("daemon_pairwise") == first_keying
