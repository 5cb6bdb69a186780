"""Each transaction is encoded, digested and decoded once network-wide.

Organizations share the frozen wire of every transaction they receive,
together with its stored canonical fragment and the one ``Transaction``
decoded from it. These tests run a short 4-org ``{2 of 4}``
OrderlessChain election and check, against plain deep copies, that
everything the sharing answers is exactly what a fresh computation
gives; and, with a deterministic counter, that a whole transaction is
rendered once, not once per organization.
"""

import pytest

from repro.contracts import VotingContract
from repro.core import OrderlessChainNetwork, OrderlessChainSettings
from repro.core.transaction import Transaction
from repro.crypto import hashing
from repro.crypto.hashing import FrozenDict, FrozenList, sha256_hex

NUM_ORGS = 4


def plain(value):
    """Deep copy of a wire structure made of plain dicts and lists only."""
    if isinstance(value, dict):
        return {key: plain(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def is_transaction_wire(value):
    return isinstance(value, dict) and "client_signature" in value and "endorsements" in value


@pytest.fixture(scope="module")
def election():
    """A finished election plus the transaction renders made during it."""
    transaction_renders = []
    original = hashing._render

    def counting(value, store):
        if is_transaction_wire(value):
            transaction_renders.append(value)
        return original(value, store)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hashing, "_render", counting)
        settings = OrderlessChainSettings(num_orgs=NUM_ORGS, quorum=2, seed=3)
        net = OrderlessChainNetwork(settings)
        net.install_contract(lambda: VotingContract(parties_per_election=2))
        for index in range(8):
            client = net.add_client(f"voter{index}")
            net.sim.process(
                client.submit_modify(
                    "voting",
                    "vote",
                    {"party": f"party{index % 2}", "election": f"e{index % 3}"},
                )
            )
        net.run(until=40.0)
    assert net.check_invariants().ok
    return net, transaction_renders


def blocks(net):
    return [(org, block) for org in net.organizations for block in org.ledger.log]


def test_every_org_commits_every_transaction(election):
    net, _ = election
    ids = {Transaction.from_wire(block.payload).transaction_id for _, block in blocks(net)}
    assert len(ids) == 8
    for org in net.organizations:
        assert org.ledger.valid_transaction_count == len(ids)


def test_a_transaction_is_rendered_once_not_once_per_org(election):
    net, transaction_renders = election
    distinct = {
        Transaction.from_wire(block.payload).transaction_id for _, block in blocks(net)
    }
    assert len(blocks(net)) == NUM_ORGS * len(distinct)
    assert len(transaction_renders) == len(distinct)


def test_orgs_share_one_frozen_wire_and_one_decode_per_transaction(election):
    net, _ = election
    by_id = {}
    for _, block in blocks(net):
        wire = block.payload
        assert type(wire) is FrozenDict
        decoded = Transaction.from_wire(wire)
        assert Transaction.from_wire(wire) is decoded
        seen = by_id.setdefault(decoded.transaction_id, (wire, decoded))
        assert seen[0] is wire and seen[1] is decoded


def test_memoized_fragment_equals_a_fresh_render_of_a_plain_copy(election):
    net, _ = election
    for org in net.organizations:
        for wire in org._valid_txn_wire.values():
            copy = plain(wire)
            assert type(copy) is dict
            assert wire._canonical is not None
            assert hashing._fragment(wire) == wire._canonical == hashing._fragment(copy)
            write_set = wire["write_set"]
            assert type(write_set) is FrozenList
            assert hashing._fragment(write_set) == hashing._fragment(copy["write_set"])


def test_shared_decode_equals_a_fresh_decode_of_a_plain_copy(election):
    net, _ = election
    for org in net.organizations:
        for wire in org._valid_txn_wire.values():
            shared = Transaction.from_wire(wire)
            fresh = Transaction.from_wire(plain(wire))
            assert fresh is not shared
            assert shared.proposal == fresh.proposal
            assert shared.write_set == fresh.write_set
            assert shared.endorsements == fresh.endorsements
            assert shared.client_signature == fresh.client_signature
            assert shared.transaction_id == fresh.transaction_id
            assert shared.digest() == fresh.digest()
            assert shared.operations() == fresh.operations()
            assert shared.signed_payloads() == fresh.signed_payloads()
            assert shared.to_wire() is wire and fresh.to_wire() == wire


def test_every_block_hash_equals_the_hash_of_a_plain_copy(election):
    net, _ = election
    for _, block in blocks(net):
        assert block.block_hash == sha256_hex(plain(block.to_wire()))
