"""The hot-path crypto caches: the memo on frozen wires and the verify cache.

Both exist purely for speed; these tests pin the properties that make
them safe — a memoized encoding can never go stale because its
container cannot change, plain containers are never memoized, and a
forged or tampered signature can never be served from the verify cache
as valid.
"""

import json
import pickle

import pytest

from repro.crypto import hashing
from repro.crypto.hashing import FrozenDict, FrozenList, canonical_bytes, freeze
from repro.crypto.identity import CertificateAuthority


def reference_encode(value):
    """Independent reference: the JSON-ready form of ``value``.

    ``json.dumps(reference_encode(v), sort_keys=True,
    separators=(",", ":"))`` is the canonical encoding's definition.
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(key): reference_encode(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_encode(item) for item in value]
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    raise TypeError(type(value).__name__)


def reference_bytes(value):
    return json.dumps(
        reference_encode(value), sort_keys=True, separators=(",", ":")
    ).encode()


@pytest.fixture
def renders(monkeypatch):
    """Every container node rendered (not answered from a memo)."""
    rendered = []
    original = hashing._render

    def counting(value, store):
        rendered.append(value)
        return original(value, store)

    monkeypatch.setattr(hashing, "_render", counting)
    return rendered


def nested_wire():
    return freeze(
        {
            "write_set": [
                {"object_id": "o1", "path": ("a", "b"), "value": 1},
                {"object_id": "o2", "path": [], "value": {"k": [1, 2]}},
            ],
            "meta": {"clock": {"client_id": "c0", "counter": 7}},
        }
    )


def frozen_nodes(value):
    """Every container node of ``value``, outermost first."""
    nodes = [value]
    children = value.values() if isinstance(value, dict) else value
    for child in children:
        if isinstance(child, (dict, list)):
            nodes.extend(frozen_nodes(child))
    return nodes


DICT_MUTATIONS = {
    "setitem": lambda d: d.__setitem__("x", 1),
    "delitem": lambda d: d.__delitem__(next(iter(d))),
    "ior": lambda d: d.__ior__({"x": 1}),
    "clear": lambda d: d.clear(),
    "pop": lambda d: d.pop(next(iter(d))),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: d.setdefault("x", 1),
    "update": lambda d: d.update(x=1),
}

LIST_MUTATIONS = {
    "setitem": lambda l: l.__setitem__(0, 1),
    "setslice": lambda l: l.__setitem__(slice(None), []),
    "delitem": lambda l: l.__delitem__(0),
    "iadd": lambda l: l.__iadd__([1]),
    "imul": lambda l: l.__imul__(2),
    "append": lambda l: l.append(1),
    "extend": lambda l: l.extend([1]),
    "insert": lambda l: l.insert(0, 1),
    "pop": lambda l: l.pop(),
    "remove": lambda l: l.remove(l[0]),
    "clear": lambda l: l.clear(),
    "sort": lambda l: l.sort(),
    "reverse": lambda l: l.reverse(),
}


class TestFrozenWireMemo:
    def test_one_render_per_frozen_wire_object(self, renders):
        wire = nested_wire()
        first = canonical_bytes(wire)
        nodes = frozen_nodes(wire)
        assert len(renders) == len(nodes)
        assert sorted(map(id, renders)) == sorted(map(id, nodes))
        renders.clear()
        assert canonical_bytes(wire) == first
        assert renders == []

    def test_nested_frozen_nodes_are_covered_by_their_parents_fragment(self, renders):
        # Only the outermost frozen node keeps a fragment; its nested
        # nodes are not stored a second time.
        wire = nested_wire()
        canonical_bytes(wire)
        assert wire._canonical is not None
        assert all(node._canonical is None for node in frozen_nodes(wire)[1:])
        # A nested node encoded on its own first keeps its fragment, and
        # the parent's render reuses it.
        wire = nested_wire()
        write_set = wire["write_set"]
        canonical_bytes(write_set)
        renders.clear()
        canonical_bytes(wire)
        assert write_set._canonical is not None
        assert all(node is not write_set for node in renders)

    def test_frozen_inner_nodes_are_reused_under_fresh_plain_wrappers(self, renders):
        # write_set_digest wraps the same frozen write-set in a fresh
        # plain dict each time: only that wrapper is rendered again.
        write_set = nested_wire()["write_set"]
        canonical_bytes({"write_set": write_set})
        renders.clear()
        canonical_bytes({"write_set": write_set})
        assert len(renders) == 1 and type(renders[0]) is dict

    def test_plain_dicts_and_lists_are_never_memoized(self, renders):
        payload = {"write_set": [{"value": 1}]}
        first = canonical_bytes(payload)
        assert len(renders) == 3
        renders.clear()
        assert canonical_bytes(payload) == first
        assert len(renders) == 3
        payload["write_set"][0]["value"] = 2
        assert canonical_bytes(payload) == reference_bytes(payload) != first

    @pytest.mark.parametrize("name", sorted(DICT_MUTATIONS))
    def test_every_dict_mutator_raises_at_every_level(self, name):
        wire = nested_wire()
        before = canonical_bytes(wire)
        dicts = [node for node in frozen_nodes(wire) if isinstance(node, dict)]
        assert len(dicts) == 6
        for node in dicts:
            assert type(node) is FrozenDict
            with pytest.raises(TypeError):
                DICT_MUTATIONS[name](node)
        assert canonical_bytes(wire) == before == reference_bytes(wire)

    @pytest.mark.parametrize("name", sorted(LIST_MUTATIONS))
    def test_every_list_mutator_raises_at_every_level(self, name):
        wire = nested_wire()
        before = canonical_bytes(wire)
        lists = [
            node for node in frozen_nodes(wire) if isinstance(node, list) and node
        ]
        assert len(lists) == 3
        for node in lists:
            assert type(node) is FrozenList
            with pytest.raises(TypeError):
                LIST_MUTATIONS[name](node)
        assert canonical_bytes(wire) == before == reference_bytes(wire)

    def test_reinitializing_does_not_refill(self):
        wire = nested_wire()
        before = dict(wire)
        wire.__init__({"x": 1})
        wire["write_set"].__init__([1])
        assert wire == before
        assert len(wire["write_set"]) == 2

    def test_copies_are_plain_and_mutable(self):
        wire = nested_wire()
        for copy in (wire.copy(), dict(wire), {**wire}):
            assert type(copy) is dict
            copy["x"] = 1
        items = wire["write_set"]
        for copy in (items.copy(), list(items), items[:], items + []):
            assert type(copy) is list
            copy.append(1)
        assert "x" not in wire and len(items) == 2

    def test_construction_freezes_nested_plain_containers(self):
        inner = {"k": [1, 2]}
        wire = FrozenDict(outer=inner, items=[inner, (3, 4)])
        assert type(wire["outer"]) is FrozenDict
        assert type(wire["outer"]["k"]) is FrozenList
        assert type(wire["items"][1]) is FrozenList
        encoded = canonical_bytes(wire)
        inner["k"].append(3)  # the source stays independent
        assert canonical_bytes(wire) == encoded == reference_bytes(wire)

    def test_pickle_round_trip_preserves_equality_and_immutability(self):
        # bench.parallel.run_sweep ships results between processes.
        wire = nested_wire()
        encoded = canonical_bytes(wire)
        restored = pickle.loads(pickle.dumps(wire))
        assert restored == wire
        assert canonical_bytes(restored) == encoded
        for original, copy in zip(frozen_nodes(wire), frozen_nodes(restored)):
            assert type(copy) is type(original)
        with pytest.raises(TypeError):
            restored["write_set"][0]["value"] = 2
        with pytest.raises(TypeError):
            restored["write_set"].append({})

    def test_encoding_matches_plain_json_dumps(self):
        payload = {
            "b": [1, 2.5, True, None, "x"],
            "a": {"nested": (1, 2)},
            1: "int-key",
            "raw": b"\x00\xff",
            "text": "caf\u00e9 \"quoted\"",
        }
        expected = reference_bytes(payload)
        assert canonical_bytes(payload) == expected
        frozen = freeze(payload)
        assert canonical_bytes(frozen) == expected
        assert canonical_bytes(frozen) == expected  # memoized path too


class TestVerifyCache:
    def _ca_and_identity(self):
        ca = CertificateAuthority()
        identity = ca.enroll("org1", "organization", seed=b"org1-seed")
        return ca, identity

    def test_repeat_verification_is_cached(self):
        ca, identity = self._ca_and_identity()
        payload = {"digest": "abc", "proposal_id": "c0:1"}
        signature = identity.sign(payload)
        assert ca.verify("org1", payload, signature)
        assert ca.verify_cache_misses == 1
        assert ca.verify("org1", payload, signature)
        assert ca.verify_cache_hits == 1
        assert ca.verify_cache_misses == 1

    def test_forged_signature_is_never_served_as_valid(self):
        ca, identity = self._ca_and_identity()
        payload = {"digest": "abc", "proposal_id": "c0:1"}
        signature = identity.sign(payload)
        assert ca.verify("org1", payload, signature)  # warm the cache
        forged = signature[:-1] + ("0" if signature[-1] != "0" else "1")
        assert not ca.verify("org1", payload, forged)
        # The forged outcome is cached too — still as invalid.
        assert not ca.verify("org1", payload, forged)

    def test_tampered_payload_is_never_served_as_valid(self):
        ca, identity = self._ca_and_identity()
        payload = {"digest": "abc", "proposal_id": "c0:1"}
        signature = identity.sign(payload)
        assert ca.verify("org1", payload, signature)
        assert not ca.verify("org1", {"digest": "abd", "proposal_id": "c0:1"}, signature)

    def test_revocation_wins_over_a_cached_valid_outcome(self):
        ca, identity = self._ca_and_identity()
        payload = {"digest": "abc", "proposal_id": "c0:1"}
        signature = identity.sign(payload)
        assert ca.verify("org1", payload, signature)
        ca.revoke("org1")
        assert not ca.verify("org1", payload, signature)

    def test_unknown_identity_is_not_cached(self):
        ca, _ = self._ca_and_identity()
        assert not ca.verify("ghost", {"x": 1}, "sig")
        assert ca.verify_cache_misses == 0
        assert ca.verify_cache_hits == 0

    def test_cache_epoch_eviction(self):
        ca, identity = self._ca_and_identity()
        ca.VERIFY_CACHE_MAX = 4
        signatures = []
        for index in range(6):
            payload = {"digest": str(index), "proposal_id": f"c0:{index}"}
            signatures.append((payload, identity.sign(payload)))
            assert ca.verify("org1", payload, signatures[-1][1])
        assert len(ca._verify_cache) <= 4
        # Evicted entries simply re-verify — still correct.
        for payload, signature in signatures:
            assert ca.verify("org1", payload, signature)
