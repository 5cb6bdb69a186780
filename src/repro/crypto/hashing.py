"""Canonical hashing of structured payloads.

All signatures and hash-chain links in the system hash a *canonical*
byte encoding of the payload, so that two nodes computing the hash of
the same logical content always agree. The encoding is deterministic
JSON (sorted keys, no whitespace) with a small extension for bytes and
tuples, which covers every message type in the protocol.

Immutable wire forms
--------------------

Serialization dominates the simulator's hot path: one transaction's
write-set is hashed for the client signature and for every endorsement
signature, every organization validates the same transaction, and
every organization chains it into a block whose hash covers the whole
transaction. Because the simulation shares one process, those call
sites receive the *same* wire objects.

:class:`FrozenDict` and :class:`FrozenList` make that sharing safe by
construction: they are ``dict``/``list`` subclasses whose every
mutator raises :class:`TypeError`, and whose contents are frozen all
the way down (the constructors freeze nested dicts, lists and tuples).
A frozen node keeps its canonical fragment once rendered, so it is
serialized once however many times, and from however many enclosing
payloads, it is hashed. Nodes rendered *inside* a frozen node do not
keep a copy of their own: the outer fragment already contains them,
and storing every level would hold each wire byte several times over.
Plain dicts, lists and tuples are rendered afresh on every call, so a
tampered or hand-built payload is never answered from a stale
encoding. The protocol's wire builders
(``Proposal``/``Endorsement``/``Transaction.to_wire`` and
``ContractContext.write_set_wire``) produce frozen forms.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _escape_str
from typing import Any

GENESIS_HASH = "0" * 64
"""The hash-chain predecessor of the first block."""

_scalar_dumps = json.dumps


def _immutable(self, *args, **kwargs):
    raise TypeError(f"{type(self).__name__} is immutable")


class FrozenDict(dict):
    """An immutable ``dict`` that carries its canonical fragment.

    Values are frozen on construction (see :func:`freeze`). ``copy()``,
    ``dict(...)`` and ``{**d}`` give plain, mutable dicts. ``_decoded``
    lets a wire decoder keep the object decoded from this wire on it
    (``Transaction.from_wire``), so the decode is shared too.
    """

    __slots__ = ("_canonical", "_decoded")

    def __new__(cls, *args, **kwargs):
        self = dict.__new__(cls)
        dict.update(
            self, {key: freeze(value) for key, value in dict(*args, **kwargs).items()}
        )
        self._canonical = None
        self._decoded = None
        return self

    def __init__(self, *args, **kwargs):
        # Filled by __new__; re-running __init__ must not refill it.
        pass

    def __reduce__(self):
        return (type(self), (dict(self),))

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable


class FrozenList(list):
    """An immutable ``list`` that carries its canonical fragment.

    Items are frozen on construction (see :func:`freeze`). Slicing,
    ``copy()``, ``+`` and ``list(...)`` give plain, mutable lists.
    """

    __slots__ = ("_canonical",)

    def __new__(cls, iterable=()):
        self = list.__new__(cls)
        list.extend(self, [freeze(item) for item in iterable])
        self._canonical = None
        return self

    def __init__(self, iterable=()):
        # Filled by __new__; re-running __init__ must not refill it.
        pass

    def __reduce__(self):
        return (type(self), (list(self),))

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _immutable
    append = extend = insert = pop = remove = clear = sort = reverse = _immutable


def freeze(value: Any) -> Any:
    """Immutable form of a wire structure.

    Dicts become :class:`FrozenDict`, lists and tuples become
    :class:`FrozenList` (both encode as JSON arrays, so the canonical
    bytes do not change), recursively; frozen nodes and scalars are
    returned as they are.
    """
    cls = value.__class__
    if cls is FrozenDict or cls is FrozenList:
        return value
    if isinstance(value, dict):
        return FrozenDict(value)
    if isinstance(value, (list, tuple)):
        return FrozenList(value)
    return value


def _render(value: Any, store: bool) -> str:
    """Canonical fragment of one dict/list/tuple node, rendered now.

    ``store`` says whether frozen children may keep their fragments:
    false inside a frozen node, whose own stored fragment covers them.
    """
    if isinstance(value, dict):
        # str(key) first (duplicates collapse, last one wins), then
        # sort. All-str keys — the wire convention — skip the
        # normalization pass.
        if all(type(k) is str for k in value):
            normalized = value
        else:
            normalized = {str(k): v for k, v in value.items()}
        return (
            "{"
            + ",".join(
                f"{_escape_str(k)}:{_fragment(v, store)}"
                for k, v in sorted(normalized.items(), key=lambda kv: kv[0])
            )
            + "}"
        )
    return "[" + ",".join(_fragment(item, store) for item in value) + "]"


def _fragment(value: Any, store: bool = True) -> str:
    """Canonical JSON fragment of ``value``.

    Byte-identical to ``json.dumps`` with ``sort_keys=True`` and
    ``separators=(",", ":")`` over the same data with non-str keys
    stringified, tuples as lists and bytes as ``{"__bytes__": hex}`` —
    pinned by tests/crypto/test_caches.py. Frozen nodes answer from
    their stored fragment; ``store`` is false inside a frozen node.
    """
    # Exact-type scalar fast paths (the bulk of all calls) render
    # without json.dumps; each is byte-identical to what dumps emits.
    # Scalar subclasses and floats (repr subtleties, NaN/Infinity)
    # fall through to json.dumps itself.
    cls = value.__class__
    if cls is str:
        return _escape_str(value)
    if cls is bool:
        return "true" if value else "false"
    if cls is int:
        return repr(value)
    if value is None:
        return "null"
    if cls is FrozenDict or cls is FrozenList:
        fragment = value._canonical
        if fragment is None:
            fragment = _render(value, False)
            if store:
                value._canonical = fragment
        return fragment
    if isinstance(value, (str, int, float)):
        return _scalar_dumps(value)
    if isinstance(value, (dict, list, tuple)):
        return _render(value, True)
    if isinstance(value, bytes):
        return '{"__bytes__":' + _scalar_dumps(value.hex()) + "}"
    if hasattr(value, "to_wire"):
        return _fragment(value.to_wire(), store)
    raise TypeError(f"cannot canonically encode {type(value).__name__}")


def canonical_bytes(value: Any) -> bytes:
    """Deterministic byte encoding of ``value``."""
    return _fragment(value).encode()


def sha256_hex(value: Any) -> str:
    """Hex SHA-256 of the canonical encoding of ``value``."""
    return hashlib.sha256(canonical_bytes(value)).hexdigest()


def chain_hash(previous_hash: str, payload: Any) -> str:
    """Hash-chain link: hash of (previous hash, payload)."""
    return sha256_hex({"prev": previous_hash, "payload": payload})


__all__ = [
    "GENESIS_HASH",
    "FrozenDict",
    "FrozenList",
    "canonical_bytes",
    "chain_hash",
    "freeze",
    "sha256_hex",
]
