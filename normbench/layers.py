"""Per-layer tracing from the benchmark's own files.

:class:`LayerTracer` wraps the public entry points of each layer of
``repro`` (modules under ``src/repro``) with timing wrappers while it is
installed, and restores the originals on exit. Self time is attributed
with a span stack: each wrapper pushes a span, and on exit adds its
duration to the enclosing span's child time, so a layer's self time is
its spans' durations minus the wrapped calls nested under them. A call
into a layer from inside the same layer (``sha256_hex`` encoding through
``canonical_bytes``) is folded into the outer span and counted once.

Generator functions are wrapped with a generator that times each resume,
so an iterator such as ``WatermarkDigest.difference`` is charged for the
work done while it is consumed, not at creation.

``sim.run`` self time is the simulation kernel plus every protocol
generator body (organization and client handlers, contracts) that runs
under no other wrapped call; finer attribution needs spans inside the
program.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable, Dict, List, Tuple

LAYERS = (
    "crypto.hash",
    "crypto.sign",
    "crypto.verify",
    "core.wire",
    "core.validate",
    "core.antientropy",
    "crdt.apply",
    "ledger.commit",
    "net.send",
    "sim.run",
)

# Organization methods that make up anti-entropy (digest exchange,
# reconciliation and paginated sync), beside the repro.core.antientropy
# data structures themselves.
_ORG_SYNC_METHODS = (
    "_digest_body_and_size",
    "_send_digest",
    "_handle_sync_digest",
    "_send_sync_requests",
    "_send_txn_batches",
    "_handle_sync_request",
)


class LayerTracer:
    """Counts calls, encoded bytes and self time per layer while installed."""

    def __init__(self) -> None:
        self.reset()
        # Each entry: [layer, start, time spent in nested wrapped calls].
        self._stack: List[list] = []
        self._restore: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero the counters (the stack of open spans is kept)."""
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.hash_bytes = 0
        self.valid_commits = 0

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, layer: str) -> bool:
        stack = self._stack
        if stack and stack[-1][0] == layer:
            return False
        stack.append([layer, time.perf_counter(), 0.0])
        return True

    def _exit(self) -> None:
        end = time.perf_counter()
        layer, start, nested = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - nested
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, layer: str, function: Callable, on_result=None) -> Callable:
        tracer = self

        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def traced_generator(*args, **kwargs):
                generator = function(*args, **kwargs)
                tracer.calls[layer] += 1
                value = None
                while True:
                    opened = tracer._enter(layer)
                    try:
                        item = generator.send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        if opened:
                            tracer._exit()
                    value = yield item

            return traced_generator

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer._enter(layer):
                result = function(*args, **kwargs)
            else:
                tracer.calls[layer] += 1
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer._exit()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- installing wrappers ------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_method(self, cls, name: str, layer: str, on_result=None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(layer, raw.__func__, on_result))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(layer, raw.__func__, on_result))
        else:
            wrapped = self._wrap(layer, raw, on_result)
        self._set(cls, name, wrapped)

    def _patch_public(self, cls, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") or isinstance(raw, property):
                continue
            if callable(raw) or isinstance(raw, (classmethod, staticmethod)):
                self._patch_method(cls, name, layer)

    def _patch_everywhere(self, original: Callable, wrapped: Callable) -> None:
        """Rebind ``original`` in every ``repro`` module that imported it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, wrapped)

    def install(self) -> "LayerTracer":
        from repro.core import antientropy, transaction
        from repro.core.organization import Organization
        from repro.crdt.store import CRDTStore
        from repro.crypto import hashing
        from repro.crypto.identity import CertificateAuthority, Identity
        from repro.ledger.ledger import Ledger
        from repro.net.network import Network
        from repro.sim.core import Simulator

        def count_bytes(encoded: bytes) -> None:
            self.hash_bytes += len(encoded)

        def count_valid(block) -> None:
            if block.valid:
                self.valid_commits += 1

        # canonical_bytes/sha256_hex/chain_hash are bound by name in many
        # modules; patching repro.crypto.hashing alone would miss them.
        for name, on_result in (
            ("canonical_bytes", count_bytes),
            ("sha256_hex", None),
            ("chain_hash", None),
        ):
            original = getattr(hashing, name)
            self._patch_everywhere(original, self._wrap("crypto.hash", original, on_result))
        self._patch_method(Identity, "sign", "crypto.sign")
        self._patch_method(CertificateAuthority, "verify", "crypto.verify")
        for cls in (
            transaction.Proposal,
            transaction.Endorsement,
            transaction.Transaction,
            transaction.Receipt,
        ):
            self._patch_public(cls, "core.wire")
        self._patch_method(Organization, "validate_transaction", "core.validate")
        for cls in (antientropy.WatermarkDigest, antientropy.CommittedIndex):
            self._patch_public(cls, "core.antientropy")
        for name in _ORG_SYNC_METHODS:
            # Private handlers may be renamed by a refactor; a missing one
            # only narrows this layer instead of failing the traced run.
            if name in vars(Organization):
                self._patch_method(Organization, name, "core.antientropy")
        self._patch_method(CRDTStore, "apply", "crdt.apply")
        self._patch_method(Ledger, "commit", "ledger.commit", count_valid)
        self._patch_method(Network, "send", "net.send")
        self._patch_method(Simulator, "run", "sim.run")
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
