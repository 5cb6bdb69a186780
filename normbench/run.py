"""The repository benchmark: one workload per process, on a normalized clock.

Run from the repository root::

    python3 normbench/run.py --workload endorse-heavy --seed 1 --seconds 25 --trace 0

The benchmark builds each network itself through the public API, warms
it up, then advances the simulation in slices separated by readings of
a fixed reference loop (``refclock``), so host time is reported on a
clock that host-speed drift does not move. A run repeats
build + warm-up + timed window + drain + checks with the same seed for
``--seconds`` of wall time (at least twice) and reports medians.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced repeats with repeats under :class:`layers.LayerTracer` and
prints the per-layer metrics. Any failed check (ledger integrity, the
oracles, a fingerprint or commit count that differs between repeats of
the seed) exits non-zero without printing metrics. The last line of
standard output is the result object; the line before it carries the
deterministic counts and raw timings as diagnostics.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from refclock import NormClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# The keys of workloads.WORKLOADS, needed before the program is imported.
WORKLOAD_NAMES = ("endorse-heavy", "bidl-baseline", "channels-churn")
MIN_WINDOW_COMMITS = 1000


class CheckFailed(Exception):
    """A correctness check failed; the run reports no metrics."""


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (q in [0, 100])."""
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class QueueWaits:
    """A passive ``repro.obs`` recorder keeping endorsement queue waits."""

    def __init__(self, start: float, end: float) -> None:
        self.start, self.end = start, end
        self.waits: List[float] = []

    def span(self, name, start, end, *, node="", txn_id=None, attrs=None) -> None:
        if name == "orderlesschain/P1/Queue" and self.start <= start < self.end:
            self.waits.append(end - start)

    def instant(self, name, at, *, node="", txn_id=None, attrs=None) -> None:
        pass

    def sample(self, name, at, value, *, node="") -> None:
        pass


@dataclass
class Repeat:
    """One build + warm-up + window + drain + checks of the workload."""

    build_s: float = 0.0
    warmup_s: float = 0.0
    window_norm_s: float = 0.0
    window_wall_s: float = 0.0
    check_s: float = 0.0
    sim: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    fingerprint: str = ""

    @property
    def setup_s(self) -> float:
        return self.build_s + self.warmup_s

    @property
    def norm_ms_per_commit(self) -> float:
        return 1000.0 * self.window_norm_s / self.sim["window_commits"]

    @property
    def wall_ms_per_commit(self) -> float:
        return 1000.0 * self.window_wall_s / self.sim["window_commits"]


def _advance(run, clock: NormClock, until: float, step: float):
    """Run the simulation to ``until`` in slices; (wall_s, normalized_s)."""
    wall = norm = 0.0
    now = run.sim.now
    while now < until - 1e-9:
        now = min(until, now + step)
        _, slice_wall, slice_norm = clock.measure(lambda: run.sim.run(until=now))
        wall += slice_wall
        norm += slice_norm
    return wall, norm


def _net_counters(run) -> Dict[str, float]:
    from repro.core.organization import MSG_SYNC_DIGEST

    network = run.network
    return {
        "events": run.sim.processed_events,
        "msgs": network.sent_count,
        "bytes": sum(network.bytes_by_type.values()),
        "drops": network.dropped_count,
        "digest_msgs": network.sent_by_type.get(MSG_SYNC_DIGEST, 0),
        "digest_bytes": network.bytes_by_type.get(MSG_SYNC_DIGEST, 0),
        "cpu_busy": sum(cpu.busy_seconds() / cpu.capacity for cpu in run.cpus),
        "lock_busy": sum(lock.busy_seconds() for lock in run.cache_locks),
    }


def _window_outcomes(run) -> Dict[str, float]:
    """Deterministic outcome of the transactions in the timed window."""
    start, end = run.window_start, run.window_end
    records = run.net.recorder.records.values()
    submitted = [r for r in records if start <= r.submitted_at < end]
    commits = sum(
        1 for r in records if r.committed_at is not None and start <= r.committed_at < end
    )
    committed = [r for r in submitted if r.committed_at is not None]
    failed = sum(1 for r in submitted if r.failed_at is not None)
    unresolved = len(submitted) - len(committed) - failed
    if unresolved:
        raise CheckFailed(f"{unresolved} window transactions unresolved after the drain")
    if commits < MIN_WINDOW_COMMITS:
        raise CheckFailed(f"only {commits} commits in the window (< {MIN_WINDOW_COMMITS})")
    modify = [r.committed_at - r.submitted_at for r in committed if r.kind == "modify"]
    reads = [r.committed_at - r.submitted_at for r in committed if r.kind == "read"]
    scale = run.workload.config.scale
    return {
        "window_commits": commits,
        "submitted": len(submitted),
        "committed": len(committed),
        "failed": failed,
        "retries": sum(r.retries for r in submitted),
        "modify_samples": len(modify),
        "read_samples": len(reads),
        "commit_tps": scale * commits / run.workload.window,
        "latency_p50_ms": 1000.0 * percentile(modify, 50),
        "latency_p99_ms": 1000.0 * percentile(modify, 99),
        "read_latency_p99_ms": 1000.0 * percentile(reads, 99) if reads else 0.0,
        "committed_share": len(committed) / len(submitted),
    }


def one_repeat(
    workloads, layers, workload, seed: int, clock: NormClock, traced: bool, oracles: bool
) -> Repeat:
    """Build, warm up, time the window, drain and check one network.

    With ``traced`` the layer wrappers and the queue-wait recorder are
    installed for the build and the simulation and removed before the
    checks; ``oracles`` runs the full oracle pass (first repeat only).
    """
    gc.collect()
    rep = Repeat()
    tracer = layers.LayerTracer().install() if traced else None
    try:
        run, _, rep.build_s = clock.measure(lambda: workloads.build(workload, seed))
        queue = QueueWaits(run.window_start, run.window_end)
        if traced and workload.config.system == "orderlesschain":
            for org in run.net.organizations:
                org.tracer = queue
        _, rep.warmup_s = _advance(run, clock, run.window_start, workload.slice)
        before = _net_counters(run)
        if tracer is not None:
            tracer.reset()
        rep.window_wall_s, rep.window_norm_s = _advance(
            run, clock, run.window_end, workload.slice
        )
        after = _net_counters(run)
        if tracer is not None:
            calls, self_s = dict(tracer.calls), dict(tracer.self_s)
            hash_bytes, valid_commits = tracer.hash_bytes, tracer.valid_commits
        run.sim.run(until=run.end)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if run.injector is not None:
        run.injector.finalize()
    from repro.errors import LedgerError

    try:
        run.verify_ledgers()
    except LedgerError as exc:
        raise CheckFailed(f"ledger integrity: {exc}") from exc
    if oracles:
        # The oracles' verdict is a function of the seed like the rest of
        # the outcome, which the fingerprint pins across repeats, so one
        # pass per process suffices.
        (ok, report), _, rep.check_s = clock.measure(run.check)
        if not ok:
            raise CheckFailed(report)
    rep.fingerprint = run.fingerprint()
    rep.sim = _window_outcomes(run)
    commits = rep.sim["window_commits"]
    delta = {key: after[key] - before[key] for key in before}
    window = workload.window
    rep.counts = {
        "sim.events_per_commit": delta["events"] / commits,
        "net.msgs_per_commit": delta["msgs"] / commits,
        "net.bytes_per_commit": delta["bytes"] / commits,
        "net.drops_per_commit": delta["drops"] / commits,
        "core.antientropy.digest_bytes_per_round": (
            delta["digest_bytes"] / delta["digest_msgs"] if delta["digest_msgs"] else 0.0
        ),
        "sim.node_cpu_utilization": delta["cpu_busy"] / (window * len(run.cpus)),
        "core.cache_lock_utilization": (
            delta["lock_busy"] / (window * len(run.cache_locks)) if run.cache_locks else 0.0
        ),
        "resilience.retries_per_commit": rep.sim["retries"] / commits,
    }
    if tracer is not None:
        share = {layer: self_s[layer] / rep.window_wall_s for layer in self_s}
        per_commit = {layer: calls[layer] / commits for layer in calls}
        rep.layers = {
            "crypto.hash.calls_per_commit": per_commit["crypto.hash"],
            "crypto.hash.bytes_per_commit": hash_bytes / commits,
            "crypto.hash.self_share": share["crypto.hash"],
            "crypto.verify.calls_per_commit": per_commit["crypto.verify"],
            "crypto.verify.self_share": share["crypto.verify"],
            "crypto.sign.calls_per_commit": per_commit["crypto.sign"],
            "core.wire.calls_per_commit": per_commit["core.wire"],
            "core.wire.self_share": share["core.wire"],
            "core.validate.calls_per_commit": per_commit["core.validate"],
            "core.validate.self_share": share["core.validate"],
            "core.validate.useful_ratio": (
                valid_commits / calls["core.validate"] if calls["core.validate"] else 0.0
            ),
            "core.antientropy.self_share": share["core.antientropy"],
            "crdt.apply.calls_per_commit": per_commit["crdt.apply"],
            "crdt.apply.self_share": share["crdt.apply"],
            "ledger.commit.calls_per_commit": per_commit["ledger.commit"],
            "ledger.commit.self_share": share["ledger.commit"],
            "net.send.self_share": share["net.send"],
            "sim.run.self_share": share["sim.run"],
            "core.endorse.queue_wait_ms_p50": (
                1000.0 * percentile(queue.waits, 50) if queue.waits else 0.0
            ),
        }
    return rep


def _unit(name: str) -> str:
    if name.endswith(("_share", "_ratio", "_utilization")):
        return "share"
    if name.endswith("_ms_p50"):
        return "sim-ms"
    return "bytes" if "bytes" in name else "count"


def _median(values) -> float:
    return statistics.median(list(values))


def _result(attempted: int, failed: int, metrics: Dict[str, tuple]) -> str:
    """The result line; only runs that passed every check print one."""
    return json.dumps(
        {
            "correct": True,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    # The build step: byte-compile once, so every run imports from cache.
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))

    clock = NormClock()
    started = time.perf_counter()
    _, import_wall, import_s = clock.measure(lambda: importlib.import_module("workloads"))
    workloads = sys.modules["workloads"]
    layers = importlib.import_module("layers")
    workload = workloads.WORKLOADS[args.workload]

    repeats: List[Repeat] = []
    traced: List[Repeat] = []
    try:
        while True:
            is_traced = bool(args.trace) and len(repeats) > len(traced)
            rep = one_repeat(
                workloads, layers, workload, args.seed, clock, is_traced, oracles=not repeats
            )
            (traced if is_traced else repeats).append(rep)
            done = len(repeats) + len(traced)
            elapsed = time.perf_counter() - started
            # Stop when the next repeat would overrun the budget, once
            # there are two repeats to compare (and one traced, if asked).
            enough = done >= 2 and (traced or not args.trace)
            if enough and elapsed * (done + 1) / done > args.seconds:
                break
        everything = repeats + traced
        if len({rep.fingerprint for rep in everything}) != 1:
            raise CheckFailed("run_fingerprint differs between repeats of one seed")
        if any(rep.sim != everything[0].sim for rep in everything):
            raise CheckFailed("window outcome differs between repeats of one seed")
        if any(rep.counts != everything[0].counts for rep in everything):
            raise CheckFailed("deterministic counts differ between repeats of one seed")
    except CheckFailed as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        return 1

    first = repeats[0]
    sim = first.sim
    setup_s = import_s + _median(rep.setup_s for rep in repeats)
    norm_ms = _median(rep.norm_ms_per_commit for rep in repeats)
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "repeats": len(repeats),
        "traced_repeats": len(traced),
        "norm_ms_per_commit_each": [round(rep.norm_ms_per_commit, 4) for rep in repeats],
        "setup_s_each": [round(import_s + rep.setup_s, 4) for rep in repeats],
        "wall_ms_per_commit_raw": _median(rep.wall_ms_per_commit for rep in repeats),
        "import_wall_s": import_wall,
        "window_commits": sim["window_commits"],
        "submitted": sim["submitted"],
        "failed": sim["failed"],
        "latency_samples": sim["modify_samples"],
        "read_latency_samples": sim["read_samples"],
        "sim_read_latency_p99_ms": sim["read_latency_p99_ms"],
        "fingerprint": first.fingerprint,
        **{name: value for name, value in first.counts.items() if "per_commit" in name},
    }
    print(json.dumps({"diagnostics": diagnostics}))
    attempted = sim["submitted"] * len(everything)
    failed = sim["failed"] * len(everything)
    if not args.trace:
        metrics = {
            "norm_ms_per_commit": (norm_ms, "ref-ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "sim_commit_tps": (sim["commit_tps"], "tx/sim-s"),
            "sim_latency_p50_ms": (sim["latency_p50_ms"], "sim-ms"),
            "sim_latency_p99_ms": (sim["latency_p99_ms"], "sim-ms"),
            "txn_committed_share": (sim["committed_share"], "share"),
        }
        print(_result(attempted, failed, metrics))
        return 0

    per_layer: Dict[str, tuple] = {}
    for name in traced[0].layers:
        per_layer[name] = (_median(rep.layers[name] for rep in traced), _unit(name))
    for name, value in first.counts.items():
        per_layer[name] = (value, _unit(name))
    traced_norm = _median(rep.norm_ms_per_commit for rep in traced)
    per_layer.update(
        {
            "sim.read_latency_p99_ms": (sim["read_latency_p99_ms"], "sim-ms"),
            "checkers.run_s": (first.check_s, "s"),
            "setup.import_s": (import_s, "s"),
            "setup.build_s": (_median(rep.build_s for rep in repeats), "s"),
            "setup.warmup_s": (_median(rep.warmup_s for rep in repeats), "s"),
            "wall_ms_per_commit_raw": (diagnostics["wall_ms_per_commit_raw"], "ms"),
            "trace.overhead_ratio": (traced_norm / norm_ms, "ratio"),
        }
    )
    print(_result(attempted, failed, per_layer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
