"""Spans and counters for the benchmark's traced run.

``instrumented(tracer)`` wraps ``hdcow`` functions from outside by
replacing the module attribute each caller looks up.  The callers import
by name, so the wrapper goes on the calling module (``hdcow.session``,
``hdcow.rates``, ``hdcow.channel``), not only on the defining one.  A
span records its name, start, end, parent and thread; each thread keeps
its own parent stack, because a session runs its two endpoints in two
threads.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import hdcow
import hdcow.channel
import hdcow.rates
import hdcow.security
import hdcow.session
import workloads

WIRE_TAGS = {
    "SessionStart": "session_start",
    "BlockAnnounce": "block_announce",
    "PermutationReveal": "permutation_reveal",
    "DetectionReportMsg": "detection_report",
    "EstimateReport": "estimate_report",
    "SessionEnd": "session_end",
}

# Spans in which a thread waits for its peer rather than works.
WAIT_SPANS = ("session.alice.recv_wait", "session.bob.recv_wait", "session.channel_wait")
ENDPOINT_THREADS = {"hdcow-alice": "alice", "hdcow-bob": "bob"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.root: int | None = None  # parent for spans opened on fresh threads
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._sizes: list[tuple[str, list]] = []
        self.missing: list[str] = []  # wrap targets not found

    def _stack(self) -> list:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
        return local.stack

    def count(self, key: str, amount: int = 1) -> None:
        # One counter per thread, merged at the end, so no update is lost.
        local = self._local
        if not hasattr(local, "counts"):
            local.counts = Counter()
            self._counters.append(local.counts)
        local.counts[key] += amount

    def sizes(self, key: str) -> list:
        """A list for a hot path to append one size per call to, which
        costs less than ``count``; it is counted as ``<key>.calls`` and
        ``<key>.bytes``."""
        sizes: list = []
        self._sizes.append((key, sizes))
        return sizes

    def counts(self) -> Counter:
        total = Counter()
        for c in self._counters:
            total.update(c)
        for key, sizes in self._sizes:
            total[key + ".calls"] += len(sizes)
            total[key + ".bytes"] += sum(sizes)
        return total

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def wrap(self, fn, name, before=None, after=None):
        """Span around ``fn``.  ``name`` is a string or a function of the
        call's arguments; ``before(args)`` and ``after(args, result)``
        update counters."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            with tracer.span(name if isinstance(name, str) else name(args)):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children on
        the same thread cover."""
        thread_of = {s[0]: s[5] for s in self.spans}
        covered = defaultdict(float)
        for sid, _name, start, end, parent, thread in self.spans:
            if parent is not None and thread_of.get(parent) == thread:
                covered[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, _parent, _thread in self.spans:
            out[name] += end - start - covered[sid]
        return out

    def nested(self, name: str, ancestor: str) -> Counter:
        """Per span called ``ancestor``, how many spans called ``name`` it
        encloses on its own thread."""
        by_id = {s[0]: s for s in self.spans}
        out = Counter({s[0]: 0 for s in self.spans if s[1] == ancestor})
        for sid, span_name, _start, _end, parent, thread in self.spans:
            if span_name != name:
                continue
            while parent in by_id and by_id[parent][5] == thread:
                if by_id[parent][1] == ancestor:
                    out[parent] += 1
                    break
                parent = by_id[parent][4]
        return out

    def idle_s(self) -> float:
        """Time during which both session endpoints wait at once."""
        alice, bob = [], []
        for _sid, name, start, end, _parent, _thread in self.spans:
            if name == "session.alice.recv_wait":
                alice.append((start, end))
            elif name in WAIT_SPANS:
                bob.append((start, end))
        return _overlap(sorted(alice), sorted(bob))


def _overlap(a: list, b: list) -> float:
    """Measure of the intersection of two sorted lists of disjoint intervals."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _role(_args) -> str:
    return ENDPOINT_THREADS.get(threading.current_thread().name, "main")


def _patches(t: Tracer):
    """``(target, make)`` pairs: ``target`` is the dotted attribute a caller
    looks up, ``make(original)`` builds its replacement."""

    def counter(key):
        return lambda args, result: t.count(key)

    def span(name, **hooks):
        return lambda fn: t.wrap(fn, name, **hooks)

    def byte_source(seeded_byte_source):
        def factory(seed):
            source = seeded_byte_source(seed)
            # make_permutation draws once per slot; keep this wrapper cheap.
            sizes = t.sizes("protocol.byte_source")

            def draw(count):
                out = source(count)
                sizes.append(len(out))
                return out

            return draw

        return factory

    def start_frame(args):
        # transmit_frame filters the data detector first, then the monitor.
        t._local.data_filter_next = True

    def dead_time_counts(args, result):
        t.count("kernels.dead_time_filter.candidates", len(args[0]))
        t.count("kernels.dead_time_filter.kept", len(result[0]))
        if getattr(t._local, "data_filter_next", False):
            t.count("kernels.dead_time_filter.data_kept", len(result[0]))
            t._local.data_filter_next = False

    def decode_counts(args, result):
        t.count("channel.decode_frame.clicks", len(args[2].data_slots))
        t.count("channel.decode_frame.kept", len(result.entries))

    def qber_counts(args, result):
        t.count("channel.estimate_qber.calls")
        t.count("channel.estimate_qber.items", len(args[0]))

    def encode_name(args):
        return "wire.encode." + WIRE_TAGS[type(args[0]).__name__]

    def encode_counts(args, result):
        prefix = encode_name(args)
        t.count(prefix + ".calls")
        t.count(prefix + ".bytes", len(result))

    def holevo_be(original):
        def counted(d, q, mu, x):
            t.count("security.holevo_be.calls")
            t.count("security.holevo_be.points", int(np.size(x)))
            return original(d, q, mu, x)

        return counted

    eve = span("security.eve_optimal_holevo", after=counter("security.eve_optimal_holevo.calls"))
    return [
        ("hdcow.session.run_alice", span("session.run_alice")),
        ("hdcow.session.run_bob", span("session.run_bob")),
        ("hdcow.session.SeededByteSource", byte_source),
        ("hdcow.session.make_permutation", span(
            "protocol.make_permutation", after=counter("protocol.make_permutation.calls"))),
        ("hdcow.session.encode_block", span("protocol.encode_block")),
        ("hdcow.session.sift_block", span("protocol.sift_block")),
        ("hdcow.session.Permutation", span("protocol.Permutation")),
        ("hdcow.session.transmit_frame", span("channel.transmit_frame", before=start_frame)),
        ("hdcow.channel.dead_time_filter", span(
            "kernels.dead_time_filter", after=dead_time_counts)),
        ("hdcow.session.monitor_tally", span("channel.monitor_tally")),
        ("hdcow.session.decode_frame", span("channel.decode_frame", after=decode_counts)),
        ("hdcow.session.estimate_qber", span("channel.estimate_qber", after=qber_counts)),
        ("hdcow.session.encode_message", span(encode_name, after=encode_counts)),
        ("hdcow.session.read_message", span("wire.read_message")),
        ("hdcow.session.QueuePipe.recv_exact", span(
            lambda a: f"session.{_role(a)}.recv_wait")),
        ("hdcow.session.SimulatedChannel.receive", span("session.channel_wait")),
        ("hdcow.session.eve_optimal_holevo", eve),
        ("hdcow.rates.eve_optimal_holevo", eve),
        ("hdcow.security.holevo_be", holevo_be),
        ("workloads.sweep", span("rates.sweep")),
        ("workloads.qber_threshold", span("rates.qber_threshold")),
        ("hdcow.rates.secure_rate", span("rates.secure_rate")),
    ]


def _owner(target: str):
    """The object holding ``target``'s last attribute, or None if any part
    of the path is gone."""
    root, *path, _attr = target.split(".")
    obj = {"hdcow": hdcow, "workloads": workloads}[root]
    for part in path:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


@contextmanager
def instrumented(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block.  A
    target that no longer exists is skipped and listed in
    ``tracer.missing``; its metrics stay at 0."""
    installed = []
    try:
        for target, make in _patches(tracer):
            owner, attr = _owner(target), target.rsplit(".", 1)[1]
            if owner is None or not hasattr(owner, attr):
                tracer.missing.append(target)
                continue
            original = getattr(owner, attr)
            setattr(owner, attr, make(original))
            installed.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def call_counts(tracer: Tracer) -> Counter:
    """The tracer's counters, plus ``rates.qber_threshold.bisections``: the
    adversary-optimum evaluations under each ``qber_threshold`` span, less
    the two per call that bracket the root before bisection starts."""
    counts = tracer.counts()
    per_call = tracer.nested("security.eve_optimal_holevo", "rates.qber_threshold")
    if per_call:
        counts["rates.qber_threshold.bisections"] = sum(max(n - 2, 0) for n in per_call.values())
    return counts
