"""Shared machinery for the repository benchmark.

* :class:`Probe` — the traced run's instrumentation.  Layer spans go
  through :class:`repro.obs.Tracer` into an in-memory
  :class:`~repro.obs.ListTraceSink`; every span carries the run id.
  Functions called inside hot loops (thermal steps, trigger draws,
  substream derivations) get counting wrappers instead of spans, so the
  trace stays at layer boundaries.
* :func:`rollup` — self time per layer: a span's duration minus the
  part of its interval that child spans and hot calls cover.
* :func:`run_rounds` — the timed loop of the in-process workloads.
* :class:`Ledger` — the determinism gate: exact simulated counts are
  recorded per (source tree, workload, seed) and every later run of
  that key, traced or not, must reproduce them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (ignored by git).
OUT = ROOT / ".perfbench"

_NULL = contextlib.nullcontext()


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (inclusive method); the median below
    two samples."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def derive_seed(seed: int, *parts) -> int:
    """A 31-bit seed from the workload seed and a label, so every input
    of a run follows from ``--seed`` alone."""
    text = ":".join(str(part) for part in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def digest(obj) -> int:
    """A 32-bit fingerprint of a JSON-able object (exact, not a time)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return int(hashlib.sha256(blob.encode()).hexdigest()[:8], 16)


def environment(extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    import numpy

    env: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    env.update(extra or {})
    return env


# -- tracing ------------------------------------------------------------------


class Probe:
    """Layer spans and hot-call counters for one traced run.

    Disabled (``enabled=False``) it installs nothing and every span is a
    shared no-op, which is what the untraced rounds use.
    """

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        #: Spans and counters record only while active; the untraced
        #: half of a traced run's round pairs switches this off.
        self.active = True
        self.counts: Counter = Counter()
        self.hot_self: Dict[str, float] = defaultdict(float)
        self._hot_stack: List[float] = []
        #: span id -> time covered by hot calls made directly under it.
        self._hot_in_span: Dict[int, float] = defaultdict(float)
        self._patches: List[tuple] = []
        self.sink = None
        self.tracer = None
        if enabled:
            from repro.obs import ListTraceSink, Tracer

            self.sink = ListTraceSink()
            self.tracer = Tracer(self.sink, clock=time.perf_counter)

    def span(self, name: str):
        if self.tracer is None or not self.active:
            return _NULL
        return self.tracer.span(name, run=self.run_id)

    def _patch(self, owner, attr: str, wrapper_for) -> None:
        """Replace function ``owner.attr`` (a module global or a plain
        method) until :meth:`restore`."""
        func = getattr(owner, attr)
        setattr(owner, attr, wrapper_for(func))
        self._patches.append((owner, attr, func))

    def wrap(
        self, owner, attr: str, name: str,
        after: Optional[Callable[["Probe", object], None]] = None,
    ) -> None:
        """Open span ``name`` around every call of ``owner.attr``;
        ``after(probe, result)`` records counts from the result."""
        if not self.enabled:
            return
        probe = self

        def wrapper_for(func):
            def wrapper(*args, **kwargs):
                if not probe.active:
                    return func(*args, **kwargs)
                with probe.span(name):
                    result = func(*args, **kwargs)
                if after is not None:
                    after(probe, result)
                return result
            return wrapper

        self._patch(owner, attr, wrapper_for)

    def wrap_hot(self, owner, attr: str, name: str, timed: bool = True) -> None:
        """Count calls of a hot-loop function as ``<name>_calls`` and,
        when ``timed``, its self time as ``<name>_s`` — no span."""
        if not self.enabled:
            return
        probe = self
        calls = name + "_calls"
        clock = time.perf_counter

        def wrapper_for(func):
            if not timed:
                def counting(*args, **kwargs):
                    if probe.active:
                        probe.counts[calls] += 1
                    return func(*args, **kwargs)
                return counting

            def timing(*args, **kwargs):
                if not probe.active:
                    return func(*args, **kwargs)
                stack = probe._hot_stack
                stack.append(0.0)
                start = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    probe.hot_self[name] += elapsed - stack.pop()
                    probe.counts[calls] += 1
                    if stack:
                        stack[-1] += elapsed
                    else:
                        ref = probe.tracer.current_ref()
                        probe._hot_in_span[ref[1] if ref else 0] += elapsed
            return timing

        self._patch(owner, attr, wrapper_for)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write the in-memory trace out, one record per line."""
        if self.sink is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.sink.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def rollup(probe: Probe, top: str) -> Dict[str, float]:
    """Self seconds per layer name over the whole trace.

    ``top`` names the benchmark's own round span; its self time is the
    glue between layer calls and is reported as ``untraced`` time, not
    as a layer.
    """
    begins: Dict[int, Dict[str, object]] = {}
    spans: Dict[int, tuple] = {}
    for record in probe.sink.records:
        if record["kind"] == "span_begin":
            begins[record["span"]] = record
        elif record["kind"] == "span_end":
            begin = begins.pop(record["span"])
            spans[record["span"]] = (
                record["name"], begin["ts"], record["ts"], begin.get("parent"),
            )
    children: Dict[Optional[int], List[tuple]] = defaultdict(list)
    for name, start, end, parent in spans.values():
        children[parent].append((start, end))
    self_s: Dict[str, float] = defaultdict(float)
    for span_id, (name, start, end, _parent) in spans.items():
        covered = probe._hot_in_span.get(span_id, 0.0)
        reach = start
        for child_start, child_end in sorted(children.get(span_id, [])):
            lo = max(child_start, reach)
            if child_end > lo:
                covered += child_end - lo
                reach = child_end
        self_s[name] += (end - start) - covered
    for name, seconds in probe.hot_self.items():
        self_s[name] += seconds
    self_s.setdefault(top, 0.0)
    return dict(self_s)


def layer_metrics(
    probe: Probe, top: str, traced_walls: List[float], untraced_walls: List[float],
) -> Dict[str, float]:
    """Per-round means of every layer's self time (``<layer>_s``) and
    count, plus the untraced remainder and the tracing overhead."""
    rounds = max(len(traced_walls), 1)
    self_s = rollup(probe, top)
    values: Dict[str, float] = {
        name + "_s": seconds / rounds for name, seconds in self_s.items()
    }
    values.update(
        {name: count / rounds for name, count in probe.counts.items()}
    )
    covered = sum(s for name, s in self_s.items() if name != top)
    wall = sum(traced_walls)
    values["untraced_s"] = (wall - covered) / rounds
    values["layer_coverage"] = covered / wall if wall else 0.0
    values["trace_overhead_ratio"] = (
        wall / sum(untraced_walls) - 1.0 if untraced_walls else 0.0
    )
    return values


# -- timed loop ---------------------------------------------------------------


def run_rounds(
    seconds: float,
    probe: Probe,
    round_fn: Callable[[int], object],
    summarize: Callable[[int, bool, float, object], dict],
) -> tuple:
    """Run rounds until the next one would overrun ``seconds``.

    ``round_fn(i)`` is the timed work of round ``i`` (its own inputs);
    ``summarize(i, traced, wall, out)`` runs untimed right after it —
    checks, counts, clean-up — and returns a small dict with the round's
    exact ``counts``, so no round's outputs outlive it.  With the probe
    enabled (the traced run) every round runs twice on the same inputs,
    untraced then traced, and each traced round must reproduce its twin's
    counts.  Garbage is collected before each round, outside the timed
    region, so every round starts as a fresh command would.

    Returns ``(untraced summaries, traced summaries, problems)``.
    """
    untraced: List[dict] = []
    traced: List[dict] = []
    walls: List[float] = []
    modes = (False, True) if probe.enabled else (False,)
    index = 0
    try:
        while True:
            for traced_round in modes:
                gc.collect()
                probe.active = traced_round
                start = time.perf_counter()
                out = round_fn(index)
                wall = time.perf_counter() - start
                probe.active = False
                walls.append(wall)
                summary = summarize(index, traced_round, wall, out)
                (traced if traced_round else untraced).append(summary)
                del out
            index += 1
            if sum(walls) + median(walls) * len(modes) > seconds:
                break
    finally:
        probe.restore()
    problems = [
        f"determinism: traced round {index} changed the simulated counts"
        for index, (plain, instrumented) in enumerate(zip(untraced, traced))
        if plain["counts"] != instrumented["counts"]
    ]
    return untraced, traced, problems


# -- determinism gate ---------------------------------------------------------


def source_digest() -> str:
    """Digest of the program's source tree: ledger entries are only
    comparable between runs of the same code."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


class Ledger:
    """Exact simulated counts per (source tree, workload, seed, scope);
    the scope names the input size the counts depend on."""

    def __init__(self, workload: str, seed: int, scope: str):
        self.path = (
            OUT / "ledger" / source_digest() / f"{workload}-{seed}-{scope}.json"
        )

    def check(self, counts: Dict[str, object]) -> List[str]:
        """Record ``counts`` on first sight, else compare; returns the
        drifting keys as problems."""
        if self.path.exists():
            previous = json.loads(self.path.read_text())
            return [
                f"determinism: {key} drifted from {previous.get(key)!r} "
                f"to {value!r} on an identical seed"
                for key, value in counts.items()
                if previous.get(key) != value
            ]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(counts, sort_keys=True))
        os.replace(tmp, self.path)
        return []
