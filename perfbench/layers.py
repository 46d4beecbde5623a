"""Per-layer timing by wrapping each layer's public entry points.

The benchmark measures the program from the outside: :func:`install`
replaces a handful of module and class attributes with timing wrappers
and :meth:`LayerTrace.restore` puts the originals back.  Nothing in the
package changes.  A wrapper records, per call, its start time, its
duration and its *self* time -- the duration minus the time covered by
wrapped calls nested inside it on the same thread -- so a layer that
calls another layer is not charged for it.

Where a caller binds a name at import time (``from x import f``), the
wrapper is installed on the caller's module, which is where the lookup
happens at call time.

Only layers that record no timing of their own are wrapped.  The
per-case C loop and result decode are timed by the program itself
(``JobResult.timings["execute"]`` / ``["parse"]``, copied into each
``CaseOutcome``), so those are read, not re-measured.  Where the
``CaseOutcome`` objects stay inside another process (the server), the
fold wrapper records the parse timing as each case folds.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Optional


class LayerTrace:
    """Timing samples per layer name, filled by installed wrappers."""

    def __init__(self) -> None:
        self.samples: "dict[str, list[tuple[float, float, float]]]" = (
            defaultdict(list)
        )
        self.counts: "dict[str, float]" = defaultdict(float)
        self.values: "dict[str, list[float]]" = defaultdict(list)
        # seed -> perf_counter() when the executor call that ran it
        # returned; read by the fold wrapper to time the wait for the fold.
        self.chunk_done: "dict[int, float]" = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: "list[tuple[object, str, object]]" = []

    # -- recording ---------------------------------------------------------
    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def value(self, name: str, value: float) -> None:
        with self._lock:
            self.values[name].append(value)

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        *,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Time every call of ``owner.attr`` under ``name``.

        ``before(args, kwargs, start)`` runs first; ``after(result,
        duration, args)`` runs once the call returned.
        """
        original = getattr(owner, attr)
        trace = self

        def timed(*args, **kwargs):
            stack = getattr(trace._local, "stack", None)
            if stack is None:
                stack = trace._local.stack = []
            start = time.perf_counter()
            if before is not None:
                before(args, kwargs, start)
            stack.append(0.0)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                covered = stack.pop()
                if stack:
                    stack[-1] += duration
                with trace._lock:
                    trace.samples[name].append(
                        (start, duration, duration - covered)
                    )
            if after is not None:
                after(result, duration, args)
            return result

        timed.__wrapped__ = original
        setattr(owner, attr, timed)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading -----------------------------------------------------------
    def calls(self, name: str) -> int:
        return len(self.samples.get(name, ()))

    def self_total(self, name: str) -> float:
        return sum(s for _, _, s in self.samples.get(name, ()))

    def self_median(self, name: str) -> float:
        values = [s for _, _, s in self.samples.get(name, ())]
        return statistics.median(values) if values else 0.0

    def first_end(self, name: str) -> Optional[float]:
        ends = [t + d for t, d, _ in self.samples.get(name, ())]
        return min(ends) if ends else None


def install(trace: LayerTrace) -> LayerTrace:
    """Wrap every layer's entry points; returns ``trace``."""
    import repro.schedule
    import repro.stimuli.generators
    from repro.engines import accmos
    from repro.inproc.library import LoadedModel
    from repro.runner import campaign, inproc_threads, scheduler

    trace.wrap(repro.schedule, "preprocess", "schedule.preprocess")
    trace.wrap(accmos, "build_plan", "instrument.plan")

    def on_generate(result, duration, args):
        source, _layout = result
        trace.value("codegen.c_source_bytes", len(source.encode("utf-8")))

    trace.wrap(
        accmos, "generate_reusable_c_program", "codegen.generate",
        after=on_generate,
    )

    def on_compile(compiled, duration, args):
        if compiled.cache_hit:
            trace.add("runner.cache.hits")
        else:
            trace.add("runner.cache.misses")
            trace.value("codegen.gcc_s", duration)

    trace.wrap(accmos, "compile_c_program", "codegen.compile", after=on_compile)
    trace.wrap(LoadedModel, "__init__", "inproc.load")
    trace.wrap(accmos, "encode_case_binary", "inproc.encode")
    trace.wrap(
        repro.stimuli.generators, "default_stimuli", "stimuli.generate"
    )

    def on_chunk(results, duration, args):
        done = time.perf_counter()
        with trace._lock:
            for result in results:
                trace.chunk_done[result.seed] = done

    trace.wrap(
        inproc_threads, "run_jobs_inproc_threads", "runner.executor",
        after=on_chunk,
    )
    trace.wrap(scheduler, "run_job_batch", "runner.executor", after=on_chunk)

    def on_fold(args, kwargs, start):
        job_result = args[1]
        done = trace.chunk_done.get(job_result.seed)
        if done is not None:
            trace.value("runner.scheduler.queue_wait_s", start - done)
        trace.value("timings.parse", job_result.timings.get("parse", 0.0))

    trace.wrap(
        campaign._CampaignFold, "fold", "runner.campaign.fold",
        before=on_fold,
    )
    return trace
