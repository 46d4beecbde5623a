"""The packed binary ABI between Python and the in-process library.

This is the Python half of the contract ``codegen.compose`` emits into
every reusable program as ``acc_lib_*`` exports: a case travels as one
packed binary record (no text, no stdout), and the library fills a
caller-provided result buffer of fixed layout.  Both sides derive the
per-port slot sequence from :data:`repro.stimuli.base.DESCRIPTOR_FIELDS`
— the same single source of truth the text wire format uses — so the
text and binary encodings cannot drift apart.

Every slot is 8 bytes.  Layouts (in order):

Case record::

    int64   steps
    float64 time_budget        (-1 = disabled)
    float64 deadline           (-1 = disabled)
    int64   n_ports
    per port, in port order:
        the DESCRIPTOR_FIELDS slots (int64 / uint64 / float64)
        int64   tab_len
        tab_len x (float64 | int64) table values

Result buffer (size is :attr:`ResultLayout.size`, also exported by the
library as ``acc_lib_result_size()`` for the load-time handshake)::

    int64   steps_run
    int64   halt_step          (-1 = no halt)
    float64 elapsed seconds
    uint64  flags              (bit 0 = per-case deadline tripped)
    [uint64 checksum per outport]            when options.checksum
    uint64  output bits per outport          (floats widened to double,
                                              NaN canonicalized — same
                                              acc_bits_* the checksums use)
    [uint64 coverage words]                  when coverage is planned:
                                             ceil(n/64) words per metric in
                                             actor/condition/decision/mcdc
                                             order, LSB = lowest point
    per diagnosis slot: int64 first (-1 = never), uint64 count
    per monitor: uint64 n, then n x (int64 step, uint64 value bits)
                                             (packed back to back; each
                                             n <= monitor_limit)

All words are little-endian (every supported target is), which also
makes the record bytes deterministic for content-addressed tests.

Bumping :data:`ABI_VERSION` invalidates every previously built library:
:class:`repro.inproc.library.LoadedModel` refuses to run against a
mismatched ``acc_lib_abi_version()`` or ``acc_lib_result_size()``.
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence

from repro.codegen.descriptor import _i64, _u64
from repro.coverage.bitmap import Bitmap
from repro.coverage.metrics import Metric
from repro.coverage.report import CoverageReport
from repro.diagnosis.events import DiagnosticLog
from repro.engines.base import SimulationOptions, SimulationResult
from repro.model.errors import SimulationError
from repro.stimuli.base import DESCRIPTOR_FIELDS, StimulusDescriptor

#: Bumped whenever the record or result layout changes shape.
ABI_VERSION = 1

_I64 = struct.Struct("<q")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def _pack_slot(kind: str, value) -> bytes:
    if kind == "i":
        return _I64.pack(_i64(value))
    if kind == "u":
        return _U64.pack(_u64(value))
    return _F64.pack(float(value))


def encode_case_binary(
    descriptors: Sequence[StimulusDescriptor],
    *,
    steps: int,
    time_budget: Optional[float] = None,
    deadline: Optional[float] = None,
) -> bytes:
    """One packed case record for ``acc_lib_run_case``.

    Field-for-field the same content as the text encoder's
    :func:`repro.codegen.descriptor.encode_case`, minus the ``case``
    token (framing is the record itself).
    """
    parts: list[bytes] = [
        _I64.pack(int(steps)),
        _F64.pack(-1.0 if time_budget is None else float(time_budget)),
        _F64.pack(-1.0 if deadline is None else float(deadline)),
        _I64.pack(len(descriptors)),
    ]
    for d in descriptors:
        for attr, _member, kind in DESCRIPTOR_FIELDS:
            parts.append(_pack_slot(kind, getattr(d, attr)))
        parts.append(_I64.pack(len(d.table)))
        if d.table_is_float:
            parts.extend(_F64.pack(float(v)) for v in d.table)
        else:
            parts.extend(_I64.pack(_i64(v)) for v in d.table)
    return b"".join(parts)


class _Cursor:
    """Sequential 8-byte word reader with exhaustion checks."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.pos = 0

    def raw8(self) -> bytes:
        end = self.pos + 8
        if end > len(self.buf):
            raise SimulationError("inproc result buffer truncated")
        word = self.buf[self.pos : end]
        self.pos = end
        return word

    def i64(self) -> int:
        return _I64.unpack(self.raw8())[0]

    def u64(self) -> int:
        return _U64.unpack(self.raw8())[0]

    def f64(self) -> float:
        return _F64.unpack(self.raw8())[0]


def decode_case_binary(data: bytes) -> dict:
    """Parse a case record back into plain Python (conformance tests)."""
    cur = _Cursor(data)
    record = {
        "steps": cur.i64(),
        "time_budget": cur.f64(),
        "deadline": cur.f64(),
        "ports": [],
    }
    n_ports = cur.i64()
    for _ in range(n_ports):
        port = {}
        for attr, _member, kind in DESCRIPTOR_FIELDS:
            if kind == "i":
                port[attr] = cur.i64()
            elif kind == "u":
                port[attr] = cur.u64()
            else:
                port[attr] = cur.f64()
        tab_len = cur.i64()
        if port["table_is_float"]:
            port["table"] = tuple(cur.f64() for _ in range(tab_len))
        else:
            port["table"] = tuple(cur.i64() for _ in range(tab_len))
        record["ports"].append(port)
    if cur.pos != len(data):
        raise SimulationError("trailing bytes after case record")
    return record


def _value_code(dtype) -> str:
    """The ``struct`` code of one value word, as the C side encoded it:
    floats widened to double bits, integers sign- or zero-extended."""
    if dtype.is_float:
        return "d"
    return "q" if dtype.is_signed else "Q"


class ResultLayout:
    """The packed result format of one compiled program shape.

    Built once per program shape — the :class:`ProgramLayout`, the
    instrumentation plan, and the compile-relevant options — and the one
    place that knows the byte layout: the generated
    ``ACC_LIB_RESULT_SIZE`` and the load-time handshake both read
    :attr:`size`, and :meth:`decode` and :meth:`decode_coverage` read
    the buffer.

    The fixed region (header, checksums, output bits, coverage words,
    diagnostic ``(first, count)`` pairs) is one precompiled
    ``struct.Struct``; each monitor is one ``iter_unpack`` of its ``n``
    ``(step, value)`` pairs.  Monitors reserve their full
    ``monitor_limit`` worth of samples, so a well-formed buffer of
    :attr:`size` bytes holds every monitor's written prefix.
    """

    __slots__ = (
        "layout", "plan", "checksum", "monitor_limit", "size",
        "_fixed", "_names", "_coverage", "_diag_at", "_monitors",
    )

    def __init__(self, layout, plan, options: SimulationOptions) -> None:
        self.layout = layout
        self.plan = plan
        self.checksum = options.checksum
        self.monitor_limit = max(1, options.monitor_limit)
        self._names = [name for name, _dtype in layout.outports]
        codes = ["qqdQ"]  # steps_run, halt_step, elapsed, flags
        if options.checksum:
            codes.append("Q" * len(self._names))
        codes.extend(_value_code(dtype) for _name, dtype in layout.outports)
        # (metric, points, first word index, word count) per metric.
        self._coverage: list[tuple[Metric, int, int, int]] = []
        if plan.coverage_enabled:
            points = plan.points
            at = sum(map(len, codes))
            for metric, n in (
                (Metric.ACTOR, points.n_actor),
                (Metric.CONDITION, points.n_condition),
                (Metric.DECISION, points.n_decision),
                (Metric.MCDC, points.n_mcdc),
            ):
                n_words = (n + 63) // 64
                self._coverage.append((metric, n, at, n_words))
                codes.append("Q" * n_words)
                at += n_words
        self._diag_at = sum(map(len, codes))
        codes.append("qQ" * len(layout.diag_slots))
        self._fixed = struct.Struct("<" + "".join(codes))
        self._monitors = [
            (mon.path, struct.Struct("<q" + _value_code(mon.dtype)))
            for mon in layout.monitors
        ]
        self.size = self._fixed.size + len(self._monitors) * (
            8 + 16 * self.monitor_limit
        )

    def _check_size(self, buf: bytes) -> None:
        if len(buf) < self.size:
            raise SimulationError(
                f"inproc result buffer truncated: {len(buf)} of "
                f"{self.size} bytes"
            )

    def _bitmaps(self, words: Sequence[int]) -> dict[Metric, Bitmap]:
        return {
            metric: Bitmap.from_words(n, words[at : at + n_words])
            for metric, n, at, n_words in self._coverage
        }

    def decode_coverage(self, buf: bytes) -> Optional[dict[Metric, Bitmap]]:
        """Only the coverage words of a filled result buffer.

        The cheap path for coverage probing (``repro corpus replay``):
        skips output/diagnostic/monitor reconstruction.  ``None`` when the
        program collects no coverage or when the per-case deadline
        tripped (a truncated run's bitmap would under-report and poison
        an accumulated map).
        """
        if not self._coverage:
            return None
        self._check_size(buf)
        words = self._fixed.unpack_from(buf)
        if words[3] & 1:  # deadline_exceeded
            return None
        return self._bitmaps(words)

    def decode(
        self, buf: bytes, model_name: str, options: SimulationOptions
    ) -> SimulationResult:
        """Decode one filled result buffer into a :class:`SimulationResult`.

        Mirrors :func:`repro.codegen.driver.parse_result` — same
        static-warning seeding, same coverage/diagnostic/monitor
        reconstruction — so inproc results compare byte-identical to
        every other rung's.  ``options`` is the case's own (for
        ``steps_requested``).  A monitor count above ``monitor_limit``
        or a buffer shorter than :attr:`size` raises
        :class:`SimulationError` instead of being misparsed.
        """
        self._check_size(buf)
        words = self._fixed.unpack_from(buf)
        steps_run, halt_step, elapsed, flags = words[:4]
        n_out = len(self._names)
        at = 4
        checksums: dict[str, int] = {}
        if self.checksum:
            checksums = dict(zip(self._names, words[at : at + n_out]))
            at += n_out
        outputs = dict(zip(self._names, words[at : at + n_out]))

        coverage = None
        if self._coverage:
            coverage = CoverageReport.from_bitmaps(
                self.plan.points, self._bitmaps(words)
            )

        log = DiagnosticLog()
        for event in self.plan.static_warnings:
            log.add_static(event.path, event.kind, event.message)
        diag = words[self._diag_at :]
        for (path, kind, message), first, count in zip(
            self.layout.diag_slots, diag[0::2], diag[1::2]
        ):
            if first >= 0:
                log.set_aggregate(path, kind, first, count, message)

        monitored: dict[str, list] = {}
        view = memoryview(buf)
        pos = self._fixed.size
        for path, pair in self._monitors:
            n = _U64.unpack_from(buf, pos)[0]
            if n > self.monitor_limit:
                raise SimulationError(
                    f"inproc result: monitor {path!r} reports {n} samples, "
                    f"above the limit of {self.monitor_limit}"
                )
            start = pos + 8
            pos = start + 16 * n
            monitored[path] = list(pair.iter_unpack(view[start:pos]))

        result = SimulationResult(
            engine="accmos",
            model_name=model_name,
            steps_requested=options.steps,
            steps_run=steps_run,
            wall_time=elapsed,
            outputs=outputs,
            checksums=checksums,
            coverage=coverage,
            diagnostics=log.events(),
            halted_at=None if halt_step < 0 else halt_step,
            monitored=monitored,
        )
        if flags & 1:
            result.extra["deadline_exceeded"] = True
        return result
