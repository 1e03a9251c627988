"""Trace-driven processor agents.

A :class:`TraceAgent` replays one reference stream against the hybrid
memory controller under a limited-MLP issue model: reference ``i`` issues
at ``max(issue(i-1) + gap_i, window_unblock, now)`` where the window holds
at most ``mlp`` outstanding requests.  Small ``mlp`` (CPU cores) makes
throughput latency-bound — the latency sensitivity of Insight 2; large
``mlp`` (the GPU) makes it bandwidth-bound — Insight 1.

Agents *wrap around* after finishing their measured references so that
memory contention persists until every agent has finished measuring — the
standard methodology for heterogeneous-duration co-run studies (the paper
simulates fixed instruction counts per workload the same way).
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from numpy import sum as np_sum

from repro.engine.events import EventQueue
from repro.traces.base import Trace

SubmitFn = Callable[[str, int, bool, Callable[[], None]], None]


class TraceAgent:
    """One CPU core or the aggregate GPU, replaying a trace."""

    __slots__ = ("name", "klass", "mlp", "eq", "submit",
                 "_addrs", "_writes", "_gaps", "_n",
                 "idx", "inflight", "stream_t", "retired", "refs_done",
                 "measure_target", "done_time", "_wake_pending",
                 "latency_sum", "total_instructions",
                 "on_done", "warmup_refs", "warm_time", "_warm_instr",
                 "instr_scale")

    def __init__(self, name: str, trace: Trace, mlp: int, eq: EventQueue,
                 submit: SubmitFn, warmup_frac: float = 0.0,
                 instr_scale: float = 1.0) -> None:
        if mlp < 1:
            raise ValueError("mlp must be >= 1")
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        if instr_scale <= 0:
            raise ValueError("instr_scale must be positive")
        self.name = name
        self.klass = trace.klass
        self.mlp = mlp
        self.eq = eq
        self.submit = submit
        # Plain Python lists: element access is several times faster than
        # NumPy scalar indexing on this per-reference hot path.
        self._addrs, self._writes, self._gaps = self._trace_lists(trace)
        self._n = len(trace)
        self.idx = 0
        self.inflight = 0
        self.stream_t = 0.0
        #: Instructions retired (gap work + 1 per memory reference).
        self.retired = 0.0
        self.refs_done = 0
        self.measure_target = self._n
        self.done_time: float | None = None
        self._wake_pending = False
        self.latency_sum = 0.0
        #: Instructions represented by each (gap + memory op) unit.  The
        #: aggregate GPU agent stands for all 96 EUs, so its references
        #: carry the EU:core ratio worth of instruction throughput —
        #: exactly what makes the paper's 12:1 IPC weights "equally
        #: important" (Section V).
        self.instr_scale = instr_scale
        self.total_instructions = float(trace.instructions) * instr_scale
        #: Optional callback fired once when the measured window completes.
        self.on_done: Callable[[], None] | None = None
        # Measurement warmup: the first `warmup_refs` references (cache/row
        # cold-start) are excluded from the IPC/cycles window.
        self.warmup_refs = int(self._n * warmup_frac)
        self.warm_time = 0.0
        self._warm_instr = (float(np_sum(trace.gaps[:self.warmup_refs]))
                            + self.warmup_refs) * instr_scale

    def _trace_lists(self, trace: Trace) -> tuple[list, list, list]:
        """Per-reference (addrs, writes, gaps) columns as plain lists.

        The fast engines override this to share one
        :class:`~repro.traces.base.TraceColumns` decode across every
        cell replaying the trace; the reference agent decodes privately.
        """
        return (trace.addrs.tolist(), trace.writes.tolist(),
                trace.gaps.tolist())

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        self.eq.schedule(self.eq.now, self._pump)

    @property
    def done(self) -> bool:
        return self.done_time is not None

    @property
    def measured_cycles(self) -> float | None:
        """Cycles of the post-warmup measurement window."""
        if self.done_time is None:
            return None
        return self.done_time - self.warm_time

    @property
    def measured_instructions(self) -> float:
        return self.total_instructions - self._warm_instr

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the (post-warmup) measured window."""
        cycles = self.measured_cycles
        if cycles:
            return self.measured_instructions / cycles
        return 0.0

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.refs_done if self.refs_done else 0.0

    # -- issue loop -----------------------------------------------------------

    def _pump(self) -> None:
        eq = self.eq
        while self.inflight < self.mlp:
            i = self.idx % self._n
            gap = self._gaps[i]
            t = self.stream_t + gap
            now = eq.now
            if t > now:
                if not self._wake_pending:
                    self._wake_pending = True
                    eq.schedule(t, self._wake)
                return
            # Blocking model: stalled gap work resumes at `now`, it is not
            # banked (see module docstring).
            self.stream_t = now
            self.idx += 1
            self.inflight += 1
            self.retired += (gap + 1.0) * self.instr_scale
            self.submit(self.klass, self._addrs[i], self._writes[i],
                        partial(self._on_response, now))

    def _wake(self) -> None:
        self._wake_pending = False
        self._pump()

    def _on_response(self, t_issue: float) -> None:
        self.inflight -= 1
        self.refs_done += 1
        self.latency_sum += self.eq.now - t_issue
        if self.refs_done == self.warmup_refs:
            self.warm_time = self.eq.now
        if self.done_time is None and self.refs_done >= self.measure_target:
            self.done_time = self.eq.now
            if self.on_done is not None:
                self.on_done()
        self._pump()
