"""A memory (super)channel as a queued server.

The data bus serializes transfers (one burst at a time); the bank access
latency of a request overlaps with other requests' bursts, which is a
standard first-order model of bank-level parallelism.  Under load the
channel therefore saturates at its bus bandwidth — the property every
contention result in the paper rests on.

Arbitration between the CPU and GPU request streams is class-aware
round-robin, the first-order model of a real memory controller's
source-fair scheduling (FR-FCFS with fairness caps, TCM-style grouping):
a deep burst from one source cannot indefinitely bury the other.
HAShCache's CPU-priority memory-controller queue (Section III-C) is
modeled by ``priority_class``: requests of that class are always served
before queued requests of other classes.

Hot-path notes (per the HPC guides, after profiling):

* requests travel as plain tuples ``(klass, nbytes, is_write, addr,
  on_complete, extra, submit_time)`` — no per-request object allocation;
* bank/row state is inlined into :meth:`_start` (one list index, no calls);
* counters accumulate in plain attributes and are flushed into the shared
  :class:`Stats` registry by :meth:`flush_stats` (the simulator flushes on
  every epoch tick and at the end of the run).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.config import MemConfig
from repro.engine.events import EventQueue
from repro.engine.stats import Stats


class Channel:
    """One (super)channel: FIFO (optionally class-priority) bus server.

    Declares the queueing, open-row and counter state of both engines:
    the fast engine's :class:`~repro.engine.fastpath.FastChannel`
    specializes it with lazy release bookkeeping.
    """

    __slots__ = ("index", "cfg", "timing", "eq", "stats", "prefix", "_rows",
                 "_link", "_qc", "_qg", "_rr", "_busy", "busy_cycles",
                 "priority_class", "_bytes_read", "_bytes_written",
                 "_accesses", "_activations", "_queue_wait", "_cb_cpu",
                 "_cb_gpu")

    def __init__(self, index: int, cfg: MemConfig, eq: EventQueue,
                 stats: Stats, prefix: str) -> None:
        self.index = index
        self.cfg = cfg
        self.timing = cfg.timing
        self.eq = eq
        self.stats = stats
        self.prefix = prefix  # "fast" or "slow"
        # Open-page row-buffer state: bank -> open row id (None = precharged).
        self._rows: list[int | None] = [None] * cfg.timing.banks
        self._link = cfg.link_latency
        # Pending requests per class (CPU, GPU).
        self._qc: deque = deque()
        self._qg: deque = deque()
        self._rr = "cpu"  # next class to favor in round-robin
        self._busy = False
        self.busy_cycles = 0.0
        #: If set (e.g. "cpu" for HAShCache), requests of this class are
        #: served before queued requests of other classes.
        self.priority_class: str | None = None
        # Local counters, flushed into Stats by flush_stats().
        self._bytes_read = 0
        self._bytes_written = 0
        self._accesses = 0
        self._activations = 0
        self._queue_wait = 0.0
        # Bytes transferred per class (CPU, GPU).
        self._cb_cpu = 0
        self._cb_gpu = 0

    # -- public API --------------------------------------------------------

    def submit(self, klass: str, nbytes: int, is_write: bool, addr: int,
               on_complete: Callable[[], None] | None = None,
               extra: float = 0.0) -> None:
        """Enqueue a transfer; ``on_complete()`` fires at completion (plus
        ``extra`` pipeline latency).  ``on_complete=None`` is fire-and-forget
        background traffic that only occupies the bus."""
        req = (klass, nbytes, is_write, addr, on_complete, extra, self.eq.now)
        if self._busy:
            (self._qc if klass == "cpu" else self._qg).append(req)
        else:
            self._start(req)

    @property
    def queue_depth(self) -> int:
        return len(self._qc) + len(self._qg) + (1 if self._busy else 0)

    def flush_stats(self) -> None:
        """Move accumulated counters into the shared registry."""
        st = self.stats
        p = self.prefix
        st.add(f"{p}.bytes_read", self._bytes_read)
        st.add(f"{p}.bytes_written", self._bytes_written)
        st.add(f"{p}.accesses", self._accesses)
        st.add(f"{p}.activations", self._activations)
        st.add(f"{p}.queue_wait", self._queue_wait)
        st.add(f"{p}.cpu.bytes", self._cb_cpu)
        st.add(f"{p}.gpu.bytes", self._cb_gpu)
        self._bytes_read = self._bytes_written = 0
        self._accesses = self._activations = 0
        self._queue_wait = 0.0
        self._cb_cpu = self._cb_gpu = 0

    def drop_queued(self) -> None:
        """Discard queued requests (their callbacks or payloads reference
        agents); counters stay readable."""
        self._qc.clear()
        self._qg.clear()

    def reset_banks(self) -> None:
        """Precharge all banks (used by tests)."""
        for i in range(len(self._rows)):
            self._rows[i] = None

    # -- internals ----------------------------------------------------------

    def _start(self, req: tuple) -> None:
        klass, nbytes, is_write, addr, on_complete, extra, submit_time = req
        eq = self.eq
        now = eq.now
        timing = self.timing

        # Inlined open-page row-buffer check.
        row = addr // timing.row_bytes
        rows = self._rows
        bank = row % len(rows)
        cur = rows[bank]
        if cur == row:
            latency = timing.t_cas
        else:
            rows[bank] = row
            self._activations += 1
            latency = timing.t_rcd + timing.t_cas
            if cur is not None:
                latency += timing.t_rp
        burst = nbytes / timing.bytes_per_cycle

        if is_write:
            self._bytes_written += nbytes
        else:
            self._bytes_read += nbytes
        self._accesses += 1
        self._queue_wait += now - submit_time
        if klass == "cpu":
            self._cb_cpu += nbytes
        else:
            self._cb_gpu += nbytes
        self.busy_cycles += burst

        self._busy = True
        eq.after(burst, self._release)
        if on_complete is not None:
            eq.after(latency + burst + extra + self._link, on_complete)

    def _release(self) -> None:
        qc, qg = self._qc, self._qg
        if self.priority_class is not None:
            hi = qc if self.priority_class == "cpu" else qg
            lo = qg if hi is qc else qc
            if hi:
                self._start(hi.popleft())
            elif lo:
                self._start(lo.popleft())
            else:
                self._busy = False
            return
        # Round-robin between classes; fall through to whichever has work.
        first, second = (qc, qg) if self._rr == "cpu" else (qg, qc)
        if first:
            self._rr = "gpu" if first is qc else "cpu"
            self._start(first.popleft())
        elif second:
            self._rr = "gpu" if second is qc else "cpu"
            self._start(second.popleft())
        else:
            self._busy = False
