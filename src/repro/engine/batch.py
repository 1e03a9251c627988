"""The optimized simulation engine (bit-exact with the reference).

``simulate(..., engine="fast")`` runs :class:`FastSimulation`: the
state-bearing parts of :mod:`repro.engine.fastpath` (lazy channel
releases, hash-consed geometry, specialization flags) driven by one
fused event loop instead of the reference's per-event trampoline and
stack of method frames.  ``engine="batch"`` is a one-release alias of
``"fast"`` and builds the same class.

* **Tagged heap events** — agent completions, channel releases, agent
  wakeups and remap-fill continuations are pushed as
  ``(time, seq, int_tag, payload)`` tuples instead of
  ``(time, seq, fn, args)``.  Sequence numbers are globally unique, so
  tuple comparison never reaches the third element and the two shapes
  coexist in one heap; every tagged event occupies exactly the ``(time,
  seq)`` key its reference counterpart would, so the schedule is
  identical.
* **A fused loop** — one ``while`` loop pops events and runs the whole
  per-access chain as straight-line code.  The only events still carried
  as generic callables are the policy-visible boundaries (epoch / faucet
  / phase ticks, or anything a policy scheduled); the loop runs each with
  the reference call pattern and returns to :meth:`FastSimulation._drain`.
* **Native, with a Python fallback** — the loop is ``fusedloop.c``, a
  line-by-line port of the Python interpreter :func:`_advance_cell`,
  compiled on first use through cffi and cached under a hash of its
  source (see the native-loop section below).  Where it cannot be built,
  the process warns once and runs :func:`_advance_cell`; with numba
  importable, that loop's bank service runs through the ``@njit`` kernel
  of :mod:`repro.engine._kernels`.

**Exactness guarantee:** every seq consumption (agent wakeups, channel
release reservations, completions) follows the reference pattern, float
expressions keep the reference's operand order (the C file is compiled
with ``-ffp-contract=off``, never ``-ffast-math``, so a double rounds as
a Python float does), and a policy hook runs inline only as a kernel its
policy declares (the specialization flags of
:class:`~repro.engine.fastpath.FastHybridController`); every other hook
is delegated with the reference call pattern, from C through a callback.
``test_fastpath_equiv.py`` asserts full :class:`SimResult` equality
against the reference loop for every design family; ``test_golden.py``
pins the reference's outputs.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import operator
import os
import shutil
import stat
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from collections import OrderedDict, deque
from collections.abc import Callable, Iterator, MutableMapping
from heapq import heappop, heappush
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro.engine import _kernels
from repro.engine.agents import TraceAgent
from repro.engine.fastpath import (FastAgent, FastChannel, FastEventQueue,
                                   FastHybridController)
from repro.engine.simulator import Simulation
from repro.hybrid.controller import CLASS_KEYS
from repro.hybrid.remap import RemapCache
from repro.hybrid.setassoc import FastStore
from repro.mem.channel import Channel
from repro.mem.device import MemoryDevice
from repro.traces.base import Trace

#: Compiled bank-service kernel, or ``None`` for the pure-Python inline
#: path.  Chosen once at import (see :mod:`repro.engine._kernels`).
_BANK_SERVICE = _kernels.bank_service if _kernels.HAVE_NUMBA else None

_M64 = (1 << 64) - 1   # splitmix64 mask (inlined in the interpreter)

# Tagged-event discriminators, stored where the reference stores the
# event callback; payload sits in the args slot.  Dispatched by the
# fused interpreter, cheapest (most frequent) first.
TAG_DONE = 1      # payload (agent, t_issue): an agent's demand access
#                   completed; t_issue is the access's issue time
TAG_RELEASE = 2   # payload channel: bus release with a non-empty queue
TAG_WAKE = 3      # payload agent: issue-window wakeup
TAG_LOOKUP = 4    # payload (klass, addr, block, set_id, is_write,
#                   agent, t_issue): remap-fill continuation


class _BatchChannel(FastChannel):
    """Lazy-release channel carrying ``(tag, payload)`` completions.

    The transfer path of :class:`FastChannel`'s state: completions are
    pushed as tagged events for the fused interpreter, which also runs
    every release inline (:data:`TAG_RELEASE`).  The parameter
    positions of :meth:`submit` match the reference channel's
    ``(..., on_complete, extra)`` so background traffic routed through
    :meth:`MemoryDevice.submit` (swaps, writebacks — always completion-
    free) lands ``None`` in the ``tag`` slot, which is falsy like the
    ``0`` default.
    """

    __slots__ = ("_rows_arr", "_nat", "_run")

    def __init__(self, index, cfg, eq, stats, prefix) -> None:
        super().__init__(index, cfg, eq, stats, prefix)
        # int64 open-row table for the compiled kernel (-1 = closed bank);
        # the pure-Python path keeps using the inherited ``_rows`` list.
        self._rows_arr = (np.full(self._nbanks, -1, dtype=np.int64)
                          if _BANK_SERVICE is not None else None)

    def reset_banks(self) -> None:
        super().reset_banks()
        if self._rows_arr is not None:
            self._rows_arr.fill(-1)

    def submit(self, klass: str, nbytes: int, is_write: bool, addr: int,
               tag: Any = 0, extra: float = 0.0,
               payload: Any = None) -> None:
        qc = self._qc
        qg = self._qg
        eq = self.eq
        if not (qc or qg):
            now = eq.now
            tf = self._t_free
            if now > tf or (now == tf and eq.cur_seq > self._s_rel):
                self._start2(klass, nbytes, is_write, addr, tag, extra, now,
                             payload)
                return
        elif klass == "cpu":
            qc.append((klass, nbytes, is_write, addr, tag, extra, eq.now,
                       payload))
            return
        else:
            qg.append((klass, nbytes, is_write, addr, tag, extra, eq.now,
                       payload))
            return
        (qc if klass == "cpu" else qg).append(
            (klass, nbytes, is_write, addr, tag, extra, now, payload))
        if not self._rel_pushed:
            heappush(self._hp, (tf, self._s_rel, TAG_RELEASE, self))
            self._rel_pushed = True

    def _start2(self, klass: str, nbytes: int, is_write: bool, addr: int,
                tag: Any, extra: float, submit_time: float,
                payload: Any) -> None:
        eq = self.eq
        now = eq.now
        row = addr // self._row_bytes
        bank = row % self._nbanks
        if _BANK_SERVICE is None:
            rows = self._rows
            cur = rows[bank]
            if cur == row:
                latency = self._t_cas
            else:
                rows[bank] = row
                self._activations += 1
                latency = self._t_rcd_cas
                if cur is not None:
                    latency += self._t_rp
        else:
            latency, activated = _BANK_SERVICE(
                self._rows_arr, bank, row, self._t_cas, self._t_rcd_cas,
                self._t_rp)
            if activated:
                self._activations += 1
        burst = nbytes / self._bpc
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
        s = eq._seq
        self._t_free = now + burst
        self._s_rel = s
        self._rel_pushed = False
        if tag:
            heappush(self._hp, (now + (latency + burst + extra + self._link),
                                s + 1, tag, payload))
            eq._seq = s + 2
        else:
            eq._seq = s + 1


class _BatchDevice(MemoryDevice):
    """Memory tier built from :class:`_BatchChannel` servers."""

    _channel_cls = _BatchChannel


class _BatchAgent(FastAgent):
    """Trace agent driven entirely by the fused interpreter.

    Only the lifecycle entry differs from :class:`TraceAgent`: the
    initial pump is scheduled as a :data:`TAG_WAKE` event (consuming the
    same sequence number the reference's ``eq.schedule`` would), and all
    pumping/response handling happens inline in :func:`_advance_cell`.
    """

    __slots__ = ()

    def start(self) -> None:
        eq = self.eq
        s = eq._seq
        heappush(eq._heap, (eq.now, s, TAG_WAKE, self))
        eq._seq = s + 1


class _BatchController(FastHybridController):
    """Fast controller whose access path lives in the fused interpreter.

    Inherits all the specialization flags, geometry machinery and
    background-transfer paths; its devices are built from
    :class:`_BatchChannel` so demand completions arrive as tagged
    events.
    """

    _device_cls = _BatchDevice


def _advance_cell(cell: "FastSimulation") -> bool:
    """Run one cell's fused event loop up to its next boundary.

    Pops and interprets tagged events inline until a generic callable
    event — a policy-visible boundary (epoch/faucet/phase tick, or
    anything a policy scheduled itself) — has been executed, the cell
    finishes (all agents measured / heap drained), or ``max_cycles`` is
    reached.  Returns ``True`` iff the cell is still live.

    The body is a fusion of the reference's ``TraceAgent._on_response``/
    ``_pump`` and ``HybridMemoryController.access``/``_lookup``/
    ``_serve_hit``/``_serve_miss`` with the same operands in the same
    order, specialized by the controller's flags; see those for the
    line-by-line semantics.  Mutable controller state that non-inlined
    code reads (``eq.now``/``_seq``, the per-class counter dicts,
    ``_geo`` and its generation) is kept live on the objects, never
    shadowed stale.
    """
    eq = cell.eq
    heap = eq._heap
    until = cell.max_cycles
    ctrl = cell.ctrl
    policy = ctrl.policy

    # Cell-wide hot state (constant across the run, or — for geo/geo_gen
    # — mirrored back to the controller whenever it changes).
    index = ctrl._store_index
    store_ways = ctrl._store_ways
    cnt_cpu = ctrl._cnt_cpu
    cnt_gpu = ctrl._cnt_gpu
    rc = ctrl.remap
    lru = rc._lru
    rc_cap = rc.capacity
    fast_ch = ctrl._fast_ch
    slow_ch = ctrl._slow_ch
    nfast = ctrl._nfast
    nslow = ctrl._nslow
    nsets = ctrl._nsets
    blk = ctrl._block
    flat = ctrl._flat
    base_extra = ctrl._base_extra
    llc_lat = ctrl._llc_lat
    remap_bytes = ctrl._remap_bytes
    mig_qlimit = ctrl._mig_qlimit
    ideal_reconfig = ctrl.ideal_reconfig
    alt_mode = ctrl._alt_mode
    probe_mode = ctrl._probe_mode
    mig_mode = ctrl._mig_mode
    pick_mode = ctrl._pick_mode
    hit_hook = ctrl._hit_hook
    chan_changed_call = ctrl._chan_changed_call
    hc_chain_lat = ctrl._hc_chain_lat if probe_mode in (2, 4) else 0.0
    hc_tag_lat = ctrl._hc_tag_lat if probe_mode in (2, 4) else 0.0
    prof_random = ctrl._prof_random if mig_mode == 2 else None
    prof_levels = ctrl._prof_levels if mig_mode == 2 else None
    prof_ladder = ctrl._prof_ladder if mig_mode == 2 else None
    geo = ctrl._geo
    geo_gen = ctrl._geo_gen
    geo_fill = ctrl._geo_fill

    def lookup(klass: str, addr: int, block: int, set_id: int,
               is_write: bool, agent: _BatchAgent, t_issue: float,
               extra: float) -> None:
        # Entry layout (setassoc): [TAG, DIRTY, KLASS, STAMP, HITS, GEN]
        #                            0     1      2      3     4    5
        nonlocal geo, geo_gen
        way = index[set_id].get(block)
        chained = False
        alt = None
        if way is None and alt_mode:
            if alt_mode == 2:
                # splitmix64(block * 2 + 1) % nsets, inlined
                x = (block * 2 + 1 + 0x9E3779B97F4A7C15) & _M64
                x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
                x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
                alt = ((x ^ (x >> 31)) & _M64) % nsets
                if alt == set_id:
                    alt = None
            else:
                alt = policy.alternate_set(set_id, block)
            if alt is not None:
                away = index[alt].get(block)
                if away is not None:
                    set_id, way, chained = alt, away, True
        if probe_mode:
            if probe_mode == 2:
                if chained:
                    extra += hc_chain_lat
            elif probe_mode == 4:
                extra += hc_tag_lat
            else:
                extra += policy.extra_probe_latency(klass, chained)

        gen = policy.generation
        if geo_gen != gen:
            geo = [None] * nsets
            ctrl._geo = geo
            geo_gen = gen
            ctrl._geo_gen = gen
            mode = ctrl._geo_mode
            if mode == 1:
                ctrl._geo_refresh_keys()
            elif mode:
                ctrl._geo_memo.clear()
        row = geo[set_id]
        if row is None:
            row = geo_fill(set_id)
        chans = row[0]

        cnt = cnt_cpu if klass == "cpu" else cnt_gpu

        if way is not None:
            # -- fast-tier hit ---------------------------------------------
            ways_row = store_ways[set_id]
            entry = ways_row[way]
            cnt["fast_hits"] += 1
            misplaced = False
            if not ideal_reconfig:
                owner = row[1][way]
                if owner != "shared" and owner != entry[2]:
                    misplaced = True
                elif entry[5] != gen:
                    if chan_changed_call and policy.channel_changed(
                            set_id, way, entry[5]):
                        misplaced = True
                    else:
                        entry[5] = gen
            else:
                entry[5] = gen

            # inline ch.submit(klass, 64, is_write, addr, TAG_DONE, ...)
            ch = fast_ch[chans[way]]
            qc = ch._qc
            qg = ch._qg
            if not (qc or qg):
                now = eq.now
                tf = ch._t_free
                if now > tf or (now == tf and eq.cur_seq > ch._s_rel):
                    ch._start2(klass, 64, is_write, addr, TAG_DONE, extra,
                               now, (agent, t_issue))
                else:
                    (qc if klass == "cpu" else qg).append(
                        (klass, 64, is_write, addr, TAG_DONE, extra, now,
                         (agent, t_issue)))
                    if not ch._rel_pushed:
                        heappush(heap, (tf, ch._s_rel, TAG_RELEASE, ch))
                        ch._rel_pushed = True
            elif klass == "cpu":
                qc.append((klass, 64, is_write, addr, TAG_DONE, extra,
                           eq.now, (agent, t_issue)))
            else:
                qg.append((klass, 64, is_write, addr, TAG_DONE, extra,
                           eq.now, (agent, t_issue)))
            if misplaced:
                ctrl._lazy_invalidations += 1
                if is_write:
                    entry[1] = True
                ways_row[way] = None
                del index[set_id][entry[0]]
                if entry[1]:
                    (cnt_cpu if entry[2] == "cpu"
                     else cnt_gpu)["writebacks"] += 1
                    slow_ch[entry[0] % nslow].submit(
                        entry[2], blk, True, entry[0] * blk)
                return

            entry[3] = eq.now
            entry[4] += 1
            if is_write:
                entry[1] = True
            if hit_hook:
                if hit_hook == 1:
                    if (klass == "cpu" and policy.swap_mode != "off"
                            and entry[2] == "cpu"):
                        m = policy.map
                        if (m.bw != 0 and chans[way] >= m.bw
                                and entry[4] >= policy.swap_threshold):
                            swap_way = policy.on_fast_hit(set_id, way, entry,
                                                          klass)
                            if swap_way is not None and swap_way != way:
                                ctrl._fast_swap(set_id, way, swap_way, klass)
                else:
                    swap_way = policy.on_fast_hit(set_id, way, entry, klass)
                    if swap_way is not None and swap_way != way:
                        ctrl._fast_swap(set_id, way, swap_way, klass)
            return

        # -- fast-tier miss -------------------------------------------------
        cnt["fast_misses"] += 1
        slow = slow_ch[block % nslow]
        qc = slow._qc
        qg = slow._qg
        q = len(qc) + len(qg)
        if q:
            q += 1
        else:
            now = eq.now
            tf = slow._t_free
            q = 1 if (now < tf or (now == tf
                                   and eq.cur_seq < slow._s_rel)) else 0
        if q >= mig_qlimit:
            ins = None
            cnt["queue_bypasses"] += 1
        else:
            if pick_mode == 0:
                ins = policy.pick_insertion(set_id, block, klass)
            elif pick_mode == 3:
                if store_ways[set_id][0] is None:
                    ins = (set_id, 0)
                elif alt is not None and store_ways[alt][0] is None:
                    ins = (alt, 0)
                else:
                    ins = (set_id, 0)
            else:
                cands = row[2] if klass == "cpu" else row[3]
                iway = None
                if cands:
                    srow = store_ways[set_id]
                    for w in cands:
                        if srow[w] is None:
                            iway = w
                            break
                    else:
                        if pick_mode == 1:      # LRU
                            best_stamp = None
                            for w in cands:
                                e = srow[w]
                                if e is not None and (best_stamp is None
                                                      or e[3] < best_stamp):
                                    iway, best_stamp = w, e[3]
                        else:                   # ProFess fewest-hits (MDM)
                            best_key = None
                            for w in cands:
                                e = srow[w]
                                if e is None:
                                    continue
                                key = (e[4], e[3])
                                if best_key is None or key < best_key:
                                    iway, best_key = w, key
                ins = (set_id, iway) if iway is not None else None

        migrate = False
        cost = 0
        if ins is not None:
            iset, iway = ins
            victim = store_ways[iset][iway]
            cost = 2 if (flat or (victim is not None and victim[1])) else 1
            if mig_mode == 0:
                migrate = True
            elif mig_mode == 4:
                migrate = (True if klass != "gpu"
                           else policy.allow_migration(klass, block, cost,
                                                       is_write))
            elif mig_mode == 3:
                migrate = not (is_write and klass == "gpu")
            elif mig_mode == 2:
                migrate = prof_random() < prof_ladder[prof_levels[klass]]
            else:
                migrate = policy.allow_migration(klass, block, cost,
                                                 is_write)

        # inline slow.submit(klass, 64, demand_write, addr, TAG_DONE, ...)
        dw = is_write and not migrate
        if not (qc or qg):
            now = eq.now
            tf = slow._t_free
            if now > tf or (now == tf and eq.cur_seq > slow._s_rel):
                slow._start2(klass, 64, dw, addr, TAG_DONE, extra, now,
                             (agent, t_issue))
            else:
                (qc if klass == "cpu" else qg).append(
                    (klass, 64, dw, addr, TAG_DONE, extra, now,
                     (agent, t_issue)))
                if not slow._rel_pushed:
                    heappush(heap, (tf, slow._s_rel, TAG_RELEASE, slow))
                    slow._rel_pushed = True
        elif klass == "cpu":
            qc.append((klass, 64, dw, addr, TAG_DONE, extra, eq.now,
                       (agent, t_issue)))
        else:
            qg.append((klass, 64, dw, addr, TAG_DONE, extra, eq.now,
                       (agent, t_issue)))

        if not migrate:
            cnt["bypasses"] += 1
            return

        cnt["migrations"] += 1
        cnt["migration_tokens"] += cost
        iset, iway = ins
        irow = store_ways[iset]
        victim = irow[iway]
        if victim is not None:
            irow[iway] = None
            del index[iset][victim[0]]
            if flat:
                ctrl._swap_out(iset, iway, victim, klass)
            elif victim[1]:
                (cnt_cpu if victim[2] == "cpu"
                 else cnt_gpu)["writebacks"] += 1
                slow_ch[victim[0] % nslow].submit(
                    victim[2], blk, True, victim[0] * blk)
            cnt["evictions"] += 1

        irow[iway] = [block, is_write, klass, eq.now, 0, gen]
        index[iset][block] = iway
        if blk > 64:
            slow.submit(klass, blk - 64, False, addr)
        if iset == set_id:
            fch = chans[iway]
        else:
            alt_row = geo[iset]
            if alt_row is None:
                alt_row = geo_fill(iset)
            fch = alt_row[0][iway]
        fast_ch[fch].submit(klass, blk, True, block * blk)
        fast_ch[iset % nfast].submit(klass, 64, True, iset * 64)

    def pump(agent: _BatchAgent) -> None:
        inflight = agent.inflight
        mlp = agent.mlp
        if inflight >= mlp:
            return
        gaps = agent._gaps
        addrs = agent._addrs
        writes = agent._writes
        blocks = agent._blocks
        sets = agent._sets
        klass = agent.klass
        scale = agent.instr_scale
        n = agent._n
        idx = agent.idx
        stream_t = agent.stream_t
        retired = agent.retired
        now = eq.now
        cnt = cnt_cpu if klass == "cpu" else cnt_gpu
        while True:
            i = idx % n
            gap = gaps[i]
            t = stream_t + gap
            if t > now:
                if not agent._wake_pending:
                    agent._wake_pending = True
                    s = eq._seq
                    heappush(heap, (t, s, TAG_WAKE, agent))
                    eq._seq = s + 1
                break
            stream_t = now
            idx += 1
            inflight += 1
            retired += (gap + 1.0) * scale
            # inline access: remap-cache probe
            cnt["accesses"] += 1
            set_id = sets[i]
            if set_id in lru:
                lru.move_to_end(set_id)
                rc.hits += 1
                lookup(klass, addrs[i], blocks[i], set_id, writes[i],
                       agent, now, base_extra)
            else:
                rc.misses += 1
                lru[set_id] = None
                if len(lru) > rc_cap:
                    lru.popitem(last=False)
                cnt["remap_fills"] += 1
                # inline ch.submit(..., TAG_LOOKUP, 0.0, payload)
                ch = fast_ch[set_id % nfast]
                fqc = ch._qc
                fqg = ch._qg
                if not (fqc or fqg):
                    fnow = eq.now
                    tf = ch._t_free
                    if fnow > tf or (fnow == tf
                                     and eq.cur_seq > ch._s_rel):
                        ch._start2(klass, remap_bytes, False, set_id * 64,
                                   TAG_LOOKUP, 0.0, fnow,
                                   (klass, addrs[i], blocks[i], set_id,
                                    writes[i], agent, now))
                    else:
                        (fqc if klass == "cpu" else fqg).append(
                            (klass, remap_bytes, False, set_id * 64,
                             TAG_LOOKUP, 0.0, fnow,
                             (klass, addrs[i], blocks[i], set_id,
                              writes[i], agent, now)))
                        if not ch._rel_pushed:
                            heappush(heap, (tf, ch._s_rel, TAG_RELEASE, ch))
                            ch._rel_pushed = True
                else:
                    (fqc if klass == "cpu" else fqg).append(
                        (klass, remap_bytes, False, set_id * 64,
                         TAG_LOOKUP, 0.0, eq.now,
                         (klass, addrs[i], blocks[i], set_id, writes[i],
                          agent, now)))
            if inflight >= mlp:
                break
        agent.idx = idx
        agent.stream_t = stream_t
        agent.inflight = inflight
        agent.retired = retired

    svc = _BANK_SERVICE
    _int = int

    # -- fused event loop ----------------------------------------------------
    while heap:
        if heap[0][0] > until:
            eq.now = until
            return False
        time, seq, tag, payload = heappop(heap)
        eq.now = time
        eq.cur_seq = seq
        if tag.__class__ is _int:
            if tag == 1:                        # TAG_DONE
                agent, t_issue = payload
                inflight = agent.inflight - 1
                rd = agent.refs_done + 1
                agent.refs_done = rd
                agent.latency_sum += time - t_issue
                if rd == agent.warmup_refs:
                    agent.warm_time = time
                if agent.done_time is None and rd >= agent.measure_target:
                    agent.done_time = time
                    if agent.on_done is not None:
                        agent.on_done()
                if inflight + 1 == agent.mlp:
                    # The window was full, so at most one reference can
                    # issue: run one unrolled pump iteration inline
                    # (identical operand order; the general loop is only
                    # needed after a time-blocked window).
                    idx = agent.idx
                    i = idx % agent._n
                    gap = agent._gaps[i]
                    t = agent.stream_t + gap
                    if t > time:
                        agent.inflight = inflight
                        if not agent._wake_pending:
                            agent._wake_pending = True
                            s = eq._seq
                            heappush(heap, (t, s, 3, agent))
                            eq._seq = s + 1
                    else:
                        agent.stream_t = time
                        agent.idx = idx + 1
                        agent.inflight = inflight + 1
                        agent.retired += (gap + 1.0) * agent.instr_scale
                        klass = agent.klass
                        cnt = cnt_cpu if klass == "cpu" else cnt_gpu
                        cnt["accesses"] += 1
                        set_id = agent._sets[i]
                        if set_id in lru:
                            lru.move_to_end(set_id)
                            rc.hits += 1
                            lookup(klass, agent._addrs[i], agent._blocks[i],
                                   set_id, agent._writes[i], agent, time,
                                   base_extra)
                        else:
                            rc.misses += 1
                            lru[set_id] = None
                            if len(lru) > rc_cap:
                                lru.popitem(last=False)
                            cnt["remap_fills"] += 1
                            # inline ch.submit(..., TAG_LOOKUP, 0.0, ...)
                            ch = fast_ch[set_id % nfast]
                            fqc = ch._qc
                            fqg = ch._qg
                            fill = (klass, agent._addrs[i],
                                    agent._blocks[i], set_id,
                                    agent._writes[i], agent, time)
                            if not (fqc or fqg):
                                tf = ch._t_free
                                if time > tf or (time == tf
                                                 and seq > ch._s_rel):
                                    ch._start2(klass, remap_bytes, False,
                                               set_id * 64, TAG_LOOKUP,
                                               0.0, time, fill)
                                else:
                                    (fqc if klass == "cpu"
                                     else fqg).append(
                                        (klass, remap_bytes, False,
                                         set_id * 64, TAG_LOOKUP, 0.0,
                                         time, fill))
                                    if not ch._rel_pushed:
                                        heappush(heap, (tf, ch._s_rel,
                                                        2, ch))
                                        ch._rel_pushed = True
                            elif klass == "cpu":
                                fqc.append((klass, remap_bytes, False,
                                            set_id * 64, TAG_LOOKUP, 0.0,
                                            time, fill))
                            else:
                                fqg.append((klass, remap_bytes, False,
                                            set_id * 64, TAG_LOOKUP, 0.0,
                                            time, fill))
                else:
                    agent.inflight = inflight
                    pump(agent)
                if cell._remaining == 0:
                    return False
            elif tag == 2:                      # TAG_RELEASE
                # Channel release, inlined: the reference's
                # Channel._release + _start, with _BatchChannel._start2's
                # operands in the same order.  Only materialized (hence
                # only fires) with a non-empty queue.
                ch = payload
                qc = ch._qc
                qg = ch._qg
                pc = ch.priority_class
                if pc is not None:
                    hi = qc if pc == "cpu" else qg
                    lo = qg if hi is qc else qc
                    src = hi if hi else lo
                else:
                    first, second = (qc, qg) if ch._rr == "cpu" else (qg, qc)
                    if first:
                        ch._rr = "gpu" if first is qc else "cpu"
                        src = first
                    else:
                        ch._rr = "gpu" if second is qc else "cpu"
                        src = second
                klass, nbytes, is_write, addr, rtag, extra, submit_time, \
                    rpayload = src.popleft()
                row = addr // ch._row_bytes
                bank = row % ch._nbanks
                if svc is None:
                    rows = ch._rows
                    cur = rows[bank]
                    if cur == row:
                        latency = ch._t_cas
                    else:
                        rows[bank] = row
                        ch._activations += 1
                        latency = ch._t_rcd_cas
                        if cur is not None:
                            latency += ch._t_rp
                else:
                    latency, activated = svc(ch._rows_arr, bank, row,
                                             ch._t_cas, ch._t_rcd_cas,
                                             ch._t_rp)
                    if activated:
                        ch._activations += 1
                burst = nbytes / ch._bpc
                if is_write:
                    ch._bytes_written += nbytes
                else:
                    ch._bytes_read += nbytes
                ch._accesses += 1
                ch._queue_wait += time - submit_time
                if klass == "cpu":
                    ch._cb_cpu += nbytes
                else:
                    ch._cb_gpu += nbytes
                ch.busy_cycles += burst
                s = eq._seq
                tf = time + burst
                ch._t_free = tf
                ch._s_rel = s
                if rtag:
                    heappush(heap,
                             (time + (latency + burst + extra + ch._link),
                              s + 1, rtag, rpayload))
                    eq._seq = s + 2
                else:
                    eq._seq = s + 1
                if qc or qg:
                    heappush(heap, (tf, s, 2, ch))
                else:
                    ch._rel_pushed = False
            elif tag == 3:                      # TAG_WAKE
                payload._wake_pending = False
                pump(payload)
            else:                               # TAG_LOOKUP
                klass, addr, block, set_id, is_write, agent, t_issue = \
                    payload
                lookup(klass, addr, block, set_id, is_write, agent, t_issue,
                       llc_lat)
        else:
            # Policy-visible boundary (epoch/faucet/phase tick or any
            # policy-scheduled callable): execute it with the reference
            # call pattern, then return to the driver loop.
            tag(*payload)
            return True
    return False


# -- the native loop ----------------------------------------------------------
#
# fusedloop.c ports _advance_cell (with lookup and pump) to C.  It is built
# on first use through cffi's API mode and cached beside this file; what
# follows is its glue: the build and load, the callbacks the loop makes
# into Python, and the views through which Python code reads and writes
# the cell's state while the C loop owns it.

_SOURCE = Path(__file__).with_name("fusedloop.c")
#: Compile flags: doubles must round exactly as Python floats do.
_CFLAGS = ("-O2", "-ffp-contract=off")
_KLASS = ("cpu", "gpu")
_OWNERS = ("cpu", "gpu", "shared")
_ROW_NONE = -(1 << 63)          # fl_channel.rows: a precharged bank
_SEQ_MAX = (1 << 63) - 1        # fl_cell.cur_seq outside any event
TAG_CALL = 5                    # native heap: a generic callable event

#: Builds the extension in a child process, so the parent never imports
#: setuptools: ``python -c _BUILD_SCRIPT <name> <source> <tmpdir> <flags>``.
_BUILD_SCRIPT = """
import sys, cffi
name, source, tmp, flags = sys.argv[1:5]
text = open(source).read()
head = text[text.index("/* interface-begin */"):
            text.index("/* interface-end */")]
decls, callbacks = head.split("/* callbacks-begin */")
ffi = cffi.FFI()
ffi.cdef(decls + callbacks.replace("static ", 'extern "Python" '))
ffi.set_source(name, text, extra_compile_args=flags.split())
ffi.compile(tmpdir=tmp)
"""


class _Native(NamedTuple):
    """A loaded build of the native loop."""

    ffi: Any
    lib: Any
    live: Any       # int64_t[1]: native cells allocated and not yet freed


def _artifact() -> tuple[str, str]:
    """Module name and file name of the build of the current source.

    The name hashes the C source, the compile flags, the cffi version and
    the interpreter ABI, so a stale build is never loaded.
    """
    import _cffi_backend
    h = hashlib.sha256(_SOURCE.read_bytes())
    h.update(repr((_CFLAGS, _BUILD_SCRIPT, _cffi_backend.__version__,
                   sysconfig.get_config_var("SOABI"))).encode())
    name = f"_fusedloop_{h.hexdigest()[:16]}"
    return name, name + sysconfig.get_config_var("EXT_SUFFIX")


def _cache_dirs() -> tuple[Path, Path]:
    """Where builds are cached: the package's ``__pycache__``, else this
    user's directory under the temp dir."""
    user = os.getuid() if hasattr(os, "getuid") else os.getlogin()
    return (_SOURCE.parent / "__pycache__",
            Path(tempfile.gettempdir()) / f"repro-native-{user}")


def _writable(d: Path) -> bool:
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    return os.access(d, os.W_OK | os.X_OK)


def _private(d: Path) -> Path:
    """``d``, created if missing, once it is shown to be this user's
    alone: a real directory (no symlink), owned by this user, that no one
    else may read, write or enter.  Its name under the shared temp dir is
    predictable, so another user could create it first and plant a module
    there; any such directory is refused."""
    if not hasattr(os, "getuid"):
        raise RuntimeError(f"cannot tell who owns {d}")
    try:
        d.mkdir(mode=0o700)
    except FileExistsError:
        pass
    st = os.lstat(d)
    if (not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid()
            or st.st_mode & 0o077):
        raise RuntimeError(f"build cache {d} is not a private directory "
                           f"of this user")
    return d


def _build(name: str, filename: str, dest: Path) -> Path:
    """Compile into a private temp dir under ``dest``, then move the
    module into place atomically; racing builders are harmless."""
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=dest)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _BUILD_SCRIPT, name, str(_SOURCE), tmp,
             " ".join(_CFLAGS)],
            capture_output=True, text=True, timeout=600, check=False)
        built = next(Path(tmp).rglob(filename), None)
        if proc.returncode or built is None:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            raise RuntimeError("build failed: " + " | ".join(tail))
        target = dest / filename
        os.replace(built, target)
        return target
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _artifact_path() -> Path:
    """Path of the build of the current source, built if missing.

    The package's ``__pycache__`` is trusted as its ``.pyc`` files are:
    a build there is loaded, and one is made there whenever it is
    writable.  Only otherwise is this user's directory under the temp dir
    used, and only once :func:`_private` has vetted it.
    """
    name, filename = _artifact()
    package, user = _cache_dirs()
    if (package / filename).is_file():
        return package / filename
    dest = package if _writable(package) else _private(user)
    if (dest / filename).is_file():
        return dest / filename
    return _build(name, filename, dest)


def _load_native() -> Any:
    """Import the built extension module, building it if no cache has it."""
    name, _ = _artifact()
    if name in sys.modules:
        return sys.modules[name]
    path = _artifact_path()
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise RuntimeError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


@functools.lru_cache(maxsize=None)
def _native() -> _Native | None:
    """The native loop of this process, or ``None`` (warned once) when it
    cannot be built here; ``engine="fast"`` then runs the Python loop."""
    try:
        module = _load_native()
    except Exception as exc:     # any build or load failure falls back
        warnings.warn(f"native fused loop unavailable ({exc}); "
                      f"engine='fast' runs the Python fused loop",
                      RuntimeWarning, stacklevel=2)
        return None
    _register(module.ffi)
    return _Native(module.ffi, module.lib, module.ffi.new("int64_t[1]"))


def _register(ffi: Any) -> None:
    """(Re-)bind the loop's ``extern "Python"`` callbacks.

    Each finds its :class:`_NativeRun` through the cell's handle.  An
    exception that escapes one, ``KeyboardInterrupt`` and job timeouts
    included (a signal handler may raise at any bytecode), reaches cffi's
    ``onerror`` handler, which stores it on the run and sets the cell's
    error flag; ``fl_run`` unwinds and :meth:`_NativeRun.advance`
    re-raises it.  The handler finds the run through the callback's
    frame, which cffi passes only while the hook runs: a return value it
    cannot convert comes with no traceback.  So every hook returns a
    value of its C type that it built itself, and a bad value from a
    policy fails inside the hook, as the Python loop would fail on it.
    """
    from_handle = ffi.from_handle

    def bind(name: str, default: Any) -> Callable:
        def on_error(exc_type, exc, tb):
            run = from_handle(tb.tb_frame.f_locals["py"])
            run.exc = exc
            run.c.err = 1
            return default

        def deco(hook: Callable) -> Callable:
            def call(py, *args):
                return hook(from_handle(py), *args)
            ffi.def_extern(name=name, onerror=on_error)(call)
            return hook
        return deco

    @bind("fl_cb_done", 0)
    def _done(run, agent):
        a = run.agents[agent]
        if a.on_done is not None:
            a.on_done()
        run.c.gen = run.policy.generation
        return run.sim._remaining

    @bind("fl_cb_geo", -1)
    def _geo(run, set_id):
        run.fill_row(set_id)
        return 0

    @bind("fl_cb_chan", -1)
    def _chan(run, set_id, way):
        ch = operator.index(run.policy.way_channel(set_id, way) % run.nfast)
        run.c.gen = run.policy.generation
        return ch

    @bind("fl_cb_alt", -1)
    def _alt(run, set_id, block):
        alt = run.policy.alternate_set(set_id, block)
        run.c.gen = run.policy.generation
        return -1 if alt is None else run.index(alt, run.nsets)

    @bind("fl_cb_probe", 0.0)
    def _probe(run, klass, chained):
        # ``0.0 +`` is the Python loop's ``extra +=``: it raises on None
        extra = 0.0 + run.policy.extra_probe_latency(_KLASS[klass],
                                                     bool(chained))
        run.c.gen = run.policy.generation
        return float(extra)

    @bind("fl_cb_allow", 0)
    def _allow(run, klass, block, cost, is_write):
        ok = run.policy.allow_migration(_KLASS[klass], block, cost,
                                        bool(is_write))
        run.c.gen = run.policy.generation
        return 1 if ok else 0

    @bind("fl_cb_random", 0.0)
    def _random(run):
        return run.draw()

    @bind("fl_cb_changed", 0)
    def _changed(run, set_id, way, gen):
        changed = run.policy.channel_changed(set_id, way, gen)
        run.c.gen = run.policy.generation
        return 1 if changed else 0

    @bind("fl_cb_hit", -1)
    def _hit(run, set_id, way, klass):
        entry = run.ctrl.store.entry(set_id, way)
        swap = run.policy.on_fast_hit(set_id, way, entry, _KLASS[klass])
        run.c.gen = run.policy.generation
        return -1 if swap is None else run.index(swap, run.assoc)

    @bind("fl_cb_pick", 0)
    def _pick(run, set_id, block, klass):
        ins = run.policy.pick_insertion(set_id, block, _KLASS[klass])
        run.c.gen = run.policy.generation
        if ins is None:
            return 0
        iset, iway = ins
        run.c.out_iset = run.index(iset, run.nsets)
        run.c.out_iway = run.index(iway, run.assoc)
        return 1


def _native_for(cfg, mix) -> _Native | None:
    """The native loop, if it is built and can run this cell as the
    Python loop would (two agent classes, non-empty traces)."""
    traces = (*mix.cpu_traces, *mix.gpu_traces)
    if not traces or any(t.klass not in _KLASS or len(t) == 0
                         for t in traces):
        return None
    return _native()


class _NativeAgent(TraceAgent):
    """Trace agent of a native cell: the loop reads the trace's own NumPy
    columns, so no :class:`~repro.traces.base.TraceColumns` are built."""

    __slots__ = ("_nat", "_run")

    def _trace_lists(self, trace: Trace) -> tuple:
        return trace.addrs, trace.writes, trace.gaps

    def start(self) -> None:
        _BatchAgent.start(self)     # type: ignore[arg-type]


def _field(name: str, index: int | None = None) -> property:
    """A property over field ``name`` (element ``index``) of the view's
    native struct ``self._nat``."""
    if index is None:
        def get(self):
            return getattr(self._nat, name)

        def put(self, value):
            setattr(self._nat, name, value)
    else:
        def get(self):
            return getattr(self._nat, name)[index]

        def put(self, value):
            getattr(self._nat, name)[index] = value
    return property(get, put)


def _flag(name: str) -> property:
    def get(self):
        return bool(getattr(self._nat, name))

    def put(self, value):
        setattr(self._nat, name, 1 if value else 0)
    return property(get, put)


class _ChannelView(_BatchChannel):
    """A :class:`_BatchChannel` whose state lives in the native cell."""

    __slots__ = ()
    #: State copied into the cell by _NativeRun._switch and back out by
    #: _NativeRun.close (every view declares its own).
    _FIELDS = ("busy_cycles", "_bytes_read", "_bytes_written", "_accesses",
               "_activations", "_queue_wait", "_cb_cpu", "_cb_gpu",
               "_t_free", "_s_rel", "_rel_pushed", "_rr", "_rows")

    busy_cycles = _field("busy_cycles")
    _bytes_read = _field("bytes_read")
    _bytes_written = _field("bytes_written")
    _accesses = _field("accesses")
    _activations = _field("activations")
    _queue_wait = _field("queue_wait")
    _cb_cpu = _field("cb", 0)
    _cb_gpu = _field("cb", 1)
    _t_free = _field("t_free")
    _s_rel = _field("s_rel")
    _rel_pushed = _flag("rel_pushed")

    @property
    def _rr(self):
        return _KLASS[self._nat.rr]

    @_rr.setter
    def _rr(self, value):
        self._nat.rr = 0 if value == "cpu" else 1

    @property
    def priority_class(self):
        return Channel.priority_class.__get__(self)

    @priority_class.setter
    def priority_class(self, value):
        Channel.priority_class.__set__(self, value)
        self._nat.prio = -1 if value is None else 0 if value == "cpu" else 1

    @property
    def _rows(self):
        p = self._nat
        return [None if r == _ROW_NONE else r
                for r in self._run.ffi.unpack(p.rows, p.nbanks)]

    @_rows.setter
    def _rows(self, rows):
        p = self._nat
        for b, r in enumerate(rows):
            p.rows[b] = _ROW_NONE if r is None else r

    @property
    def _rows_arr(self):
        return None

    @property
    def _qc(self):
        return self._run.queue(self._nat.q[0])

    @property
    def _qg(self):
        return self._run.queue(self._nat.q[1])

    @property
    def queue_depth(self) -> int:
        p = self._nat
        q = p.q[0].len + p.q[1].len
        if q:
            return q + 1
        c = self._run.c
        now, tf = c.now, p.t_free
        return 1 if (now < tf or (now == tf and c.cur_seq < p.s_rel)) else 0

    def submit(self, klass: str, nbytes: int, is_write: bool, addr: int,
               tag: Any = 0, extra: float = 0.0,
               payload: Any = None) -> None:
        run = self._run
        run.lib.fl_submit(run.c, self._nat - run.c.ch,
                          0 if klass == "cpu" else 1, nbytes,
                          1 if is_write else 0, addr,
                          *run.completion(tag, payload, extra))

    def drop_queued(self) -> None:
        run = self._run
        run.lib.fl_drop(run.c, self._nat - run.c.ch)

    def reset_banks(self) -> None:
        p = self._nat
        for b in range(p.nbanks):
            p.rows[b] = _ROW_NONE


class _AgentView(_NativeAgent):
    """A :class:`_NativeAgent` whose progress lives in the native cell."""

    __slots__ = ()
    _FIELDS = ("idx", "inflight", "refs_done", "stream_t", "retired",
               "latency_sum", "warm_time", "done_time", "_wake_pending")

    idx = _field("idx")
    inflight = _field("inflight")
    refs_done = _field("refs_done")
    stream_t = _field("stream_t")
    retired = _field("retired")
    latency_sum = _field("latency_sum")
    warm_time = _field("warm_time")
    _wake_pending = _flag("wake_pending")

    @property
    def done_time(self):
        p = self._nat
        return p.done_time if p.has_done else None

    @done_time.setter
    def done_time(self, value):
        p = self._nat
        p.has_done = value is not None
        p.done_time = 0.0 if value is None else value

    def start(self) -> None:
        run = self._run
        c = run.c
        s = c.seq
        run.lib.fl_push(c, c.now, s, TAG_WAKE, self._nat - c.agents, 0, 0.0, 0)
        c.seq = s + 1


class _BatchEventQueue(FastEventQueue):
    """The fast engine's event queue (``_run`` is set on native runs)."""

    __slots__ = ("_run",)


class _EventQueueView(_BatchEventQueue):
    """The event queue of a native run: its heap, clock and sequence
    counter live in the cell, and scheduled callables land there at
    their ``(time, seq)`` keys."""

    __slots__ = ()
    _FIELDS = ("now", "_seq", "cur_seq")

    @property
    def now(self):
        run = self._run
        return run.now_obj if run.now_obj is not None else run.c.now

    @now.setter
    def now(self, value):
        self._run.now_obj = None
        self._run.c.now = value

    @property
    def _seq(self):
        return self._run.c.seq

    @_seq.setter
    def _seq(self, value):
        self._run.c.seq = value

    @property
    def cur_seq(self):
        s = self._run.c.cur_seq
        return 1 << 63 if s == _SEQ_MAX else s

    @cur_seq.setter
    def cur_seq(self, value):
        self._run.c.cur_seq = min(value, _SEQ_MAX)

    def __len__(self) -> int:
        return self._run.c.heap_len

    def schedule(self, time: float, fn: Callable, *args) -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        self._run.call_at(time, fn, args)

    def after(self, delay: float, fn: Callable, *args) -> None:
        self._run.call_at(self.now + delay, fn, args)

    def clear(self) -> None:
        run = self._run
        run.c.heap_len = 0
        run.calls.clear()


class _Counters(MutableMapping):
    """One class's controller counters, over the native cell's array."""

    __slots__ = ("_arr",)

    def __init__(self, arr: Any) -> None:
        self._arr = arr

    def __getitem__(self, key: str) -> int:
        return self._arr[CLASS_KEYS.index(key)]

    def __setitem__(self, key: str, value: int) -> None:
        self._arr[CLASS_KEYS.index(key)] = value

    def __delitem__(self, key: str) -> None:
        raise TypeError("controller counters are fixed")

    def __iter__(self) -> Iterator[str]:
        return iter(CLASS_KEYS)

    def __len__(self) -> int:
        return len(CLASS_KEYS)


class _ControllerView(_BatchController):
    """A :class:`_BatchController` whose counters live in the native cell
    (``_cnt`` holds :class:`_Counters` while it runs)."""

    _FIELDS = ("_lazy_invalidations", "_swaps")

    @property
    def _lazy_invalidations(self):
        return self._run.c.lazy_inval

    @_lazy_invalidations.setter
    def _lazy_invalidations(self, value):
        self._run.c.lazy_inval = value

    @property
    def _swaps(self):
        return self._run.c.swaps

    @_swaps.setter
    def _swaps(self, value):
        self._run.c.swaps = value


class _RemapView(RemapCache):
    """A :class:`RemapCache` whose LRU order and counters live in the
    native cell."""

    _FIELDS = ("_lru", "hits", "misses")    # _lru first: its setter probes

    @property
    def _lru(self) -> OrderedDict:
        c = self._run.c
        out: OrderedDict[int, None] = OrderedDict()
        s = c.lru_head
        while s >= 0:
            out[s] = None
            s = c.lru_next[s]
        return out

    @_lru.setter
    def _lru(self, order) -> None:
        run = self._run
        run.lib.fl_lru_clear(run.c)
        run.c.lru_cap = self.capacity
        for s in order:
            run.lib.fl_probe(run.c, s)

    @property
    def hits(self):
        return self._run.c.rc_hits

    @hits.setter
    def hits(self, value):
        self._run.c.rc_hits = value

    @property
    def misses(self):
        return self._run.c.rc_misses

    @misses.setter
    def misses(self, value):
        self._run.c.rc_misses = value

    def probe(self, set_id: int) -> bool:
        run = self._run
        return bool(run.lib.fl_probe(run.c, set_id))

    def invalidate_all(self) -> None:
        run = self._run
        run.lib.fl_lru_clear(run.c)

    def __len__(self) -> int:
        return self._run.c.lru_len


class _StoreArrays(NamedTuple):
    """Flat per-(set, way) columns of a store, as ``memoryview`` s."""

    tag: memoryview
    dirty: memoryview
    klass: memoryview
    stamp: memoryview
    hits: memoryview
    gen: memoryview
    valid: memoryview


class _StoreView(FastStore):
    """A :class:`FastStore` over flat columns: the native cell's arrays
    while it runs, private copies of them once it is released.

    Entries read from it are fresh ``[tag, dirty, klass, stamp, hits,
    gen]`` lists with the value types of :class:`FastStore`'s.
    """

    _cols: _StoreArrays

    def _entry(self, i: int) -> list:
        m = self._cols
        return [m.tag[i], bool(m.dirty[i]), _KLASS[m.klass[i]], m.stamp[i],
                m.hits[i], m.gen[i]]

    @property
    def _ways(self) -> list:
        m = self._cols
        valid = m.valid.tolist()
        a = self.assoc
        return [[self._entry(i) if valid[i] else None
                 for i in range(s * a, s * a + a)]
                for s in range(self.num_sets)]

    @property
    def _index(self) -> list:
        m = self._cols
        valid, tags = m.valid.tolist(), m.tag.tolist()
        a = self.assoc
        return [{tags[i]: i - s * a for i in range(s * a, s * a + a)
                 if valid[i]} for s in range(self.num_sets)]

    def lookup(self, set_id: int, block: int) -> int | None:
        m = self._cols
        base = set_id * self.assoc
        for w in range(self.assoc):
            if m.valid[base + w] and m.tag[base + w] == block:
                return w
        return None

    def entry(self, set_id: int, way: int) -> list | None:
        i = set_id * self.assoc + way
        return self._entry(i) if self._cols.valid[i] else None

    def valid_ways(self, set_id: int):
        base = set_id * self.assoc
        valid = self._cols.valid
        for w in range(self.assoc):
            if valid[base + w]:
                yield w, self._entry(base + w)

    def touch(self, set_id: int, way: int, now: float, is_write: bool) -> None:
        m = self._cols
        i = set_id * self.assoc + way
        m.stamp[i] = now
        m.hits[i] += 1
        if is_write:
            m.dirty[i] = 1

    def insert(self, set_id: int, way: int, block: int, klass: str,
               dirty: bool, now: float, gen: int) -> None:
        m = self._cols
        i = set_id * self.assoc + way
        if m.valid[i]:
            raise ValueError(f"way {way} of set {set_id} is occupied")
        m.tag[i], m.dirty[i] = block, 1 if dirty else 0
        m.klass[i] = 0 if klass == "cpu" else 1
        m.stamp[i], m.hits[i], m.gen[i], m.valid[i] = now, 0, gen, 1

    def evict(self, set_id: int, way: int) -> list | None:
        i = set_id * self.assoc + way
        if not self._cols.valid[i]:
            return None
        e = self._entry(i)
        self._cols.valid[i] = 0
        return e

    def swap(self, set_id: int, way_a: int, way_b: int) -> None:
        a = set_id * self.assoc + way_a
        b = set_id * self.assoc + way_b
        for col in self._cols:
            col[a], col[b] = col[b], col[a]

    def free_way(self, set_id: int, candidates) -> int | None:
        valid = self._cols.valid
        base = set_id * self.assoc
        for w in candidates:
            if not valid[base + w]:
                return w
        return None

    def lru_way(self, set_id: int, candidates) -> int | None:
        m = self._cols
        base = set_id * self.assoc
        best, best_stamp = None, None
        for w in candidates:
            if not m.valid[base + w]:
                continue
            stamp = m.stamp[base + w]
            if best_stamp is None or stamp < best_stamp:
                best, best_stamp = w, stamp
        return best

    def min_hits_way(self, set_id: int, candidates) -> int | None:
        m = self._cols
        base = set_id * self.assoc
        best, best_key = None, None
        for w in candidates:
            if not m.valid[base + w]:
                continue
            key = (m.hits[base + w], m.stamp[base + w])
            if best_key is None or key < best_key:
                best, best_key = w, key
        return best

    def check_consistency(self) -> None:
        index = self._index
        for s in range(self.num_sets):
            seen = {e[0]: w for w, e in self.valid_ways(s)}
            if seen != index[s]:
                raise AssertionError(f"set {s}: index {index[s]} != ways "
                                     f"{seen}")

    def occupancy(self) -> int:
        return int(np.count_nonzero(np.frombuffer(self._cols.valid,
                                                  dtype=np.uint8)))

    def occupancy_by_class(self) -> dict[str, int]:
        valid = np.frombuffer(self._cols.valid, dtype=np.uint8) != 0
        gpu = np.frombuffer(self._cols.klass, dtype=np.uint8) != 0
        n_gpu = int(np.count_nonzero(valid & gpu))
        return {"cpu": int(np.count_nonzero(valid)) - n_gpu, "gpu": n_gpu}


class _NativeRun:
    """One cell on the native loop: the C state, its handle, and the
    Python objects switched to views onto it.

    Built when the run starts draining: every engine part's state moves
    into the cell and the part's class becomes its view, so Python code
    (ticks, hooks, the sanitizer) reads and writes the cell directly.
    :meth:`close` copies the state back into the plain parts (the store
    keeps private copies of its columns) and frees the cell.
    """

    def __init__(self, native: _Native, sim: "FastSimulation") -> None:
        ffi, lib = native.ffi, native.lib
        self.ffi, self.lib = ffi, lib
        self.sim = sim
        self.ctrl = ctrl = sim.ctrl
        self.policy = policy = sim.policy
        self.agents = list(sim.agents)
        self.chans = [*ctrl._fast_ch, *ctrl._slow_ch]
        self.nsets, self.assoc = ctrl._nsets, ctrl._assoc
        self.nfast = ctrl._nfast
        self.calls: dict[int, tuple] = {}
        self.next_key = 0
        self.now_obj: Any = None
        self.exc: BaseException | None = None
        self.rows: dict[int, tuple] = {}
        self.keep: list = []
        self.switched: list = []
        self.cnt_dicts = None
        self.draw = ctrl._prof_random if ctrl._mig_mode == 2 else None
        c = lib.fl_new(self.nsets, self.assoc, ctrl._nfast, ctrl._nslow,
                       len(ctrl._fast_ch[0]._rows),
                       len(ctrl._slow_ch[0]._rows), len(self.agents),
                       native.live)
        if c == ffi.NULL:
            raise MemoryError("cannot allocate a native cell")
        self.c = c
        # From here on the cell is the simulation's to free: its
        # ``_release`` closes the run even if a load below is interrupted.
        sim._run = self
        self.handle = ffi.new_handle(self)
        c.py = self.handle
        self._load_params()
        self._load_agents()
        self._load_channels()
        self._load_controller()
        self._load_queue()

    # -- import --------------------------------------------------------------

    def _load_params(self) -> None:
        c, ctrl = self.c, self.ctrl
        c.blk = ctrl._block
        c.base_extra = ctrl._base_extra
        c.llc_lat = ctrl._llc_lat
        c.remap_bytes = ctrl._remap_bytes
        c.mig_qlimit = ctrl._mig_qlimit
        c.flat = ctrl._flat
        c.static_geo = ctrl._static_geometry
        c.alt_mode = ctrl._alt_mode
        c.probe_mode = ctrl._probe_mode
        c.mig_mode = ctrl._mig_mode
        c.chan_changed_call = ctrl._chan_changed_call
        c.hit_hook = ctrl._hit_hook
        c.pick_mode = ctrl._pick_mode
        if ctrl._probe_mode in (2, 4):
            c.hc_chain_lat = ctrl._hc_chain_lat
            c.hc_tag_lat = ctrl._hc_tag_lat
        c.geo_gen = ctrl._geo_gen

    def _load_agents(self) -> None:
        ffi, c = self.ffi, self.c
        for i, a in enumerate(self.agents):
            p = c.agents + i
            addrs = np.ascontiguousarray(a._addrs, dtype=np.int64)
            writes = np.ascontiguousarray(a._writes, dtype=np.bool_)
            gaps = a._gaps
            if gaps.dtype != np.float32:
                gaps = np.ascontiguousarray(gaps, dtype=np.float64)
            gaps = np.ascontiguousarray(gaps)
            bufs = (ffi.from_buffer("int64_t[]", addrs),
                    ffi.from_buffer("uint8_t[]", writes.view(np.uint8)),
                    ffi.from_buffer("float[]" if gaps.dtype == np.float32
                                    else "double[]", gaps))
            self.keep.append(bufs)
            p.addrs, p.writes = bufs[0], bufs[1]
            if gaps.dtype == np.float32:
                p.gaps32 = bufs[2]
            else:
                p.gaps64 = bufs[2]
            p.n = a._n
            p.mlp = a.mlp
            p.measure_target = a.measure_target
            p.warmup_refs = a.warmup_refs
            p.instr_scale = a.instr_scale
            p.klass = _KLASS.index(a.klass)
            a._nat = p
            self._switch(a, _AgentView)

    def _load_channels(self) -> None:
        lib, c = self.lib, self.c
        for i, ch in enumerate(self.chans):
            p = c.ch + i
            p.row_bytes = ch._row_bytes
            p.bpc = ch._bpc
            p.t_cas = ch._t_cas
            p.t_rcd_cas = ch._t_rcd_cas
            p.t_rp = ch._t_rp
            p.link = ch._link
            if ch._rows_arr is not None:     # the numba kernel's rows
                ch._rows[:] = [None if r < 0 else int(r)
                               for r in ch._rows_arr]
            pc = ch.priority_class
            p.prio = -1 if pc is None else 0 if pc == "cpu" else 1
            for k, q in enumerate((ch._qc, ch._qg)):
                for req in q:
                    ctag, extra, obj, p_addr, t_issue, p_write = \
                        self.completion(req[4], req[7] if len(req) > 7
                                        else None, req[5])
                    lib.fl_enqueue(c, i, k, req[1], 1 if req[2] else 0,
                                   req[3], ctag, extra, req[6], obj, p_addr,
                                   t_issue, p_write)
                q.clear()
            ch._nat = p
            self._switch(ch, _ChannelView)

    def _load_controller(self) -> None:
        ffi, c, ctrl = self.ffi, self.c, self.ctrl
        store, remap = ctrl.store, ctrl.remap
        # store: move the entries into the cell's columns
        n = self.nsets * self.assoc
        cols = _StoreArrays(
            *(memoryview(ffi.buffer(ptr, n * size)).cast(code)
              for ptr, size, code in (
                  (c.st_tag, 8, "q"), (c.st_dirty, 1, "B"),
                  (c.st_klass, 1, "B"), (c.st_stamp, 8, "d"),
                  (c.st_hits, 8, "q"), (c.st_gen, 8, "q"),
                  (c.st_valid, 1, "B"))))
        a = self.assoc
        for s, idx in enumerate(store._index):
            if idx:
                for w, e in enumerate(store._ways[s]):
                    if e is not None:
                        i = s * a + w
                        cols.tag[i], cols.dirty[i] = e[0], 1 if e[1] else 0
                        cols.klass[i] = 0 if e[2] == "cpu" else 1
                        cols.stamp[i], cols.hits[i] = e[3], e[4]
                        cols.gen[i], cols.valid[i] = e[5], 1
        store._cols = cols
        del store._ways, store._index
        store.__class__ = _StoreView
        ctrl._store_ways = ctrl._store_index = None
        self._switch(remap, _RemapView)
        # counters
        self.cnt_dicts = ctrl._cnt
        for k, klass in enumerate(_KLASS):
            for j, key in enumerate(CLASS_KEYS):
                c.cnt[k][j] = ctrl._cnt[klass][key]
        ctrl._cnt = {klass: _Counters(c.cnt[k])
                     for k, klass in enumerate(_KLASS)}
        ctrl._cnt_cpu, ctrl._cnt_gpu = ctrl._cnt["cpu"], ctrl._cnt["gpu"]
        self._switch(ctrl, _ControllerView)

    def _load_queue(self) -> None:
        lib, c, eq = self.lib, self.c, self.sim.eq
        agent_of = {id(a): i for i, a in enumerate(self.agents)}
        chan_of = {id(ch): i for i, ch in enumerate(self.chans)}
        for t, s, tag, payload in eq._heap:
            if tag.__class__ is int and tag == TAG_WAKE:
                lib.fl_push(c, t, s, TAG_WAKE, agent_of[id(payload)], 0,
                            0.0, 0)
            elif tag.__class__ is int and tag == TAG_RELEASE:
                lib.fl_push(c, t, s, TAG_RELEASE, chan_of[id(payload)], 0,
                            0.0, 0)
            else:
                ctag, _, obj, p_addr, t_issue, p_write = self.completion(
                    tag, payload, 0.0)
                lib.fl_push(c, t, s, ctag, obj, p_addr, t_issue, p_write)
        eq._heap.clear()
        self._switch(eq, _EventQueueView)

    def _switch(self, obj: Any, view: type) -> None:
        """Make ``obj`` a view of this run, moving its ``view._FIELDS``
        into the cell; :meth:`close` moves them back."""
        values = [getattr(obj, name) for name in view._FIELDS]
        plain = obj.__class__
        obj._run = self
        self.switched.append((obj, plain))
        obj.__class__ = view
        for name, value in zip(view._FIELDS, values):
            setattr(obj, name, value)

    # -- payloads --------------------------------------------------------------

    def register(self, fn: Callable, args: tuple) -> int:
        """Key of a generic event ``fn(*args)``, run when it pops."""
        key = self.next_key
        self.next_key = key + 1
        self.calls[key] = (fn, args)
        return key

    def completion(self, fn: Any, args: Any, extra: float) -> tuple:
        """``(tag, extra, obj, p_addr, t_issue, p_write)`` for a transfer
        Python submits: none, or a callable run as a generic event."""
        if not fn:
            return 0, extra, 0, 0, 0.0, 0
        key = self.register(fn, () if args is None else args)
        return TAG_CALL, extra, 0, key, 0.0, 0

    def payload(self, tag: int, obj: int, p_addr: int, t_issue: float,
                p_write: int) -> tuple:
        """The Python loop's ``(tag, payload)`` of a native completion."""
        if tag == TAG_DONE:
            return tag, (self.agents[obj], t_issue)
        if tag == TAG_LOOKUP:
            agent = self.agents[obj]
            block = p_addr // self.ctrl._block
            return tag, (agent.klass, p_addr, block, block % self.nsets,
                         bool(p_write), agent, t_issue)
        if tag == TAG_CALL:
            return self.calls[p_addr]
        return tag, None

    def queue(self, ring: Any) -> deque:
        """A snapshot of one class queue as the Python loop's tuples."""
        out: deque = deque()
        for i in range(ring.len):
            r = ring.buf[(ring.head + i) % ring.cap]
            tag, payload = self.payload(r.tag, r.obj, r.p_addr, r.t_issue,
                                        r.p_write)
            out.append((_KLASS[r.klass], r.nbytes, bool(r.is_write), r.addr,
                        tag, r.extra, r.submit, payload))
        return out

    def call_at(self, time: float, fn: Callable, args: tuple) -> None:
        """Schedule ``fn(*args)`` at ``time`` with the next sequence
        number, as ``EventQueue.after`` does."""
        c = self.c
        s = c.seq
        self.lib.fl_push(c, time, s, TAG_CALL, 0, self.register(fn, args),
                         0.0, 0)
        c.seq = s + 1

    # -- callbacks ---------------------------------------------------------------

    @staticmethod
    def index(value: Any, size: int) -> int:
        """``value`` as a list index into ``size`` slots, wrapped the way
        Python indexing wraps a negative one."""
        i = operator.index(value)
        if not -size <= i < size:
            raise IndexError(f"index {i} out of range for {size}")
        return i % size

    def fill_row(self, set_id: int) -> None:
        """Write ``ctrl._geo_fill(set_id)`` into the cell's geometry,
        first replaying the Python loop's reset after a generation move."""
        ctrl, c = self.ctrl, self.c
        gen = c.geo_gen
        if ctrl._geo_gen != gen:
            ctrl._geo = [None] * self.nsets
            ctrl._geo_gen = gen
            mode = ctrl._geo_mode
            if mode == 1:
                ctrl._geo_refresh_keys()
            elif mode:
                ctrl._geo_memo.clear()
            self.rows.clear()
        row = ctrl._geo_fill(set_id)
        enc = self.rows.get(id(row))
        if enc is None:
            chans, owners, el_cpu, el_gpu = row
            a = self.assoc
            if len(el_cpu) > a or len(el_gpu) > a:
                raise ValueError(f"eligible_ways of set {set_id} lists more "
                                 f"than assoc={a} ways")
            el_cpu = tuple(self.index(w, a) for w in el_cpu)
            el_gpu = tuple(self.index(w, a) for w in el_gpu)
            enc = (row,
                   # list indices in the Python loop: a float raises
                   np.asarray([operator.index(ch) for ch in chans],
                              dtype=np.int32).tobytes(),
                   bytes(_OWNERS.index(o) if o in _OWNERS else 3
                         for o in owners),
                   np.asarray(el_cpu + (0,) * (a - len(el_cpu)),
                              dtype=np.int32).tobytes(),
                   np.asarray(el_gpu + (0,) * (a - len(el_gpu)),
                              dtype=np.int32).tobytes(),
                   len(el_cpu), len(el_gpu))
            if ctrl._static_geometry:
                self.rows[id(row)] = enc
        _, chans_b, owners_b, cpu_b, gpu_b, n_cpu, n_gpu = enc
        a = self.assoc
        base = set_id * a
        memmove = self.ffi.memmove
        memmove(c.geo_chan + base, chans_b, 4 * a)
        memmove(c.geo_owner + base, owners_b, a)
        memmove(c.geo_el + 2 * base, cpu_b, 4 * a)
        memmove(c.geo_el + 2 * base + a, gpu_b, 4 * a)
        c.geo_nel[2 * set_id] = n_cpu
        c.geo_nel[2 * set_id + 1] = n_gpu
        c.gen = self.policy.generation

    # -- driving -------------------------------------------------------------------

    def advance(self) -> bool:
        """One ``fl_run`` call; the contract of :func:`_advance_cell`."""
        c, sim, ctrl, pol = self.c, self.sim, self.ctrl, self.policy
        c.until = sim.max_cycles
        c.remaining = sim._remaining
        c.gen = pol.generation
        c.ideal_reconfig = ctrl.ideal_reconfig
        c.ideal_swap = ctrl.ideal_swap
        if ctrl._hit_hook == 1:
            c.swap_on = pol.swap_mode != "off"
            c.m_bw = pol.map.bw
            c.swap_threshold = pol.swap_threshold
        if ctrl._mig_mode == 2:
            ladder, levels = ctrl._prof_ladder, ctrl._prof_levels
            c.p_ladder[0] = ladder[levels["cpu"]]
            c.p_ladder[1] = ladder[levels["gpu"]]
        r = self.lib.fl_run(c)
        if r == 1:
            fn, args = self.calls.pop(c.out_key)
            fn(*args)
            return True
        if r == 2:
            return True
        if r < 0:
            exc, self.exc = self.exc, None
            raise exc if exc is not None else MemoryError(
                "native cell out of memory")
        if r == 3 and sim.max_cycles.__class__ is not float:
            self.now_obj = sim.max_cycles   # ``eq.now = until`` as given
        return False

    def close(self) -> None:
        """Copy the state back into the plain parts and free the cell."""
        c = self.c
        if c is None:
            return
        try:
            for obj, plain in self.switched:
                if obj.__class__ is not plain:  # else interrupted in _switch
                    names = obj._FIELDS
                    values = [getattr(obj, name) for name in names]
                    obj.__class__ = plain
                    for name, value in zip(names, values):
                        setattr(obj, name, value)
                for name in ("_nat", "_run"):
                    if hasattr(obj, name):
                        delattr(obj, name)
                if getattr(obj, "_rows_arr", None) is not None:
                    obj._rows_arr[:] = [-1 if r is None else r
                                        for r in obj._rows]
            self.switched.clear()
            ctrl = self.ctrl
            if self.cnt_dicts is not None:
                for klass, counters in self.cnt_dicts.items():
                    counters.update(ctrl._cnt[klass])
                ctrl._cnt = self.cnt_dicts
                ctrl._cnt_cpu = ctrl._cnt["cpu"]
                ctrl._cnt_gpu = ctrl._cnt["gpu"]
            store = ctrl.store
            if isinstance(store, _StoreView):
                store._cols = _StoreArrays(
                    *(memoryview(bytearray(col)).cast(col.format)
                      for col in store._cols))
        finally:
            self.c = None
            c.py = self.ffi.NULL
            self.lib.fl_free(c)
            self.handle = self.sim = self.draw = None
            self.calls.clear()
            self.rows.clear()
            self.keep.clear()
            self.agents.clear()
            self.chans.clear()


class FastSimulation(Simulation):
    """The optimized engine: a drop-in :class:`Simulation`.

    Built by ``simulate(..., engine="fast")`` (and by the ``"batch"``
    alias).  Produces bit-exact ``Stats``/:class:`SimResult` values
    versus the reference engine for any policy (see the module
    docstring for the guarantee and :mod:`repro.engine.fastpath` for
    its one contract).  Its loop is the native one of ``fusedloop.c``
    when that builds here, else the Python :func:`_advance_cell`.
    """

    _eq_cls = _BatchEventQueue
    _controller_cls = _BatchController

    def __init__(self, cfg, policy, mix, *args, **kw) -> None:
        self._native = _native_for(cfg, mix)
        self._run: _NativeRun | None = None
        super().__init__(cfg, policy, mix, *args, **kw)

    def _make_agent(self, name, trace, mlp, warmup_frac, instr_scale):
        if self._native is not None:
            return _NativeAgent(name, trace, mlp, self.eq, self.ctrl.access,
                                warmup_frac, instr_scale)
        return _BatchAgent(name, trace, mlp, self.eq, self.ctrl,
                           warmup_frac, instr_scale)

    def _drain(self) -> None:
        if self._native is None:
            while _advance_cell(self):
                pass
            return
        run = _NativeRun(self._native, self)     # sets ``self._run``
        while run.advance():
            pass

    def _release(self) -> None:
        run, self._run = self._run, None
        if run is not None:
            run.close()
        super()._release()
