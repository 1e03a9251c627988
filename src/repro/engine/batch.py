"""The optimized simulation engine (bit-exact with the reference).

``simulate(..., engine="fast")`` runs :class:`FastSimulation`: the
state-bearing parts of :mod:`repro.engine.fastpath` (SoA trace columns,
lazy channel releases, hash-consed geometry, specialization flags)
driven by one fused interpreter instead of the reference's per-event
trampoline and stack of method frames.  ``engine="batch"`` is a
one-release alias of ``"fast"`` and builds the same class.

* **Tagged heap events** — agent completions, channel releases, agent
  wakeups and remap-fill continuations are pushed as
  ``(time, seq, int_tag, payload)`` tuples instead of
  ``(time, seq, fn, args)``.  Sequence numbers are globally unique, so
  tuple comparison never reaches the third element and the two shapes
  coexist in one heap; every tagged event occupies exactly the ``(time,
  seq)`` key its reference counterpart would, so the schedule is
  identical.
* **A fused interpreter** (:func:`_advance_cell`) — one ``while`` loop
  pops events and runs the whole per-access chain as straight-line code
  with the cell's hot state (store index, geometry rows, remap LRU,
  channel lists, specialization flags) held in locals.  The only events
  still carried as generic callables are the policy-visible boundaries
  (epoch / faucet / phase ticks, or anything a policy scheduled); the
  interpreter runs each with the reference call pattern and returns to
  :meth:`FastSimulation._drain`, which re-enters it with freshly loaded
  state.
* **Optional compiled channel kernel** — when numba is importable the
  channel-queueing inner loop's bank service runs through the
  ``@njit``-compiled kernel of :mod:`repro.engine._kernels` over a flat
  ``int64`` open-row array; otherwise the pure-Python open-row list
  arithmetic is inlined.  Selected once at import, never required.

**Exactness guarantee:** every seq consumption (agent wakeups, channel
release reservations, completions) follows the reference pattern, float
expressions keep the reference's operand order, and a policy hook runs
inline only as a kernel its policy declares (the specialization flags of
:class:`~repro.engine.fastpath.FastHybridController`); every other hook
is delegated with the reference call pattern.  ``test_fastpath_equiv.py``
asserts full :class:`SimResult` equality against the reference loop for
every design family; ``test_golden.py`` pins the reference's outputs.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any

import numpy as np

from repro.engine import _kernels
from repro.engine.fastpath import (FastAgent, FastChannel, FastEventQueue,
                                   FastHybridController)
from repro.engine.simulator import Simulation
from repro.mem.device import MemoryDevice

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

    __slots__ = ("_rows_arr",)

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


class FastSimulation(Simulation):
    """The optimized engine: a drop-in :class:`Simulation`.

    Built by ``simulate(..., engine="fast")`` (and by the ``"batch"``
    alias).  Produces bit-exact ``Stats``/:class:`SimResult` values
    versus the reference engine for any policy (see the module
    docstring for the guarantee and :mod:`repro.engine.fastpath` for
    its one contract).
    """

    _eq_cls = FastEventQueue
    _controller_cls = _BatchController

    def _make_agent(self, name, trace, mlp, warmup_frac, instr_scale):
        return _BatchAgent(name, trace, mlp, self.eq, self.ctrl,
                           warmup_frac, instr_scale)

    def _drain(self) -> None:
        while _advance_cell(self):
            pass
