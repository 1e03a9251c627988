/*
 * Native fused event loop of the fast engine.
 *
 * A line-by-line port of the Python fused interpreter of
 * repro/engine/batch.py (_advance_cell with its nested lookup and pump,
 * plus _BatchChannel.submit/_start2 and the controller's _fast_swap,
 * _swap_out and _writeback mechanics).  It runs the same (time, seq)
 * schedule with the same sequence-number consumption, and every float
 * expression keeps the Python loop's operand order: the file is built
 * with -ffp-contract=off and never with -ffast-math, so each double
 * operation rounds exactly like the Python float operation it mirrors.
 *
 * All state of one simulation lives in one fl_cell; the file has no
 * mutable static state.  The loop reaches Python only through the
 * extern "Python" callbacks declared below (policy hooks that are not
 * inline kernels, geometry-row fills, agent completion) and by returning
 * from fl_run at the same boundaries the Python loop returns at.
 *
 * The text between the interface markers doubles as the cffi cdef; keep
 * it to plain declarations.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* interface-begin */
typedef struct {
    double t;
    int64_t seq;
    int64_t addr;        /* LOOKUP: access address; CALL: registry key */
    double t_issue;      /* DONE / LOOKUP: issue time of the access */
    int32_t tag;
    int32_t obj;         /* DONE / WAKE / LOOKUP: agent; RELEASE: channel */
    int32_t write;       /* LOOKUP: the access is a write */
    int32_t pad;
} fl_event;

typedef struct {
    int64_t nbytes;
    int64_t addr;
    double extra;
    double submit;
    int64_t p_addr;      /* completion payload, as in fl_event */
    double t_issue;
    int32_t klass;       /* 0 = cpu, 1 = gpu */
    int32_t is_write;
    int32_t tag;         /* 0: no completion event */
    int32_t obj;
    int32_t p_write;
    int32_t pad;
} fl_req;

typedef struct {
    fl_req *buf;
    int64_t cap;
    int64_t head;
    int64_t len;
} fl_ring;

typedef struct {
    fl_ring q[2];        /* pending requests per class */
    int64_t *rows;       /* open row per bank; FL_ROW_NONE = precharged */
    int64_t nbanks;
    int64_t row_bytes;
    double bpc;
    double t_cas;
    double t_rcd_cas;
    double t_rp;
    double link;
    int64_t bytes_read;
    int64_t bytes_written;
    int64_t accesses;
    int64_t activations;
    int64_t cb[2];       /* bytes per class */
    double queue_wait;
    double busy_cycles;
    double t_free;       /* lazy release: the bus frees at (t_free, s_rel) */
    int64_t s_rel;
    int32_t rel_pushed;
    int32_t rr;          /* round-robin: class to favour next */
    int32_t prio;        /* priority class, -1 = none */
    int32_t pad;
} fl_channel;

typedef struct {
    const int64_t *addrs;
    const uint8_t *writes;
    const float *gaps32;     /* exactly one of gaps32 / gaps64 is set */
    const double *gaps64;
    int64_t n;
    double mlp;
    int64_t idx;
    int64_t inflight;
    int64_t refs_done;
    int64_t measure_target;
    int64_t warmup_refs;
    double stream_t;
    double retired;
    double latency_sum;
    double warm_time;
    double done_time;
    double instr_scale;
    int32_t klass;
    int32_t has_done;        /* done_time is set */
    int32_t wake_pending;
    int32_t pad;
} fl_agent;

typedef struct {
    int64_t nsets, assoc, nfast, nslow, nagents, blk;
    /* event queue */
    fl_event *heap;
    int64_t heap_len, heap_cap;
    double now;
    int64_t seq, cur_seq;
    double until;
    int64_t remaining;
    /* parts: nfast fast channels, then nslow slow channels */
    fl_channel *ch;
    fl_agent *agents;
    /* set-associative store, one slot per (set, way) */
    int64_t *st_tag, *st_hits, *st_gen;
    double *st_stamp;
    uint8_t *st_valid, *st_dirty, *st_klass;
    /* remap-cache LRU: a doubly linked list over set ids */
    int32_t *lru_prev, *lru_next;
    uint8_t *lru_in;
    int32_t lru_head, lru_tail;
    int64_t lru_len, lru_cap, rc_hits, rc_misses;
    /* controller counters, per class in CLASS_KEYS order */
    int64_t cnt[2][10];
    int64_t lazy_inval, swaps;
    /* geometry rows: channel and owner per way, eligible ways per class */
    int32_t *geo_chan;
    uint8_t *geo_owner;
    int32_t *geo_el;         /* [set][class][assoc] */
    int32_t *geo_nel;        /* [set][class] */
    uint8_t *geo_ok;
    int64_t geo_gen, gen;
    /* parameters */
    double base_extra, llc_lat, hc_chain_lat, hc_tag_lat, swap_threshold;
    double p_ladder[2];
    double mig_qlimit;
    int64_t remap_bytes, m_bw;
    int32_t flat, ideal_reconfig, ideal_swap, static_geo, swap_on;
    int32_t alt_mode, probe_mode, mig_mode, chan_changed_call, hit_hook;
    int32_t pick_mode;
    /* callback results and hand-back */
    int64_t out_key, out_iset, out_iway;
    int32_t err;
    int32_t pad;
    void *py;
    int64_t *live;
} fl_cell;

fl_cell *fl_new(int64_t nsets, int64_t assoc, int64_t nfast, int64_t nslow,
                int64_t fast_banks, int64_t slow_banks, int64_t nagents,
                int64_t *live);
void fl_free(fl_cell *c);
int fl_run(fl_cell *c);
void fl_push(fl_cell *c, double t, int64_t seq, int32_t tag, int32_t obj,
             int64_t addr, double t_issue, int32_t write);
void fl_submit(fl_cell *c, int32_t ci, int32_t klass, int64_t nbytes,
               int32_t is_write, int64_t addr, int32_t tag, double extra,
               int32_t obj, int64_t p_addr, double t_issue, int32_t p_write);
void fl_enqueue(fl_cell *c, int32_t ci, int32_t klass, int64_t nbytes,
                int32_t is_write, int64_t addr, int32_t tag, double extra,
                double submit, int32_t obj, int64_t p_addr, double t_issue,
                int32_t p_write);
void fl_drop(fl_cell *c, int32_t ci);
int fl_probe(fl_cell *c, int64_t set_id);
void fl_lru_clear(fl_cell *c);
/* callbacks-begin */
static int64_t fl_cb_done(void *py, int32_t agent);
static int32_t fl_cb_geo(void *py, int64_t set_id);
static int64_t fl_cb_chan(void *py, int64_t set_id, int64_t way);
static int64_t fl_cb_alt(void *py, int64_t set_id, int64_t block);
static double fl_cb_probe(void *py, int32_t klass, int32_t chained);
static int32_t fl_cb_allow(void *py, int32_t klass, int64_t block,
                           int64_t cost, int32_t is_write);
static double fl_cb_random(void *py);
static int32_t fl_cb_changed(void *py, int64_t set_id, int64_t way,
                             int64_t gen);
static int64_t fl_cb_hit(void *py, int64_t set_id, int64_t way,
                         int32_t klass);
static int32_t fl_cb_pick(void *py, int64_t set_id, int64_t block,
                          int32_t klass);
/* interface-end */

enum { TAG_DONE = 1, TAG_RELEASE = 2, TAG_WAKE = 3, TAG_LOOKUP = 4,
       TAG_CALL = 5 };
enum { K_ACCESSES, K_REMAP_FILLS, K_FAST_HITS, K_FAST_MISSES, K_MIGRATIONS,
       K_MIGRATION_TOKENS, K_BYPASSES, K_QUEUE_BYPASSES, K_EVICTIONS,
       K_WRITEBACKS };
enum { OWN_SHARED = 2 };
enum { ERR_NOMEM = 2 };

#define FL_ROW_NONE INT64_MIN
/* fl_run hands control back at least this often (Ctrl-C, job timeouts) */
#define FL_BUDGET 65536

/* Python's floor division and modulo on ints. */
static inline int64_t fl_div(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q -= 1;
    return q;
}

static inline int64_t fl_mod(int64_t a, int64_t b)
{
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0)))
        r += b;
    return r;
}

/* -- event heap ----------------------------------------------------------- */

static inline int ev_less(const fl_event *a, const fl_event *b)
{
    return a->t < b->t || (a->t == b->t && a->seq < b->seq);
}

static void heap_add(fl_cell *c, const fl_event *e)
{
    if (c->heap_len == c->heap_cap) {
        int64_t cap = c->heap_cap ? 2 * c->heap_cap : 256;
        fl_event *h = realloc(c->heap, (size_t)cap * sizeof(fl_event));
        if (!h) {
            c->err = ERR_NOMEM;
            return;
        }
        c->heap = h;
        c->heap_cap = cap;
    }
    fl_event *h = c->heap;
    int64_t i = c->heap_len++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (!ev_less(e, &h[p]))
            break;
        h[i] = h[p];
        i = p;
    }
    h[i] = *e;
}

static void heap_take(fl_cell *c, fl_event *out)
{
    fl_event *h = c->heap;
    *out = h[0];
    int64_t n = --c->heap_len;
    if (n == 0)
        return;
    fl_event last = h[n];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1;
        if (l >= n)
            break;
        int64_t m = (l + 1 < n && ev_less(&h[l + 1], &h[l])) ? l + 1 : l;
        if (!ev_less(&h[m], &last))
            break;
        h[i] = h[m];
        i = m;
    }
    h[i] = last;
}

void fl_push(fl_cell *c, double t, int64_t seq, int32_t tag, int32_t obj,
             int64_t addr, double t_issue, int32_t write)
{
    fl_event e = {t, seq, addr, t_issue, tag, obj, write, 0};
    heap_add(c, &e);
}

/* -- per-class request queues ---------------------------------------------- */

static void ring_add(fl_cell *c, fl_ring *r, const fl_req *q)
{
    if (r->len == r->cap) {
        int64_t cap = r->cap ? 2 * r->cap : 16;
        fl_req *buf = malloc((size_t)cap * sizeof(fl_req));
        if (!buf) {
            c->err = ERR_NOMEM;
            return;
        }
        for (int64_t i = 0; i < r->len; i++)
            buf[i] = r->buf[(r->head + i) % r->cap];
        free(r->buf);
        r->buf = buf;
        r->cap = cap;
        r->head = 0;
    }
    r->buf[(r->head + r->len) % r->cap] = *q;
    r->len++;
}

static inline fl_req ring_take(fl_ring *r)
{
    fl_req q = r->buf[r->head];
    r->head = (r->head + 1) % r->cap;
    r->len--;
    return q;
}

void fl_drop(fl_cell *c, int32_t ci)
{
    for (int k = 0; k < 2; k++) {
        c->ch[ci].q[k].head = 0;
        c->ch[ci].q[k].len = 0;
    }
}

/* -- channels --------------------------------------------------------------- */

/* _BatchChannel._start2 (the reference Channel._start with lazy release). */
static void ch_start(fl_cell *c, fl_channel *ch, const fl_req *q)
{
    double now = c->now;
    int64_t row = fl_div(q->addr, ch->row_bytes);
    int64_t bank = fl_mod(row, ch->nbanks);
    int64_t cur = ch->rows[bank];
    double latency;
    if (cur == row) {
        latency = ch->t_cas;
    } else {
        ch->rows[bank] = row;
        ch->activations += 1;
        latency = ch->t_rcd_cas;
        if (cur != FL_ROW_NONE)
            latency += ch->t_rp;
    }
    double burst = (double)q->nbytes / ch->bpc;
    if (q->is_write)
        ch->bytes_written += q->nbytes;
    else
        ch->bytes_read += q->nbytes;
    ch->accesses += 1;
    ch->queue_wait += now - q->submit;
    ch->cb[q->klass] += q->nbytes;
    ch->busy_cycles += burst;
    int64_t s = c->seq;
    ch->t_free = now + burst;
    ch->s_rel = s;
    ch->rel_pushed = 0;
    if (q->tag) {
        fl_push(c, now + (latency + burst + q->extra + ch->link), s + 1,
                q->tag, q->obj, q->p_addr, q->t_issue, q->p_write);
        c->seq = s + 2;
    } else {
        c->seq = s + 1;
    }
}

/* _BatchChannel.submit: start now if the bus is free, else queue behind a
 * release event materialized at its reserved (t_free, s_rel) key. */
static void ch_submit(fl_cell *c, fl_channel *ch, int32_t klass,
                      int64_t nbytes, int32_t is_write, int64_t addr,
                      int32_t tag, double extra, int32_t obj, int64_t p_addr,
                      double t_issue, int32_t p_write)
{
    double now = c->now;
    fl_req q = {nbytes, addr, extra, now, p_addr, t_issue, klass, is_write,
                tag, obj, p_write, 0};
    if (ch->q[0].len == 0 && ch->q[1].len == 0) {
        double tf = ch->t_free;
        if (now > tf || (now == tf && c->cur_seq > ch->s_rel)) {
            ch_start(c, ch, &q);
            return;
        }
        ring_add(c, &ch->q[klass], &q);
        if (!ch->rel_pushed) {
            fl_push(c, tf, ch->s_rel, TAG_RELEASE, (int32_t)(ch - c->ch), 0,
                    0.0, 0);
            ch->rel_pushed = 1;
        }
        return;
    }
    ring_add(c, &ch->q[klass], &q);
}

void fl_submit(fl_cell *c, int32_t ci, int32_t klass, int64_t nbytes,
               int32_t is_write, int64_t addr, int32_t tag, double extra,
               int32_t obj, int64_t p_addr, double t_issue, int32_t p_write)
{
    ch_submit(c, &c->ch[ci], klass, nbytes, is_write, addr, tag, extra, obj,
              p_addr, t_issue, p_write);
}

void fl_enqueue(fl_cell *c, int32_t ci, int32_t klass, int64_t nbytes,
                int32_t is_write, int64_t addr, int32_t tag, double extra,
                double submit, int32_t obj, int64_t p_addr, double t_issue,
                int32_t p_write)
{
    fl_req q = {nbytes, addr, extra, submit, p_addr, t_issue, klass,
                is_write, tag, obj, p_write, 0};
    ring_add(c, &c->ch[ci].q[klass], &q);
}

/* Channel release (TAG_RELEASE): the reference Channel._release + _start. */
static void ch_release(fl_cell *c, int32_t ci, double time)
{
    fl_channel *ch = &c->ch[ci];
    fl_ring *qc = &ch->q[0], *qg = &ch->q[1];
    fl_ring *src;
    if (ch->prio >= 0) {
        fl_ring *hi = ch->prio == 0 ? qc : qg;
        fl_ring *lo = hi == qc ? qg : qc;
        src = hi->len ? hi : lo;
    } else {
        fl_ring *first = ch->rr == 0 ? qc : qg;
        fl_ring *second = ch->rr == 0 ? qg : qc;
        if (first->len) {
            ch->rr = first == qc ? 1 : 0;
            src = first;
        } else {
            ch->rr = second == qc ? 1 : 0;
            src = second;
        }
    }
    if (src->len == 0) {        /* queues dropped under a pending release */
        ch->rel_pushed = 0;
        return;
    }
    fl_req q = ring_take(src);
    int64_t row = fl_div(q.addr, ch->row_bytes);
    int64_t bank = fl_mod(row, ch->nbanks);
    int64_t cur = ch->rows[bank];
    double latency;
    if (cur == row) {
        latency = ch->t_cas;
    } else {
        ch->rows[bank] = row;
        ch->activations += 1;
        latency = ch->t_rcd_cas;
        if (cur != FL_ROW_NONE)
            latency += ch->t_rp;
    }
    double burst = (double)q.nbytes / ch->bpc;
    if (q.is_write)
        ch->bytes_written += q.nbytes;
    else
        ch->bytes_read += q.nbytes;
    ch->accesses += 1;
    ch->queue_wait += time - q.submit;
    ch->cb[q.klass] += q.nbytes;
    ch->busy_cycles += burst;
    int64_t s = c->seq;
    double tf = time + burst;
    ch->t_free = tf;
    ch->s_rel = s;
    if (q.tag) {
        fl_push(c, time + (latency + burst + q.extra + ch->link), s + 1,
                q.tag, q.obj, q.p_addr, q.t_issue, q.p_write);
        c->seq = s + 2;
    } else {
        c->seq = s + 1;
    }
    if (qc->len || qg->len)
        fl_push(c, tf, s, TAG_RELEASE, ci, 0, 0.0, 0);
    else
        ch->rel_pushed = 0;
}

/* -- remap-cache LRU ------------------------------------------------------------ */

static inline void lru_unlink(fl_cell *c, int32_t s)
{
    int32_t p = c->lru_prev[s], n = c->lru_next[s];
    if (p >= 0)
        c->lru_next[p] = n;
    else
        c->lru_head = n;
    if (n >= 0)
        c->lru_prev[n] = p;
    else
        c->lru_tail = p;
}

static inline void lru_append(fl_cell *c, int32_t s)
{
    c->lru_prev[s] = c->lru_tail;
    c->lru_next[s] = -1;
    if (c->lru_tail >= 0)
        c->lru_next[c->lru_tail] = s;
    else
        c->lru_head = s;
    c->lru_tail = s;
}

/* RemapCache.probe: hit moves the set to the MRU end; a miss inserts it
 * and drops the LRU set beyond capacity. */
int fl_probe(fl_cell *c, int64_t set_id)
{
    int32_t s = (int32_t)set_id;
    if (c->lru_in[s]) {
        if (c->lru_tail != s) {
            lru_unlink(c, s);
            lru_append(c, s);
        }
        c->rc_hits += 1;
        return 1;
    }
    c->rc_misses += 1;
    c->lru_in[s] = 1;
    lru_append(c, s);
    c->lru_len += 1;
    if (c->lru_len > c->lru_cap) {
        int32_t h = c->lru_head;
        lru_unlink(c, h);
        c->lru_in[h] = 0;
        c->lru_len -= 1;
    }
    return 0;
}

void fl_lru_clear(fl_cell *c)
{
    for (int32_t s = c->lru_head; s >= 0; s = c->lru_next[s])
        c->lru_in[s] = 0;
    c->lru_head = c->lru_tail = -1;
    c->lru_len = 0;
}

/* -- geometry and store ---------------------------------------------------- */

/* Base slot of set s's geometry row, filled through the policy if the
 * row is not cached (rows of non-static geometry never are). */
static inline int64_t geo_row(fl_cell *c, int64_t s)
{
    if (!c->geo_ok[s]) {
        if (fl_cb_geo(c->py, s) < 0 || c->err)
            return -1;
        c->geo_ok[s] = (uint8_t)c->static_geo;
    }
    return s * c->assoc;
}

/* policy.way_channel(s, way) % nfast, as _fast_swap/_swap_out read it. */
static inline int64_t way_chan(fl_cell *c, int64_t s, int64_t way)
{
    if (!c->static_geo)
        return fl_cb_chan(c->py, s, way);
    int64_t rb = geo_row(c, s);
    if (rb < 0)
        return -1;
    return c->geo_chan[rb + way];
}

static inline int64_t store_find(const fl_cell *c, int64_t s, int64_t block)
{
    int64_t base = s * c->assoc;
    for (int64_t w = 0; w < c->assoc; w++)
        if (c->st_valid[base + w] && c->st_tag[base + w] == block)
            return w;
    return -1;
}

/* HybridMemoryController._fast_swap. */
static void fast_swap(fl_cell *c, int64_t s, int64_t a, int64_t b,
                      int32_t klass)
{
    int64_t ia = s * c->assoc + a, ib = s * c->assoc + b;
    c->swaps += 1;
#define SWAP(T, arr) do { T t_ = c->arr[ia]; c->arr[ia] = c->arr[ib]; \
                          c->arr[ib] = t_; } while (0)
    SWAP(int64_t, st_tag);
    SWAP(int64_t, st_hits);
    SWAP(int64_t, st_gen);
    SWAP(double, st_stamp);
    SWAP(uint8_t, st_valid);
    SWAP(uint8_t, st_dirty);
    SWAP(uint8_t, st_klass);
#undef SWAP
    if (c->ideal_swap)
        return;
    int64_t ch_a = way_chan(c, s, a);
    if (ch_a < 0 || c->err)
        return;
    int64_t ch_b = way_chan(c, s, b);
    if (ch_b < 0 || c->err)
        return;
    int64_t blk = c->blk, base = s * blk;
    fl_channel *fa = &c->ch[fl_mod(ch_a, c->nfast)];
    fl_channel *fb = &c->ch[fl_mod(ch_b, c->nfast)];
    ch_submit(c, fa, klass, blk, 0, base, 0, 0.0, 0, 0, 0.0, 0);
    ch_submit(c, fb, klass, blk, 0, base, 0, 0.0, 0, 0, 0.0, 0);
    ch_submit(c, fa, klass, blk, 1, base, 0, 0.0, 0, 0, 0.0, 0);
    ch_submit(c, fb, klass, blk, 1, base, 0, 0.0, 0, 0, 0.0, 0);
}

/* Dirty-victim writeback (the controller's _writeback, inlined). */
static inline void writeback(fl_cell *c, int64_t tag, int32_t vklass)
{
    c->cnt[vklass][K_WRITEBACKS] += 1;
    ch_submit(c, &c->ch[c->nfast + fl_mod(tag, c->nslow)], vklass, c->blk, 1,
              tag * c->blk, 0, 0.0, 0, 0, 0.0, 0);
}

/* -- the access path ---------------------------------------------------------- */

/* _advance_cell.lookup: remap entry in hand, steer to a fast hit or a
 * slow miss with optional migration. */
static void lookup(fl_cell *c, int32_t klass, int64_t addr, int64_t block,
                   int64_t set_id, int32_t is_write, int32_t agent,
                   double t_issue, double extra)
{
    const int64_t A = c->assoc;
    int64_t way = store_find(c, set_id, block);
    int chained = 0;
    int64_t alt = -1;
    if (way < 0 && c->alt_mode) {
        if (c->alt_mode == 2) {
            /* splitmix64(block * 2 + 1) % nsets */
            uint64_t x = (uint64_t)block * 2u + 1u + 0x9E3779B97F4A7C15ull;
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
            x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
            x = x ^ (x >> 31);
            alt = (int64_t)(x % (uint64_t)c->nsets);
            if (alt == set_id)
                alt = -1;
        } else {
            alt = fl_cb_alt(c->py, set_id, block);
            if (c->err)
                return;
        }
        if (alt >= 0) {
            int64_t away = store_find(c, alt, block);
            if (away >= 0) {
                set_id = alt;
                way = away;
                chained = 1;
            }
        }
    }
    if (c->probe_mode) {
        if (c->probe_mode == 2) {
            if (chained)
                extra += c->hc_chain_lat;
        } else if (c->probe_mode == 4) {
            extra += c->hc_tag_lat;
        } else {
            extra += fl_cb_probe(c->py, klass, chained);
            if (c->err)
                return;
        }
    }

    int64_t gen = c->gen;
    if (c->geo_gen != gen) {
        memset(c->geo_ok, 0, (size_t)c->nsets);
        c->geo_gen = gen;
    }
    int64_t rb = geo_row(c, set_id);
    if (rb < 0)
        return;
    const int32_t *chans = &c->geo_chan[rb];
    int64_t *cnt = c->cnt[klass];

    if (way >= 0) {
        /* -- fast-tier hit -- */
        int64_t e = rb + way;
        cnt[K_FAST_HITS] += 1;
        int misplaced = 0;
        if (!c->ideal_reconfig) {
            int owner = c->geo_owner[rb + way];
            if (owner != OWN_SHARED && owner != c->st_klass[e]) {
                misplaced = 1;
            } else if (c->st_gen[e] != gen) {
                int changed = 0;
                if (c->chan_changed_call) {
                    changed = fl_cb_changed(c->py, set_id, way, c->st_gen[e]);
                    if (c->err)
                        return;
                }
                if (changed)
                    misplaced = 1;
                else
                    c->st_gen[e] = gen;
            }
        } else {
            c->st_gen[e] = gen;
        }
        ch_submit(c, &c->ch[chans[way]], klass, 64, is_write, addr, TAG_DONE,
                  extra, agent, 0, t_issue, 0);
        if (misplaced) {
            c->lazy_inval += 1;
            if (is_write)
                c->st_dirty[e] = 1;
            c->st_valid[e] = 0;
            if (c->st_dirty[e])
                writeback(c, c->st_tag[e], c->st_klass[e]);
            return;
        }
        c->st_stamp[e] = c->now;
        c->st_hits[e] += 1;
        if (is_write)
            c->st_dirty[e] = 1;
        if (c->hit_hook) {
            int ask = 1;
            if (c->hit_hook == 1)
                ask = klass == 0 && c->swap_on && c->st_klass[e] == 0
                      && c->m_bw != 0 && chans[way] >= c->m_bw
                      && (double)c->st_hits[e] >= c->swap_threshold;
            if (ask) {
                int64_t swap_way = fl_cb_hit(c->py, set_id, way, klass);
                if (c->err)
                    return;
                if (swap_way >= 0 && swap_way != way)
                    fast_swap(c, set_id, way, swap_way, klass);
            }
        }
        return;
    }

    /* -- fast-tier miss -- */
    cnt[K_FAST_MISSES] += 1;
    fl_channel *slow = &c->ch[c->nfast + fl_mod(block, c->nslow)];
    int64_t q = slow->q[0].len + slow->q[1].len;
    if (q) {
        q += 1;
    } else {
        double now = c->now, tf = slow->t_free;
        q = (now < tf || (now == tf && c->cur_seq < slow->s_rel)) ? 1 : 0;
    }
    int has_ins = 0;
    int64_t iset = set_id, iway = -1;
    if ((double)q >= c->mig_qlimit) {
        cnt[K_QUEUE_BYPASSES] += 1;
    } else if (c->pick_mode == 0) {
        has_ins = fl_cb_pick(c->py, set_id, block, klass);
        if (c->err)
            return;
        iset = c->out_iset;
        iway = c->out_iway;
    } else if (c->pick_mode == 3) {
        iway = 0;
        if (!c->st_valid[set_id * A])
            iset = set_id;
        else if (alt >= 0 && !c->st_valid[alt * A])
            iset = alt;
        else
            iset = set_id;
        has_ins = 1;
    } else {
        const int32_t *cands = &c->geo_el[(set_id * 2 + (klass != 0)) * A];
        int64_t ncand = c->geo_nel[set_id * 2 + (klass != 0)];
        const int64_t sb = set_id * A;
        for (int64_t k = 0; k < ncand; k++) {
            if (!c->st_valid[sb + cands[k]]) {
                iway = cands[k];
                break;
            }
        }
        if (iway < 0 && ncand) {
            if (c->pick_mode == 1) {            /* LRU */
                int have = 0;
                double best = 0.0;
                for (int64_t k = 0; k < ncand; k++) {
                    int64_t w = sb + cands[k];
                    if (c->st_valid[w] && (!have || c->st_stamp[w] < best)) {
                        iway = cands[k];
                        best = c->st_stamp[w];
                        have = 1;
                    }
                }
            } else {                            /* ProFess fewest-hits */
                int have = 0;
                int64_t best_hits = 0;
                double best_stamp = 0.0;
                for (int64_t k = 0; k < ncand; k++) {
                    int64_t w = sb + cands[k];
                    if (!c->st_valid[w])
                        continue;
                    if (!have || c->st_hits[w] < best_hits
                        || (c->st_hits[w] == best_hits
                            && c->st_stamp[w] < best_stamp)) {
                        iway = cands[k];
                        best_hits = c->st_hits[w];
                        best_stamp = c->st_stamp[w];
                        have = 1;
                    }
                }
            }
        }
        has_ins = iway >= 0;
    }

    int migrate = 0;
    int64_t cost = 0;
    if (has_ins) {
        int64_t v = iset * A + iway;
        cost = (c->flat || (c->st_valid[v] && c->st_dirty[v])) ? 2 : 1;
        switch (c->mig_mode) {
        case 0:
            migrate = 1;
            break;
        case 4:
            migrate = klass != 1 ? 1
                      : fl_cb_allow(c->py, klass, block, cost, is_write);
            break;
        case 3:
            migrate = !(is_write && klass == 1);
            break;
        case 2:
            migrate = fl_cb_random(c->py) < c->p_ladder[klass];
            break;
        default:
            migrate = fl_cb_allow(c->py, klass, block, cost, is_write);
        }
        if (c->err)
            return;
    }

    int32_t dw = is_write && !migrate;
    ch_submit(c, slow, klass, 64, dw, addr, TAG_DONE, extra, agent, 0,
              t_issue, 0);
    if (!migrate) {
        cnt[K_BYPASSES] += 1;
        return;
    }

    cnt[K_MIGRATIONS] += 1;
    cnt[K_MIGRATION_TOKENS] += cost;
    int64_t v = iset * A + iway;
    if (c->st_valid[v]) {
        int64_t vtag = c->st_tag[v];
        int32_t vklass = c->st_klass[v];
        c->st_valid[v] = 0;
        if (c->flat) {
            /* _swap_out: read from fast, write to slow */
            int64_t vaddr = vtag * c->blk;
            int64_t fch = way_chan(c, iset, iway);
            if (fch < 0 || c->err)
                return;
            ch_submit(c, &c->ch[fl_mod(fch, c->nfast)], klass, c->blk, 0,
                      vaddr, 0, 0.0, 0, 0, 0.0, 0);
            ch_submit(c, &c->ch[c->nfast + fl_mod(vtag, c->nslow)], klass,
                      c->blk, 1, vaddr, 0, 0.0, 0, 0, 0.0, 0);
            cnt[K_WRITEBACKS] += 1;
        } else if (c->st_dirty[v]) {
            writeback(c, vtag, vklass);
        }
        cnt[K_EVICTIONS] += 1;
    }

    c->st_tag[v] = block;
    c->st_dirty[v] = (uint8_t)(is_write != 0);
    c->st_klass[v] = (uint8_t)klass;
    c->st_stamp[v] = c->now;
    c->st_hits[v] = 0;
    c->st_gen[v] = gen;
    c->st_valid[v] = 1;
    if (c->blk > 64)
        ch_submit(c, slow, klass, c->blk - 64, 0, addr, 0, 0.0, 0, 0, 0.0, 0);
    int64_t fch;
    if (iset == set_id) {
        fch = chans[iway];
    } else {
        int64_t ab = geo_row(c, iset);
        if (ab < 0)
            return;
        fch = c->geo_chan[ab + iway];
    }
    ch_submit(c, &c->ch[fch], klass, c->blk, 1, block * c->blk, 0, 0.0, 0, 0,
              0.0, 0);
    ch_submit(c, &c->ch[fl_mod(iset, c->nfast)], klass, 64, 1, iset * 64, 0,
              0.0, 0, 0, 0.0, 0);
}

/* One issued access: remap-cache probe, then the lookup or a remap fill
 * whose completion continues it (TAG_LOOKUP). */
static inline void issue(fl_cell *c, const fl_agent *a, int32_t ai,
                         int64_t i, double now)
{
    int32_t klass = a->klass;
    int64_t addr = a->addrs[i];
    int64_t block = fl_div(addr, c->blk);
    int64_t set_id = fl_mod(block, c->nsets);
    int32_t w = a->writes[i] != 0;
    c->cnt[klass][K_ACCESSES] += 1;
    if (fl_probe(c, set_id)) {
        lookup(c, klass, addr, block, set_id, w, ai, now, c->base_extra);
        return;
    }
    c->cnt[klass][K_REMAP_FILLS] += 1;
    ch_submit(c, &c->ch[fl_mod(set_id, c->nfast)], klass, c->remap_bytes, 0,
              set_id * 64, TAG_LOOKUP, 0.0, ai, addr, now, w);
}

static inline double gap_at(const fl_agent *a, int64_t i)
{
    return a->gaps32 ? (double)a->gaps32[i] : a->gaps64[i];
}

/* _advance_cell.pump: issue while the window has room and the stream's
 * next reference is due; otherwise arm one wakeup. */
static void pump(fl_cell *c, int32_t ai)
{
    fl_agent *a = &c->agents[ai];
    int64_t inflight = a->inflight;
    double mlp = a->mlp;
    if (inflight >= mlp)
        return;
    int64_t n = a->n, idx = a->idx;
    double scale = a->instr_scale, stream_t = a->stream_t;
    double retired = a->retired, now = c->now;
    for (;;) {
        int64_t i = fl_mod(idx, n);
        double gap = gap_at(a, i);
        double t = stream_t + gap;
        if (t > now) {
            if (!a->wake_pending) {
                a->wake_pending = 1;
                int64_t s = c->seq;
                fl_push(c, t, s, TAG_WAKE, ai, 0, 0.0, 0);
                c->seq = s + 1;
            }
            break;
        }
        stream_t = now;
        idx += 1;
        inflight += 1;
        retired += (gap + 1.0) * scale;
        issue(c, a, ai, i, now);
        if (c->err)
            return;
        if (inflight >= mlp)
            break;
    }
    a->idx = idx;
    a->stream_t = stream_t;
    a->inflight = inflight;
    a->retired = retired;
}

/* -- the event loop --------------------------------------------------------- */

/* Run until a generic event pops (returns 1, its key in out_key), the
 * cell finishes (0), FL_BUDGET events pass (2), the next event lies past
 * `until` (3), or a callback raised or memory ran out (-1, err set). */
int fl_run(fl_cell *c)
{
    int64_t budget = FL_BUDGET;
    while (c->heap_len) {
        if (c->heap[0].t > c->until) {
            c->now = c->until;
            return 3;
        }
        fl_event e;
        heap_take(c, &e);
        double time = e.t;
        c->now = time;
        c->cur_seq = e.seq;
        switch (e.tag) {
        case TAG_DONE: {
            fl_agent *a = &c->agents[e.obj];
            int64_t inflight = a->inflight - 1;
            int64_t rd = a->refs_done + 1;
            a->refs_done = rd;
            a->latency_sum += time - e.t_issue;
            if (rd == a->warmup_refs)
                a->warm_time = time;
            if (!a->has_done && rd >= a->measure_target) {
                a->done_time = time;
                a->has_done = 1;
                c->remaining = fl_cb_done(c->py, e.obj);
                if (c->err)
                    return -1;
            }
            if (inflight + 1 == a->mlp) {
                /* The window was full: at most one reference can issue. */
                int64_t idx = a->idx;
                int64_t i = fl_mod(idx, a->n);
                double gap = gap_at(a, i);
                double t = a->stream_t + gap;
                if (t > time) {
                    a->inflight = inflight;
                    if (!a->wake_pending) {
                        a->wake_pending = 1;
                        int64_t s = c->seq;
                        fl_push(c, t, s, TAG_WAKE, e.obj, 0, 0.0, 0);
                        c->seq = s + 1;
                    }
                } else {
                    a->stream_t = time;
                    a->idx = idx + 1;
                    a->inflight = inflight + 1;
                    a->retired += (gap + 1.0) * a->instr_scale;
                    issue(c, a, e.obj, i, time);
                }
            } else {
                a->inflight = inflight;
                pump(c, e.obj);
            }
            if (c->err)
                return -1;
            if (c->remaining == 0)
                return 0;
            break;
        }
        case TAG_RELEASE:
            ch_release(c, e.obj, time);
            break;
        case TAG_WAKE:
            c->agents[e.obj].wake_pending = 0;
            pump(c, e.obj);
            break;
        case TAG_LOOKUP: {
            const fl_agent *a = &c->agents[e.obj];
            int64_t block = fl_div(e.addr, c->blk);
            lookup(c, a->klass, e.addr, block, fl_mod(block, c->nsets),
                   e.write, e.obj, e.t_issue, c->llc_lat);
            break;
        }
        default:                    /* TAG_CALL: a policy-visible boundary */
            c->out_key = e.addr;
            return 1;
        }
        if (c->err)
            return -1;
        if (--budget == 0)
            return 2;
    }
    return 0;
}

/* -- lifetime --------------------------------------------------------------- */

void fl_free(fl_cell *c)
{
    if (!c)
        return;
    if (c->ch) {
        for (int64_t i = 0; i < c->nfast + c->nslow; i++) {
            free(c->ch[i].q[0].buf);
            free(c->ch[i].q[1].buf);
            free(c->ch[i].rows);
        }
    }
    free(c->ch);
    free(c->agents);
    free(c->heap);
    free(c->st_tag);
    free(c->st_hits);
    free(c->st_gen);
    free(c->st_stamp);
    free(c->st_valid);
    free(c->st_dirty);
    free(c->st_klass);
    free(c->lru_prev);
    free(c->lru_next);
    free(c->lru_in);
    free(c->geo_chan);
    free(c->geo_owner);
    free(c->geo_el);
    free(c->geo_nel);
    free(c->geo_ok);
    if (c->live)
        __atomic_fetch_sub(c->live, 1, __ATOMIC_SEQ_CST);
    free(c);
}

fl_cell *fl_new(int64_t nsets, int64_t assoc, int64_t nfast, int64_t nslow,
                int64_t fast_banks, int64_t slow_banks, int64_t nagents,
                int64_t *live)
{
    fl_cell *c = calloc(1, sizeof(fl_cell));
    if (!c)
        return NULL;
    size_t ways = (size_t)(nsets * assoc), sets = (size_t)nsets;
    c->nsets = nsets;
    c->assoc = assoc;
    c->nfast = nfast;
    c->nslow = nslow;
    c->nagents = nagents;
    c->ch = calloc((size_t)(nfast + nslow), sizeof(fl_channel));
    c->agents = calloc((size_t)(nagents ? nagents : 1), sizeof(fl_agent));
    c->st_tag = calloc(ways, sizeof(int64_t));
    c->st_hits = calloc(ways, sizeof(int64_t));
    c->st_gen = calloc(ways, sizeof(int64_t));
    c->st_stamp = calloc(ways, sizeof(double));
    c->st_valid = calloc(ways, 1);
    c->st_dirty = calloc(ways, 1);
    c->st_klass = calloc(ways, 1);
    c->lru_prev = malloc(sets * sizeof(int32_t));
    c->lru_next = malloc(sets * sizeof(int32_t));
    c->lru_in = calloc(sets, 1);
    c->geo_chan = calloc(ways, sizeof(int32_t));
    c->geo_owner = calloc(ways, 1);
    c->geo_el = calloc(2 * ways, sizeof(int32_t));
    c->geo_nel = calloc(2 * sets, sizeof(int32_t));
    c->geo_ok = calloc(sets, 1);
    int ok = c->ch && c->agents && c->st_tag && c->st_hits && c->st_gen
             && c->st_stamp && c->st_valid && c->st_dirty && c->st_klass
             && c->lru_prev && c->lru_next && c->lru_in && c->geo_chan
             && c->geo_owner && c->geo_el && c->geo_nel && c->geo_ok;
    for (int64_t i = 0; ok && i < nfast + nslow; i++) {
        int64_t banks = i < nfast ? fast_banks : slow_banks;
        c->ch[i].nbanks = banks;
        c->ch[i].rows = malloc((size_t)banks * sizeof(int64_t));
        ok = c->ch[i].rows != NULL;
        for (int64_t b = 0; ok && b < banks; b++)
            c->ch[i].rows[b] = FL_ROW_NONE;
        c->ch[i].prio = -1;
    }
    if (!ok) {
        fl_free(c);
        return NULL;
    }
    c->lru_head = c->lru_tail = -1;
    c->live = live;
    if (live)
        __atomic_fetch_add(live, 1, __ATOMIC_SEQ_CST);
    return c;
}
