"""LLM inference (decode-phase KV-cache) workload family.

Transformer serving is the production face of Hydrogen's problem: during
autoregressive decode every generated token reads the attention keys and
values of previous tokens across every layer, and that KV cache must be
split between scarce fast memory and a capacity tier while a host CPU
agent contends for the same channels (cf. the Grace-Hopper system-memory
study in PAPERS.md).  This module generates that reference stream as a
standard :class:`~repro.traces.base.Trace`, so the reference and fast
engines replay it unmodified.

The generator models, deterministically from the seed:

* **prefill burst** — the prompt's KV entries are written once per layer
  in a token-major streaming burst, one request after another;
* **decode steady state** — per generated token and per layer, reads of
  an *attention window* of recent tokens plus always-hot *attention
  sink* tokens, a few long-range probes over the whole history, then
  one KV append write;
* **sequence-length growth** — the window's position (and the append)
  advance one token per decode step, so the footprint grows and the
  "old" tokens cool down exactly as in a serving system;
* **per-layer reuse** — the same token schedule repeats across
  ``n_layers`` disjoint layer regions each step;
* **batch interleaving** — concurrent requests take turns within each
  decode step, round-robin, each owning a disjoint KV region.

Address map (the contract the layer-aware policies in
:mod:`repro.hybrid.policies.llm` decode): one token's per-layer KV entry
is ``token_bytes`` (default 256 B — exactly one migration block, so
Hydrogen's migration-token throttling literally meters tokens), layers
are laid out back-to-back inside a request, requests back-to-back inside
the GPU region, and :func:`~repro.traces.mixes.build_mix` aligns the
region base to the request stride, so
``layer = addr // layer_bytes % n_layers`` and
``token = addr // token_bytes % capacity_tokens`` hold globally.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.config import CACHELINE
from repro.traces.base import Trace


@dataclass(frozen=True)
class LLMSpec:
    """Model/serving shape of one KV-cache inference stream.

    Geometry knobs (``n_layers``, ``capacity_tokens``, ``token_bytes``)
    fix the address map; serving knobs (``prompt_tokens``, ``window``,
    ``sink_tokens``, ``batch``, ``probe_frac``, ``stagger``) fix the
    access schedule.  ``gap_mean`` is the mean compute gap per
    reference, matching the GPU specs in :mod:`repro.traces.gpu`.
    """

    name: str
    #: Transformer layers; each owns a disjoint KV slab per request.
    n_layers: int = 8
    #: KV slots per layer per request (the context budget).
    capacity_tokens: int = 1024
    #: Bytes of one token's per-layer KV entry (= one migration block).
    token_bytes: int = 256
    #: Prompt length consumed by the prefill burst.
    prompt_tokens: int = 192
    #: Recent tokens re-read per (step, layer) — the attention window.
    window: int = 48
    #: Always-read earliest tokens (attention sinks).
    sink_tokens: int = 4
    #: Concurrent requests, interleaved round-robin per decode step.
    batch: int = 2
    #: Fraction of window reads replaced by uniform long-range probes.
    probe_frac: float = 0.06
    #: Mean compute cycles between references (GPU-like, sub-cycle).
    gap_mean: float = 0.5
    #: Per-request prompt-length stagger (request r adds r*stagger).
    stagger: int = 32

    @property
    def layer_bytes(self) -> int:
        """Bytes of one layer's KV slab for one request."""
        return self.capacity_tokens * self.token_bytes

    @property
    def request_bytes(self) -> int:
        """Bytes of one request's full KV region (all layers)."""
        return self.n_layers * self.layer_bytes

    @property
    def footprint(self) -> int:
        """Total KV bytes across the batch (the trace footprint)."""
        return self.batch * self.request_bytes

    def prompt_of(self, request: int) -> int:
        """Staggered prompt length of one request (capped to capacity)."""
        return min(self.capacity_tokens - 1,
                   self.prompt_tokens + request * self.stagger)

    def scaled(self, factor: float) -> "LLMSpec":
        """Scale the per-layer context budget (capacity-pressure knob).

        Mirrors :meth:`~repro.traces.base.TraceSpec.scaled`: the mix
        builder applies ``footprint_scale`` through this.  Prompt and
        window shrink along so the schedule stays inside the budget.
        """
        cap = max(64, int(self.capacity_tokens * factor))
        return replace(self, capacity_tokens=cap,
                       prompt_tokens=min(self.prompt_tokens, cap // 2),
                       window=min(self.window, cap // 4))


#: Serving-shape catalog (the GPU side of the LLM mixes below).
LLM_SPECS: dict[str, LLMSpec] = {
    # Balanced decode steady state: window + sinks re-read every step.
    "decode": LLMSpec("decode"),
    # Prompt-dominated: a long streaming prefill burst, short decode.
    "prefill": LLMSpec("prefill", prompt_tokens=768, window=32, stagger=64),
    # Throughput serving: four interleaved requests, tighter windows.
    "batch4": LLMSpec("batch4", batch=4, prompt_tokens=128, window=32),
    # Long context: per-request KV spans the whole fast tier by itself.
    "longctx": LLMSpec("longctx", capacity_tokens=2048, prompt_tokens=384,
                       window=96, probe_frac=0.10),
}


def llm_spec(name: str) -> LLMSpec:
    try:
        return LLM_SPECS[name]
    except KeyError:
        raise KeyError(f"unknown LLM workload {name!r}; "
                       f"known: {sorted(LLM_SPECS)}") from None


def _prefill_phase(spec: LLMSpec) -> tuple[np.ndarray, np.ndarray]:
    """(relative addresses, write flags) of the prefill burst.

    Requests prefill one after another (admission order); within a
    request the burst is token-major with layers inner — the streaming
    KV-write order of a forward pass over the prompt.
    """
    chunks = []
    for r in range(spec.batch):
        n_tok = spec.prompt_of(r)
        tok = np.repeat(np.arange(n_tok, dtype=np.int64), spec.n_layers)
        lay = np.tile(np.arange(spec.n_layers, dtype=np.int64), n_tok)
        chunks.append(r * spec.request_bytes + lay * spec.layer_bytes
                      + tok * spec.token_bytes)
    addrs = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    return addrs, np.ones(len(addrs), dtype=bool)


def _decode_phase(spec: LLMSpec, n_steps: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(relative addresses, write flags) of ``n_steps`` decode steps.

    Fully vectorized over (step, request, layer, slot): each slot is a
    sink read, a window read (possibly replaced by a long-range probe),
    or the final KV append write.  Sequences wrap modulo the capacity
    once they outgrow it (ring buffer, like a sliding-window cache).
    """
    per_rl = spec.sink_tokens + spec.window + 1  # slots per (req, layer)
    n = n_steps * spec.batch * spec.n_layers * per_rl
    step = np.repeat(np.arange(n_steps, dtype=np.int64),
                     spec.batch * spec.n_layers * per_rl)
    req = np.tile(np.repeat(np.arange(spec.batch, dtype=np.int64),
                            spec.n_layers * per_rl), n_steps)
    lay = np.tile(np.repeat(np.arange(spec.n_layers, dtype=np.int64),
                            per_rl), n_steps * spec.batch)
    slot = np.tile(np.arange(per_rl, dtype=np.int64),
                   n_steps * spec.batch * spec.n_layers)

    prompts = np.array([spec.prompt_of(r) for r in range(spec.batch)],
                       dtype=np.int64)
    seq_len = prompts[req] + step  # tokens written before this step
    cap = spec.capacity_tokens

    is_sink = slot < spec.sink_tokens
    is_append = slot == per_rl - 1
    w = slot - spec.sink_tokens  # window offset, recent-first
    raw = seq_len - 1 - w
    tok = np.where(raw < 0, 0, raw % cap)  # early steps re-read token 0
    tok = np.where(is_sink, slot, tok)
    tok = np.where(is_append, seq_len % cap, tok)

    # Long-range probes: a seeded subset of window reads lands uniformly
    # over the live history instead (full-context attention heads).
    live = np.minimum(seq_len, cap)
    probe = ((~is_sink) & (~is_append)
             & (rng.random(n) < spec.probe_frac))
    hist = rng.integers(0, 1 << 62, size=n) % np.maximum(1, live)
    tok = np.where(probe, hist, tok)

    writes = is_append
    # Reads touch one 64 B slice of the 256 B entry, rotating across the
    # step/layer so every line of a hot token stays warm; appends write
    # the entry head.
    lines = max(1, spec.token_bytes // CACHELINE)
    off = np.where(writes, 0, (tok + lay + step) % lines * CACHELINE)
    addrs = (req * spec.request_bytes + lay * spec.layer_bytes
             + tok * spec.token_bytes + off)
    return addrs, writes


def generate_kvcache_trace(spec: LLMSpec, n_refs: int, seed: int,
                           base: int = 0) -> Trace:
    """Generate ``n_refs`` KV-cache references for ``spec`` at ``base``.

    Deterministic in ``(spec, n_refs, seed, base)``; the decode phase is
    sized to exactly cover whatever ``n_refs`` the prefill burst leaves,
    then the whole stream is truncated to ``n_refs``.
    """
    if n_refs <= 0:
        raise ValueError("n_refs must be positive")
    rng = np.random.default_rng(seed)
    pre_addrs, pre_writes = _prefill_phase(spec)
    remaining = n_refs - len(pre_addrs)
    per_step = spec.batch * spec.n_layers * (spec.sink_tokens
                                             + spec.window + 1)
    n_steps = max(1, -(-max(0, remaining) // per_step))
    dec_addrs, dec_writes = _decode_phase(spec, n_steps, rng)
    addrs = np.concatenate([pre_addrs, dec_addrs])[:n_refs] + base
    writes = np.concatenate([pre_writes, dec_writes])[:n_refs]
    gaps = rng.poisson(spec.gap_mean, size=n_refs).astype(np.float32)
    return Trace(spec.name, "gpu", addrs, writes, gaps, spec.footprint, base)


#: LLM mixes: host CPU workloads (Table II names, rate mode) co-running
#: with one KV-cache inference stream.  The hosts are the temporally-hot
#: SPEC models whose working sets fight the KV window for fast capacity.
LLM_MIXES: dict[str, tuple[tuple[str, str, str, str], str]] = {
    "kvcache": (("gcc", "xz", "mcf", "omnetpp"), "decode"),
    "kvcache-prefill": (("gcc", "xz", "mcf", "omnetpp"), "prefill"),
    "kvcache-batch": (("lbm", "gcc", "omnetpp", "xz"), "batch4"),
    "kvcache-long": (("mcf", "omnetpp", "gcc", "deepsjeng"), "longctx"),
}

LLM_MIX_NAMES = tuple(LLM_MIXES)


def build_llm_mix(name: str, **kw):
    """Generate all traces for LLM mix ``name``.

    :func:`repro.traces.mixes.build_mix` (same knobs, same region
    layout, same seed-stream discipline) restricted to this family's
    names; ``build_mix`` takes them too, so the api/CLI/sweep machinery
    needs no entry point of its own.
    """
    if name not in LLM_MIXES:
        raise KeyError(f"unknown LLM mix {name!r}; known: {LLM_MIX_NAMES}")
    from repro.traces.mixes import build_mix
    return build_mix(name, **kw)
