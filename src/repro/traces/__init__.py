"""Synthetic workload substrate: SPEC/Rodinia/BERT-like trace generators,
the mix builder (Table II, LLM and custom specs) and persistence."""

from repro.traces.base import (Trace, TraceColumns, TraceSpec, characterize,
                               generate_trace)
from repro.traces.llm import (LLM_MIX_NAMES, LLM_MIXES, LLM_SPECS, LLMSpec,
                              build_llm_mix, generate_kvcache_trace,
                              llm_spec)
from repro.traces.mixes import ALL_MIXES, MIXES, WorkloadMix, build_mix

__all__ = ["Trace", "TraceColumns", "TraceSpec", "characterize",
           "generate_trace", "ALL_MIXES", "MIXES", "WorkloadMix",
           "build_mix", "LLMSpec", "LLM_SPECS", "LLM_MIXES",
           "LLM_MIX_NAMES", "llm_spec", "build_llm_mix",
           "generate_kvcache_trace"]
