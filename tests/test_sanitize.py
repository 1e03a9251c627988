"""Tests for repro.sanitize — the engine divergence sanitizer.

Three guarantees: recording is observational (bit-identical results on
and off), the fast engine records zero divergences from the
reference, and an artificially perturbed run is localized to the exact
(boundary, component) where the perturbation happened.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.api import coerce_mix
from repro.cli import main
from repro.engine.simulator import Simulation
from repro.experiments.runner import run_design
from repro.sanitize import (NULL_SANITIZER, BoundaryRecord, DivergenceError,
                            NullSanitizer, StateRecorder, first_divergence,
                            sanitize_compare)

SCALE = 0.02


#: Designs replayed by the zero-divergence check: the paper's mechanism
#: and a static way-partitioning baseline.
DESIGNS = ("hydrogen", "waypart")


def _records(engine: str, recorder: StateRecorder,
             mix: str = "C1", design: str = "hydrogen") -> StateRecorder:
    built = coerce_mix(mix, SCALE, 7)
    run_design(design, built, None, native_geometry=True, engine=engine,
               sanitize=recorder)
    return recorder


def test_fast_and_batch_record_zero_divergences(capsys):
    for design in DESIGNS:
        reports = sanitize_compare(mix="C1", design=design,
                                   engines=("fast",), scale=SCALE)
        assert [r.engine for r in reports] == ["fast"]
        for r in reports:
            assert r.ok, r.divergence.format()
            assert r.boundaries > 0
            assert r.mix == "C1" and r.design == design
    # The same matrix through the `repro sanitize` CLI: "batch" is an
    # alias of "fast", so the pair replays the fast engine once.
    code = main(["sanitize", "--mix", "C1", "--designs", ",".join(DESIGNS),
                 "--engines", "fast,batch", "--scale", str(SCALE)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.count("0 divergences") == len(DESIGNS), out


class _PerturbingRecorder(StateRecorder):
    """Mutates one piece of engine state just before one boundary digest.

    The mutation is a pure-counter bump (no behavioral effect), so the
    run completes and every later digest of that component drifts — the
    sanitizer must still report the *first* divergent boundary.
    """

    def __init__(self, at_index: int, mutate) -> None:
        super().__init__()
        self._at = at_index
        self._mutate = mutate

    def boundary(self, kind: str, sim: Simulation) -> None:
        if len(self.records) == self._at:
            self._mutate(sim)
        super().boundary(kind, sim)


@pytest.mark.parametrize("at_index", [0, 3])
def test_perturbation_is_localized_to_boundary_and_component(at_index):
    ref = _records("reference", StateRecorder())

    def bump_remap(sim):
        sim.ctrl.remap.hits += 1

    fast = _records("fast", _PerturbingRecorder(at_index, bump_remap))
    div = first_divergence(ref.records, fast.records, "reference", "fast")
    assert div is not None
    assert div.index == at_index
    assert div.component == "remap"
    assert div.kind == ref.records[at_index].kind
    assert div.engine_a == "reference" and div.engine_b == "fast"
    assert f"boundary #{at_index}" in div.format()
    assert "'remap'" in div.format()


def test_perturbed_channel_component_is_named():
    ref = _records("reference", StateRecorder())

    def bump_channel(sim):
        sim.ctrl.fast.channels[1]._bytes_read += 1

    fast = _records("fast", _PerturbingRecorder(2, bump_channel))
    div = first_divergence(ref.records, fast.records, "reference", "fast")
    assert div is not None
    assert div.index == 2
    assert div.component == "channel.fast[1]"


def test_sanitize_is_observational():
    plain = api.simulate(mix="C1", design="hydrogen", engine="fast",
                         scale=SCALE)
    checked = api.simulate(mix="C1", design="hydrogen", engine="fast",
                           scale=SCALE, sanitize=True)
    assert checked == plain  # bit-identical with the recorder attached


def test_simulate_sanitize_rejects_policy_instances():
    from repro.experiments.designs import make_policy

    with pytest.raises(ValueError, match="registry-name"):
        api.simulate(mix="C1", design=make_policy("hydrogen"),
                     scale=SCALE, sanitize=True)


def test_null_sanitizer_is_the_zero_overhead_default():
    import inspect

    assert NullSanitizer.enabled is False
    assert NULL_SANITIZER.boundary("epoch", None) is None
    # Every simulation carries the shared singleton unless a recorder
    # is passed, so the tick hook is a single attribute check.
    sig = inspect.signature(Simulation.__init__)
    assert sig.parameters["sanitize"].default is None


def test_first_divergence_edge_cases():
    rec = BoundaryRecord(index=0, kind="epoch", t=1.0,
                         components=(("stats", "aa"),))
    other_t = BoundaryRecord(index=0, kind="epoch", t=2.0,
                             components=(("stats", "aa"),))
    assert first_divergence([rec], [rec]) is None
    mismatch = first_divergence([rec], [other_t])
    assert mismatch is not None and mismatch.component == "boundary"
    truncated = first_divergence([rec, other_t], [rec], "a", "b")
    assert truncated is not None
    assert truncated.component == "stream-length"
    assert (truncated.digest_a, truncated.digest_b) == ("2", "1")


def test_divergence_error_carries_the_divergence():
    div = first_divergence(
        [BoundaryRecord(0, "epoch", 1.0, (("stats", "aa"),))],
        [BoundaryRecord(0, "epoch", 1.0, (("stats", "bb"),))],
        "reference", "fast")
    err = DivergenceError(div)
    assert err.divergence is div
    assert "stats" in str(err)
