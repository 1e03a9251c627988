"""Golden reference outputs: the reference engine's own numbers, pinned.

``test_fastpath_equiv.py`` and ``repro sanitize`` prove that the fast
engine agrees with the reference; nothing there pins the reference
itself, so a change that moves every engine at once would pass them.
This test replays a small matrix on the reference engine and compares
it with ``golden.json`` beside this file:

* cells: C1, C5 and kvcache x baseline, waypart, profess, hashcache and
  hydrogen, plus kv-windowpin on kvcache (16 cells), at scale 0.02,
  seed 7 and native geometry;
* per cell: the headline :class:`~repro.engine.simulator.SimResult`
  scalars, per-class hit/miss/migration/bypass counters, and the
  component digests of the last boundary recorded by
  :class:`~repro.sanitize.StateRecorder`.

Floats compare exactly.  A mismatch lists every changed cell and field
as ``old -> new``.  Only ``python tests/test_golden.py --update``
rewrites the file, and a rewrite needs a CHANGES.md line that says why
the numbers moved.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.api import coerce_mix
from repro.experiments.runner import run_design
from repro.sanitize import StateRecorder

GOLDEN = Path(__file__).with_name("golden.json")

SCALE = 0.02
SEED = 7

#: (mix, design) cells, in file order.
CELLS = tuple((mix, design)
              for mix in ("C1", "C5", "kvcache")
              for design in ("baseline", "waypart", "profess", "hashcache",
                             "hydrogen")) + (("kvcache", "kv-windowpin"),)

SCALARS = ("cycles_cpu", "cycles_gpu", "ipc_cpu", "ipc_gpu", "elapsed")
COUNTERS = ("fast_hits", "fast_misses", "migrations", "bypasses")


def run_cell(mix: str, design: str) -> dict:
    """One cell's pinned outputs on the reference engine."""
    rec = StateRecorder()
    res = run_design(design, coerce_mix(mix, SCALE, SEED), None,
                     native_geometry=True, engine="reference", sanitize=rec)
    out: dict = {name: getattr(res, name) for name in SCALARS}
    for klass in ("cpu", "gpu"):
        for name in COUNTERS:
            key = f"{klass}.{name}"
            out[key] = res.stats.get(key, 0.0)
    out["digests"] = dict(rec.records[-1].components)
    return out


def compute() -> dict:
    return {f"{mix}/{design}": run_cell(mix, design)
            for mix, design in CELLS}


def diff(old: dict, new: dict) -> list[str]:
    """Human-readable ``cell field: old -> new`` lines, empty if equal."""
    lines = []
    for cell in sorted(set(old) | set(new)):
        a, b = old.get(cell), new.get(cell)
        if a is None or b is None:
            lines.append(f"{cell}: {'absent' if a is None else 'present'} "
                         f"-> {'absent' if b is None else 'present'}")
            continue
        for field in sorted(set(a) | set(b)):
            va, vb = a.get(field), b.get(field)
            if field == "digests" and isinstance(va, dict) \
                    and isinstance(vb, dict):
                for comp in sorted(set(va) | set(vb)):
                    if va.get(comp) != vb.get(comp):
                        lines.append(f"{cell} digests[{comp}]: "
                                     f"{va.get(comp)} -> {vb.get(comp)}")
            elif va != vb:
                lines.append(f"{cell} {field}: {va!r} -> {vb!r}")
    return lines


def test_reference_outputs_match_golden():
    old = json.loads(GOLDEN.read_text())
    # A JSON round trip makes the fresh run comparable with the file
    # (tuples become lists, int/float keys become strings).
    new = json.loads(json.dumps(compute()))
    changed = diff(old, new)
    assert not changed, ("reference outputs moved (rewrite only with "
                         "`python tests/test_golden.py --update` and a "
                         "CHANGES.md line):\n" + "\n".join(changed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help=f"rewrite {GOLDEN.name} from the current code")
    args = parser.parse_args(argv)
    if not args.update:
        parser.error("pass --update to rewrite the golden file "
                     "(run the check itself with pytest)")
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN} ({len(CELLS)} cells)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
