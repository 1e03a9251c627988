"""Optional compiled kernels for the fast engine.

numba is an *optional* accelerator: when importable, the channel-queueing
inner loop of :mod:`repro.engine.batch` runs through an ``@njit``-compiled
bank-service kernel over a flat ``int64`` open-row array; when absent, the
fused interpreter falls back to the pure-Python open-row list arithmetic
of the reference channel.  The selection happens **once, at import**
(``HAVE_NUMBA``), never per call, and nothing in tier-1 requires numba.

Both implementations are the same function body — the compiled variant is
literally ``njit(_bank_service_py)`` — so the timing arithmetic (operands
and order) cannot drift between them.
"""

from __future__ import annotations

try:
    from numba import njit  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - exercised via sys.modules fakes
    njit = None

HAVE_NUMBA = njit is not None


def _bank_service_py(rows: "object", bank: int, row: int, t_cas: float,
                     t_rcd_cas: float, t_rp: float) -> tuple[float, bool]:
    """One bank service: open-row check/update for a single request.

    ``rows`` is the per-channel open-row table (``int64`` array, ``-1``
    marking a closed bank).  Returns ``(latency, activated)`` and updates
    ``rows[bank]`` in place — the same operands in the same order as the
    reference channel model (``t_rcd + t_cas`` precomputed, ``+ t_rp``
    added on a row conflict).
    """
    cur = rows[bank]
    if cur == row:
        return t_cas, False
    rows[bank] = row
    if cur >= 0:
        return t_rcd_cas + t_rp, True
    return t_rcd_cas, True


if HAVE_NUMBA:
    bank_service = njit(cache=True)(_bank_service_py)
else:
    bank_service = _bank_service_py
