"""The text a sibling digest hashes: blind to a float's last bits.

An exact pin hashes raw float bytes and ``repr`` of whole ledgers, so it
moves when a float's last bits move -- a sum added in another order, a
total held on another grid -- even where every value a caller reads agrees
to nine significant digits.  Each exact pin has a sibling that hashes the
same material through :func:`rendered`: every float (Python, NumPy scalar
or NumPy array element) formatted ``.9g``, every
:class:`~repro.metrics.CostLedger` by its public fields (``cycles``,
``energy_pj`` and both breakdowns in key order), containers element by
element, anything else by ``repr``.  The siblings hold the exact pins'
meaning across a change that is allowed to move only float tails.
"""

from __future__ import annotations

import numpy as np

from repro.metrics import CostLedger


def _text(value) -> str:
    if isinstance(value, CostLedger):
        return "CostLedger" + _text((
            value.cycles, value.energy_pj,
            list(value.cycle_breakdown.items()), list(value.energy_breakdown.items()),
        ))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            body = " ".join(format(v, ".9g") for v in value.ravel().tolist())
        else:
            body = np.ascontiguousarray(value).tobytes().hex()
        return f"{value.dtype.kind}{value.shape}[{body}]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_text(k)}: {_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_text(item) for item in value) + ")"
    return repr(value)


def rendered(value) -> bytes:
    """``value`` as the bytes a sibling digest absorbs (see the module)."""
    return _text(value).encode()
