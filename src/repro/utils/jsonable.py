"""One JSON-coercion rule for the whole library.

Numpy scalars and arrays appear in experiment rows, run artifacts, and
solver results alike; this module is the single place that maps them (and
containers of them) onto plain python for ``json.dumps``.  The experiment
harness, the artifact writer, the sweep, and the solver facade all call
it, so a future type addition lands everywhere at once.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

__all__ = ["jsonable"]


def jsonable(value: Any) -> Any:
    """Coerce numpy scalars and arrays, inside lists, tuples and dicts too,
    to plain python; pass anything else through.

    A non-finite float becomes ``None``: strict JSON has no ``NaN`` or
    ``Infinity`` (the std of a one-trial sample is ``NaN``), and parsers
    such as ``jq`` reject documents that carry them.
    """
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, float):  # np.float64 included
        return float(value) if math.isfinite(value) else None
    if isinstance(value, np.floating):
        return jsonable(float(value))
    return value
