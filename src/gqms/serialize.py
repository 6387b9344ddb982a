"""JSON encoding of complex vectors and matrices.

Complex entries are written as two-element [re, im] lists.  On input,
bare numbers are also accepted and read as real entries, so a real
matrix may be given either as [[1, 0], [0, 1]] or in full pair form
[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]; the nesting depth disambiguates.
An entry that is not a finite float (JSON's NaN, Infinity or a larger integer) is refused.
"""

from __future__ import annotations

import sys

import numpy as np


def complex_to_pairs(array):
    """Encode a complex vector or matrix as nested [re, im] pairs."""
    a = np.asarray(array, dtype=complex)
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    if a.ndim == 2:
        return [[[float(z.real), float(z.imag)] for z in row] for row in a]
    raise ValueError(f"unsupported ndim {a.ndim}")


def _entry(obj):
    parts = [obj, 0] if isinstance(obj, (int, float)) else obj
    if isinstance(parts, (list, tuple)) and len(parts) == 2 \
            and all(isinstance(x, (int, float)) and abs(x) <= sys.float_info.max for x in parts):
        return complex(parts[0], parts[1])
    raise ValueError(f"expected a finite number or [re, im] pair, got {obj!r}")


def pairs_to_vector(obj):
    """Decode a JSON vector of numbers or [re, im] pairs to complex 1-D array."""
    if not isinstance(obj, (list, tuple)):
        raise ValueError("expected a list")
    return np.array([_entry(x) for x in obj], dtype=complex)


def pairs_to_matrix(obj):
    """Decode a JSON matrix of numbers or [re, im] pairs to complex 2-D array."""
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ValueError("expected a non-empty list of rows")
    rows = [pairs_to_vector(row) for row in obj]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged matrix rows")
    return np.array(rows, dtype=complex)


def jsonable(obj):
    """Recursively copy dicts, lists and tuples; complex arrays as [re, im] pairs, rest as is."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray) and np.iscomplexobj(obj):
        return complex_to_pairs(obj)
    return obj
