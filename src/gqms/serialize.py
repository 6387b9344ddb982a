"""JSON encoding of complex vectors and matrices.

Complex entries are written as two-element [re, im] lists.  On input,
bare numbers are also accepted and read as real entries, so a real
matrix may be given either as [[1, 0], [0, 1]] or in full pair form
[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]; the nesting depth disambiguates.
An entry that is not a finite float (JSON's NaN, Infinity or a larger
integer) or that is a JSON boolean is refused.

`dumps` encodes a report in one pass.  Its text is exactly
json.dumps(jsonable(obj), sort_keys=True, indent=2), but it neither copies
the object first nor runs the standard library's pure-Python per-token
encoder, which `indent` selects on Python 3.10-3.12: a list of finite
floats, or of non-empty lists of finite floats (the [re, im] pairs), is
one str.join of their reprs per list, any other string (a dict key too),
number, bool or None is written as the literal json.dumps writes (NaN and
Infinity too), and complex arrays go through `complex_to_pairs`.
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np


def complex_to_pairs(array):
    """Encode a complex vector or matrix as nested [re, im] pairs."""
    a = np.asarray(array, dtype=complex)
    if a.ndim not in (1, 2):
        raise ValueError(f"unsupported ndim {a.ndim}")
    return np.ascontiguousarray(a).view(float).reshape(*a.shape, 2).tolist()


def is_number(x):
    """Whether a decoded JSON value is a number: an int or float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _entry(obj):
    parts = [obj, 0] if is_number(obj) else obj
    if isinstance(parts, (list, tuple)) and len(parts) == 2 \
            and all(is_number(x) and abs(x) <= sys.float_info.max for x in parts):
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


def _float_items(obj, inner):
    """The items of obj joined at the newline-plus-spaces `inner`, when they
    all are finite floats, or all non-empty lists of finite floats (one join
    per list); None otherwise."""
    separator = "," + inner
    try:  # float.__repr__ refuses any item but a float
        if all(isinstance(item, (list, tuple)) and item for item in obj):
            head, item_separator, tail = "[" + inner + "  ", separator + "  ", inner + "]"
            text = separator.join([head + item_separator.join(map(float.__repr__, item)) + tail
                                   for item in obj])
        else:
            text = separator.join(map(float.__repr__, obj))
    except TypeError:
        return None
    return None if "n" in text else text  # nan or inf, which json spells NaN or Infinity


def _literal(obj):
    """The JSON text json.dumps gives a str, bool, None, int or float (NaN,
    Infinity, -Infinity for the non-finite ones); json.dumps's own for any
    other obj, which raises its TypeError."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    return json.dumps(obj)


def _encode(obj, indent, out):
    """Append the JSON text of obj, nested at the newline-plus-spaces `indent`, to out."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        text = _float_items(obj, inner)
        if text is not None:
            out.append("[" + inner + text + indent + "]")
            return
        separator = "," + inner
        out.append("[" + inner)
        _encode(obj[0], inner, out)
        for item in obj[1:]:
            out.append(separator)
            _encode(item, inner, out)
        out.append(indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        head = "{" + inner
        for key, value in sorted(obj.items()):
            if isinstance(key, (int, float)) or key is None:  # made a string, as json does
                key = _literal(key)
            elif not isinstance(key, str):
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {type(key).__name__}")
            out.append(head + encode_basestring_ascii(key) + ": ")
            _encode(value, inner, out)
            head = "," + inner
        out.append(indent + "}")
    elif isinstance(obj, np.ndarray) and np.iscomplexobj(obj):
        _encode(complex_to_pairs(obj), indent, out)
    else:
        out.append(_literal(obj))


def dumps(obj):
    """The text of json.dumps(jsonable(obj), sort_keys=True, indent=2), in one pass."""
    out = []
    _encode(obj, "\n", out)
    return "".join(out)
