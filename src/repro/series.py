"""Packed float64 series: the one numeric column codec of a snapshot.

A series travels as base64 of its little-endian float64 bytes: exact on
every bit pattern, strict JSON, and one C call each way.  The service's
delivered histories, the monitors' windows and reference CDFs and the
churn driver's record columns all use it.  This module imports nothing
of the package but its errors, so every layer may use it.
"""

from __future__ import annotations

import base64
import binascii
from typing import Iterable

import numpy as np

from repro.errors import CheckpointError


def pack_series(series: Iterable[float]) -> str:
    """A series as base64 of its little-endian float64 bytes: exact,
    strict JSON, and one C call each way (:func:`unpack_series`)."""
    raw = np.asarray(series, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def unpack_series(text: str) -> np.ndarray:
    """Read a :func:`pack_series` string back, bit for bit; anything
    else (not base64, not whole float64 values) is a
    :class:`CheckpointError`, never a short series."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, TypeError, ValueError) as exc:
        raise CheckpointError(f"packed series is not base64: {exc}") from None
    if len(raw) % 8:
        raise CheckpointError(
            f"packed series has {len(raw)} bytes, not a whole number of "
            "float64 values"
        )
    return np.frombuffer(raw, dtype="<f8")
