"""Argument checks shared by the public constructors."""

from __future__ import annotations

import numpy as np


def check_integer(value, name: str, minimum: int = 0) -> None:
    """ValueError naming `name` unless value is an int or numpy integer >= minimum; bool is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")


def check_real(value, name: str) -> None:
    """ValueError naming `name` unless value is a real Python or numpy number; bool is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def real_array(value, name: str) -> np.ndarray:
    """np.asarray(value, dtype=float), but ValueError naming `name` unless value is real numbers."""
    try:
        array = np.asarray(value)
        if not np.iscomplexobj(array):
            return array.astype(float, copy=False)
    except (TypeError, ValueError):  # strings, or entries of no common shape
        raise ValueError(f"{name} must be real numbers, got {value!r}") from None
    raise ValueError(f"{name} must be real, got {array.dtype}")
