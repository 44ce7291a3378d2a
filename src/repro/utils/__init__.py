"""Utility helpers shared across the :mod:`repro` package.

The helpers in this package intentionally have no dependency on the rest of
the library so that every subsystem (spectral operators, transport,
optimization, parallel substrate) can use them freely.
"""

from repro.utils.logging import get_logger, set_verbosity
from repro.utils.validation import (
    check_positive,
    check_positive_int,
    check_probability,
    check_same_shape,
    check_shape_3d,
    check_velocity_shape,
)

__all__ = [
    "get_logger",
    "set_verbosity",
    "check_positive",
    "check_positive_int",
    "check_probability",
    "check_same_shape",
    "check_shape_3d",
    "check_velocity_shape",
]
