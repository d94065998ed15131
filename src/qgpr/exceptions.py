"""Exception hierarchy shared by all qgpr modules.

Two top-level families map onto the CLI exit-status contract:
``InputError`` (bad user/caller input, exit status 2) and ``NumericError``
(numerical or conditioning failures, exit status 3). :func:`integer` is the
one check of what counts as an integer in range: register widths and values,
the clock width, shots, seeds, the run config's counts, iteration counts;
:func:`finite_real` is the one check of a real-number parameter.
"""

import math
import numbers

import numpy as np


class QgprError(Exception):
    """Base class for all package errors."""


class InputError(QgprError, ValueError):
    """Malformed or inconsistent input (dimensions, indices, files, config)."""


class ConfigError(InputError):
    """A QLA configuration is invalid for the matrix it targets."""


class ParseError(InputError):
    """A data file could not be parsed; carries the offending row."""

    def __init__(self, message, row=None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class NumericError(QgprError, ArithmeticError):
    """Numerical failure: non-finite values, lost positive-definiteness, ..."""


class NotPositiveDefiniteError(NumericError):
    """Cholesky factorization hit a non-positive pivot."""


class ConditioningError(NumericError):
    """System matrix is not invertible as assumed (smallest eigenvalue <= 0)."""


class ConvergenceError(NumericError):
    """Iterative solver exhausted its iteration budget."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ZeroProbabilityError(NumericError):
    """Projective measurement outcome has (numerically) zero probability."""


class ExpansionError(NumericError):
    """Series expansion of the inverse does not converge for this system."""


def integer(name: str, value, lo: float = -math.inf, hi: float = math.inf) -> int:
    """``value`` as an int if it is an int or a numpy integer, not a bool, in
    ``lo..hi``; else an InputError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise InputError(f"{name} {value} is not in {lo}..{hi}")
    return int(value)


def finite_real(name: str, value) -> float:
    """``value`` as a float if it is a finite real number and not a bool, else an InputError."""
    try:  # an integer past the float range overflows
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise InputError(f"{name} must be a finite number, got {value!r}")
