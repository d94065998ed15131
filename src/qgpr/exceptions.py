"""Exception hierarchy shared by all qgpr modules.

Two top-level families map onto the CLI exit-status contract:
``InputError`` (bad user/caller input, exit status 2) and ``NumericError``
(numerical or conditioning failures, exit status 3). Four checks own every
input number: :func:`integer`, an integer in range (widths, register values,
shots, seeds, counts); :func:`finite_real`, a finite real above a bound
(hyperparameters, noise variance, t0, c, delta, tolerances);
:func:`numeric_array`, a rectangular (or square) array of real or complex
numbers, its entries unread; and :func:`finite_array`, that array with every
entry finite (points, training data, systems, vectors, gates).
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


def finite_real(name: str, value, lo: float = -math.inf) -> float:
    """``value`` as a float if it is a finite real number, not a bool, above ``lo``;
    else an InputError naming ``name``."""
    try:  # an integer past the float range overflows
        if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
            if not value > lo:
                raise InputError(f"{name} must be > {lo:g}")
            return float(value)
    except OverflowError:
        pass
    raise InputError(f"{name} must be a finite number, got {value!r}")


def numeric_array(name: str, value, complex_ok: bool = False, square: bool = False) -> np.ndarray:
    """``value`` as an array of real (or, if ``complex_ok``, complex) numbers, a square
    matrix if ``square``; an InputError naming ``name`` for a ragged nesting or any other
    dtype or shape. Reads no entry: :func:`finite_array` is the pass over them."""
    try:
        arr = np.asarray(value)
    except ValueError:  # numpy refuses a ragged nesting
        raise InputError(f"{name} must be a rectangular array, not a ragged nesting") from None
    if arr.dtype.kind not in ("iufc" if complex_ok else "iuf"):
        kind = "real or complex" if complex_ok else "real"
        raise InputError(f"{name} must hold {kind} numbers, got dtype {arr.dtype}")
    if square and (arr.ndim != 2 or arr.shape[0] != arr.shape[1]):
        raise InputError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


def finite_array(name: str, value, complex_ok: bool = False, square: bool = False) -> np.ndarray:
    """:func:`numeric_array` as a float array (complex if it holds complex numbers), and
    an InputError naming ``name`` for a NaN or inf entry."""
    arr = numeric_array(name, value, complex_ok, square)
    arr = arr.astype(complex if arr.dtype.kind == "c" else float, copy=False)
    if not np.isfinite(arr).all():
        raise InputError(f"{name} has non-finite entries")
    return arr
