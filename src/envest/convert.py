"""The converters of the public API: one per kind of argument.

Every public function and constructor passes its arguments through these at
entry, and the cores behind them trust what they are given.  A converter
returns the argument in the form the cores take (a float64 array, an int,
the settings to use) or raises the package error that names it.  A value of
the wrong type raises InvalidInput, a ValueError, never TypeError or
AttributeError, and a bool is not an integer.  A dimension out of range
raises InvalidDimension, and so does an array extent (d, n) above np.intp's
range, which numpy cannot index.  Counts of repeated work (replications,
bootstrap replicates) have no upper bound.
"""

import sys
from numbers import Integral, Real

import numpy as np

from .errors import InvalidDimension, InvalidInput

__all__ = [
    "array", "matrix", "faults", "columns", "basis", "direction", "samples",
    "integer", "size", "dimension", "choice", "choices", "settings", "instance",
]

# the largest array extent numpy can index, and the largest finite float64
_INDEXABLE = np.iinfo(np.intp).max
_LARGEST = sys.float_info.max


def array(a, name, ndims=(1, 2), square=False):
    """a as a float64 array whose number of dimensions is one of ndims and,
    when square, whose last two axes have one length."""
    try:
        a = np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInput(f"{name} must be a numeric array") from None
    if a.ndim not in ndims:
        raise InvalidInput(f"{name} must be {'- or '.join(map(str, ndims))}-d, got ndim {a.ndim}")
    if square and a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    return a


def matrix(a, name):
    """a as a non-empty square float64 matrix, finite and symmetric to the
    tolerance of ``faults``.  It is returned as given: its caller
    symmetrizes it."""
    a = array(a, name, (2,), square=True)
    if not a.size:
        raise InvalidInput(f"{name} is empty")
    (error,) = faults(a[None], name)
    if error is not None:
        raise error
    return a


def faults(s, name):
    """Per matrix of the stack s of square float64 matrices, the InvalidInput
    of a non-finite entry or of an asymmetry above 1e-8 max(1, max |a|), or
    None: ``matrix``'s test, which the stacked pair builds run at each place."""
    flat = len(s), -1
    finite = np.isfinite(s).reshape(flat).all(axis=1)
    checked = s if finite.all() else np.where(finite[:, None, None], s, 0.0)
    scale = np.maximum(1.0, np.abs(checked).reshape(flat).max(axis=1))
    skew = np.abs(checked - checked.swapaxes(1, 2)).reshape(flat).max(axis=1) > 1e-8 * scale
    return [
        InvalidInput(f"{name} has non-finite entries") if not ok
        else InvalidInput(f"{name} is not symmetric") if bad else None
        for ok, bad in zip(finite.tolist(), skew.tolist())
    ]


def columns(a, name):
    """a as a finite float64 matrix, a vector being one column."""
    a = array(a, name)
    if a.ndim == 1:
        a = a[:, None]
    if not np.isfinite(a).all():
        raise InvalidInput(f"{name} has non-finite entries")
    return a


def basis(g, name, d=None, k=None, tol=None):
    """g as a ``columns`` matrix with no more columns than rows: d rows when
    d is given, and then at least one column; exactly k columns when k is
    given; and, with tol, columns orthonormal to tol."""
    g = columns(g, name)
    rows, cols = g.shape
    if d is not None and rows != d:
        raise InvalidInput(f"{name} has {rows} rows, expected {d}")
    low, high = (k, k) if k is not None else (0 if d is None else 1, rows)
    if not low <= cols <= high:
        span = low if low == high else f"between {low} and {high}"
        raise InvalidInput(f"{name} must have {span} columns, got {cols}")
    if tol is not None and cols and np.abs(g.T @ g - np.eye(cols)).max() > tol:
        raise InvalidInput(f"{name} columns are not orthonormal to {tol:g}")
    return g


def direction(w, d):
    """w as a finite float64 vector of length d with a nonzero norm."""
    w = basis(w, "direction", d, 1)[:, 0]
    if w @ w <= 0.0:
        raise InvalidInput("direction has zero norm")
    return w


def samples(x, y):
    """x and y of a RegressionData as ``columns`` matrices of at least one
    column and one row per case, at least two cases; x may be None."""
    y = columns(y, "y")
    x = None if x is None else columns(x, "x")
    for a, label in ((y, "y"), (x, "x")):
        if a is not None and not a.shape[1]:
            raise InvalidInput(f"{label} has no columns")
    if len(y) < 2:
        raise InvalidInput("need at least two observations")
    if x is not None and len(x) != len(y):
        raise InvalidInput(f"x has {len(x)} rows but y has {len(y)}")
    return x, y


def integer(x, name, low=0, high=None, error=InvalidInput):
    """x as an int from low to high, or at least low when high is None;
    error otherwise."""
    if isinstance(x, Integral) and not isinstance(x, bool) and low <= x:
        if high is None or x <= high:
            return int(x)
    if high is None:
        raise error(f"{name} must be an integer, at least {low}, got {x!r}")
    raise error(f"{name} must be between {low} and {high}, got {x!r}")


def size(x, name, low, error=InvalidDimension):
    """An array extent, d or n: ``integer`` from low, raising error, and
    InvalidDimension above np.intp's range."""
    x = integer(x, name, low, None, error)
    if x > _INDEXABLE:
        raise InvalidDimension(f"{name} = {x} is more than numpy can index")
    return x


def dimension(k, d, name="u"):
    """k as a subspace dimension from 1 to d."""
    return integer(k, name, 1, d, InvalidDimension)


def choice(value, options, what):
    """value, when it is a str among options."""
    if isinstance(value, str) and value in options:
        return value
    raise InvalidInput(f"unknown {what} {value!r}; use one of {', '.join(options)}")


def choices(values, options, what):
    """values as a list of distinct ``choice``s of options, at least one."""
    try:
        values = list(values)
    except TypeError:
        raise InvalidInput(f"expected a sequence of {what} names, got {values!r}") from None
    if not values:
        raise InvalidInput(f"name at least one {what}")
    for value in values:
        choice(value, options, what)
        if values.count(value) > 1:
            raise InvalidInput(f"{what} {value!r} is named more than once")
    return values


def settings(value, preset, owner):
    """value, or preset when it is None, as settings of preset's class for
    the solver named owner: a gradient_tol that is a finite number at least
    0 and a max_iterations that is an integer at least 0."""
    if value is None:
        return preset
    if not isinstance(value, type(preset)):
        raise InvalidInput(f"{owner} takes {type(preset).__name__}, not {type(value).__name__}")
    tol = value.gradient_tol
    if not (isinstance(tol, Real) and 0 <= tol <= _LARGEST):  # NaN fails both
        raise InvalidInput(f"gradient_tol must be a finite number, at least 0, got {tol!r}")
    integer(value.max_iterations, "max_iterations")
    return value


def instance(value, cls, name):
    """value, when it is an instance of the package class cls."""
    if not isinstance(value, cls):
        raise InvalidInput(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value
