"""Exception types shared across the library, and its generic validators.

Validation problems (bad parameters, out-of-domain inputs) derive from
ValueError; numerical failures (quadrature, eigensolver, fits) are
AccuracyErrors, which derive from RuntimeError and carry the achieved
error and the target it missed. The CLI maps the former to exit code 1
and the latter to 2. The validators of a count, a number, a real, an
array of reals and a set of Fermi points live here, in the module every
layer imports, so each kind of argument has one check and one message.
A set of Fermi points is non-empty and 1-D, or a scalar as a set of
one. The result types run these checks in __post_init__, which
dataclasses.replace runs too, and derive there every field that other
fields determine, so a built object is valid and the functions that
read it trust it.
"""

import functools
import math

import numpy as np


class DomainError(ValueError):
    """Input outside the documented domain of an operation."""


class DegenerateGroundStateError(ValueError):
    """A finite-chain mode energy coincides with the chemical potential."""


class AccuracyError(RuntimeError):
    """A numerical routine could not reach its accuracy target."""

    def __init__(self, message, *, achieved, target):
        super().__init__(message)
        self.achieved = achieved
        self.target = target

    def __reduce__(self):
        # pickle and copy rebuild an exception from its args alone, which
        # hold the message but not the two required keywords
        return (functools.partial(type(self), achieved=self.achieved,
                                  target=self.target), self.args)


class QuadratureError(AccuracyError):
    """A quadrature missed its accuracy target; carries the achieved bound."""


class EigenConvergenceError(AccuracyError):
    """The eigensolver did not converge; achieved is LAPACK's info."""


class FitRejectedError(AccuracyError):
    """Scaling fit refused: the grid lies outside the asymptotic regime."""


def _check_count(n, name, minimum=1):
    """n as a Python int; numpy integers pass, bools and floats do not."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {n}")
    return int(n)


def _check_number(x, name, kind=float):
    """kind(x), float or complex; numpy numbers pass. Refused: text and
    bools, which kind() would parse and read as 1, a numpy complex for a
    float, whose imaginary part float() drops, and what kind() refuses."""
    if not isinstance(x, (str, bytes, bytearray, bool, np.bool_)) and not (
            kind is float and isinstance(x, np.complexfloating)):
        try:
            return kind(x)
        except TypeError:
            pass
    raise DomainError(f"{name} must be a number, got {x!r}")


def _check_real(x, name):
    """x as a float; text, bools, NaN and infinities are refused."""
    x = _check_number(x, name)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x}")
    return x


def _check_reals(x, name):
    """x as a new float array in its shape, a scalar as a grid of one:
    _check_real on each element. An all-finite integer or float ndarray
    skips the loop, a list never: np.asarray reads [1, True] as floats."""
    if (isinstance(x, np.ndarray) and x.dtype.kind in "iuf"
            and np.count_nonzero(np.isfinite(x)) == x.size):
        return np.array(x, dtype=float, ndmin=1)
    a = np.array(x, dtype=object, ndmin=1)
    return np.array([_check_real(v, name) for v in a.flat]).reshape(a.shape)


def _check_roots(roots):
    """Fermi points as floats, strictly increasing inside (0, pi): a
    non-empty 1-D set, or a scalar as a set of one."""
    ps = _check_reals(roots, "Fermi point")
    if ps.ndim != 1 or not ps.size:
        raise DomainError("Fermi points must form a non-empty 1-D "
                          f"sequence, got shape {ps.shape}")
    for p in ps:
        if not 0.0 < p < math.pi:
            raise DomainError(f"Fermi point {p} outside (0, pi)")
    for a, b in zip(ps, ps[1:]):
        if b <= a:
            raise DomainError(
                "Fermi points must be strictly increasing; coincident "
                "points make the cross factor singular")
    return ps.tolist()
