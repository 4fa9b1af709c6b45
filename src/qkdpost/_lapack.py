"""numpy.linalg's LAPACK kernels without its per-call Python wrapper, which
costs more than a 4x4 kernel.

Each function makes numpy.linalg's gufunc call, signature included, so on
float64 and complex128 arrays its result is bitwise numpy.linalg's.  Callers
enter ``errors()`` once around a loop of calls; in it a failed kernel raises
numpy.linalg's LinAlgError, except that a failed Cholesky factor is NaN-filled.
"""

import sys

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

_MESSAGES = dict.fromkeys(("inv", "solve"), "Singular matrix")
_MESSAGES.update(dict.fromkeys(("eigvalsh", "eigh"), "Eigenvalues did not converge"))


def _raise(err, flag):
    # a failed gufunc calls this from inside the call, so the frame above
    # is the function of this module that made it
    name = sys._getframe(1).f_code.co_name
    if name != "cholesky":
        raise LinAlgError(_MESSAGES.get(name, f"{err} in {name}"))


def errors():
    """numpy.linalg's error state around its kernels, to enter once per loop."""
    return np.errstate(call=_raise, invalid="call", over="ignore", divide="ignore", under="ignore")


def eigvalsh(a):
    return _umath_linalg.eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d")


def eigh(a):
    return _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")


def cholesky(a):
    return _umath_linalg.cholesky_lo(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


def inv(a):
    return _umath_linalg.inv(a, signature="D->D" if a.dtype.kind == "c" else "d->d")


def solve(a, b):
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    return gufunc(a, b, signature="DD->D" if "c" in (a.dtype.kind, b.dtype.kind) else "dd->d")
