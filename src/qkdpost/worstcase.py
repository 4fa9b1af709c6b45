"""Worst-case eavesdropper ambiguity for BB84 from partial channel knowledge.

Z/X statistics determine only six of the twelve affine parameters,
``omega = (r_zz, r_zx, r_xz, r_xx, t_z, t_x)``.  The minimum of the ambiguity
over all completions is attained with every other parameter zero except
``r_yy``, so the search space collapses to one dimension.  The completed
Choi matrix is real and affine in ``r_yy``, a 4x4 pencil
``C(r) = base + r * step`` built once per omega; every evaluation below
reads its spectrum without building channel objects.  The valid ``r_yy``
form a closed interval (the minimum eigenvalue is concave in ``r_yy``)
whose ends are roots of the pencil.  The ambiguity is ``H(KE) - S(C(r))``
(:func:`~qkdpost.keyrate.choi_ambiguity`), where K is the bit of the key
party (:func:`~qkdpost.keyrate.key_party`): Alice's for direct and
mismatched, Bob's for reverse.  ``step`` is zero on the 2x2 blocks at fixed
key bit of either party, so ``H(KE)`` does not depend on ``r``: the worst
case of every direction is the completion of largest Choi entropy.  That
entropy is concave in ``r``; one golden-section search per omega finds its
maximum without derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _lapack
from .channels import AffineChannel, choi_from_affine
from .entropy import _plogp, binary_entropy
from .keyrate import key_entropy, key_party

# Numerically a channel counts as valid when the Choi minimum eigenvalue is
# above -PSD_SLACK; the slack must absorb the parameter noise of near-exact
# estimates (unitary channels are extreme points, so any perturbation makes
# the exact feasible set empty).  Intervals narrower than DEGENERATE_WIDTH
# are treated as single points: they arise when the true feasible set is a
# point and the slack inflates it (width grows like sqrt(PSD_SLACK) against
# the eigenvalue curvature), and evaluating anywhere but the most-feasible
# point picks up spurious -x*log(x) entropy from the inflated boundary.
PSD_SLACK = 1e-11
DEGENERATE_WIDTH = 1e-5

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_section_min(f, a: float, b: float, tol: float):
    """Minimize a unimodal function on [a, b]; returns (argmin, min)."""
    width = b - a
    if width <= tol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + _INVPHI2 * width
    d = a + _INVPHI * width
    yc, yd = f(c), f(d)
    while width > tol:
        if yc < yd:
            b, d, yd = d, c, yc
            width = b - a
            c = a + _INVPHI2 * width
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            width = b - a
            d = a + _INVPHI * width
            yd = f(d)
    return (c, yc) if yc < yd else (d, yd)


@dataclass(frozen=True)
class ObservableParams:
    """The six channel parameters visible to Z/X-only statistics."""

    r_zz: float
    r_zx: float
    r_xz: float
    r_xx: float
    t_z: float
    t_x: float

    @classmethod
    def from_channel(cls, ch: AffineChannel) -> "ObservableParams":
        return cls(ch.r[0, 0], ch.r[0, 1], ch.r[1, 0], ch.r[1, 1], ch.t[0], ch.t[1])

    def as_array(self) -> np.ndarray:
        return np.array([self.r_zz, self.r_zx, self.r_xz, self.r_xx, self.t_z, self.t_x])

    def complete(self, r_yy: float) -> AffineChannel:
        """The completion with every unobservable parameter zero except r_yy."""
        r = np.array(
            [
                [self.r_zz, self.r_zx, 0.0],
                [self.r_xz, self.r_xx, 0.0],
                [0.0, 0.0, r_yy],
            ]
        )
        return AffineChannel(r, np.array([self.t_z, self.t_x, 0.0]))

    @cached_property
    def pencil(self) -> tuple[np.ndarray, np.ndarray]:
        """Real ``(base, step)`` with ``Choi(complete(r)) = base + r * step``."""
        base = choi_from_affine(self.complete(0.0)).real
        step = choi_from_affine(self.complete(1.0)).real - base
        return base, step

    @cached_property
    def interval(self) -> tuple[float, float] | None:
        """The feasible r_yy interval ``(lo, hi)``, computed once per omega."""
        return feasible_interval(self)

    @cached_property
    def max_entropy(self) -> float:
        """Largest ``S(base + r * step)`` in bits over the feasible interval.

        Golden section to 1e-7 plus both ends; on a degenerate interval, the
        entropy at the argmax of the Choi minimum eigenvalue.  Raises
        ValueError when no completion exists.
        """
        if self.interval is None:
            raise ValueError("omega admits no completely positive completion")
        lo, hi = self.interval
        base, step = self.pencil

        def spectrum(r):
            return _lapack.eigvalsh(base + r * step)

        with _lapack.errors():
            if hi - lo <= DEGENERATE_WIDTH:
                r, _ = golden_section_min(lambda r: -spectrum(r)[0], lo, hi, tol=1e-12)
                return _plogp(spectrum(r))
            _, best = golden_section_min(lambda r: -_plogp(spectrum(r)), lo, hi, tol=1e-7)
            return max(-best, _plogp(spectrum(lo)), _plogp(spectrum(hi)))


def feasible_interval(omega: ObservableParams) -> tuple[float, float] | None:
    """Ends ``(lo, hi)`` of the valid r_yy range, or None when no completion exists.

    With ``C(r) = base + r * step``, ``min_eig(C(r)) >= -PSD_SLACK`` can only
    change at a real root of ``det(base + PSD_SLACK * I + r * step)``, an
    eigenvalue of ``solve(step, -(base + PSD_SLACK * I))`` (Boyd &
    Vandenberghe, *Convex Optimization*, 4.6.2).  [-1, 1] is cut at every
    root's real part (a spurious cut only splits a segment in two) and the
    segments whose midpoint passes are kept; the minimum eigenvalue is
    concave, so they are contiguous.  Callers read
    :attr:`ObservableParams.interval`, which caches this per omega.
    """
    base, step = omega.pencil
    with _lapack.errors():
        roots = np.linalg.eigvals(_lapack.solve(step, -(base + PSD_SLACK * np.eye(4))))
        cuts = np.unique(np.clip(np.append(roots.real, [-1.0, 1.0]), -1.0, 1.0))
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        spectra = _lapack.eigvalsh(base + mids[:, None, None] * step)
    kept = np.flatnonzero(spectra[:, 0] >= -PSD_SLACK)
    if not kept.size:
        return None
    return float(cuts[kept[0]]), float(cuts[kept[-1] + 1])


def worst_case_ambiguity(omega: ObservableParams, direction: str = "direct") -> float:
    """Minimum ambiguity over all channels consistent with ``omega``.

    ``H(KE)`` is the same for every completion, so the minimum is ``H(KE)``
    less :attr:`ObservableParams.max_entropy`, shared by every direction.
    """
    return key_entropy(omega.pencil[0], direction) - omega.max_entropy


def worst_case_lower_bound(omega: ObservableParams, direction: str) -> float:
    """Closed-form lower bound on the worst-case ambiguity.

    Uses the two singular values of the z-x block plus the norm of the block
    column through the z axis when Alice is the key party, or of the row when
    Bob is.  Tight whenever t_z = t_x = 0; never above the search result
    otherwise.
    """
    cross = (omega.r_xz, omega.r_zx)[key_party(direction)]
    block = np.array([[omega.r_zz, omega.r_zx], [omega.r_xz, omega.r_xx]])
    d_hi, d_lo = np.linalg.svd(block, compute_uv=False)
    col = min(math.hypot(omega.r_zz, cross), 1.0)
    h = binary_entropy
    return (
        1.0
        - h(0.5 * (1.0 + min(d_hi, 1.0)))
        - h(0.5 * (1.0 + min(d_lo, 1.0)))
        + h(0.5 * (1.0 + col))
    )
