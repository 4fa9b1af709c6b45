"""Worst-case eavesdropper ambiguity for BB84 from partial channel knowledge.

Z/X statistics determine only six of the twelve affine parameters,
``omega = (r_zz, r_zx, r_xz, r_xx, t_z, t_x)``.  The minimum of the ambiguity
over all completions is attained with every other parameter zero except
``r_yy``, so the search space collapses to one dimension.  The set of valid
``r_yy`` is a closed interval (the Choi minimum eigenvalue is concave in
``r_yy``), and the ambiguity is convex along it, so the minimum sits at an
endpoint or an interior stationary point; golden-section search finds it
without derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import AffineChannel, choi_from_affine
from .entropy import binary_entropy
from .keyrate import ambiguity_direct, ambiguity_reverse

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


def golden_section_min(f, a: float, b: float, tol: float = 1e-7):
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
    def interval(self) -> FeasibleInterval | None:
        """The feasible r_yy interval, computed once per omega."""
        return feasible_interval(self)


@dataclass(frozen=True)
class FeasibleInterval:
    """Closed interval of r_yy values completing omega to a valid channel.

    ``anchor`` is the most-feasible point found (argmax of the Choi minimum
    eigenvalue); for degenerate intervals it is the best representative.
    """

    lo: float
    hi: float
    anchor: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __contains__(self, r_yy: float) -> bool:
        return self.lo - 1e-12 <= r_yy <= self.hi + 1e-12


def _min_eig(omega: ObservableParams, r_yy: float) -> float:
    return choi_from_affine(omega.complete(r_yy)).min_eigenvalue()


def feasible_interval(omega: ObservableParams) -> FeasibleInterval | None:
    """Endpoints of the valid r_yy range, or None when no completion exists.

    The most-feasible point is located by golden-section on the (concave)
    minimum eigenvalue, to 1e-12; each endpoint then comes from bisection,
    60 halvings of a bracket inside [-1, 1].  Callers read
    :attr:`ObservableParams.interval`, which caches this per omega.
    """
    neg = lambda r: -_min_eig(omega, r)
    r_star, neg_best = golden_section_min(neg, -1.0, 1.0, tol=1e-12)
    lam_lo, lam_hi = _min_eig(omega, -1.0), _min_eig(omega, 1.0)
    candidates = [(-1.0, lam_lo), (1.0, lam_hi), (r_star, -neg_best)]
    r_star, lam_best = max(candidates, key=lambda c: c[1])
    if lam_best < -PSD_SLACK:
        return None

    def bisect(bad: float, good: float) -> float:
        for _ in range(60):
            mid = 0.5 * (bad + good)
            if _min_eig(omega, mid) >= -PSD_SLACK:
                good = mid
            else:
                bad = mid
        return good

    # bisection only moves each endpoint away from r_star, so lo <= r_star <= hi
    lo = -1.0 if lam_lo >= -PSD_SLACK else bisect(-1.0, r_star)
    hi = 1.0 if lam_hi >= -PSD_SLACK else bisect(1.0, r_star)
    return FeasibleInterval(lo, hi, r_star)


def worst_case_ambiguity(omega: ObservableParams, direction: str = "direct") -> float:
    """Minimum ambiguity over all channels consistent with ``omega``.

    The golden-section search runs to an argument tolerance of 1e-7; interval
    endpoints are evaluated explicitly so boundary minima are exact.
    """
    interval = omega.interval
    if interval is None:
        raise ValueError("omega admits no completely positive completion")
    ambiguity = {"direct": ambiguity_direct, "reverse": ambiguity_reverse}.get(direction)
    if ambiguity is None:
        raise ValueError(f"direction must be direct or reverse, got {direction!r}")
    amb = lambda r: ambiguity(choi_from_affine(omega.complete(r)), tol=1e-6)
    if interval.width <= DEGENERATE_WIDTH:
        return amb(interval.anchor)
    _, best = golden_section_min(amb, interval.lo, interval.hi, tol=1e-7)
    return min(best, amb(interval.lo), amb(interval.hi))


def worst_case_lower_bound(omega: ObservableParams, direction: str = "direct") -> float:
    """Closed-form lower bound on the worst-case ambiguity.

    Uses the two singular values of the z-x block plus the norm of the block
    column (direct) or row (reverse) through the z axis.  Tight whenever
    t_z = t_x = 0; never above the search result otherwise.
    """
    block = np.array([[omega.r_zz, omega.r_zx], [omega.r_xz, omega.r_xx]])
    d_hi, d_lo = np.linalg.svd(block, compute_uv=False)
    cross = omega.r_xz if direction == "direct" else omega.r_zx
    col = min(math.hypot(omega.r_zz, cross), 1.0)
    h = binary_entropy
    return (
        1.0
        - h(0.5 * (1.0 + min(d_hi, 1.0)))
        - h(0.5 * (1.0 + min(d_lo, 1.0)))
        + h(0.5 * (1.0 + col))
    )
