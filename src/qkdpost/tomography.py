"""Channel estimation from counting statistics.

The estimation pipeline has three stages: linear inversion of the per-basis
bias statistics into raw affine parameters, projection of the raw estimate
onto the set of valid channels (it is rarely valid at finite sample size),
and evaluation of the key-rate machinery on the projected estimate.

Six-state tallies determine all twelve parameters, and the projection is a
Frobenius-nearest valid Choi matrix computed with Dykstra's alternating
projections.  BB84 tallies determine only the six observable parameters, and
the projection is the mu = 1e-9 point of a log-det barrier for the
Euclidean-nearest feasible parameter vector over the joint (omega, r_yy) set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .channels import (
    PSD_TOL,
    AffineChannel,
    Basis,
    affine_from_choi,
    check_choi,
    choi_coefficients,
    choi_from_affine,
    choi_from_coefficients,
    format_channel_spec,
    joint_tables,
)
from .entropy import cond_entropy
from .keyrate import (
    DIRECTIONS,
    RateReport,
    channel_key_joint,
    key_bases,
    key_joint,
    key_party,
    keyrate,
    keyrate_conventional_bb84,
    keyrate_conventional_sixstate,
)
# feasible_interval is not called here (ObservableParams.interval calls it in
# worstcase), but the traced benchmark run (blockbench/tracing.py) patches it here too
from .worstcase import ObservableParams, feasible_interval, worst_case_ambiguity  # noqa: F401

SIXSTATE_BASES = (Basis.Z, Basis.X, Basis.Y)
BB84_BASES = (Basis.Z, Basis.X)


class EstimationError(ValueError):
    """Raised when a tally cannot support the requested inversion."""


class ProjectionError(RuntimeError):
    """Raised when an iterative projection fails to converge."""


# ---------------------------------------------------------------------------
# tallies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TallyTable:
    """Counts indexed by (Alice basis, Bob basis, sent bit, received bit).

    ``counts[ia, ib, x, y]`` with ia/ib indexing ``bases``.  The bases are
    distinct and, in any order, exactly BB84's {Z, X} or six-state's
    {Z, X, Y}; any other tuple raises ValueError.
    """

    counts: np.ndarray
    bases: tuple[Basis, ...]

    def __post_init__(self):
        nb = len(self.bases)
        if nb != len(set(self.bases)) or set(self.bases) not in ({*BB84_BASES}, {*SIXSTATE_BASES}):
            names = ", ".join(getattr(b, "name", repr(b)) for b in self.bases)
            raise ValueError(f"bases ({names}) are neither (Z, X) nor (Z, X, Y)")
        values = np.asarray(self.counts).reshape(nb, nb, 2, 2).ravel().tolist()
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise ValueError("non-finite counts")
        if any(v != int(v) for v in values):
            raise ValueError("non-integral counts")
        if min(values) < 0:
            raise ValueError("negative counts")
        # linear_inversion sums the counts in int64
        if sum(int(v) for v in values) >= 2**63:
            raise ValueError("counts total 2^63 or more")
        c = np.array(values, np.int64).reshape(nb, nb, 2, 2)
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def protocol(self) -> str:
        return "sixstate" if len(self.bases) == 3 else "bb84"

    @classmethod
    def from_csv(cls, path) -> "TallyTable":
        """Parse ``a,b,x,y,count`` rows; the counts must total below 2^63."""
        rows = []
        total = 0
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().strip().lower().replace(" ", "")
            if header != "a,b,x,y,count":
                raise ValueError(f"unexpected tally header {header!r}")
            for lineno, line in enumerate(f, start=2):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rows.append(_tally_row(line))
                    total += rows[-1][4]
                    if total >= 2**63:
                        raise ValueError("counts total 2^63 or more")
                except ValueError as exc:
                    raise ValueError(f"tally line {lineno}: {exc}") from None
        seen = {r[0] for r in rows} | {r[1] for r in rows}
        bases = SIXSTATE_BASES if Basis.Y in seen else BB84_BASES
        index = {b: i for i, b in enumerate(bases)}
        counts = np.zeros((len(bases), len(bases), 2, 2), np.int64)
        for a, b, x, y, cnt in rows:
            counts[index[a], index[b], x, y] += cnt
        return cls(counts, bases)


def _tally_row(line: str) -> tuple[Basis, Basis, int, int, int]:
    fields = line.split(",")
    if len(fields) != 5:
        raise ValueError(f"expected 5 fields a,b,x,y,count, got {len(fields)}")
    a, b, x, y, cnt = fields
    x, y, cnt = int(x), int(y), int(cnt)
    if x not in (0, 1) or y not in (0, 1):
        raise ValueError(f"bits x={x} y={y} must be 0 or 1")
    if cnt < 0:
        raise ValueError(f"count {cnt} is negative")
    return Basis.from_letter(a), Basis.from_letter(b), x, y, cnt


def sample_tally(
    ch: AffineChannel,
    bases: tuple[Basis, ...],
    samples_per_cell: int,
    rng: np.random.Generator,
) -> TallyTable:
    """Multinomial tally with a fixed number of samples per basis pair."""
    cells = np.clip(joint_tables(ch, bases), 0.0, None).reshape(-1, 4)
    counts = [rng.multinomial(samples_per_cell, p / p.sum()) for p in cells]
    return TallyTable(np.array(counts), bases)


def empirical_key_joint(tally: TallyTable, direction: str) -> np.ndarray:
    """Relative frequencies of the key basis pair's tally cell, as P(key, helper)."""
    ia, ib = (tally.bases.index(b) for b in key_bases(direction))
    cell = tally.counts[ia, ib].astype(float)
    total = cell.sum()
    if total <= 0:
        raise EstimationError("tally has no samples in the key basis pair")
    return key_joint(cell / total, direction)


# ---------------------------------------------------------------------------
# linear inversion
# ---------------------------------------------------------------------------


def linear_inversion(tally: TallyTable) -> AffineChannel:
    """Invert output biases into the raw affine parameters, before projection.

    For each basis pair the bias of the outputs given input bit 0 and given
    input bit 1 yields one r entry and one estimate of the translation
    component; the translation estimates from different input bases are
    averaged with equal weight.  A six-state tally determines all twelve
    parameters; a BB84 tally determines only omega
    (:meth:`ObservableParams.from_channel`), and the y row and column of r
    and t_y stay NaN.  The result is rarely completely positive.
    """
    bases, counts = tally.bases, tally.counts
    n_x = counts.sum(-1)
    if (n_x == 0).any():
        ia, ib, x = np.argwhere(n_x == 0)[0]
        a, b = bases[ia].name.lower(), bases[ib].name.lower()
        raise EstimationError(f"empty tally cell a={a} b={b} x={x}")
    # q[a, b, x] is the output bias (same - flip) / n_x given input bit x
    same = counts[..., [0, 1], [0, 1]]
    flip = counts[..., [0, 1], [1, 0]]
    q = np.clip((same - flip) / n_x, -1.0, 1.0)
    axes = [b.axis for b in bases]
    r = np.full((3, 3), np.nan)
    r[np.ix_(axes, axes)] = 0.5 * (q[..., 0] + q[..., 1]).T
    t = np.full(3, np.nan)
    t[axes] = (0.5 * (q[..., 0] - q[..., 1])).mean(axis=0)
    return AffineChannel(np.clip(r, -1.0, 1.0), np.clip(t, -1.0, 1.0))


# ---------------------------------------------------------------------------
# six-state projection: Frobenius-nearest valid Choi matrix
# ---------------------------------------------------------------------------


def _project_affine_constraints(m: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto {Hermitian, partial trace over B = I/2}."""
    return choi_from_coefficients(choi_coefficients(m))


def _project_psd(m: np.ndarray) -> np.ndarray:
    w, v = _lapack.eigh(0.5 * (m + m.conj().T))
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def nearest_choi(choi: np.ndarray) -> np.ndarray:
    """Frobenius-nearest valid Choi matrix, by Dykstra's alternating projections.

    Inputs valid to within ``PSD_TOL`` are returned unchanged (the same
    object); a projected result is read-only.  Raises ProjectionError when
    the iteration has not stabilized to 1e-10 after 10,000 rounds.
    """
    with _lapack.errors():
        try:
            check_choi(choi, PSD_TOL)
            if _lapack.eigvalsh(choi)[0] >= -PSD_TOL:
                return choi
        except ValueError:
            pass

        x = choi.copy()
        p = np.zeros_like(x)
        q = np.zeros_like(x)
        for _ in range(10_000):
            xp = x + p
            y = _project_psd(xp)
            p = xp - y
            yq = y + q
            x_new = _project_affine_constraints(yq)
            q = yq - x_new
            # the Frobenius norm of x_new - x as numpy.linalg.norm computes it
            d = (x_new - x).ravel()
            if math.sqrt(d.real.dot(d.real) + d.imag.dot(d.imag)) < 1e-10:
                if _lapack.eigvalsh(x_new)[0] < -PSD_TOL:
                    raise ProjectionError("converged iterate violates positivity")
                x_new.setflags(write=False)
                return x_new
            x = x_new
    raise ProjectionError("Dykstra projection did not converge in 10000 iterations")


# ---------------------------------------------------------------------------
# BB84 projection: Euclidean-nearest feasible omega
#
# minimize ||omega_hat - omega_tilde||^2 over (omega_hat, r_yy) subject to
# Choi(omega_hat, r_yy) PSD, via a log-det barrier with a damped Newton
# inner loop.  The Choi matrix is real symmetric and affine in the seven
# variables, so gradients and Hessians of log det are exact traces.
# ---------------------------------------------------------------------------


_BARRIER_RHO0 = np.eye(4) / 4.0
# G_k = Choi(e_k) - I/4 for the unit vectors e_k of (omega, r_yy)
_BARRIER_G = np.array(
    [
        choi_from_affine(ObservableParams(*e[:6]).complete(e[6])).real - _BARRIER_RHO0
        for e in np.eye(7)
    ]
)
_BARRIER_G16 = _BARRIER_G.reshape(7, 16)


def _barrier_rho(v: np.ndarray) -> np.ndarray:
    return _BARRIER_RHO0 + (v @ _BARRIER_G16).reshape(4, 4)


def project_omega_bb84(omega_raw: ObservableParams) -> ObservableParams:
    """Feasible omega near the nearest one: the barrier point at mu = 1e-9.

    Feasible inputs are returned unchanged (the same object).  The barrier
    parameter runs from 1 down to 1e-9 by factors of 1000; each stage takes
    damped Newton steps until the Newton decrement ``-grad . step_dir`` is
    at most 1e-18 (Boyd & Vandenberghe, *Convex Optimization*, 9.5 and
    11.3), for at most 200 steps.  One batched product ``rho^-1 G_k`` gives
    the gradient and Hessian of a step, and the value accepted by a line
    search is the next step's starting value, so each step forms the
    barrier matrix once plus once per line-search trial.
    """
    if omega_raw.interval is not None:
        return omega_raw

    target = omega_raw.as_array()

    def barrier_value(vv, mu):
        # a NaN-filled Cholesky factor is the strict-feasibility test; a positive
        # determinant alone would admit points with two negative eigenvalues
        chol = _lapack.cholesky(_barrier_rho(vv))
        if math.isnan(chol[0, 0]):
            return None
        logdet = 2.0 * np.log(chol.diagonal()).sum()
        d = vv[:6] - target
        return float((d * d).sum() - mu * logdet)

    v = np.zeros(7)
    with _lapack.errors():
        for mu in 10.0 ** -np.arange(0, 10, 3):
            f0 = barrier_value(v, mu)
            for _ in range(200):
                rg = _lapack.inv(_barrier_rho(v)) @ _BARRIER_G
                grad = -mu * rg.trace(axis1=1, axis2=2)
                grad[:6] += 2.0 * (v[:6] - target)
                # d2(-log det)/dv_k dv_l = tr(rho^-1 G_k rho^-1 G_l)
                hess = mu * (rg.reshape(7, 16) @ rg.transpose(0, 2, 1).reshape(7, 16).T)
                # the quadratic term adds 2 to the first six diagonal entries
                hess.ravel()[:41:8] += 2.0
                step_dir = _lapack.solve(hess, -grad)
                slope = float(grad @ step_dir)
                if -slope <= 1e-18:
                    break
                step = 1.0
                # a line search that cannot descend ends the stage; the next,
                # smaller mu starts from here
                while step > 1e-6:
                    trial = v + step * step_dir
                    f1 = barrier_value(trial, mu)
                    if f1 is not None and f1 <= f0 + 1e-4 * step * slope:
                        break
                    step *= 0.5
                if step <= 1e-6:
                    break
                v, f0 = trial, f1

    out = ObservableParams(*v[:6])
    if out.interval is None:
        raise ProjectionError("barrier projection ended at an infeasible point")
    return out


# ---------------------------------------------------------------------------
# end-to-end estimation pipelines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """The rate decision of either protocol, from what its statistics fix.

    ``text`` is the estimate as a run report prints it.  A BB84 estimate
    knows omega only, so its ``choi`` and ``conventional_sixstate`` are None.
    """

    text: str
    choi: np.ndarray | None
    direct: RateReport
    reverse: RateReport
    mismatched: RateReport
    conventional_bb84: float
    conventional_sixstate: float | None
    projected: bool


def choi_estimate(choi: np.ndarray, channel: AffineChannel, projected: bool) -> Estimate:
    """Exact-channel key rates of a valid Choi matrix; ``channel`` is its
    affine form, which the baselines and the text read."""
    r_diag = np.diag(channel.r)
    return Estimate(
        text=format_channel_spec(channel),
        choi=choi,
        **{d: keyrate(choi, d) for d in DIRECTIONS},
        conventional_bb84=keyrate_conventional_bb84(r_diag[0], r_diag[1]),
        conventional_sixstate=keyrate_conventional_sixstate(r_diag),
        projected=projected,
    )


def omega_estimate(
    omega: ObservableParams, mismatched_joint: np.ndarray, projected: bool
) -> Estimate:
    """Worst-case key rates over the completions of a feasible omega.

    The worst-case ambiguity is one per key party.  The matched pairs'
    conditional entropies read the completion ``omega.complete(0.0)``: the Z
    pair sees only r_zz and t_z, so every completion gives the same joint.
    The mismatched rate reads the joint it is given, the distribution that
    variant actually reconciles against.
    """
    ambiguity = {key_party(d): worst_case_ambiguity(omega, d) for d in ("direct", "reverse")}
    completion = omega.complete(0.0)

    def report(direction: str, joint: np.ndarray) -> RateReport:
        return RateReport.build(ambiguity[key_party(direction)], cond_entropy(joint))

    return Estimate(
        text="omega " + " ".join(repr(float(v)) for v in omega.as_array()),
        choi=None,
        direct=report("direct", channel_key_joint(completion, "direct")),
        reverse=report("reverse", channel_key_joint(completion, "reverse")),
        mismatched=report("mismatched", mismatched_joint),
        conventional_bb84=keyrate_conventional_bb84(omega.r_zz, omega.r_xx),
        conventional_sixstate=None,
        projected=projected,
    )


def estimate_rates_sixstate(tally: TallyTable) -> Estimate:
    """Linear inversion, nearest-Choi projection, exact-channel key rates."""
    if tally.protocol != "sixstate":
        raise EstimationError("six-state estimation needs tallies in all three bases")
    raw = choi_from_affine(linear_inversion(tally))
    choi = nearest_choi(raw)
    return choi_estimate(choi, affine_from_choi(choi), choi is not raw)


def estimate_rates_bb84(tally: TallyTable) -> Estimate:
    """Worst-case BB84 rates from Z/X statistics only; the mismatched rate
    reads its joint straight off the z-sent / x-measured tally cell."""
    raw = ObservableParams.from_channel(linear_inversion(tally))
    omega = project_omega_bb84(raw)
    return omega_estimate(omega, empirical_key_joint(tally, "mismatched"), omega is not raw)
