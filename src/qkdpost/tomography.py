"""Channel estimation from counting statistics.

The estimation pipeline has three stages: linear inversion of the per-basis
bias statistics into raw affine parameters, projection of the raw estimate
onto the set of valid channels (it is rarely valid at finite sample size),
and evaluation of the key-rate machinery on the projected estimate.

Six-state tallies determine all twelve parameters, and the projection is a
Frobenius-nearest valid Choi matrix computed with Dykstra's alternating
projections.  BB84 tallies determine only the six observable parameters, and
the projection is a Euclidean-nearest feasible parameter vector computed with
a log-det barrier interior-point method over the joint (omega, r_yy) set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    AffineChannel,
    Basis,
    ChoiMatrix,
    affine_from_choi,
    choi_from_affine,
    joint_distribution,
    partial_trace_output,
)
from .entropy import JointDistribution, binary_entropy, cond_entropy
from .keyrate import (
    RateReport,
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


# A Choi matrix counts as PSD when its lowest eigenvalue is above -PSD_TOL.
PSD_TOL = 1e-9


# ---------------------------------------------------------------------------
# tallies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TallyTable:
    """Counts indexed by (Alice basis, Bob basis, sent bit, received bit).

    ``counts[ia, ib, x, y]`` with ia/ib indexing ``bases``.  BB84 tallies use
    the (Z, X) basis pair set, six-state tallies use (Z, X, Y).
    """

    counts: np.ndarray
    bases: tuple[Basis, ...]

    def __post_init__(self):
        nb = len(self.bases)
        c = np.asarray(self.counts, dtype=np.int64).reshape(nb, nb, 2, 2).copy()
        if (c < 0).any():
            raise ValueError("negative counts")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def protocol(self) -> str:
        return "sixstate" if len(self.bases) == 3 else "bb84"

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("a,b,x,y,count\n")
            for ia, a in enumerate(self.bases):
                for ib, b in enumerate(self.bases):
                    for x in (0, 1):
                        for y in (0, 1):
                            f.write(
                                f"{a.name.lower()},{b.name.lower()},{x},{y},"
                                f"{int(self.counts[ia, ib, x, y])}\n"
                            )

    @classmethod
    def from_csv(cls, path) -> "TallyTable":
        rows = []
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
    return Basis.from_letter(a), Basis.from_letter(b), x, y, cnt


def _joint_tables(ch: AffineChannel, bases: tuple[Basis, ...]) -> np.ndarray:
    """Exact P(x, y) of every basis pair, indexed like ``TallyTable.counts``."""
    return np.array([[joint_distribution(ch, a, b) for b in bases] for a in bases])


def sample_tally(
    ch: AffineChannel,
    bases: tuple[Basis, ...],
    samples_per_cell: int,
    rng: np.random.Generator,
) -> TallyTable:
    """Multinomial tally with a fixed number of samples per basis pair."""
    cells = np.clip(_joint_tables(ch, bases), 0.0, None).reshape(-1, 4)
    counts = [rng.multinomial(samples_per_cell, p / p.sum()) for p in cells]
    return TallyTable(np.array(counts), bases)


def exact_tally(ch: AffineChannel, bases: tuple[Basis, ...], scale: int = 10**12) -> TallyTable:
    """Idealized tally with counts proportional to the exact probabilities.

    Rounding error is at most one count per cell, which is negligible at the
    default scale; meant for fixtures and pipeline identities.
    """
    return TallyTable(np.rint(_joint_tables(ch, bases) * scale).astype(np.int64), bases)


# ---------------------------------------------------------------------------
# linear inversion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RawEstimate:
    """Affine parameters straight from the bias relations, before projection.

    Entries not determined by the tally (the y row/column for BB84) are NaN.
    ``cell_counts[ia, ib, x]`` stores the sample sizes behind each bias.
    """

    r: np.ndarray
    t: np.ndarray
    cell_counts: np.ndarray
    bases: tuple[Basis, ...]

    def to_omega(self) -> ObservableParams:
        return ObservableParams(
            self.r[0, 0], self.r[0, 1], self.r[1, 0], self.r[1, 1], self.t[0], self.t[1]
        )

    def to_channel(self) -> AffineChannel:
        if np.isnan(self.r).any() or np.isnan(self.t).any():
            raise EstimationError("estimate has undetermined entries; BB84 data only")
        return AffineChannel(self.r, self.t)

    def to_choi(self) -> ChoiMatrix:
        return choi_from_affine(self.to_channel())


def linear_inversion(tally: TallyTable) -> RawEstimate:
    """Invert output biases into affine parameters.

    For each basis pair the bias of the outputs given input bit 0 and given
    input bit 1 yields one r entry and one estimate of the translation
    component; the translation estimates from different input bases are
    averaged with equal weight.
    """
    bases = tally.bases
    r = np.full((3, 3), np.nan)
    t_sums = np.zeros(3)
    t_hits = np.zeros(3)
    nb = len(bases)
    cell_counts = np.zeros((nb, nb, 2), np.int64)
    for ia, a in enumerate(bases):
        for ib, b in enumerate(bases):
            q = np.empty(2)
            for x in (0, 1):
                n_x = int(tally.counts[ia, ib, x].sum())
                cell_counts[ia, ib, x] = n_x
                if n_x == 0:
                    raise EstimationError(
                        f"empty tally cell a={a.name.lower()} b={b.name.lower()} x={x}"
                    )
                same = tally.counts[ia, ib, x, x]
                flip = tally.counts[ia, ib, x, 1 - x]
                q[x] = (same - flip) / n_x
            q = np.clip(q, -1.0, 1.0)
            r[b.axis, a.axis] = 0.5 * (q[0] + q[1])
            t_sums[b.axis] += 0.5 * (q[0] - q[1])
            t_hits[b.axis] += 1.0
    t = np.where(t_hits > 0, t_sums / np.where(t_hits > 0, t_hits, 1.0), np.nan)
    return RawEstimate(np.clip(r, -1.0, 1.0), np.clip(t, -1.0, 1.0), cell_counts, bases)


# ---------------------------------------------------------------------------
# six-state projection: Frobenius-nearest valid Choi matrix
# ---------------------------------------------------------------------------


def _project_affine_constraints(m: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto {Hermitian, partial trace over B = I/2}."""
    m = 0.5 * (m + m.conj().T)
    defect = 0.5 * (partial_trace_output(m) - 0.5 * np.eye(2))
    return m - np.kron(defect, np.eye(2))


def _project_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    w = np.clip(w, 0.0, None)
    return (v * w) @ v.conj().T


def nearest_choi(matrix: np.ndarray) -> ChoiMatrix:
    """Frobenius-nearest valid Choi matrix, by Dykstra's alternating projections.

    Inputs valid to within ``PSD_TOL`` are returned unchanged.  Raises
    ProjectionError when the iteration has not stabilized to 1e-10 after
    10,000 rounds.
    """
    matrix = np.asarray(matrix, dtype=complex).reshape(4, 4)
    candidate = ChoiMatrix(matrix)
    try:
        candidate.validate(PSD_TOL)
        already_psd = candidate.min_eigenvalue() >= -PSD_TOL
    except ValueError:
        already_psd = False
    if already_psd:
        return candidate

    x = matrix.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(10_000):
        y = _project_psd(x + p)
        p = x + p - y
        x_new = _project_affine_constraints(y + q)
        q = y + q - x_new
        if np.linalg.norm(x_new - x) < 1e-10:
            out = ChoiMatrix(x_new)
            if out.min_eigenvalue() < -PSD_TOL:
                raise ProjectionError("converged iterate violates positivity")
            return out
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


def _barrier_basis() -> np.ndarray:
    g = np.zeros((7, 4, 4))

    def sym(i, j, v):
        mat = np.zeros((4, 4))
        mat[i, j] = v
        mat[j, i] = v
        return mat

    g[0] = np.diag([1.0, -1.0, -1.0, 1.0]) / 4.0  # r_zz
    g[1] = (sym(0, 2, 1.0) - sym(1, 3, 1.0)) / 4.0  # r_zx
    g[2] = (sym(0, 1, 1.0) - sym(2, 3, 1.0)) / 4.0  # r_xz
    g[3] = (sym(0, 3, 1.0) + sym(1, 2, 1.0)) / 4.0  # r_xx
    g[4] = np.diag([1.0, -1.0, 1.0, -1.0]) / 4.0  # t_z
    g[5] = (sym(0, 1, 1.0) + sym(2, 3, 1.0)) / 4.0  # t_x
    g[6] = (sym(0, 3, 1.0) - sym(1, 2, 1.0)) / 4.0  # r_yy
    return g


_BARRIER_G = _barrier_basis()


def _barrier_rho(v: np.ndarray) -> np.ndarray:
    return np.eye(4) / 4.0 + np.tensordot(v, _BARRIER_G, axes=1)


def project_omega_bb84(omega_raw: ObservableParams) -> ObservableParams:
    """Euclidean-nearest omega with a nonempty feasible interval.

    Feasible inputs are returned unchanged (the same object).  The barrier
    parameter runs from 1 down by factors of 10 until it is at most 1e-8,
    which the rounding of repeated division first reaches at about 1e-9; each
    stage Newton-iterates until the barrier-objective gradient norm falls
    below 1e-9, for at most 200 steps.
    """
    if omega_raw.interval is not None:
        return omega_raw

    target = omega_raw.as_array()
    v = np.zeros(7)
    mu = 1.0
    while True:
        for _ in range(200):
            rho = _barrier_rho(v)
            rho_inv = np.linalg.inv(rho)
            grad = np.zeros(7)
            grad[:6] = 2.0 * (v[:6] - target)
            rg = np.einsum("ij,kjl->kil", rho_inv, _BARRIER_G)
            grad -= mu * np.trace(rg, axis1=1, axis2=2)
            if np.linalg.norm(grad) <= 1e-9:
                break
            hess = mu * np.einsum("kij,lji->kl", rg, rg)
            hess[np.arange(6), np.arange(6)] += 2.0
            step_dir = np.linalg.solve(hess, -grad)

            def barrier_value(vv):
                # Cholesky doubles as the strict-feasibility test; a positive
                # determinant alone would admit points with two negative
                # eigenvalues
                try:
                    chol = np.linalg.cholesky(_barrier_rho(vv))
                except np.linalg.LinAlgError:
                    return None
                logdet = 2.0 * np.log(np.diag(chol)).sum()
                return float(np.sum((vv[:6] - target) ** 2) - mu * logdet)

            f0 = barrier_value(v)
            slope = float(grad @ step_dir)
            step = 1.0
            # Rounding can keep the gradient test from ever passing; the stage
            # then only creeps by tiny steps, so it ends once backtracking
            # falls below 1e-6 and the next, smaller mu starts from here.
            while step > 1e-6:
                f1 = barrier_value(v + step * step_dir)
                if f1 is not None and f1 <= f0 + 1e-4 * step * slope:
                    break
                step *= 0.5
            if step <= 1e-6:
                break
            v = v + step * step_dir
        if mu <= 1e-8:
            break
        mu /= 10.0

    out = ObservableParams(*v[:6])
    if out.interval is None:
        raise ProjectionError("barrier projection ended at an infeasible point")
    return out


# ---------------------------------------------------------------------------
# end-to-end estimation pipelines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SixStateEstimate:
    channel: AffineChannel
    choi: ChoiMatrix
    direct: RateReport
    reverse: RateReport
    conventional_bb84: float
    conventional_sixstate: float
    projected: bool


@dataclass(frozen=True)
class BB84Estimate:
    omega: ObservableParams
    direct: RateReport
    reverse: RateReport
    mismatched: RateReport
    conventional_bb84: float
    projected: bool


def estimate_rates_sixstate(tally: TallyTable) -> SixStateEstimate:
    """Linear inversion, nearest-Choi projection, exact-channel key rates."""
    if tally.protocol != "sixstate":
        raise EstimationError("six-state estimation needs tallies in all three bases")
    raw = linear_inversion(tally)
    raw_choi = raw.to_choi()
    projected = raw_choi.min_eigenvalue() < -PSD_TOL
    choi = nearest_choi(raw_choi.matrix) if projected else raw_choi
    channel = affine_from_choi(choi, tol=1e-6)
    return SixStateEstimate(
        channel=channel,
        choi=choi,
        direct=keyrate(choi, "direct"),
        reverse=keyrate(choi, "reverse"),
        conventional_bb84=keyrate_conventional_bb84(choi),
        conventional_sixstate=keyrate_conventional_sixstate(choi),
        projected=projected,
    )


def estimate_rates_bb84(tally: TallyTable) -> BB84Estimate:
    """Worst-case BB84 rates from Z/X statistics only.

    Matched-pair conditional entropies come from the projected observable
    block; the mismatched-basis rate reads its conditional entropy straight
    off the z-sent / x-measured tally cell, the distribution that variant
    actually reconciles against.
    """
    raw = linear_inversion(tally)
    omega_raw = raw.to_omega()
    omega = project_omega_bb84(omega_raw)
    projected = omega is not omega_raw
    probe = omega.complete(0.0)
    joint_zz = JointDistribution(joint_distribution(probe, Basis.Z, Basis.Z))
    iz = tally.bases.index(Basis.Z)
    ix = tally.bases.index(Basis.X)
    cell_zx = tally.counts[iz, ix].astype(float)
    joint_zx = JointDistribution(cell_zx / cell_zx.sum())
    amb_direct = worst_case_ambiguity(omega, "direct")
    amb_reverse = worst_case_ambiguity(omega, "reverse")
    h_x_given_y = cond_entropy(joint_zz, "x_given_y")
    h_y_given_x = cond_entropy(joint_zz, "y_given_x")
    h_x_given_y2 = cond_entropy(joint_zx, "x_given_y")
    p_z = joint_zz.error_probability()
    p_x = 0.5 * (1.0 - omega.r_xx)
    return BB84Estimate(
        omega=omega,
        direct=RateReport.build("direct", amb_direct, h_x_given_y),
        reverse=RateReport.build("reverse", amb_reverse, h_y_given_x),
        mismatched=RateReport.build("mismatched", amb_direct, h_x_given_y2),
        conventional_bb84=1.0 - binary_entropy(min(max(p_x, 0.0), 1.0)) - binary_entropy(p_z),
        projected=projected,
    )


def rate_error_curve(
    ch: AffineChannel,
    protocol: str,
    sample_sizes: list[int],
    trials: int,
    seed: int,
) -> list[float]:
    """Median absolute error of the estimated direct rate at each sample size.

    Drives the estimator-consistency checks: the medians must fall as the
    per-cell sample count grows.
    """
    if protocol == "sixstate":
        bases, estimate = SIXSTATE_BASES, estimate_rates_sixstate
        truth = keyrate(choi_from_affine(ch), "direct").raw_rate
    else:
        bases, estimate = BB84_BASES, estimate_rates_bb84
        truth = estimate(exact_tally(ch, bases)).direct.raw_rate
    rng = np.random.default_rng(seed)
    medians = []
    for size in sample_sizes:
        errs = []
        for _ in range(trials):
            rate = estimate(sample_tally(ch, bases, size, rng)).direct.raw_rate
            errs.append(abs(rate - truth))
        medians.append(float(np.median(errs)))
    return medians
