"""Calibration of the preprocessing-model coefficients (paper §6.2).

The six coefficients of :class:`~repro.core.model.CostCoefficients` are
machine properties.  The paper determines them once per system by linear
regression over a small set of instrumented runs: the twitter matrix at
K=32, p=32, with nine combinations of stripe width and forced
sync/async classification.  This module does the same against the
*simulated* machine.

Each run yields per-node observations; three independent least-squares
fits recover the coefficients from the model equations:

* ``sync_comm  = beta_S * (S_S W K) + alpha_S * S_S``
* ``async_comm = beta_A * (K L_A)   + alpha_A * S_A``
* ``async_comp = gamma_A * (K N_A)  + kappa_A * S_A``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..cluster.machine import MachineConfig
from ..errors import CalibrationError
from ..sparse.coo import COOMatrix
from .model import CostCoefficients


@dataclass
class CalibrationObservation:
    """One (node, run) sample for the regression."""

    n_sync_stripes: int
    n_async_stripes: int
    rows_async: int
    nnz_async: int
    stripe_width: int
    k: int
    sync_comm: float
    async_comm: float
    async_comp: float


def density_threshold_override(fraction: float):
    """Classifier override: flip the sparsest ``fraction`` of remote
    stripes (by needed-rows density) to asynchronous.

    Produces the spread of classifications the calibration sweep needs.
    """

    def override(stats, geometry, k):
        mask = np.zeros(stats.n_stripes, dtype=bool)
        remote_idx = np.flatnonzero(~stats.is_local)
        if len(remote_idx) == 0 or fraction <= 0:
            return mask
        density = stats.rows_needed[remote_idx].astype(np.float64)
        order = remote_idx[np.argsort(density, kind="stable")]
        n_flip = int(round(fraction * len(order)))
        mask[order[:n_flip]] = True
        return mask

    return override


def collect_observations(
    A: COOMatrix,
    machine: MachineConfig,
    k: int = 32,
    stripe_widths: Optional[Sequence[int]] = None,
    async_fractions: Sequence[float] = (0.25, 0.6, 0.95),
) -> List[CalibrationObservation]:
    """Run the calibration sweep and gather per-node samples.

    Args:
        A: calibration matrix (the paper uses twitter).
        machine: simulated machine to calibrate for.
        k: dense columns during calibration (paper: 32).
        stripe_widths: widths to sweep; defaults to {W/2, W, 2W} around
            the dimension-scaled default.
        async_fractions: forced async fractions to sweep.

    Returns:
        One observation per (run, node) with a nonzero stripe count.
    """
    from ..algorithms.twoface import TwoFace  # local import: avoid cycle
    from ..sparse.suite import stripe_width_for

    if stripe_widths is None:
        base = stripe_width_for(A.shape[0])
        stripe_widths = (max(4, base // 2), base, 2 * base)

    rng = np.random.default_rng(42)
    B = rng.standard_normal((A.shape[1], k))
    observations: List[CalibrationObservation] = []
    for width in stripe_widths:
        for fraction in async_fractions:
            algo = TwoFace(
                stripe_width=int(width),
                classify_override=density_threshold_override(fraction),
            )
            result = algo.run(A, B, machine)
            if result.failed:
                raise CalibrationError(
                    f"calibration run failed (W={width}, "
                    f"fraction={fraction}): {result.failure}"
                )
            plan = algo.last_plan
            for rank in range(machine.n_nodes):
                cls = plan.rank_plan(rank).classification
                node = result.breakdown.node(rank)
                if cls.n_sync + cls.n_async == 0:
                    continue
                observations.append(
                    CalibrationObservation(
                        n_sync_stripes=cls.n_sync,
                        n_async_stripes=cls.n_async,
                        rows_async=cls.rows_async,
                        nnz_async=cls.nnz_async,
                        stripe_width=int(width),
                        k=k,
                        sync_comm=node.sync_comm,
                        async_comm=node.async_comm,
                        async_comp=node.async_comp,
                    )
                )
    return observations


def _fit_two_term(
    x1: np.ndarray, x2: np.ndarray, y: np.ndarray, what: str
) -> tuple:
    """Non-negative least squares of ``y ~ c1 x1 + c2 x2`` (2 terms)."""
    X = np.stack([x1, x2], axis=1)
    if len(y) < 2:
        raise CalibrationError(f"not enough samples to fit {what}")
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < 2:
        # Degenerate design (e.g. all-sync runs): fall back to a
        # single-term fit on the dominant regressor.
        denom = float((x1 * x1).sum())
        c1 = float((x1 * y).sum() / denom) if denom else 0.0
        return max(c1, 0.0), 0.0
    return max(float(coef[0]), 0.0), max(float(coef[1]), 0.0)


def fit_coefficients(
    observations: Sequence[CalibrationObservation],
) -> CostCoefficients:
    """Least-squares fit of the six coefficients from observations."""
    if not observations:
        raise CalibrationError("no calibration observations")
    s_sync = np.array([o.n_sync_stripes for o in observations], float)
    s_async = np.array([o.n_async_stripes for o in observations], float)
    wk = np.array(
        [o.n_sync_stripes * o.stripe_width * o.k for o in observations],
        float,
    )
    kl = np.array([o.k * o.rows_async for o in observations], float)
    kn = np.array([o.k * o.nnz_async for o in observations], float)
    y_sync = np.array([o.sync_comm for o in observations], float)
    y_acomm = np.array([o.async_comm for o in observations], float)
    y_acomp = np.array([o.async_comp for o in observations], float)

    beta_s, alpha_s = _fit_two_term(wk, s_sync, y_sync, "sync comm")
    beta_a, alpha_a = _fit_two_term(kl, s_async, y_acomm, "async comm")
    gamma_a, kappa_a = _fit_two_term(kn, s_async, y_acomp, "async comp")
    return CostCoefficients(
        beta_s=beta_s,
        alpha_s=alpha_s,
        beta_a=beta_a,
        alpha_a=alpha_a,
        gamma_a=gamma_a,
        kappa_a=kappa_a,
    )


def fit_correction(
    predicted: Sequence[float], observed: Sequence[float]
) -> float:
    """Least-squares multiplicative correction ``observed ~ s * predicted``.

    The autotuner's drift feedback (DESIGN.md §10): when predicted and
    observed simulated seconds drift apart — faults, a re-scaled
    machine, a stale coefficient set — the cheapest recalibration is a
    single non-negative scale per algorithm, fitted over the recorded
    (predicted, observed) pairs.  Returns 1.0 when there is nothing to
    fit (no samples, or degenerate all-zero predictions).
    """
    p = np.asarray(predicted, dtype=np.float64)
    o = np.asarray(observed, dtype=np.float64)
    if p.shape != o.shape:
        raise CalibrationError(
            f"predicted/observed length mismatch: {p.shape} vs {o.shape}"
        )
    keep = np.isfinite(p) & np.isfinite(o)
    p, o = p[keep], o[keep]
    denom = float((p * p).sum())
    if not len(p) or denom <= 0.0:
        return 1.0
    return max(float((p * o).sum() / denom), 0.0)


def calibrate(
    A: COOMatrix,
    machine: MachineConfig,
    k: int = 32,
    stripe_widths: Optional[Sequence[int]] = None,
) -> CostCoefficients:
    """Full calibration: sweep, collect, fit (paper §6.2 in one call)."""
    observations = collect_observations(
        A, machine, k=k, stripe_widths=stripe_widths
    )
    return fit_coefficients(observations)
