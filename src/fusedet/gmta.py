"""Gradient-matrix task alignment.

The per-task gradients of the shared parameters form the columns of a
tall P x T matrix G.  Its condition number (ratio of extreme singular
values) measures how unstable a combined update g = G w is; alignment
replaces G with the closest matrix having orthogonal, equal-norm columns
(the scaled Procrustes solution sigma * U * V^T, with sigma the smallest
nonzero singular value), which has condition number 1 by construction.

The thin SVD here is a one-sided Jacobi sweep, exact in one rotation for
the two-task case; numpy's own decompositions are deliberately not used
so the tests can treat them as independent oracles.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Var

RANK_TOL = 1e-12  # sigma_i <= RANK_TOL * sigma_1 counts as zero
_JACOBI_SWEEPS = 100
_JACOBI_TOL = 1e-15


class SvdConvergenceError(RuntimeError):
    """One-sided Jacobi failed to converge within the sweep cap."""


def _json_kappas(d: dict) -> dict:
    """`d` with an infinite kappa_before or kappa_after written as "inf", which JSON can hold."""
    for key in ("kappa_before", "kappa_after"):
        if math.isinf(d[key]):
            d[key] = "inf"
    return d


@dataclass
class AlignmentReport:
    """Diagnostics of one alignment of the shared-gradient matrix."""

    singular_values: list[float]
    kappa_before: float
    kappa_after: float
    rank: int
    frobenius_distance: float

    def to_json(self) -> dict:
        return _json_kappas(asdict(self))  # align() stores plain Python floats and ints


def build_gradient_matrix(g_u: np.ndarray, g_d: np.ndarray) -> np.ndarray:
    """Stack the flattened task gradients as columns, fusion first."""
    g_u = np.asarray(g_u, dtype=np.float64).reshape(-1)
    g_d = np.asarray(g_d, dtype=np.float64).reshape(-1)
    if g_u.shape != g_d.shape:
        raise ValueError(f"gradient lengths differ: {g_u.size} vs {g_d.size}")
    return np.stack([g_u, g_d], axis=1)


def _complete_column(u: np.ndarray, filled: int, col: int) -> None:
    """Fill a null-space column of U so U keeps orthonormal columns."""
    p = u.shape[0]
    for k in range(p):
        cand = np.zeros(p)
        cand[k] = 1.0
        for j in range(filled):
            cand -= (u[:, j] @ cand) * u[:, j]
        for j in range(filled, col):
            cand -= (u[:, j] @ cand) * u[:, j]
        norm = np.sqrt(cand @ cand)
        if norm > 0.5:
            u[:, col] = cand / norm
            return
    raise RuntimeError("could not complete orthonormal basis")


def svd(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD of a tall matrix by one-sided Jacobi column rotations.

    Returns (U, s, V) with G = U @ diag(s) @ V.T, singular values
    nonnegative descending, and orthonormal columns in U and V.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2 or g.shape[0] < g.shape[1] or g.shape[1] < 1:
        raise ValueError(f"svd: expected a tall PxT matrix, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise ValueError("svd: non-finite entries")
    p, t = g.shape
    # work at unit scale so Gram products cannot overflow on huge gradients
    scale = float(np.max(np.abs(g)))
    a = g / scale if scale > 0 else g.copy()
    v = np.eye(t)
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i in range(t - 1):
            for j in range(i + 1, t):
                aii = a[:, i] @ a[:, i]
                ajj = a[:, j] @ a[:, j]
                aij = a[:, i] @ a[:, j]
                if abs(aij) <= _JACOBI_TOL * np.sqrt(aii * ajj) or aij == 0.0:
                    continue
                rotated = True
                tau = (ajj - aii) / (2.0 * aij)
                tpar = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + tpar * tpar)
                s = tpar * c
                ai, aj = a[:, i].copy(), a[:, j].copy()
                a[:, i] = c * ai - s * aj
                a[:, j] = s * ai + c * aj
                vi, vj = v[:, i].copy(), v[:, j].copy()
                v[:, i] = c * vi - s * vj
                v[:, j] = s * vi + c * vj
        if not rotated:
            break
    else:
        raise SvdConvergenceError(f"one-sided Jacobi did not converge in {_JACOBI_SWEEPS} sweeps")
    norms = np.sqrt(np.sum(a * a, axis=0))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    sigma = norms * (scale if scale > 0 else 1.0)
    a = a[:, order]
    v = v[:, order]
    u = np.zeros((p, t))
    nmax = norms[0] if norms.size else 0.0
    filled = 0
    for k in range(t):
        if nmax > 0 and norms[k] > RANK_TOL * nmax:
            u[:, k] = a[:, k] / norms[k]
            filled = k + 1
    for k in range(t):
        if not (nmax > 0 and norms[k] > RANK_TOL * nmax):
            _complete_column(u, filled, k)
    # canonical signs: largest-magnitude entry of each left vector positive
    for k in range(t):
        lead = np.argmax(np.abs(u[:, k]))
        if u[lead, k] < 0:
            u[:, k] = -u[:, k]
            v[:, k] = -v[:, k]
    return u, sigma, v


def _rank_and_kappa(sigma: np.ndarray) -> tuple[int, float]:
    """Numerical rank of descending singular values, and sigma_1 / sigma_T (+inf below full rank)."""
    rank = int(np.sum(sigma > RANK_TOL * sigma[0]))
    return rank, float("inf") if rank < sigma.size else float(sigma[0] / sigma[-1])


def condition_number(g: np.ndarray) -> float:
    """sigma_max / sigma_min; +inf when the matrix is rank deficient."""
    g = np.asarray(g, dtype=np.float64)
    if not np.any(g):
        raise ValueError("condition_number: no gradient signal (zero matrix)")
    return _rank_and_kappa(svd(g)[1])[1]


def align(g: np.ndarray) -> tuple[np.ndarray, AlignmentReport]:
    """Closest orthogonal-column matrix at the scale of the smallest nonzero singular value.

    Full-rank G maps to sigma_min * U * V^T.  Rank-deficient G falls back
    to projecting onto the surviving principal directions at the smallest
    nonzero scale, so training can continue through flat-task phases.
    """
    g = np.asarray(g, dtype=np.float64)
    if not np.any(g):
        raise ValueError("align: no gradient signal (zero matrix)")
    u, sigma, v = svd(g)
    rank, kappa_before = _rank_and_kappa(sigma)
    scale = float(sigma[rank - 1])
    g_hat = scale * (u[:, :rank] @ v[:, :rank].T)
    _, sigma_after, _ = svd(g_hat)
    nz = sigma_after[sigma_after > RANK_TOL * sigma_after[0]]
    kappa_after = float(nz[0] / nz[-1])
    report = AlignmentReport(
        singular_values=[float(s) for s in sigma],
        kappa_before=kappa_before,
        kappa_after=kappa_after,
        rank=rank,
        frobenius_distance=float(np.linalg.norm(g - g_hat)),
    )
    return g_hat, report


def combine(g_hat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Cumulative gradient g = G_hat @ w."""
    g_hat = np.asarray(g_hat, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if g_hat.ndim != 2 or g_hat.shape[1] != w.size:
        raise ValueError(f"combine: matrix shape {g_hat.shape} incompatible with weight length {w.size}")
    return g_hat @ w


@dataclass
class StepReport:
    """One training step: both task losses and what the update did to the shared parameters."""

    step: int
    loss_u: float
    loss_d: float
    aligned: bool
    rank: int
    kappa_before: float
    kappa_after: float
    singular_values: list[float]
    grad_norm_u: float
    grad_norm_d: float
    grad_cosine: float  # cosine of the two shared gradients; 0 when either is zero
    shared_step_ratio: float  # |G_hat w| / |G w| of the update taken: 1 unaligned, 0 when G w is zero
    column_norms_after: list[float] = field(default_factory=list)

    def to_json(self) -> dict:
        return _json_kappas(asdict(self))


def gmta_step(
    params: ParamSet,
    loss_u: Var,
    loss_d: Var,
    w: tuple[float, float],
    lr: float,
    step: int,
    period: int = 1,
    align_enabled: bool = True,
) -> StepReport:
    """One joint update: aligned shared gradients on schedule, raw elsewhere.

    Shared parameters move along (aligned) G w; task-private parameters
    move along their own task gradient scaled by that task's weight.
    Parameter value arrays in `params` are replaced in place.
    """
    if sum(w) <= 0 or min(w) < 0:
        raise ValueError("task weights must be nonnegative with positive sum")
    grads_u = ad.backward(loss_u, params)
    grads_d = ad.backward(loss_d, params)
    shared = params.shared_names()
    gu = ad.flatten_grads(grads_u, shared)
    gd = ad.flatten_grads(grads_d, shared)
    norm_u = float(np.linalg.norm(gu))
    norm_d = float(np.linalg.norm(gd))
    cosine = float(gu @ gd / (norm_u * norm_d)) if norm_u > 0 and norm_d > 0 else 0.0
    g = build_gradient_matrix(gu, gd)
    g_plain = combine(g, np.asarray(w))
    aligned = bool(align_enabled and period >= 1 and step % period == 0 and np.any(g))
    g_comb, column_norms = g_plain, []
    if not np.any(g):
        # no shared signal this step: the shared parameters stay, privates still move
        rank, kappa_before, kappa_after, sigma = 0, float("inf"), float("inf"), [0.0, 0.0]
    elif aligned:
        g_hat, rep = align(g)
        g_comb = combine(g_hat, np.asarray(w))
        rank, kappa_before, kappa_after, sigma = rep.rank, rep.kappa_before, rep.kappa_after, rep.singular_values
        column_norms = [float(np.sqrt(g_hat[:, k] @ g_hat[:, k])) for k in range(g_hat.shape[1])]
    else:
        _, s, _ = svd(g)
        rank, kappa_before = _rank_and_kappa(s)
        kappa_after, sigma = kappa_before, [float(v) for v in s]
    plain = float(np.linalg.norm(g_plain))
    report = StepReport(
        step, loss_u.item(), loss_d.item(), aligned, rank, kappa_before, kappa_after, sigma, norm_u, norm_d,
        cosine, float(np.linalg.norm(g_comb)) / plain if plain > 0 else 0.0, column_norms,
    )
    if np.any(g_comb):
        updates = ad.unflatten(g_comb, params.shapes(), shared)
        for name in shared:
            params.values[name] = params.values[name] - lr * updates[name]
    for name in params.private_names():
        step_dir = w[0] * grads_u[name] + w[1] * grads_d[name]
        params.values[name] = params.values[name] - lr * step_dir
    return report
