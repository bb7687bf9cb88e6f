"""Geometry of the probability simplex.

This module provides the deterministic orthonormal basis of the orthogonal
complement of the ones vector, the rules for a usable covariance and
hessian, weighted projections onto the polyhedral cones attached to a stack
of simplex points (``project_cone``, one batched active-set solver), and an
active-set solver for quadratic programs over the simplex.

All functions are pure, and the basis and ``SpdMatrix`` are read-only, so
they can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .exceptions import ConvergenceError, IllConditionedError

__all__ = [
    "SpdMatrix",
    "build_basis",
    "check_simplex_point",
    "factor_spd",
    "project_cone",
    "solve_simplex_qp",
]

# largest asymmetry of a usable covariance or hessian, and most negative
# eigenvalue of a usable hessian, relative to max(1, max |entry|)
_SYM_TOL = 1e-10
# weight entries at or below this count as zero, and a simplex point may miss
# nonnegativity and unit sum by this much
_SUPPORT_TOL = 1e-10
# an entry of the mapped residual counts as zero when it is at most _ZERO_TOL
# times max(max |entry|, max |mapped gradient at lam = 0|), unit-free
_ZERO_TOL = 1e-8
# iteration cap of the active-set solvers, as a multiple of K
_MAX_ITER_FACTOR = 50
# largest condition number of a usable covariance
_COND_CAP = 1e12


@lru_cache(maxsize=64)
def build_basis(K: int) -> np.ndarray:
    """Deterministic orthonormal basis orthogonal to the ones vector.

    Uses the Helmert construction: 0-based column ``j`` carries
    ``1/sqrt((j+1)(j+2))`` in its first ``j+1`` entries,
    ``-(j+1)/sqrt((j+1)(j+2))`` in entry ``j+1`` and zeros below. The result
    is reproducible bit for bit across runs and platforms; statistics
    computed downstream are invariant to which valid basis is used.

    Parameters
    ----------
    K : int
        Ambient dimension, at least 2.

    Returns
    -------
    ndarray, shape (K, K-1)
        The basis as columns; cached and read-only.
    """
    if K < 2:
        raise ValueError(f"dimension K must be at least 2, got {K}")
    b2 = np.zeros((K, K - 1))
    for j in range(1, K):
        c = 1.0 / math.sqrt(j * (j + 1))
        b2[:j, j - 1] = c
        b2[j, j - 1] = -j * c
    b2.setflags(write=False)
    return b2


def factor_spd(matrices: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Dict[int, Exception]]:
    """Check a stack of covariance matrices and whiten the ones that pass.

    This is the package's one rule for a usable covariance. Matrix ``i`` of
    the ``(N, d, d)`` stack passes when its entries are finite, it is
    symmetric within ``1e-10 * max(1, max |entry|)``, and its symmetrized
    form is positive definite with condition number at most 1e12. Each
    matrix gets the inverse ``W = L^-1`` of its Cholesky factor, so that
    ``W Omega W' = I`` and ``Omega^-1 = W'W``, and passes at once when
    ``d max |entry| ||W||_F^2``, a bound on its condition number, is at most
    a hundredth of the cap. The others get one eigendecomposition
    ``V diag(eig) V'`` each, which decides the rule and gives the whitening
    ``W = diag(eig)^(-1/2) V'``. No matrix's result depends on the others.

    Returns ``(entries, white, failures)``: the symmetrized matrices, their
    whitenings, and a dict from the index of each failing matrix to the
    exception ``SpdMatrix.from_matrix`` raises for it (a ``ValueError`` for
    non-finite or asymmetric entries, an ``IllConditionedError``
    otherwise). A failing matrix's entries and whitening are the identity.
    """
    a = np.asarray(matrices, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    dim = a.shape[1]
    transposed = a.transpose(0, 2, 1)
    magnitude = np.abs(a).max(axis=(1, 2))  # not finite exactly when an entry is not
    finite = np.isfinite(magnitude)
    with np.errstate(all="ignore"):  # a NaN or inf fails every check below
        scale = np.maximum(1.0, magnitude)
        usable = finite & (np.abs(a - transposed).max(axis=(1, 2)) <= _SYM_TOL * scale)
        entries = 0.5 * (a + transposed)
        failures: Dict[int, Exception] = {
            i: ValueError("matrix has non-finite entries" if not finite[i]
                          else f"matrix is not symmetric within {_SYM_TOL}")
            for i in (~usable).nonzero()[0].tolist()
        }
        # forward elimination of [Omega | I] leaves [D L' | D^(1/2) L^-1], D the
        # pivots; with the stack as the last axis every step is elementwise, so
        # no row's bits depend on its batch
        work = np.empty((dim, 2 * dim, len(a)))
        work[:, :dim] = entries.transpose(1, 2, 0)
        work[:, dim:] = np.eye(dim)[..., None]
        for k, row in enumerate(work[:-1]):
            rest = work[k + 1:]
            rest -= rest[:, k, None] * (row / row[k])
        white = np.empty_like(entries)
        roots = np.sqrt(work.diagonal(axis1=0, axis2=1))
        np.divide(work[:, dim:].transpose(2, 0, 1), roots[..., None], out=white)
        # cond(Omega) <= ||Omega||_F ||W||_F^2, NaN or inf after a pivot <= 0;
        # a hundredth of the cap leaves the eigen rule a wide margin (Weyl)
        certified = magnitude * (white * white).sum(axis=(1, 2)) <= _COND_CAP / (100 * dim)
        rows = (usable & ~certified).nonzero()[0]
        if rows.size:
            eigs, vecs = np.linalg.eigh(entries[rows])
            white[rows] = np.swapaxes(vecs, 1, 2) / np.sqrt(eigs)[..., None]
            low, high = eigs[:, 0], eigs[:, -1]
            for j in np.flatnonzero(~(low > 0.0) | (high / low > _COND_CAP)).tolist():
                if low[j] <= 0.0:
                    message = f"matrix is not positive definite (min eigenvalue {low[j]:.6e})"
                else:
                    cond = high[j] / low[j] if low[j] > 0.0 else math.inf  # low may be NaN
                    message = f"condition number {cond:.6e} exceeds the cap {_COND_CAP:.1e}"
                failures[int(rows[j])] = IllConditionedError(message)
    if failures:
        entries[list(failures)] = white[list(failures)] = np.eye(dim)
    return entries, white, failures


@dataclass(frozen=True, init=False, eq=False)
class SpdMatrix:
    """Symmetric positive definite matrix that passed ``factor_spd``.

    ``entries`` holds the symmetrized matrix and ``white`` its whitening
    ``W``, with ``W entries W' = I``, both read-only. ``from_matrix`` is the
    only constructor.
    """

    entries: np.ndarray
    white: np.ndarray

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError("an SpdMatrix is built by SpdMatrix.from_matrix, which validates it")

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "SpdMatrix":
        """Validate ``matrix`` by ``factor_spd``'s rule and keep its whitening.

        Raises ``ValueError`` for malformed input (shape, non-finite entries,
        asymmetry) and ``IllConditionedError`` when the matrix is not
        positive definite or its condition number exceeds 1e12.
        """
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        entries, white, failures = factor_spd(a[None])
        if failures:
            raise failures[0]
        spd = object.__new__(cls)
        for name, value in (("entries", entries[0]), ("white", white[0])):
            value.setflags(write=False)
            object.__setattr__(spd, name, value)
        return spd


def check_simplex_point(w: Iterable[float], K: Optional[int] = None) -> np.ndarray:
    """Validate that ``w`` lies on the probability simplex and return it.

    Entries may dip below zero by at most 1e-10 and the total must equal
    one within 1e-10.
    """
    arr = np.asarray(w, dtype=float).ravel()
    if K is not None and arr.size != K:
        raise ValueError(f"expected a weight vector of length {K}, got {arr.size}")
    if arr.size < 2:
        raise ValueError("weight vectors need at least two coordinates")
    if not np.all(np.isfinite(arr)):
        raise ValueError("weight vector has non-finite entries")
    if float(arr.min()) < -_SUPPORT_TOL or abs(float(arr.sum()) - 1.0) > _SUPPORT_TOL:
        raise ValueError(f"{arr.tolist()} is not on the simplex within {_SUPPORT_TOL}")
    return arr


def _cap_error(K: int) -> ConvergenceError:
    """The error of a cone projection that exceeds its iteration cap."""
    cap = _MAX_ITER_FACTOR * K
    return ConvergenceError(f"nonnegative least squares exceeded {cap} iterations")


def project_cone(
    f_hat: np.ndarray,
    w: np.ndarray,
    white: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Weighted projections of a stack of gradients onto the cones at a
    stack of simplex points.

    Row ``i`` projects ``f_hat[i]`` onto the cone generated by the Helmert
    basis rows indexed by the vanishing coordinates of ``w[i]``: it minimizes
    ``(f - B2' lam)' omega_i^{-1} (f - B2' lam)`` over multipliers
    ``lam >= 0`` with ``w[i]' lam = 0``. Because both ``w[i]`` and ``lam``
    are nonnegative, the equality pins ``lam`` to zero wherever ``w[i]`` is
    positive. Whitened, each row is a nonnegative least squares over the
    generators on the zero set of ``w[i]``, solved by the active set of
    Lawson and Hanson (1974, *Solving Least Squares Problems*, ch. 23) in
    lockstep over the rows, as in Bro and De Jong (1997). Each iteration, a
    row whose last solution was positive adds its generator of largest dual
    if that exceeds ``1e-11 * max |dual at lam = 0|``, and is settled
    otherwise; a row whose solution was not positive steps back toward its
    last positive point and drops the generators that come within
    ``1e-12 * max z`` of zero. All unsettled rows then share one batched QR
    solve. Both tolerances scale with the gradient, so the result does not
    depend on the units of the outcomes.

    ``f_hat`` is ``(N, K-1)`` in basis coordinates and ``w`` is ``(N, K)``.
    ``factor_spd`` supplies ``white``: the whitening ``W`` (``W omega W' =
    I``) of each row's covariance, ``(N, K-1, K-1)``, or one shared
    ``(1, K-1, K-1)`` whitening, which then whitens the generators once.
    Any ``W`` with ``W'W = omega^-1`` gives the same projection up to
    rounding, so the inverse Cholesky factor and the eigen whitening serve
    alike. Inputs are not validated: the points must be on the simplex.

    Returns ``(lam, residual, objective, gradient_image, zeros, over_cap)``
    by row: the multipliers (zero wherever ``w`` is positive); the residual
    ``f - B2' lam``, the polar part of the weighted Moreau decomposition; its
    squared omega-weighted norm; its image ``B2 omega^-1 residual``, whose
    sign pattern certifies the KKT conditions; the count of that image's
    entries within ``1e-8 * max(max |entry|, max |B2 omega^-1 f|)``, the
    face hit; and whether the row needed more than ``50 * K`` least-squares
    solves, in which case its other entries are meaningless.
    """
    f = np.asarray(f_hat, dtype=float)
    n_rows, dim = f.shape
    K = dim + 1
    b2 = build_basis(K)
    lam = np.zeros((n_rows, K))
    over_cap = np.zeros(n_rows, dtype=bool)
    # whitened generators W B2' and target W f
    gens = np.broadcast_to(white @ b2.T, (n_rows, dim, K))
    target = (white @ f[..., None])[..., 0]
    vanishing = np.asarray(w) <= _SUPPORT_TOL
    live = np.flatnonzero(vanishing.any(axis=1))  # rows still iterating
    if live.size:
        # only the columns on a row's zero set may enter its passive set
        A, t, allowed = gens[live], target[live], vanishing[live]
        x = np.zeros((live.size, K))
        passive = np.zeros((live.size, K), dtype=bool)
        adding = np.ones(live.size, dtype=bool)  # the row's last solution was positive
        solves = 0
        while True:
            residual = t - (A @ x[:, :, None])[..., 0]
            dual = (residual[:, None, :] @ A)[:, 0]
            if solves == 0:  # the dual at lam = 0 sets the tolerance
                dual_tol = 1e-11 * np.abs(dual * allowed).max(axis=1)
            dual[~allowed | passive | ~adding[:, None]] = -np.inf
            enter = dual.argmax(axis=1)
            grows = dual.max(axis=1) > dual_tol
            passive[grows, enter[grows]] = True
            done = adding & ~grows
            settled = np.count_nonzero(done)
            if settled:
                lam[live[done]] = x[done]
                if settled == len(live):
                    break
                keep = ~done
                live, A, t, allowed, x, passive, dual_tol = (
                    a[keep] for a in (live, A, t, allowed, x, passive, dual_tol)
                )
            solves += 1
            if solves > _MAX_ITER_FACTOR * K:
                over_cap[live] = True
                break
            z = _passive_lstsq(A, t, passive)
            adding = ((z > 0.0) | ~passive).all(axis=1)
            if not adding.all():
                # the other rows step from x toward z until a passive entry
                # reaches zero, and drop the passive entries at zero
                negative = passive & (z <= 0.0)
                movable = negative & (x - z > 0.0)
                ratio = np.divide(x, x - z, out=np.full_like(x, np.inf), where=movable)
                step = np.where(movable.any(axis=1), ratio.min(axis=1), 0.0)
                z = np.where(adding[:, None], z, x + step[:, None] * (z - x))
                floor = 1e-12 * z.max(axis=1)
                passive &= adding[:, None] | ~(negative & (z <= floor[:, None]))
                z[~passive] = 0.0
            x = z

    residual = f - lam @ b2
    whitened = target - (gens @ lam[..., None])[..., 0]  # W residual
    objective = np.einsum("nd,nd->n", whitened, whitened)
    gradient_image = (whitened[:, None, :] @ gens)[:, 0]  # B2 omega^-1 residual
    magnitude = np.abs(gradient_image)
    mapped = (target[:, None, :] @ gens)[:, 0]  # B2 omega^-1 f
    cutoff = _ZERO_TOL * np.maximum(np.abs(mapped).max(axis=1), magnitude.max(axis=1))
    zeros = (magnitude <= cutoff[:, None]).sum(axis=1)
    return lam, residual, objective, gradient_image, zeros, over_cap


def _passive_lstsq(A: np.ndarray, t: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Row ``i``'s least-squares coefficients of ``t[i]`` on the columns of
    ``A[i]`` marked in ``passive[i]`` (of full rank), zero elsewhere.

    Passive columns move to the front of each row, and the columns past a
    row's passive count are zeroed. One batched QR of the columns with
    ``t`` appended gives ``R`` and ``Q't``; back substitution skips the
    zeroed columns.
    """
    m, dim, K = A.shape
    count = passive.sum(axis=1)
    width = int(count.max())
    each = np.arange(m)[:, None]
    cols = np.argsort(~passive, axis=1, kind="stable")[:, :width]
    real = np.arange(width) < count[:, None]
    design = np.empty((m, dim, width + 1))
    design[..., :width] = np.swapaxes(A[each, :, cols], 1, 2) * real[:, None, :]
    design[..., width] = t
    rt = np.linalg.qr(design, mode="raw")[0]  # R transposed, over the reflectors
    coef = np.zeros((m, width))
    for k in reversed(range(width)):  # back substitution
        rest = rt[:, width, k] - (rt[:, k + 1 : width, k] * coef[:, k + 1 :]).sum(axis=1)
        np.divide(rest, rt[:, k, k], out=coef[:, k], where=real[:, k])
    z = np.zeros((m, K))
    z[each, cols] = coef
    return z


def _quadratic(hessian, linear, name: str) -> Tuple[np.ndarray, np.ndarray, float, float]:
    """The package's one rule for a quadratic objective ``0.5 w'Hw - w'h``.

    ``hessian`` is ``(K, K)`` for the ``K >= 1`` entries of ``linear``, both
    are finite, and ``hessian`` is symmetric, and its symmetrized form
    positive semidefinite, within ``1e-10 * scale`` with ``scale = max(1,
    max |entry|)``; else ``ValueError`` names it as ``name``. Returns the
    symmetrized hessian, the flattened linear term, the smallest eigenvalue
    and ``scale``.
    """
    H = np.asarray(hessian, dtype=float)
    h = np.asarray(linear, dtype=float).ravel()
    K = h.size
    if H.shape != (K, K):
        raise ValueError(f"{name} must have shape {(K, K)}, got {H.shape}")
    if K == 0:
        raise ValueError(f"{name} must have at least one entry, got shape {H.shape}")
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(h))):
        raise ValueError(f"{name} or its linear term has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(H))))
    if float(np.max(np.abs(H - H.T))) > _SYM_TOL * scale:
        raise ValueError(f"{name} is not symmetric within {_SYM_TOL}")
    H = 0.5 * (H + H.T)
    smallest = float(np.linalg.eigvalsh(H)[0])
    if smallest < -_SYM_TOL * scale:
        raise ValueError(f"{name} is not positive semidefinite")
    return H, h, smallest, scale


def solve_simplex_qp(hessian: np.ndarray, linear: Iterable[float]) -> np.ndarray:
    """Minimize ``0.5 w'Hw - w'h`` over the probability simplex.

    A primal active-set iteration keeps the sum-to-one equality in every
    subproblem and toggles the nonnegativity constraints. Semidefinite
    hessians are lifted by a ridge of ``1e-11 * scale`` so every face
    subproblem is strictly convex; among tied minimizers this returns the
    one closest to uniform, deterministically.

    Parameters
    ----------
    hessian : array_like, shape (K, K)
        Symmetric positive semidefinite, by ``QuadraticComponents``' rule.
    linear : array_like, shape (K,)
        Linear coefficient vector.

    Returns
    -------
    ndarray, shape (K,)
        The optimal weights, clipped to the simplex.

    Raises
    ------
    ValueError
        For fewer than two coordinates, or by ``QuadraticComponents``' rule.
    ConvergenceError
        When it needs more than ``50 * K`` active-set iterations.
    """
    if np.size(linear) < 2:
        raise ValueError("the simplex QP needs at least two coordinates")
    H, h, smallest, scale = _quadratic(hessian, linear, "hessian")
    K = h.size
    # a singular hessian leaves faces without stationary points; a ridge far
    # below every tolerance makes each subproblem strictly convex while
    # moving the objective by at most ridge/2
    ridge = 1e-11 * scale
    if smallest < ridge:
        H = H + (ridge - min(smallest, 0.0)) * np.eye(K)
    cap = _MAX_ITER_FACTOR * K
    dual_tol = 1e-10 * (1.0 + float(np.max(np.abs(h))) + scale)

    w = np.full(K, 1.0 / K)
    active = np.zeros(K, dtype=bool)
    for _ in range(cap):
        free = ~active
        nf = int(free.sum())
        kkt = np.zeros((nf + 1, nf + 1))
        kkt[:nf, :nf] = H[np.ix_(free, free)]
        kkt[:nf, nf] = 1.0
        kkt[nf, :nf] = 1.0
        rhs = np.concatenate([h[free], [1.0]])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        cand = sol[:nf]
        nu = float(sol[nf])
        if float(cand.min()) >= -1e-11:
            w_new = np.zeros(K)
            w_new[free] = np.clip(cand, 0.0, None)
            if active.any():
                grad = H @ w_new - h
                mult = grad[active] + nu
                worst = int(np.argmin(mult))
                if float(mult[worst]) < -dual_tol:
                    release = np.flatnonzero(active)[worst]
                    active[release] = False
                    w = w_new
                    continue
            w_new /= w_new.sum()
            return w_new
        step = np.zeros(K)
        step[free] = cand - w[free]
        shrinking = free & (step < -1e-15)
        ratios = w[shrinking] / -step[shrinking]
        alpha = min(1.0, float(ratios.min()))
        w = w + alpha * step
        hit = shrinking & (w <= 1e-12)
        w[hit] = 0.0
        active |= hit
    raise ConvergenceError(f"simplex QP exceeded {cap} active-set iterations")
