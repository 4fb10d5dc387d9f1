"""Output checks made from outside the program, with NumPy alone.

Two checks, both independent of the kernels they judge:

* :func:`conservation` (every op, O(nK)) — every edge ``(u, v, w)`` adds
  ``w / n_c`` to ``Z[u, y[v]]`` and ``Z[v, y[u]]``, so column ``c`` of ``Z``
  sums to ``wdeg(class c) / n_c``, where ``wdeg`` is the total weighted
  degree.  Hence ``colsum(Z) * n_c == bincount(y[known], wdeg[known], K)``;
* :func:`reference` (first and last op, stream checkpoints) — ``Z``
  recomputed edge by edge with ``np.bincount``, block of rows by block of
  rows so the reference never holds more than a quarter of ``Z``.

Each returns ``None`` when the output is right, or a one-line description
of the worst offending column or row.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Largest absolute difference from the NumPy reference that passes.
REFERENCE_ATOL = 1e-10
#: Relative tolerance of the column-sum identity (sums of up to 2E terms).
CONSERVATION_RTOL = 1e-9
_REFERENCE_BLOCKS = 4


def weighted_degrees(src: np.ndarray, dst: np.ndarray, w: Optional[np.ndarray], n: int) -> np.ndarray:
    """Total (in + out) weighted degree of every vertex."""
    return np.bincount(src, weights=w, minlength=n) + np.bincount(dst, weights=w, minlength=n)


def _inverse_counts(y: np.ndarray, k: int) -> tuple:
    counts = np.bincount(y[y >= 0], minlength=k).astype(np.float64)
    inv = np.divide(1.0, counts, out=np.zeros(k), where=counts > 0)
    return counts, inv


def conservation(Z: np.ndarray, y: np.ndarray, wdeg: np.ndarray, k: int) -> Optional[str]:
    """Check ``colsum(Z) * n_c == bincount(y[known], wdeg[known], K)``."""
    if Z.shape != (y.size, k):
        return f"embedding has shape {Z.shape}, expected {(y.size, k)}"
    counts, _ = _inverse_counts(y, k)
    known = y >= 0
    want = np.bincount(y[known], weights=wdeg[known], minlength=k)
    got = Z.sum(axis=0) * counts
    err = np.abs(got - want)
    limit = CONSERVATION_RTOL * max(1.0, float(np.abs(want).max()))
    if np.all(err <= limit) and np.isfinite(got).all():
        return None
    col = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
    return (
        f"column sums not conserved: worst column {col} has "
        f"{got[col]!r} against {want[col]!r}"
    )


def reference(
    Z: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    w: Optional[np.ndarray],
    y: np.ndarray,
    k: int,
) -> Optional[str]:
    """Compare ``Z`` with an edge-by-edge NumPy ``bincount`` reference."""
    n = y.size
    if Z.shape != (n, k):
        return f"embedding has shape {Z.shape}, expected {(n, k)}"
    _, inv = _inverse_counts(y, k)
    worst_err, worst_row = 0.0, -1
    bounds = np.linspace(0, n, _REFERENCE_BLOCKS + 1).astype(np.int64)
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        ref = np.zeros((r1 - r0) * k)
        for owner, partner in ((src, dst), (dst, src)):
            mask = (owner >= r0) & (owner < r1)
            yp = y[partner[mask]]
            known = yp >= 0
            flat = (owner[mask][known] - r0) * k + yp[known]
            contrib = inv[yp[known]]
            if w is not None:
                contrib = contrib * w[mask][known]
            ref += np.bincount(flat, weights=contrib, minlength=ref.size)
        err = np.abs(Z[r0:r1].reshape(-1) - ref)
        if not np.isfinite(err).all():
            row = int(r0 + np.flatnonzero(~np.isfinite(err))[0] // k)
            return f"non-finite embedding value in row {row}"
        at = int(err.argmax()) if err.size else 0
        if err.size and err[at] > worst_err:
            worst_err, worst_row = float(err[at]), int(r0 + at // k)
    if worst_err <= REFERENCE_ATOL:
        return None
    return (
        f"embedding differs from the NumPy reference by {worst_err:.3e} "
        f"(> {REFERENCE_ATOL}); worst row {worst_row}"
    )
