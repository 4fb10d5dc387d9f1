"""Spectral embedding baselines (ASE / LSE).

The GEE line of work positions the encoder embedding as a fast alternative
to adjacency / Laplacian spectral embedding, to which it converges
asymptotically (paper §I–II).  These baselines compute the spectral
embeddings with sparse eigensolvers so the statistical comparison can be
run: on stochastic block models both GEE and ASE should recover the
planted communities.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..graph.edgelist import EdgeList

__all__ = ["adjacency_spectral_embedding", "laplacian_spectral_embedding"]


def _adjacency_matrix(edges: EdgeList) -> sp.csr_matrix:
    w = edges.effective_weights()
    n = edges.n_vertices
    A = sp.coo_matrix((w, (edges.src, edges.dst)), shape=(n, n))
    return A.tocsr()


def adjacency_spectral_embedding(
    edges: EdgeList,
    n_components: int,
    *,
    seed: Optional[int] = 0,
) -> np.ndarray:
    """Adjacency spectral embedding (ASE).

    Returns ``U_d |S_d|^{1/2}`` from the truncated SVD of the (symmetrised)
    adjacency matrix — the standard ASE estimator for random dot product
    graphs.
    """
    if n_components <= 0:
        raise ValueError("n_components must be positive")
    A = _adjacency_matrix(edges)
    A = (A + A.T) * 0.5
    n = A.shape[0]
    k = min(n_components, max(1, n - 2))
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    try:
        vals, vecs = spla.eigsh(A.astype(np.float64), k=k, which="LM", v0=v0)
    except Exception:
        # Dense fallback for tiny or pathological matrices.
        dense = A.toarray().astype(np.float64)
        all_vals, all_vecs = np.linalg.eigh(dense)
        order = np.argsort(np.abs(all_vals))[::-1][:k]
        vals, vecs = all_vals[order], all_vecs[:, order]
    order = np.argsort(np.abs(vals))[::-1]
    vals, vecs = vals[order], vecs[:, order]
    emb = vecs * np.sqrt(np.abs(vals))[None, :]
    if emb.shape[1] < n_components:
        emb = np.pad(emb, ((0, 0), (0, n_components - emb.shape[1])))
    return emb


def laplacian_spectral_embedding(
    edges: EdgeList,
    n_components: int,
    *,
    seed: Optional[int] = 0,
) -> np.ndarray:
    """Laplacian spectral embedding (LSE) from ``D^{-1/2} A D^{-1/2}``."""
    if n_components <= 0:
        raise ValueError("n_components must be positive")
    A = _adjacency_matrix(edges)
    A = (A + A.T) * 0.5
    deg = np.asarray(A.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    D = sp.diags(inv_sqrt)
    L = D @ A @ D
    n = A.shape[0]
    k = min(n_components, max(1, n - 2))
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    try:
        vals, vecs = spla.eigsh(L.tocsr().astype(np.float64), k=k, which="LM", v0=v0)
    except Exception:
        dense = L.toarray().astype(np.float64)
        all_vals, all_vecs = np.linalg.eigh(dense)
        order = np.argsort(np.abs(all_vals))[::-1][:k]
        vals, vecs = all_vals[order], all_vecs[:, order]
    order = np.argsort(np.abs(vals))[::-1]
    vals, vecs = vals[order], vecs[:, order]
    emb = vecs * np.sqrt(np.abs(vals))[None, :]
    if emb.shape[1] < n_components:
        emb = np.pad(emb, ((0, 0), (0, n_components - emb.shape[1])))
    return emb
