"""Collocation grids on Hermite-function roots and the discrete transforms.

The grid for truncation index N collects the N+1 roots of h_{N+1} together
with the modified weights w_j = 1 / sum_{n<=N} h_n(x_j)**2, which make

    sum_j w_j h_m(x_j) h_n(x_j) = delta_{mn},   m, n <= N,

hold by construction of Gauss quadrature for an orthonormal family.  The
classical weights w_j * exp(x_j**2) are never formed (they overflow for
large N).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .basis import (ScaledBasis, SpectralCoeffs, _hermite_rows,
                    eval_hermite_functions)

N_MAX_GRID = 10_000


@dataclass(frozen=True)
class CollocationGrid:
    """Roots of h_{N+1} with modified quadrature weights."""

    n_max: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.n_max + 1

    def scaled_nodes(self, beta: float) -> np.ndarray:
        """Interpolation points x_j / beta of the basis scaled by beta."""
        return self.nodes / beta


def compute_grid(n_max: int) -> CollocationGrid:
    """Collocation grid of size n_max+1.

    Nodes are eigenvalues of the symmetric tridiagonal Jacobi matrix with
    off-diagonal entries sqrt((j+1)/2), polished by one Newton step on
    h_{N+1}; weights follow from the orthonormal-family identity.  Both
    stream h_n through the basis recurrence in O(N) memory.
    """
    if not isinstance(n_max, (int, np.integer)) or not 0 <= n_max <= N_MAX_GRID:
        raise ValueError(f"n_max must be an integer in [0, {N_MAX_GRID}], got {n_max}")
    n = int(n_max)
    if n == 0:
        nodes = np.array([0.0])
    else:
        off = np.sqrt(np.arange(1, n + 1) / 2.0)
        nodes = eigh_tridiagonal(np.zeros(n + 1), off, eigvals_only=True)
        # One Newton step: h'_{N+1}(x) = sqrt(2(N+1))*h_N(x) - x*h_{N+1}(x).
        h_n, h_np1 = deque(_hermite_rows(nodes, n + 1), maxlen=2)
        deriv = np.sqrt(2.0 * (n + 1)) * h_n - nodes * h_np1
        nodes = nodes - h_np1 / deriv
        # The spectrum is symmetric; make that exact.
        nodes = 0.5 * (nodes - nodes[::-1])
        if (n + 1) % 2 == 1:
            nodes[n // 2] = 0.0
    if np.any(np.diff(nodes) <= 0):
        raise RuntimeError(
            f"grid construction failed for n_max={n_max}: nodes not strictly "
            f"increasing (min gap {np.min(np.diff(nodes)) if n else 0.0:.3e})")
    weights = 1.0 / sum(h * h for h in _hermite_rows(nodes, n))
    weights = 0.5 * (weights + weights[::-1])
    if not np.all(weights > 0):
        raise RuntimeError(f"grid construction failed for n_max={n_max}: "
                           "non-positive weight")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return CollocationGrid(n, nodes, weights)


def hermite_vandermonde(grid: CollocationGrid) -> np.ndarray:
    """Matrix V[n, j] = h_n(x_j) used by both transforms."""
    return eval_hermite_functions(grid.nodes, grid.n_max)


def analysis(grid: CollocationGrid, values, beta: float = 1.0) -> SpectralCoeffs:
    """Coefficients of the interpolant through samples at the scaled nodes.

    values[j] = u(x_j / beta);  c_n = sum_j w_j * values[j] * h_n(x_j) / sqrt(beta).
    Synthesis at the scaled nodes then reproduces the samples exactly.
    """
    values = np.asarray(values)
    if values.shape != (grid.size,):
        raise ValueError(f"expected {grid.size} samples, got shape {values.shape}")
    v = hermite_vandermonde(grid)
    coeffs = (v @ (grid.weights * values)) / np.sqrt(beta)
    return SpectralCoeffs(ScaledBasis(grid.n_max, beta), coeffs)


def synthesis(grid: CollocationGrid, coeffs: SpectralCoeffs) -> np.ndarray:
    """Values of the represented function at the scaled nodes x_j / beta."""
    if coeffs.basis.n_max != grid.n_max:
        raise ValueError(f"coefficient size {coeffs.basis.size} does not match "
                         f"grid size {grid.size}")
    v = hermite_vandermonde(grid)
    return np.sqrt(coeffs.basis.beta) * (coeffs.values @ v)
