"""Collocation grids on Hermite-function roots and the discrete transforms.

The grid for truncation index N collects the N+1 roots of h_{N+1} together
with the modified weights w_j = 1 / sum_{n<=N} h_n(x_j)**2, which make

    sum_j w_j h_m(x_j) h_n(x_j) = delta_{mn},   m, n <= N,

hold by construction of Gauss quadrature for an orthonormal family.  The
classical weights w_j * exp(x_j**2) are never formed (they overflow for
large N).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (_BLOCK_ROWS, ScaledBasis, SpectralCoeffs, _check_index, _hermite_rows,
                    _series)

N_MAX_GRID = 10_000

# Airy zeros a_1 .. a_6 (DLMF 9.9.1); from a_7 on the asymptotic series in
# _root_guesses is good to 5e-13.
_AIRY_ZEROS = np.array([-2.338107410459767, -4.087949444130971, -5.520559828095551,
                        -6.786708090071759, -7.944133587120853, -9.022650853340980])
# Newton stops once no step exceeds this many ulp of max(1, |x|); more
# passes than _NEWTON_PASSES mean the guesses were wrong.
_STEP_ULPS = 4.0
_NEWTON_PASSES = 8


@dataclass(frozen=True)
class CollocationGrid:
    """Roots of h_{N+1} with modified quadrature weights."""

    n_max: int
    nodes: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return self.n_max + 1


def _root_guesses(n: int) -> np.ndarray:
    """Asymptotic guesses for the non-negative roots of h_{n+1}, ascending.

    Their squares are the zeros of the Laguerre polynomial L_m^(alpha),
    m = (n+1)//2, with alpha = 1/2 for even n (whose root 0 comes first) and
    alpha = -1/2 for odd n.  Tricomi's formula serves the bulk and Gatteschi's
    Airy-zero expansion the ceil(sqrt(m)/2) largest (L. Gatteschi, J. Comput.
    Appl. Math. 144 (2002); Townsend, Trogdon & Olver, IMA J. Numer. Anal. 36
    (2016)).  The relative error is below 3.2e-3 for every n and below
    4.1e-7 from n = 63 on.
    """
    m = (n + 1) // 2
    alpha = 0.5 if n % 2 == 0 else -0.5
    nu = 4.0 * m + 2.0 * alpha + 2.0
    # Tricomi: t = cos(theta/2)**2 with theta - sin(theta) = r, solved by
    # Newton from cbrt(6 r), which is below the root.
    r = (4.0 * np.arange(m - 1, -1, -1) + 3.0) * np.pi / nu
    theta = np.cbrt(6.0 * r)
    for _ in range(6):
        theta -= (theta - np.sin(theta) - r) / (1.0 - np.cos(theta))
    t = np.cos(0.5 * theta) ** 2
    lam = nu * t - (1.25 / (1.0 - t) ** 2 - 1.0 / (1.0 - t) - 1.0
                    + 3.0 * alpha ** 2) / (3.0 * nu)
    # Gatteschi: the k-th largest zero from the k-th Airy zero a_k, a power
    # series in s = nu**(-2/3).
    top = math.ceil(0.5 * math.sqrt(m))
    tau = 3.0 * np.pi / 8.0 * (4.0 * np.arange(1, top + 1) - 1.0)
    a = -tau ** (2.0 / 3.0) * np.polyval(
        [-108056875 / 6967296, 77125 / 82944, -5 / 36, 5 / 48, 1.0], tau ** -2.0)
    a[:_AIRY_ZEROS.size] = _AIRY_ZEROS[:top]
    c = 2.0 ** (1.0 / 3.0)
    series = (1.0, c * c * a, 0.2 * c ** 4 * a ** 2,
              11 / 35 - alpha ** 2 - 12 / 175 * a ** 3,
              c * c * (16 / 1575 * a + 92 / 7875 * a ** 4),
              -c * (15152 / 3031875 * a ** 5 + 1088 / 121275 * a ** 2))
    s = nu ** (-2.0 / 3.0)
    lam[m - top:] = nu * sum(coef * s ** i for i, coef in enumerate(series))[::-1]
    x = np.sqrt(lam)
    return np.r_[0.0, x] if n % 2 == 0 else x


def compute_grid(n_max: int) -> CollocationGrid:
    """Collocation grid of size n_max+1.

    Newton's method on h_{N+1} refines the asymptotic guesses for the
    non-negative roots, h'_{N+1}(x) = sqrt(2(N+1))*h_N(x) - x*h_{N+1}(x).
    Each pass streams h_n through the basis recurrence in O(N) memory and
    sums sum_{n<=N} h_n**2, the inverse weight.  The first pass whose steps
    are all within a few ulp gives the nodes and weights, mirrored so the
    grid is exactly symmetric: two passes from N = 42 on, three below.
    """
    n = _check_index(n_max, limit=N_MAX_GRID)
    x = _root_guesses(n)
    for _ in range(_NEWTON_PASSES):
        rows = _hermite_rows(x, n + 1)
        inv_weight, square = np.zeros_like(x), np.empty_like(x)
        for h_n in itertools.islice(rows, n + 1):
            inv_weight += np.multiply(h_n, h_n, out=square)
        h_np1 = next(rows)
        step = h_np1 / (math.sqrt(2.0 * (n + 1)) * h_n - x * h_np1)
        if np.all(np.abs(step) <= _STEP_ULPS * np.finfo(float).eps * np.maximum(1.0, x)):
            break
        x = x - step
    else:
        raise RuntimeError(f"grid construction failed for n_max={n_max}: Newton "
                           f"did not settle in {_NEWTON_PASSES} passes")
    lower = slice(None, 0 if n % 2 == 0 else None, -1)  # the root 0 stays single
    nodes = np.r_[-x[lower], x]
    weights = 1.0 / np.r_[inv_weight[lower], inv_weight]
    if np.any(np.diff(nodes) <= 0) or not np.all(weights > 0):
        raise RuntimeError(f"grid construction failed for n_max={n_max}: nodes not "
                           "strictly increasing or a weight not positive")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return CollocationGrid(n, nodes, weights)


# A grid at N_MAX_GRID holds 2 * 10,001 * 8 B ~ 160 KB, so 32 hold ~5.1 MB.
@lru_cache(maxsize=32)
def _grid(n_max: int) -> CollocationGrid:
    """The frozen, read-only grid of size n_max+1, shared by every caller;
    compute_grid is looked up at call time, so a patch of it sees every
    construction."""
    return compute_grid(n_max)


def analysis(values, beta: float = 1.0) -> SpectralCoeffs:
    """Coefficients of the interpolant through samples at the scaled nodes
    of the grid of size len(values).

    values[j] = u(x_j / beta);  c_n = sum_j w_j * values[j] * h_n(x_j) / sqrt(beta),
    from rows streamed at the nodes x_j >= 0 (see _transform), so memory is
    O(N).  Synthesis at the scaled nodes then reproduces the samples exactly.
    """
    values = np.asarray(values)
    if values.ndim != 1:  # an empty or too long one fails in compute_grid
        raise ValueError(f"expected a 1-d array of samples, got shape {values.shape}")
    grid = _grid(values.size - 1)
    return SpectralCoeffs(ScaledBasis(grid.n_max, beta), _transform(grid, values, beta))


def _transform(grid: CollocationGrid, values: np.ndarray, beta: float) -> np.ndarray:
    """sum_j w_j * values[j] * h_n(x_j) / sqrt(beta), n <= N, for samples of
    shape (size,) or each column of samples of shape (size, k).  The rows are
    streamed at the nodes x_j >= 0 only: by h_n(-x) = (-1)**n h_n(x), row n
    meets the even or odd part w_j (v(x_j) +- v(-x_j)); the node 0 (N even)
    enters both once, and every odd row is an exact 0 there.  Each block of
    _BLOCK_ROWS rows is contracted with one matmul per parity."""
    weighted = grid.weights.reshape((-1,) + (1,) * (values.ndim - 1)) * values
    half, zero = grid.size // 2, grid.size % 2
    sums = np.stack([weighted[half:]] * 2)  # the even and odd parts at x_j >= 0
    sums[0, zero:] += weighted[:half][::-1]
    sums[1, zero:] -= weighted[:half][::-1]
    out = np.empty(values.shape, dtype=sums.dtype)
    block = np.empty((_BLOCK_ROWS, grid.size - half))
    rows = _hermite_rows(grid.nodes[half:], grid.n_max)
    for start in range(0, grid.size, _BLOCK_ROWS):
        part = block[:grid.size - start]
        for dst, row in zip(part, rows):
            dst[...] = row
        for p in (0, 1):
            out[start + p:start + len(part):2] = part[p::2] @ sums[p]
    return out / np.sqrt(beta)


def synthesis(coeffs: SpectralCoeffs) -> np.ndarray:
    """Values of the represented function at the scaled nodes x_j / beta of
    the grid of size coeffs.basis.size, summed over rows streamed at the
    unscaled nodes x_j >= 0: with the even- and odd-index parts of the series
    there, the values are even + odd at x_j and even - odd at -x_j."""
    grid = _grid(coeffs.basis.n_max)
    even, odd = _series(coeffs.values, grid.nodes[grid.size // 2:])
    lower = slice(None, 0 if grid.size % 2 else None, -1)  # the node 0 stays single
    return np.sqrt(coeffs.basis.beta) * np.r_[(even - odd)[lower], even + odd]
