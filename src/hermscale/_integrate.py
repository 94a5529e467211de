"""Vectorized global-adaptive Gauss-Kronrod quadrature.

scipy.integrate.quad evaluates integrands one abscissa at a time, which is
too slow when each evaluation synthesizes a truncated Hermite series (O(N)
work per point).  The integrator here feeds whole batches of abscissae to a
vectorized integrand and supports vector-valued integrands, so a full
coefficient vector can be projected in one adaptive pass.
"""

import heapq

import numpy as np

from .errors import AccuracyError

# (G7, K15) Gauss-Kronrod pair, abscissae/weights on [-1, 1] (QUADPACK dqk15).
_XGK = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
# Embedded 7-point Gauss weights sit on the odd Kronrod abscissae.
_WG = np.zeros(15)
_WG[1::2] = [
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
]


def _eval_panels(f, lo, hi):
    """Evaluate f on a batch of panels; return (integrals, error estimates).

    lo, hi: arrays of panel endpoints, shape (p,).  The integrand is called
    once with all p*15 abscissae.  Returns per-panel Kronrod integrals of
    shape (p,) or (p, d) and per-panel |K - G| estimates of the same shape.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * _XGK[None, :]).ravel()
    y = np.asarray(f(x), dtype=float)
    if y.ndim == 1:
        y = y.reshape(lo.size, 15)
        ik = half * (y @ _WGK)
        ig = half * (y @ _WG)
    else:
        y = y.reshape(lo.size, 15, -1)
        ik = half[:, None] * np.einsum("pkd,k->pd", y, _WGK)
        ig = half[:, None] * np.einsum("pkd,k->pd", y, _WG)
    return ik, np.abs(ik - ig)


def adaptive_quad(f, a, b, abs_tol=1e-12, rel_tol=1e-10, points=None,
                  initial=16, max_panels=20000, label="integrand"):
    """Integrate a vectorized integrand over [a, b] adaptively.

    f maps an array of abscissae (m,) to values (m,) or (m, d); the result is
    a scalar or a (d,) vector.  `points` seeds the initial subdivision
    (breakpoints including or excluding the endpoints); otherwise [a, b] is
    split into `initial` uniform panels.  Panels with the largest error are
    bisected until every component satisfies

        err_c <= max(abs_tol, rel_tol * |I_c|)

    Raises AccuracyError when the panel budget is exhausted first.
    """
    if not b > a:
        raise ValueError(f"invalid interval [{a}, {b}]")
    if points is not None:
        edges = np.unique(np.clip(np.asarray(points, dtype=float), a, b))
        edges = np.union1d(edges, [a, b])
    else:
        edges = np.linspace(a, b, initial + 1)
    vals, errs = _eval_panels(f, edges[:-1], edges[1:])
    vector = vals.ndim == 2
    if not np.isfinite(vals).all():
        raise AccuracyError(f"non-finite values while integrating {label}")

    heap = []
    for i in range(len(edges) - 1):
        e = errs[i].max() if vector else errs[i]
        heapq.heappush(heap, (-e, edges[i], edges[i + 1], vals[i], errs[i]))
    total = vals.sum(axis=0)
    total_err = errs.sum(axis=0)
    n_panels = len(edges) - 1

    while n_panels < max_panels:
        bound = np.maximum(abs_tol, rel_tol * np.abs(total))
        if np.all(total_err <= bound):
            return total
        neg_e, lo, hi, v, e = heapq.heappop(heap)
        if neg_e == 0.0:
            # Worst panel already exact to machine precision; cannot improve.
            break
        mid = 0.5 * (lo + hi)
        v2, e2 = _eval_panels(f, np.array([lo, mid]), np.array([mid, hi]))
        total = total - v + v2[0] + v2[1]
        total_err = total_err - e + e2[0] + e2[1]
        for j in (0, 1):
            em = e2[j].max() if vector else e2[j]
            heapq.heappush(heap, (-em, (lo, mid)[j], (mid, hi)[j], v2[j], e2[j]))
        n_panels += 1

    bound = np.maximum(abs_tol, rel_tol * np.abs(total))
    if np.all(total_err <= bound):
        return total
    worst = int(np.argmax(total_err - bound)) if vector else None
    achieved = float(np.max(total_err))
    what = f"{label}[{worst}]" if worst is not None else label
    raise AccuracyError(f"adaptive quadrature did not converge for {what}",
                        achieved=achieved, value=total)


_GL64 = np.polynomial.legendre.leggauss(64)


def gauss_legendre_cos_samples(u, x_hi, k_values):
    """Cosine-transform samples (2/sqrt(2*pi)) * int_0^{x_hi} u(x) cos(k x) dx.

    Composite 64-point Gauss-Legendre panels sized so the fastest requested
    oscillation gets 10 abscissae per period, and at least 128 in all; one
    weight/value vector is shared across all k.  Accuracy is roundoff-limited
    (~1e-14 * scale).
    """
    k = np.asarray(k_values, dtype=float)
    k_top = float(np.max(np.abs(k))) if k.size else 0.0
    need = int(10 * k_top * x_hi / (2.0 * np.pi)) + 128
    panels = -(-need // 64)
    edges = np.linspace(0.0, x_hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = (mid[:, None] + half[:, None] * _GL64[0][None, :]).ravel()
    w = (half[:, None] * _GL64[1][None, :]).ravel() * np.asarray(u(x), dtype=float)
    return np.sqrt(2.0 / np.pi) * (np.cos(np.outer(k, x)) @ w)
