"""Vectorized global-adaptive Gauss-Kronrod quadrature.

scipy.integrate.quad evaluates integrands one abscissa at a time, which is
too slow when each evaluation synthesizes a truncated Hermite series (O(N)
work per point).  The integrator here feeds whole batches of abscissae to a
vectorized integrand, which returns one array or yields several, each a
block of components (a 1-d array is one component), so a full coefficient
vector can be projected in one adaptive pass.  Each block is contracted
before the next is drawn, and the panel heap holds one scalar error per
panel, so memory stays O(panels + components) however many components there
are.
"""

import heapq
import math

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


# Both rules side by side, so one product gives the K15 and G7 sums.
_WKG = np.stack([_WGK, _WG], axis=1)
# Most panels bisected in one round of adaptive_quad.
_ROUND_PANELS = 128


def _round_target(over):
    """Error one round's bisections must cover: every component's excess."""
    return np.sum(np.maximum(over, 0.0))


def _eval_panels(f, lo, hi, weight):
    """Evaluate f on a batch of panels and fold them into running totals.

    lo, hi, weight: arrays of shape (p,).  The integrand is called once with
    all p*15 abscissae and returns one array or yields several; each is one
    block of components, (b, p*15) or (p*15,) for a single component, and is
    contracted before the next is drawn.  Returns (integral, error, worst):
    the sums over panels of weight * K and weight * |K - G|, (d,) arrays over
    all d components in order, and each panel's largest |K - G| over the
    components, shape (p,).  A non-finite value makes the totals non-finite
    without a warning (an inf times a zero G7 weight is a NaN); the caller
    checks them before they are trusted.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * _XGK[None, :]).ravel()
    y = f(x)
    integral, error, worst = [], [], np.zeros(lo.size)
    for block in (y,) if isinstance(y, np.ndarray) else y:
        with np.errstate(invalid="ignore", over="ignore"):
            kg = block.reshape(-1, 15) @ _WKG  # K15 and G7 sums, (b*p, 2)
            ik = half * kg[:, 0].reshape(-1, lo.size)
            err = np.abs(ik - half * kg[:, 1].reshape(-1, lo.size))
            integral.append(ik @ weight)
            error.append(err @ weight)
            np.maximum(worst, err.max(axis=0), out=worst)
    return np.concatenate(integral), np.concatenate(error), worst


def adaptive_quad(f, edges, *, abs_tol=1e-12, rel_tol=1e-10, max_panels=20000,
                  label="integrand"):
    """Integrate a vectorized integrand over [edges[0], edges[-1]] adaptively.

    f maps an array of abscissae (m,) to d components, real or complex: one
    array, or an iterable of arrays drawn one at a time, each a block (b, m)
    of b components or a single component (m,).  The result is always a (d,)
    array, (1,) for one component.  The initial panels lie between `edges`,
    at least 2 finite, strictly increasing values.  Until every component has

        over_c = err_c - max(abs_tol, rel_tol * |I_c|) <= 0

    each round bisects the worst panels, at most _ROUND_PANELS of them, until
    their errors cover _round_target(over), every component's excess.  The
    heap keeps one error per panel; a bisected panel is evaluated again, with
    weight -1, in the same call as its two halves, which takes its share out
    of the totals.  Memory is O(panels + d) beside one block.

    Raises AccuracyError when `max_panels` panels are spent first, naming the
    component of largest excess with its own estimate as `achieved`, or when
    f returns a value that is not finite, at any round.
    """
    edges = np.asarray(edges, dtype=float)
    # Increasing edges are finite if their ends are; a NaN fails the order.
    if not (edges.ndim == 1 and edges.size > 1 and (edges[1:] > edges[:-1]).all()
            and math.isfinite(edges[0]) and math.isfinite(edges[-1])):
        raise ValueError(f"edges must be at least 2 finite, strictly increasing values: {edges}")
    lo, hi = edges[:-1], edges[1:]
    weight = np.ones(lo.size)
    total = total_err = 0.0
    heap = []  # (-error, lo, hi) of every current panel
    while True:
        v, e, worst = _eval_panels(f, lo, hi, weight)
        total = total + v
        total_err = total_err + e
        if not np.isfinite(total).all():
            raise AccuracyError(f"non-finite values while integrating {label}")
        new = weight > 0
        for entry in zip((-worst[new]).tolist(), lo[new].tolist(), hi[new].tolist()):
            heapq.heappush(heap, entry)
        over = total_err - np.maximum(abs_tol, rel_tol * np.abs(total))
        if np.max(over) <= 0.0:
            return total
        excess = _round_target(over)
        popped, covered = [], 0.0
        limit = min(_ROUND_PANELS, max_panels - len(heap))
        # A panel whose error is 0 is exact to machine precision already.
        while heap and len(popped) < limit and covered < excess and heap[0][0] < 0.0:
            popped.append(heapq.heappop(heap))
            covered -= popped[-1][0]
        if not popped:
            break
        _, p_lo, p_hi = np.array(popped).T
        mid = 0.5 * (p_lo + p_hi)
        lo, hi = np.r_[p_lo, mid, p_lo], np.r_[mid, p_hi, p_hi]
        weight = np.repeat([1.0, 1.0, -1.0], p_lo.size)

    i = int(np.argmax(over))
    what = f"{label}[{i}]" if total.size > 1 else label
    raise AccuracyError(f"adaptive quadrature did not converge for {what}",
                        achieved=float(total_err[i]), value=total)

