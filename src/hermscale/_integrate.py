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

# (G15, K31) Gauss-Kronrod pair on [-1, 1] as QUADPACK's dqk31 stores it: the
# 16 Kronrod abscissae x >= 0, largest first, their weights, and the 8 Gauss
# weights, which sit on every second one of them.
_XGK = np.array([
    0.998002298693397060285172840152271,
    0.987992518020485428489565718586613,
    0.967739075679139134257347978784337,
    0.937273392400705904307758947710209,
    0.897264532344081900882509656454496,
    0.848206583410427216200648320774217,
    0.790418501442465932967649294817947,
    0.724417731360170047416186054613938,
    0.650996741297416970533735895313275,
    0.570972172608538847537226737253911,
    0.485081863640239680693655740232351,
    0.394151347077563369897207370981045,
    0.299180007153168812166780024266389,
    0.201194093997434522300628303394596,
    0.101142066918717499027074231447392,
    0.0,
])
_WKG = np.zeros((16, 2))  # K31 and G15 weights side by side
_WKG[:, 0] = [
    0.005377479872923348987792051430128,
    0.015007947329316122538374763075807,
    0.025460847326715320186874001019653,
    0.035346360791375846222037948478360,
    0.044589751324764876608227299373280,
    0.053481524690928087265343147239430,
    0.062009567800670640285139230960803,
    0.069854121318728258709520077099147,
    0.076849680757720378894432777482659,
    0.083080502823133021038289247286104,
    0.088564443056211770647275443693774,
    0.093126598170825321225486872747346,
    0.096642726983623678505179907627589,
    0.099173598721791959332393173484603,
    0.100769845523875595044946662617570,
    0.101330007014791549017374792767493,
]
_WKG[1::2, 1] = [
    0.030753241996117268354628393577204,
    0.070366047488108124709267416450667,
    0.107159220467171935011869546685869,
    0.139570677926154314447804794511028,
    0.166269205816993933553200860481209,
    0.186161000015562211026800561866423,
    0.198431485327111576456118326443839,
    0.202578241925561272880620199967519,
]
# The rule is symmetric: mirror each half-table about the centre node, which
# stays +0.0.  One product with _WKG then gives the K31 and G15 sums.
_XGK = np.r_[-_XGK[:-1], _XGK[::-1]]
_WKG = np.r_[_WKG, _WKG[-2::-1]]
# Most panels bisected in one round of adaptive_quad.
_ROUND_PANELS = 128


def _round_target(over):
    """Error one round's bisections must cover: every component's excess."""
    return np.sum(np.maximum(over, 0.0))


def _eval_panels(f, lo, hi, weight):
    """Evaluate f on a batch of panels and fold them into running totals.

    lo, hi, weight: arrays of shape (p,).  The integrand is called once with
    all p*31 abscissae and returns one array or yields several; each is one
    block of components, (b, p*31) or (p*31,) for a single component, and is
    contracted before the next is drawn.  Returns (integral, error, worst):
    the sums over panels of weight * K and weight * |K - G|, (d,) arrays over
    all d components in order, and each panel's largest |K - G| over the
    components, shape (p,).  A non-finite value makes the totals non-finite
    without a warning (an inf times a zero G15 weight is a NaN); the caller
    checks them before they are trusted.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * _XGK[None, :]).ravel()
    y = f(x)
    integral, error, worst = [], [], np.zeros(lo.size)
    for block in (y,) if isinstance(y, np.ndarray) else y:
        with np.errstate(invalid="ignore", over="ignore"):
            kg = block.reshape(-1, _XGK.size) @ _WKG  # K31 and G15 sums, (b*p, 2)
            ik = half * kg[:, 0].reshape(-1, lo.size)
            err = np.abs(ik - half * kg[:, 1].reshape(-1, lo.size))
            integral.append(ik @ weight)
            error.append(err @ weight)
            np.maximum(worst, err.max(axis=0), out=worst)
    return np.concatenate(integral), np.concatenate(error), worst


def adaptive_quad(f, edges, *, abs_tol=1e-12, rel_tol=1e-10, max_panels=10000,
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

