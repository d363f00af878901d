"""Method-of-types toolkit: types, entropies, divergences, typical sets."""

from __future__ import annotations

import itertools
import math

import numpy as np

ENUM_BUDGET = 1 << 22


class Distribution:
    """Finite pmf over a (possibly multi-axis) alphabet.

    `probs` is a float array of finite, non-negative entries summing to 1.
    `p` holds it in C order, so sums over `p` do not depend on the memory
    layout of `probs`.
    """

    def __init__(self, probs):
        p = np.ascontiguousarray(probs, dtype=float)
        if not np.isfinite(p).all():
            raise ValueError("non-finite pmf entry")
        if np.any(p < 0):
            raise ValueError("negative pmf entry")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"pmf sums to {float(p.sum())!r}, not 1")
        self.p = p

    @property
    def shape(self):
        return self.p.shape

    @classmethod
    def uniform(cls, k: int) -> "Distribution":
        return cls([1 / k] * k)

    def conditional(self, given_axes) -> np.ndarray:
        """Conditional table with the given axes first, output axes last.

        Rows with zero marginal are set uniform to keep the table stochastic.
        """
        if isinstance(given_axes, int):
            given_axes = (given_axes,)
        out_axes = tuple(a for a in range(self.p.ndim) if a not in given_axes)
        perm = tuple(given_axes) + out_axes
        joint = np.transpose(self.p, perm)
        k_given = len(given_axes)
        marg = joint.sum(axis=tuple(range(k_given, joint.ndim)), keepdims=True)
        out_size = int(np.prod(joint.shape[k_given:]))
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.where(marg > 0, joint / np.where(marg > 0, marg, 1.0),
                            1.0 / out_size)
        return cond


def entropy(p) -> float:
    """Shannon entropy in bits, 0 log 0 = 0."""
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def divergence(p, pprime):
    """D(p || p') in bits along the last axis, summed letter by letter; +inf
    where support(p) is not within support(p'). One distribution gives a
    float, a stack of them an array over the leading axes."""
    p = np.asarray(p, dtype=float)
    pp = np.asarray(pprime, dtype=float)
    if p.shape[-1:] != pp.shape[-1:]:
        raise ValueError("shape mismatch")
    out = np.zeros(np.broadcast_shapes(p.shape, pp.shape)[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(p.shape[-1]):
            pa = p[..., a]
            out += np.where(pa > 0, pa * np.log2(pa / pp[..., a]), 0.0)
    return float(out) if out.ndim == 0 else out


def _count_sum(counts):
    """Counts summed over the last axis one slice at a time, widened to at
    least the default integer as numpy's sum widens them.  Integer sums are
    exact in any order, and over a short axis the slice adds are several
    times faster than `sum(axis=-1)`."""
    total = counts[..., 0].astype(np.promote_types(counts.dtype, np.int_))
    for a in range(1, counts.shape[-1]):
        total += counts[..., a]
    return total


def cond_type_divergence(joint_counts, cond_mu):
    """D(nu_{u|v} || mu_{U|V} | nu_v) from joint counts indexed [..., v, u],
    summed row by row over v. One count table gives a float, a stack of
    them an array over the leading axes."""
    joint_counts = np.asarray(joint_counts)
    row_counts = _count_sum(joint_counts)  # [..., v]
    # a row that never occurs (or an empty table) has weight 0, divergence 0
    n = np.maximum(_count_sum(row_counts), 1)
    cond_mu = np.asarray(cond_mu, dtype=float)
    out = np.zeros(joint_counts.shape[:-2])
    for vi in range(joint_counts.shape[-2]):
        nv = row_counts[..., vi]
        freq = joint_counts[..., vi, :] / np.maximum(nv, 1)[..., None]
        out += (nv / n) * divergence(freq, cond_mu[vi])
    return float(out) if out.ndim == 0 else out


# -- bound functions ---------------------------------------------------------

def zeta(size_u: int, gamma: float) -> float:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    s = math.sqrt(2 * gamma)
    return gamma - s * math.log2(s / size_u)


def eta(size_u: int, gamma: float, n: int) -> float:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    s = math.sqrt(2 * gamma)
    return -s * math.log2(s / size_u) + size_u * math.log2(n + 1) / n


def lam(size_u: int, n: int) -> float:
    return size_u * math.log2(n + 1) / n


# -- type enumeration --------------------------------------------------------

def type_array(n: int, k: int) -> np.ndarray:
    """All occurrence-count vectors of length k summing to n, one per row,
    in lexicographic order. By stars and bars they are the gaps between
    k - 1 bars in distinct slots among n + k - 1, and
    `itertools.combinations` lists the bar slots in the same order."""
    slots = n + k - 1
    dtype = np.min_scalar_type(slots)
    rows = math.comb(slots, k - 1)
    types = np.empty((rows, k), dtype=dtype)
    bars = itertools.chain.from_iterable(
        itertools.combinations(range(slots), k - 1))
    types[:, :-1] = np.fromiter(bars, dtype, rows * (k - 1)).reshape(rows, -1)
    types[:, -1] = slots
    for a in range(k - 1, 0, -1):
        types[:, a] -= types[:, a - 1] + 1
    return types


def type_class_size(counts) -> int:
    """n! / prod_a c_a!, formed as the product of the binomials
    C(c_a + ... + c_k, c_a): no factorial of n is ever divided."""
    out, remaining = 1, sum(counts)
    for c in counts:
        out *= math.comb(remaining, c)
        remaining -= c
    return out


def _log2_prob(types, mu_p) -> np.ndarray:
    """log2 mu(u) for a sequence u of each type; a letter outside the
    support of mu is left out, so callers keep only types within it."""
    out = np.zeros(len(types))
    for a in np.flatnonzero(mu_p):
        out += types[:, a] * math.log2(mu_p[a])
    return out


def typical_count(mu, n: int, gamma: float) -> int:
    """Exact size of the typical set, via type-class combinatorics."""
    mu_p = np.asarray(mu, dtype=float).ravel()
    types = type_array(n, mu_p.size)
    typical = types[divergence(types / n, mu_p) < gamma]
    return sum(type_class_size(counts) for counts in typical.tolist())


# -- lemma suites ------------------------------------------------------------

def check_exprob(mu: Distribution, n: int):
    """Per-sequence probability identity: -(1/n)log mu(u) = H(nu)+D(nu||mu),
    checked within 1e-12 on every type with positive probability."""
    mu_p = mu.p.ravel()
    types = type_array(n, mu_p.size)
    freq = types / n
    d = divergence(freq, mu_p)
    # H(nu) = -D(nu || 1), the divergence from the all-ones measure
    rhs = d - divergence(freq, np.ones_like(mu_p))
    dev = np.abs(-_log2_prob(types, mu_p) / n - rhs)
    worst = float(np.max(dev, initial=0.0, where=np.isfinite(d)))
    return worst <= 1e-12, worst


def check_typical_trans(mu_joint: Distribution, n: int, gamma: float,
                        gamma_p: float):
    """v typical and u conditionally typical imply (u,v) jointly typical."""
    qv, qu = mu_joint.shape  # indexed [v, u]
    mu_v = mu_joint.p.sum(axis=1)
    cond = mu_joint.conditional(0)
    types = type_array(n, qv * qu)
    counts = types.reshape(-1, qv, qu)
    d_v = divergence(_count_sum(counts) / n, mu_v)
    d_cond = cond_type_divergence(counts, cond)
    d_joint = divergence(types / n, mu_joint.p.ravel())
    excess = d_joint[(d_v < gamma) & (d_cond < gamma_p)] - (gamma + gamma_p)
    # chain rule behind the lemma, checked where finite
    finite = np.isfinite(d_joint) & np.isfinite(d_cond)
    chain = np.abs(d_joint[finite] - d_v[finite] - d_cond[finite])
    ok = bool(np.all(excess < 0) and np.all(chain <= 1e-9))
    return ok, float(np.max(excess, initial=-math.inf))


def check_type_lemma(mu: Distribution, n: int, gamma: float):
    """Typical types are uniformly close to mu: |nu(a)-mu(a)| <= sqrt(2 gamma)."""
    mu_p = mu.p.ravel()
    bound = math.sqrt(2 * gamma)
    types = type_array(n, mu_p.size)
    typical = types[divergence(types / n, mu_p) < gamma]
    dev = np.max(np.abs(typical / n - mu_p), axis=1)
    ok = bool(np.all(dev <= bound + 1e-12)
              and not np.any(typical[:, mu_p == 0]))
    return ok, float(np.max(dev - bound, initial=-math.inf))


def check_typical_aep(mu: Distribution, n: int, gamma: float):
    """|-(1/n)log mu(u) - H| <= zeta(gamma) on the typical set, gamma <= 1/8."""
    if not (0 < gamma <= 0.125):
        raise ValueError("gamma must be in (0, 1/8]")
    mu_p = mu.p.ravel()
    h = entropy(mu_p)
    bound = zeta(mu_p.size, gamma)
    types = type_array(n, mu_p.size)
    typical = types[divergence(types / n, mu_p) < gamma]
    dev = np.abs(-_log2_prob(typical, mu_p) / n - h)
    ok = bool(np.all(dev <= bound + 1e-12))
    return ok, float(np.max(dev - bound, initial=-math.inf))


def check_typical_prob(mu: Distribution, n: int, gamma: float):
    """Exact atypicality mass <= 2^{-n[gamma - lambda]}."""
    mu_p = mu.p.ravel()
    types = type_array(n, mu_p.size)
    # each mu(a) is m / 2^e_a, so with e the largest e_a the tail is one
    # integer over 2^(n e), rounded once: no class probability underflows
    ratios = [float(p).as_integer_ratio() for p in mu_p]
    e = max(den.bit_length() - 1 for _, den in ratios)
    scaled = [m << (e - den.bit_length() + 1) for m, den in ratios]
    num = 0
    for counts in types[divergence(types / n, mu_p) >= gamma].tolist():
        num += type_class_size(counts) * math.prod(
            s ** c for s, c in zip(scaled, counts))
    tail = num / (1 << (n * e))
    bound = 2.0 ** (-n * (gamma - lam(mu_p.size, n)))
    return tail <= bound + 1e-12, tail - bound


def check_typical_number(mu: Distribution, n: int, gamma: float):
    """2^{n[H-eta]} <= |typical set| <= 2^{n[H+eta]} when nonempty."""
    mu_p = mu.p.ravel()
    count = typical_count(mu_p, n, gamma)
    if count == 0:
        return True, -math.inf
    h = entropy(mu_p)
    e = eta(mu_p.size, gamma, n)
    val = math.log2(count) / n
    dev = abs(val - h)
    return dev <= e + 1e-12, dev - e


LEMMA_SUITE = (
    ("exprob", check_exprob),
    ("typical-trans", check_typical_trans),
    ("type", check_type_lemma),
    ("typical-aep", check_typical_aep),
    ("typical-prob", check_typical_prob),
    ("typical-number", check_typical_number),
)
