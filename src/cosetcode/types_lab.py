"""Method-of-types toolkit: types, entropies, divergences, typical sets."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

LOG2 = math.log(2.0)
ENUM_BUDGET = 1 << 22


class Distribution:
    """Finite pmf over a (possibly multi-axis) alphabet.

    `probs` is a float array of finite, non-negative entries summing to 1.
    """

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        if not np.isfinite(p).all():
            raise ValueError("non-finite pmf entry")
        if np.any(p < 0):
            raise ValueError("negative pmf entry")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"pmf sums to {p.sum()!r}, not 1")
        self.p = p

    @property
    def shape(self):
        return self.p.shape

    @classmethod
    def bernoulli(cls, p) -> "Distribution":
        return cls([1.0 - p, p])

    @classmethod
    def uniform(cls, k: int) -> "Distribution":
        return cls([1 / k] * k)

    @classmethod
    def dsbs(cls, p) -> "Distribution":
        """Doubly symmetric binary source: X uniform, Y = X xor Bern(p)."""
        same, diff = 0.5 * (1 - p), 0.5 * p
        return cls([[same, diff], [diff, same]])

    def marginal(self, axes) -> "Distribution":
        """Marginal over the listed axes (kept, in their original order)."""
        if isinstance(axes, int):
            axes = (axes,)
        drop = tuple(a for a in range(self.p.ndim) if a not in axes)
        return Distribution(self.p.sum(axis=drop))

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


@dataclass(frozen=True)
class TypeVector:
    """Occurrence counts n*nu_u of a sequence."""

    counts: tuple
    n: int

    def __post_init__(self):
        if sum(self.counts) != self.n:
            raise ValueError("counts must sum to n")

    @property
    def weight(self) -> int:
        return self.n - self.counts[0]

    def freq(self) -> np.ndarray:
        return np.array(self.counts, dtype=float) / self.n


def empirical(u, q: int) -> TypeVector:
    u = np.asarray(u, dtype=np.int64)
    if u.size == 0:
        raise ValueError("empty sequence")
    counts = np.bincount(u, minlength=q)
    return TypeVector(tuple(int(c) for c in counts), int(u.size))


def cond_empirical(u, v, qu: int, qv: int) -> np.ndarray:
    """Joint occurrence counts indexed [v, u]."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise ValueError("length mismatch")
    counts = np.zeros((qv, qu), dtype=np.int64)
    np.add.at(counts, (v, u), 1)
    return counts


def entropy(p) -> float:
    """Shannon entropy in bits, 0 log 0 = 0."""
    p = np.asarray(getattr(p, "p", p), dtype=float).ravel()
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def cond_entropy(cond, p) -> float:
    """H(q|p) for cond[v, ...] row-stochastic over trailing axes."""
    cond = np.asarray(cond, dtype=float)
    p = np.asarray(getattr(p, "p", p), dtype=float).ravel()
    out = 0.0
    for v, pv in enumerate(p):
        if pv > 0:
            out += pv * entropy(cond[v])
    return out


def divergence(p, pprime) -> float:
    """D(p || p') in bits; +inf if support(p) is not within support(p')."""
    p = np.asarray(getattr(p, "p", p), dtype=float).ravel()
    pp = np.asarray(getattr(pprime, "p", pprime), dtype=float).ravel()
    if p.shape != pp.shape:
        raise ValueError("shape mismatch")
    mask = p > 0
    if np.any(pp[mask] == 0):
        return math.inf
    return float((p[mask] * np.log2(p[mask] / pp[mask])).sum())


def mutual_information(joint: Distribution) -> float:
    px = joint.marginal(0)
    py = joint.marginal(1)
    return entropy(px) + entropy(py) - entropy(joint)


def is_typical(u, mu, gamma: float) -> bool:
    """Membership of u in the divergence-gamma typical set (strict)."""
    mu_p = np.asarray(getattr(mu, "p", mu), dtype=float).ravel()
    t = empirical(u, mu_p.size)
    return divergence(t.freq(), mu_p) < gamma


def is_cond_typical(u, v, cond_mu, gamma: float) -> bool:
    cond_mu = np.asarray(cond_mu, dtype=float)
    qv, qu = cond_mu.shape
    counts = cond_empirical(u, v, qu, qv)
    return cond_type_divergence(counts, cond_mu) < gamma


def cond_type_divergence(joint_counts, cond_mu) -> float:
    """D(nu_{u|v} || mu_{U|V} | nu_v) from joint counts indexed [v, u]."""
    joint_counts = np.asarray(joint_counts, dtype=float)
    n = joint_counts.sum()
    cond_mu = np.asarray(cond_mu, dtype=float)
    out = 0.0
    for vi in range(joint_counts.shape[0]):
        row = joint_counts[vi]
        nv = row.sum()
        if nv == 0:
            continue
        d = divergence(row / nv, cond_mu[vi])
        if math.isinf(d):
            return math.inf
        out += (nv / n) * d
    return out


# -- bound functions ---------------------------------------------------------

def zeta(size_u: int, gamma: float) -> float:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    s = math.sqrt(2 * gamma)
    return gamma - s * math.log2(s / size_u)


def zeta_cond(size_u: int, size_v: int, gamma_p: float, gamma: float) -> float:
    if gamma <= 0 or gamma_p <= 0:
        raise ValueError("gamma must be positive")
    sp = math.sqrt(2 * gamma_p)
    return (
        gamma_p
        - sp * math.log2(sp / (size_u * size_v))
        + math.sqrt(2 * gamma) * math.log2(size_u)
    )


def eta(size_u: int, gamma: float, n: int) -> float:
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    s = math.sqrt(2 * gamma)
    return -s * math.log2(s / size_u) + size_u * math.log2(n + 1) / n


def eta_cond(size_u: int, size_v: int, gamma_p: float, gamma: float, n: int) -> float:
    if gamma <= 0 or gamma_p <= 0:
        raise ValueError("gamma must be positive")
    sp = math.sqrt(2 * gamma_p)
    return (
        -sp * math.log2(sp / (size_u * size_v))
        + math.sqrt(2 * gamma) * math.log2(size_u)
        + size_u * size_v * math.log2(n + 1) / n
    )


def lam(size_u: int, n: int) -> float:
    return size_u * math.log2(n + 1) / n


# -- type enumeration --------------------------------------------------------

def iter_types(n: int, q: int):
    """All occurrence-count vectors of length q summing to n."""
    if q == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in iter_types(n - first, q - 1):
            yield (first,) + rest


def type_class_size(counts) -> int:
    n = sum(counts)
    out = math.factorial(n)
    for c in counts:
        out //= math.factorial(c)
    return out


def type_divergence(counts, mu_p) -> float:
    n = sum(counts)
    freq = np.array(counts, dtype=float) / n
    return divergence(freq, mu_p)


def enumerate_typical(mu, n: int, gamma: float):
    """All length-n sequences in the typical set (exhaustive)."""
    mu_p = np.asarray(getattr(mu, "p", mu), dtype=float).ravel()
    q = mu_p.size
    if q**n > ENUM_BUDGET:
        raise ValueError(f"enumeration budget exceeded: {q}^{n} > {ENUM_BUDGET}")
    for u in itertools.product(range(q), repeat=n):
        counts = [0] * q
        for s in u:
            counts[s] += 1
        if type_divergence(counts, mu_p) < gamma:
            yield u


def typical_count(mu, n: int, gamma: float) -> int:
    """Exact size of the typical set, via type-class combinatorics."""
    mu_p = np.asarray(getattr(mu, "p", mu), dtype=float).ravel()
    q = mu_p.size
    total = 0
    for counts in iter_types(n, q):
        if type_divergence(counts, mu_p) < gamma:
            total += type_class_size(counts)
    return total


# -- lemma suites ------------------------------------------------------------

def check_exprob(mu: Distribution, n: int):
    """Per-sequence probability identity: -(1/n)log mu(u) = H(nu)+D(nu||mu),
    checked within 1e-12 on every type with positive probability."""
    mu_p = mu.p.ravel()
    q = mu_p.size
    worst = 0.0
    for counts in iter_types(n, q):
        if any(c > 0 and mu_p[a] == 0 for a, c in enumerate(counts)):
            continue
        logmu = sum(c * math.log2(mu_p[a]) for a, c in enumerate(counts) if c)
        freq = np.array(counts, dtype=float) / n
        rhs = entropy(freq) + divergence(freq, mu_p)
        worst = max(worst, abs(-logmu / n - rhs))
    return worst <= 1e-12, worst


def check_typical_trans(mu_joint: Distribution, n: int, gamma: float,
                        gamma_p: float):
    """v typical and u conditionally typical imply (u,v) jointly typical."""
    qv, qu = mu_joint.shape  # indexed [v, u]
    mu_v = mu_joint.p.sum(axis=1)
    cond = mu_joint.conditional(0)
    ok = True
    worst = -math.inf
    for joint_counts in iter_types(n, qv * qu):
        jc = np.array(joint_counts).reshape(qv, qu)
        v_counts = jc.sum(axis=1)
        d_v = divergence(v_counts / n, mu_v)
        d_cond = cond_type_divergence(jc, cond)
        d_joint = divergence(jc.ravel() / n, mu_joint.p.ravel())
        if d_v < gamma and d_cond < gamma_p:
            ok = ok and d_joint < gamma + gamma_p
            worst = max(worst, d_joint - (gamma + gamma_p))
        # chain rule behind the lemma, checked where finite
        if math.isfinite(d_joint) and math.isfinite(d_cond):
            ok = ok and abs(d_joint - d_v - d_cond) <= 1e-9
    return ok, worst


def check_type_lemma(mu: Distribution, n: int, gamma: float):
    """Typical types are uniformly close to mu: |nu(a)-mu(a)| <= sqrt(2 gamma)."""
    mu_p = mu.p.ravel()
    bound = math.sqrt(2 * gamma)
    worst = -math.inf
    ok = True
    for counts in iter_types(n, mu_p.size):
        if type_divergence(counts, mu_p) < gamma:
            dev = float(np.max(np.abs(np.array(counts) / n - mu_p)))
            worst = max(worst, dev - bound)
            ok = ok and dev <= bound + 1e-12
            ok = ok and all(
                c == 0 for a, c in enumerate(counts) if mu_p[a] == 0
            )
    return ok, worst


def check_typical_aep(mu: Distribution, n: int, gamma: float):
    """|-(1/n)log mu(u) - H| <= zeta(gamma) on the typical set, gamma <= 1/8."""
    if not (0 < gamma <= 0.125):
        raise ValueError("gamma must be in (0, 1/8]")
    mu_p = mu.p.ravel()
    h = entropy(mu_p)
    bound = zeta(mu_p.size, gamma)
    worst = -math.inf
    ok = True
    for counts in iter_types(n, mu_p.size):
        if type_divergence(counts, mu_p) < gamma:
            logmu = sum(c * math.log2(mu_p[a]) for a, c in enumerate(counts) if c)
            dev = abs(-logmu / n - h)
            worst = max(worst, dev - bound)
            ok = ok and dev <= bound + 1e-12
    return ok, worst


def check_typical_prob(mu: Distribution, n: int, gamma: float):
    """Exact atypicality mass <= 2^{-n[gamma - lambda]}."""
    mu_p = mu.p.ravel()
    tail = 0.0
    for counts in iter_types(n, mu_p.size):
        if type_divergence(counts, mu_p) >= gamma:
            p = math.prod(mu_p[a] ** c for a, c in enumerate(counts) if c)
            tail += type_class_size(counts) * p
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
