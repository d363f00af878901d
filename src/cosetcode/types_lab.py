"""Method-of-types toolkit: types, entropies, divergences, typical sets."""

from __future__ import annotations

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


def _type_divergence(types, n: int, mu_p) -> np.ndarray:
    """`divergence(types / n, mu_p)` for count vectors of length-n sequences,
    one per row. A letter's term depends only on its count, one of n + 1,
    so it is read from a table of the terms of 0/n, ..., n/n, and the terms
    are added in letter order as there. A one-letter divergence is 0 plus
    its one term, so `divergence` forms the table: every bit is the same."""
    table = divergence((np.arange(n + 1) / n)[:, None],
                       mu_p[:, None, None])  # [letter, count]
    out = np.zeros(len(types))
    for a, terms in enumerate(table):
        out += terms[types[:, a]]
    return out


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
    them an array over the leading axes.

    A count c in a row of total t adds the term of c / max(t, 1), so each
    letter's terms are read from one table over (t, c), formed by
    one-letter divergences and added in `divergence`'s letter order: the
    bits are those of dividing the counts and calling `divergence` row by
    row. The table has one row of m + 1 counts, m the largest row total,
    for each row total that occurs: (m + 1)^2 entries for all the types of
    length m, a few rows for one table of a long sequence."""
    joint_counts = np.asarray(joint_counts)
    # counts index the table: uint64 ones would add to indices as floats
    if not np.can_cast(joint_counts.dtype, np.intp):
        joint_counts = joint_counts.astype(np.intp, casting="same_kind")
    row_counts = _count_sum(joint_counts)  # [..., v]
    # a row that never occurs (or an empty table) has weight 0, divergence 0
    n = np.maximum(_count_sum(row_counts), 1)
    side = np.arange(int(row_counts.max(initial=0)) + 1)
    occurs = np.zeros(side.size, bool)
    occurs[row_counts] = True
    freq = (side / np.maximum(side[occurs], 1)[:, None]).ravel()
    # where the table's row of each total that occurs starts
    at_total = (np.cumsum(occurs) - 1) * side.size
    table = divergence(freq[:, None],
                       np.asarray(cond_mu, dtype=float)[..., None, None])
    out = np.zeros(joint_counts.shape[:-2])
    for vi, row_table in enumerate(table):
        nv = row_counts[..., vi]
        at = at_total[nv]
        d = np.zeros(out.shape)
        for u, terms in enumerate(row_table):
            d += terms[at + joint_counts[..., vi, u]]
        out += (nv / n) * d
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

def _ramps(rest):
    """The counts 0, 1, ..., r for each r in `rest` (an unsigned array), one
    ramp after another, and each ramp's length r + 1. The ramps are a
    running sum of unit steps that drops by the last ramp's top where a
    new one starts, added modulo the range of `rest`'s dtype, so no
    temporary of the ramps' length is wider than that dtype."""
    reps = rest.astype(np.intp) + 1
    step = np.ones(int(reps.sum()), rest.dtype)
    step[0] = 0
    step[np.cumsum(reps[:-1])] = -rest[:-1]
    return np.add.accumulate(step, dtype=rest.dtype, out=step), reps


def type_array(n: int, k: int) -> np.ndarray:
    """All occurrence-count vectors of length k summing to n, one per row,
    in lexicographic order, in the smallest dtype that holds n + k - 1.

    Built a letter at a time: each prefix of the first a counts (sum <= n,
    in lexicographic order) is followed by every count that still fits,
    and each longer prefix heads as many rows as there are ways to share
    what is left of n among the letters after it. The last count is what
    is left."""
    dtype = np.min_scalar_type(n + k - 1)
    types = np.empty((math.comb(n + k - 1, k - 1), k), dtype)
    rest = np.array([n], dtype)  # n less the counts of each prefix
    for a in range(k - 1):
        count, reps = _ramps(rest)
        rest = np.repeat(rest, reps) - count
        m = k - 2 - a  # the letters between this count and the last
        if m:
            heads = np.array([math.comb(r + m, m) for r in range(n + 1)])
            count = np.repeat(count, heads[rest])
        types[:, a] = count
    types[:, -1] = rest
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
    typical = types[_type_divergence(types, n, mu_p) < gamma]
    return sum(type_class_size(counts) for counts in typical.tolist())


# -- lemma suites ------------------------------------------------------------

def check_exprob(mu: Distribution, n: int):
    """Per-sequence probability identity: -(1/n)log mu(u) = H(nu)+D(nu||mu),
    checked within 1e-12 on every type with positive probability."""
    mu_p = mu.p.ravel()
    types = type_array(n, mu_p.size)
    d = _type_divergence(types, n, mu_p)
    # H(nu) = -D(nu || 1), the divergence from the all-ones measure
    rhs = d - _type_divergence(types, n, np.ones_like(mu_p))
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
    d_v = _type_divergence(_count_sum(counts), n, mu_v)
    d_cond = cond_type_divergence(counts, cond)
    d_joint = _type_divergence(types, n, mu_joint.p.ravel())
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
    typical = types[_type_divergence(types, n, mu_p) < gamma]
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
    typical = types[_type_divergence(types, n, mu_p) < gamma]
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
    # s^c = giant[c // b] baby[c % b]: each letter keeps about 2 sqrt(n)
    # powers, not all n + 1 of them, whose sizes add up to ~n^2 digits
    b = math.isqrt(n) + 1
    tables = []
    for s in scaled:
        baby = [1]
        for _ in range(b):
            baby.append(baby[-1] * s)
        giant = [1]
        for _ in range(n // b):
            giant.append(giant[-1] * baby[b])
        tables.append((giant, baby))
    num = 0
    for counts in types[_type_divergence(types, n, mu_p) >= gamma].tolist():
        num += type_class_size(counts) * math.prod(
            giant[c // b] * baby[c % b] for (giant, baby), c in zip(tables, counts))
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
