"""Ensemble diagnostics: kernel-weight probabilities, walk law, alpha/beta.

All closed forms are alternating sums, in exact rational arithmetic within
EXACT_L_LIMIT and EXACT_POWER_LIMIT and in signed log-domain floats beyond.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .matrices import EnsembleParams

# exact rational arithmetic is used within these limits
EXACT_L_LIMIT = 64
EXACT_POWER_LIMIT = 4096

ENUM_BUDGET = 1 << 20


def _use_exact(l: int, power: int) -> bool:
    return l <= EXACT_L_LIMIT and power <= EXACT_POWER_LIMIT


def _signed_log_sum(terms):
    """Sum of sign*2^... style terms given as (sign, log_magnitude) pairs.

    Returns (value, cancellation_flag); the flag trips when the result is
    smaller than 1e-6 times the largest magnitude involved.
    """
    terms = [(s, lm) for s, lm in terms if s != 0]
    if not terms:
        return 0.0, False
    top = max(lm for _, lm in terms)
    vals = [s * math.exp(lm - top) for s, lm in terms]
    total = math.fsum(vals)
    cancel = abs(total) < 1e-6 * math.fsum(abs(v) for v in vals)
    return total * math.exp(top), cancel


def return_prob(q: int, l: int, tau: int, w: int):
    """Probability that a sparse-ensemble matrix maps a fixed weight-w
    vector to zero: (1/q^l) sum_k (1 - qk/((q-1)l))^{w tau} C(l,k)(q-1)^k.
    This is the w tau-step walk law at the origin."""
    if w < 1 or l < 1 or tau < 1:
        raise ValueError("need w >= 1, l >= 1, tau >= 1")
    return walk_dist_closed(q, l, w * tau, 0)


def _krawtchouk(q: int, l: int, w: int, k: int) -> int:
    """K_k(w) = sum_{k'} (-1)^{k'} C(w,k') C(l-w,k-k') (q-1)^{k-k'}, exact."""
    return sum(
        (-1) ** kp * math.comb(w, kp) * math.comb(l - w, k - kp)
        * (q - 1) ** (k - kp)
        for kp in range(max(0, k - (l - w)), min(w, k) + 1)
    )


def walk_dist_closed(q: int, l: int, steps: int, w_c: int):
    """Probability that the coordinate walk sits at a fixed vector of weight
    w_c after `steps` uniform single-coordinate nonzero additions:
    (1/q^l) sum_k (1 - qk/((q-1)l))^steps K_k(w_c)."""
    if not (0 <= w_c <= l):
        raise ValueError("w_c must be in [0, l]")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if _use_exact(l, steps):
        num = sum(((q - 1) * l - q * k) ** steps * _krawtchouk(q, l, w_c, k)
                  for k in range(l + 1))
        return Fraction(num, ((q - 1) * l) ** steps * q**l)
    terms = []
    for k, sign, log_kraw in _log_krawtchouk(q, l, w_c):
        # the base from integers: at q = 2 the terms k and l - k then have
        # equal magnitudes and cancel exactly when they differ in sign
        num = (q - 1) * l - q * k
        if num == 0 and steps > 0:
            continue
        log_base = math.log(abs(num) / ((q - 1) * l)) if num else 0.0
        sign *= -1 if num < 0 and steps % 2 else 1
        terms.append((sign, steps * log_base + log_kraw - l * math.log(q)))
    total, cancel = _signed_log_sum(terms)
    if cancel:
        warnings.warn("severe cancellation in walk_dist_closed; value unreliable")
    return total


@functools.cache
def _log_krawtchouk(q: int, l: int, w_c: int) -> tuple:
    """(k, sign, log|K_k(w_c)|) for every k with K_k(w_c) != 0: the part of
    the float path's terms that does not depend on the number of steps,
    formed once per (q, l, w_c)."""
    return tuple((k, 1 if kraw > 0 else -1, math.log(abs(kraw)))
                 for k in range(l + 1)
                 if (kraw := _krawtchouk(q, l, w_c, k)))


def walk_dist_recursive(q: int, l: int, steps: int):
    """Exact distribution over weight classes of the coordinate walk.

    Dynamic programming over weights: each step picks a coordinate uniformly
    and adds a uniform nonzero field element.  Returns mass[w] for w=0..l.
    It counts the (l(q-1))**steps step sequences that end at each weight, in
    integers, and divides once per weight: from weight w a step reaches
    w - 1 in w ways, stays in w(q - 2) ways and reaches w + 1 in
    (l - w)(q - 1) ways.
    """
    if q**l > ENUM_BUDGET:
        raise ValueError("state space exceeds enumeration budget")
    # (ways in from w - 1, from w, from w + 1) for each weight w
    ways = [((l - w + 1) * (q - 1), w * (q - 2), w + 1) for w in range(l + 1)]
    count = [1] + [0] * l
    for _ in range(steps):
        padded = [0, *count, 0]
        count = [up * padded[w] + stay * padded[w + 1] + down * padded[w + 2]
                 for w, (up, stay, down) in enumerate(ways)]
    denominator = (l * (q - 1)) ** steps
    return [Fraction(c, denominator) for c in count]


def walk_pointwise_recursive(q: int, l: int, steps: int, w_c: int) -> Fraction:
    """Per-vector probability from the weight-class recursion (oracle for
    walk_dist_closed); all vectors of equal weight are equiprobable."""
    mass = walk_dist_recursive(q, l, steps)
    return mass[w_c] / (math.comb(l, w_c) * (q - 1) ** w_c)


def ensemble_im_size(q: int, l: int, tau: int, ensemble: str = "mackay") -> int:
    """Size of the union of ranges over the ensemble.

    For the sparse ensemble with q=2 and even tau every output has even
    weight, halving the reachable space; otherwise the full space."""
    if ensemble == "uniform":
        return q**l
    if ensemble != "mackay":
        raise ValueError(f"unknown ensemble {ensemble!r}")
    if q == 2 and tau % 2 == 0:
        return q**l // 2
    return q**l


def ensemble_im_set(q: int, l: int, tau: int, ensemble: str = "mackay"):
    """Explicit union-of-ranges vectors (desk scale only), one per row of a
    narrow integer array in itertools.product order: the even-weight vectors
    when the image is half the space, else the full space."""
    evens = ensemble_im_size(q, l, tau, ensemble) < q**l
    space = np.indices((q,) * l, np.min_scalar_type(q - 1)).reshape(l, -1).T
    return space[space.sum(axis=1) % 2 == 0] if evens else space


@dataclass(frozen=True)
class HashDiagnostics:
    """Collision/low-weight diagnostics of one matrix ensemble.  The set
    checks' right-hand sides depend only on these fields and the set sizes,
    so each is formed once per diagnostics and sizes (`bound`)."""

    q: int
    l: int
    alpha: object
    beta: object
    im_size: int
    im_ratio: object
    per_weight: dict
    _bounds: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.im_size > self.q**self.l:
            raise ValueError("image cannot exceed the full space")

    def bound(self, key: tuple, form):
        """The right-hand side `form()` of the check and set sizes in `key`,
        formed on the first call; a racing thread stores an equal value."""
        rhs = self._bounds.get(key)
        return self._bounds.setdefault(key, form()) if rhs is None else rhs


def alpha_beta(params: EnsembleParams, n: int,
               ensemble: str = "mackay") -> HashDiagnostics:
    """alpha = |Im| max_{w > xi l} p_{A,w}; beta = sum_{w <= xi l} |C_w| p_{A,w}.

    Refuses an l whose |Im| alpha needs, or an n with some |C_w|, past the
    float range: the float path multiplies floats by these integers."""
    q, l, tau, xi = params.q, params.l, params.tau, params.xi
    im = ensemble_im_size(q, l, tau, ensemble)
    sizes = {w: math.comb(n, w) * (q - 1) ** w for w in range(1, n + 1)}
    cutoff = xi * l
    if n > cutoff and im > sys.float_info.max:
        raise ValueError(f"l = {l} puts |Im| past the float range at q = {q}")
    if max(sizes.values(), default=0) > sys.float_info.max:
        raise ValueError(f"n = {n} puts |C_w| past the float range at q = {q}")
    per_weight = {
        w: (Fraction(1, q**l) if ensemble == "uniform"
            else return_prob(q, l, tau, w), size)
        for w, size in sizes.items()}
    high = [per_weight[w][0] for w in range(1, n + 1) if w > cutoff]
    alpha = im * max(high) if high else Fraction(0)
    beta = sum((per_weight[w][0] * per_weight[w][1]
                for w in range(1, n + 1) if w <= cutoff), Fraction(0))
    used_exact = isinstance(alpha, Fraction) or isinstance(beta, Fraction)
    im_ratio = Fraction(im, q**l) if used_exact else im / q**l
    return HashDiagnostics(
        q=q, l=l, alpha=alpha, beta=beta, im_size=im, im_ratio=im_ratio,
        per_weight=per_weight,
    )


# -- exhaustive tiny-ensemble oracles ----------------------------------------

def enumerate_column_outcomes(q: int, l: int, tau: int):
    """Columns from tau uniform draws of (row, nonzero value): {column tuple:
    number of the (l (q-1))**tau draw sequences that give it}."""
    options = [(j, a) for j in range(l) for a in range(1, q)]
    if len(options) ** tau > ENUM_BUDGET:
        raise ValueError("column outcome space exceeds enumeration budget")
    dist = Counter()
    for seq in itertools.product(options, repeat=tau):
        col = [0] * l
        for j, a in seq:
            col[j] = (col[j] + a) % q
        dist[tuple(col)] += 1
    return dict(dist)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Every matrix of a tiny ensemble, stacked: P(dense[m]) = weight[m] /
    total.  total <= ENUM_BUDGET, so the checks' int64 sums of weight times a
    count (at most |T||T'|, 25 in hash-check, or |Im|) are exact.  The set
    checks read syndrome codes through `syndromes(q, vectors)`."""

    dense: np.ndarray  # (N, l, n) int64, read-only
    weight: np.ndarray  # (N,) int64 numerators
    total: int
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.dense.setflags(write=False)

    def __len__(self) -> int:
        return len(self.weight)

    def syndromes(self, q: int, vectors):
        """(keys, codes): each vector's base-q index after reduction mod q,
        and the (N, V) codes of A v mod q, every matrix A, every vector v.

        While N q**n <= ENUM_BUDGET the first call codes all of GF(q)^n in
        index order and keeps that table; a racing thread builds an equal
        one.  Past the budget each call codes only its own vectors."""
        n = self.dense.shape[2]
        v = np.asarray(vectors, np.int64).reshape(-1, n) % q
        keys = _base_q(v, q)
        if len(self) * q**n > ENUM_BUDGET:
            return keys, _syndrome_codes(self.dense, v, q)
        table = self._tables.get(q)
        if table is None:
            space = np.indices((q,) * n).reshape(n, -1).T
            table = self._tables.setdefault(
                q, _syndrome_codes(self.dense, space, q))
        return keys, table[:, keys]


def enumerate_mackay(params: EnsembleParams) -> Ensemble:
    """All matrices of the tiny sparse ensemble with exact probabilities."""
    q, l, n, tau = params.q, params.l, params.n, params.tau
    total = (l * (q - 1)) ** (tau * n)
    if total > ENUM_BUDGET:
        raise ValueError("generation outcome space exceeds enumeration budget")
    cols, counts = zip(*sorted(enumerate_column_outcomes(q, l, tau).items()))
    pick = np.indices((len(cols),) * n).reshape(n, -1).T
    dense = np.array(cols, dtype=np.int64)[pick].transpose(0, 2, 1)
    return Ensemble(dense, np.array(counts, np.int64)[pick].prod(axis=1), total)


@functools.cache
def _place_values(q: int, length: int):
    """q**(length-1), ..., q, 1: int64, or Python integers once q**length is
    past int64.  Built once per (q, length), read-only."""
    place = np.array([q**k for k in range(length - 1, -1, -1)],
                     dtype=object if q**length >= 2**63 else np.int64)
    place.setflags(write=False)
    return place


def _base_q(digits, q: int):
    """Code each vector along the last axis as an integer in base q, first
    digit most significant; Python integers once q**l is past int64."""
    digits = np.asarray(digits)
    return digits @ _place_values(q, digits.shape[-1])


def _syndrome_codes(dense, vectors, q: int):
    """(N, V) base-q codes of A v mod q: every matrix A of the (N, l, n)
    stack, every vector v."""
    v = np.asarray(vectors, np.int64).reshape(-1, dense.shape[2])
    return _base_q((v @ dense.transpose(0, 2, 1)) % q, q)


def return_prob_exhaustive(matrices, u, q: int) -> Fraction:
    """Exact ensemble probability of A u = 0 by full enumeration; one vector
    is coded directly, as no other check would read it again."""
    zero = _syndrome_codes(matrices.dense, [u], q)[:, 0] == 0
    return Fraction(int(matrices.weight @ zero), matrices.total)


def hash_sum_exhaustive(matrices, T, Tp, diag):
    """Exact collision sum over T x T' versus the ensemble bound.

    Returns (lhs, rhs); lhs = sum over pairs of the probability of a
    syndrome collision, rhs = |T cap T'| + |T||T'| alpha/|Im| + min beta.
    """
    keys, codes = matrices.syndromes(diag.q, [*T, *Tp])
    k = len(T)
    hits = (codes[:, :k, None] == codes[:, None, k:]).sum(axis=(1, 2))
    lhs = Fraction(int(matrices.weight @ hits), matrices.total)
    inter = len(set(keys[:k].tolist()) & set(keys[k:].tolist()))
    rhs = diag.bound(("hash", len(T), len(Tp), inter), lambda: (
        inter
        + Fraction(len(T) * len(Tp)) * diag.alpha / diag.im_size
        + min(len(T), len(Tp)) * diag.beta
    ))
    return lhs, rhs


def collision_bound_check(matrices, G, u, diag):
    """Probability that some other member of G shares u's bin, versus the
    bound |G| alpha/|Im| + beta.  Returns (lhs, rhs)."""
    keys, codes = matrices.syndromes(diag.q, [u, *G])
    others = codes[:, 1:][:, keys[1:] != keys[0]]
    hit = (others == codes[:, :1]).any(axis=1)
    lhs = Fraction(int(matrices.weight @ hit), matrices.total)
    rhs = diag.bound(("collision", len(G)), lambda: (
        Fraction(len(G)) * diag.alpha / diag.im_size + diag.beta))
    return lhs, rhs


def saturation_bound_check(matrices, T, diag, im_set):
    """Probability over (A, c uniform on the ensemble image) that bin c
    misses T, versus alpha - 1 + |Im|(beta+1)/|T|.  Returns (lhs, rhs).
    Every code A t lies in Im A, inside the ensemble image (im_set's rows),
    so the bins that A T reaches are its distinct codes: none is looked up."""
    if not len(T):
        raise ValueError("T must be nonempty")
    codes = np.sort(matrices.syndromes(diag.q, T)[1], axis=1)
    reached = 1 + (codes[:, 1:] != codes[:, :-1]).sum(axis=1)
    lhs = Fraction(int(matrices.weight @ (len(im_set) - reached)),
                   matrices.total * len(im_set))
    rhs = diag.bound(("saturation", len(T)), lambda: (
        diag.alpha - 1 + Fraction(diag.im_size) * (diag.beta + 1) / len(T)))
    return lhs, rhs
