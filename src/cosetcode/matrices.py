"""Matrices over GF(q) from sparse ensembles: generation, products, rank/image."""

from __future__ import annotations

import copy
import hashlib
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .gf import FieldSpec, is_prime


@dataclass(frozen=True)
class EnsembleParams:
    """Parameters of the sparse-matrix ensemble."""

    q: int
    l: int
    n: int
    tau: int
    xi: float = 0.25

    def __post_init__(self):
        FieldSpec(self.q)  # primality check
        if self.l < 1 or self.n < 1:
            raise ValueError("l and n must be >= 1")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if self.q == 2 and self.tau % 2 != 0:
            raise ValueError("tau must be even when q=2")
        if self.tau % 2 != 0:
            warnings.warn("odd tau: image characterization is only exact for even tau")
        if not (0.0 < self.xi < 1.0):
            raise ValueError("xi must be in (0,1)")


class SparseMatrix:
    """l x n matrix over GF(q), held as one read-only int64 array.

    The ensembles draw it column-sparse; every product, elimination and
    comparison reads the array."""

    def __init__(self, q: int, dense):
        FieldSpec(q)  # primality check
        dense = np.asarray(dense, dtype=np.int64) % q
        if dense.ndim != 2 or 0 in dense.shape:
            raise ValueError(f"expected an l x n array, l, n >= 1, got {dense.shape}")
        dense.setflags(write=False)
        self.q = q
        self.l, self.n = dense.shape
        self._dense = dense

    def dense(self) -> np.ndarray:
        return self._dense

    def matvec(self, u) -> np.ndarray:
        """M u for one vector, or for every row of a (T, n) block."""
        u = np.asarray(u, dtype=np.int64)
        if u.ndim not in (1, 2) or u.shape[-1] != self.n:
            raise ValueError(f"expected vectors of length {self.n}, got {u.shape}")
        return ((u % self.q) @ self._dense.T) % self.q

    def rank_and_image(self):
        """Rank over GF(q) and a reduced-echelon basis of the column space."""
        basis = rref(self._dense.T, self.q)
        return basis.shape[0], basis

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and other.q == self.q
            and np.array_equal(other._dense, self._dense)
        )

    def to_text(self) -> str:
        """`q l n`, then per column `col i` and its nonzero `(row,value)`s."""
        lines = [f"{self.q} {self.l} {self.n}"]
        for i, col in enumerate(self._dense.T):
            parts = [f"col {i}"] + [f"({r},{col[r]})" for r in np.flatnonzero(col)]
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"


def gauss_jordan(m: np.ndarray, q: int, ncols: int | None = None) -> list:
    """Gauss-Jordan elimination over GF(q), in place, on the leading `ncols`
    columns of `m` (all of them by default); returns the pivot columns.

    Entries are read mod q.  Each column takes the first row at or below the
    next pivot position that is nonzero there.  Whole rows are swapped,
    scaled and combined, so any trailing columns carry the same row
    operations without steering them.

    Each row is held as one Python int with a k-bit field per entry, the
    smallest byte-wide k with q <= 2^(k-1) (k = 8 up to q = 127), so a row
    operation is a few integer operations on the whole row."""
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    rows, cols = m.shape
    ncols = cols if ncols is None else ncols
    size = next(s for s in (1, 2, 4, 8) if q <= 1 << (8 * s - 1))
    k, dtype, width = 8 * size, np.dtype(f"<u{size}"), cols * size
    data = (m % q).astype(dtype).tobytes()
    packed = [int.from_bytes(data[i * width:(i + 1) * width], "little")
              for i in range(rows)]
    mask = (1 << k) - 1
    ones = int.from_bytes((1).to_bytes(size, "little") * cols, "little")
    lift, top = ones * ((1 << (k - 1)) - q), ones << (k - 1)

    def add(a, b):
        # a field of a + b + lift has its top bit set exactly when the field
        # of a + b reached q; subtract q from those fields
        s = a + b
        return s - (((s + lift) & top) >> (k - 1)) * q

    def scale(a, s):  # s a, by doubling
        out = 0
        while s:
            if s & 1:
                out = add(out, a)
            a, s = add(a, a), s >> 1
        return out

    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        shift = c * k
        field = mask << shift
        for piv in range(r, rows):
            if packed[piv] & field:
                break
        else:
            continue
        row = packed[piv]
        packed[piv] = packed[r]
        lead = (row >> shift) & mask
        if lead != 1:
            row = scale(row, pow(lead, -1, q))
        # clear column c from every other row (row r is overwritten below);
        # over GF(2) that adds the pivot row, an exclusive or
        if q == 2:
            packed = [x ^ row if x & field else x for x in packed]
        else:
            multiples = {1: row}  # (q - factor) row, per factor met
            for i, x in enumerate(packed):
                if x & field:
                    g = q - ((x >> shift) & mask)
                    if g not in multiples:
                        multiples[g] = scale(row, g)
                    packed[i] = add(x, multiples[g])
        packed[r] = row
        pivots.append(c)
    data = b"".join([x.to_bytes(width, "little") for x in packed])
    m[...] = np.frombuffer(data, dtype).reshape(rows, cols)
    return pivots


def rref(mat, q: int):
    """Reduced row-echelon form over GF(q); returns the nonzero rows."""
    m = np.array(mat, dtype=np.int64)
    return m[:len(gauss_jordan(m, q))]


def rng_from_seed(seed) -> np.random.Generator:
    """A Generator on Philox(seed); a Generator is returned as it is."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


def _hash_consts(h: int, mult: int, count: int):
    """numpy SeedSequence's running hash constant: (h before, h after) for
    each of `count` steps, as two (count, 1) uint32 columns."""
    out = []
    for _ in range(count):
        out.append((h, h * mult & 0xFFFFFFFF))
        h = out[-1][1]
    return np.array(out, dtype=np.uint32).T[:, :, None]


# SeedSequence's pool of four words: each is filled by one hashmix step, then
# each word in turn hashes into the other three; generate_state hashes the
# pool out with a second constant chain.
_FILL = _hash_consts(0x43B0D7E5, 0x931E8875, 4 + 4 * 3)
_MIX = [(src, np.array([d for d in range(4) if d != src], dtype=np.intp),
         _FILL[0, 4 + 3 * src:7 + 3 * src], _FILL[1, 4 + 3 * src:7 + 3 * src])
        for src in range(4)]
_OUT = _hash_consts(0x8B51F9DD, 0x58F38DED, 4)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def philox_keys(seeds) -> np.ndarray:
    """The Philox key of every seed's stream, as one (len(seeds), 2) uint64
    array: row i is SeedSequence(seeds[i]).generate_state(2, np.uint64).

    numpy's pool-of-four mixing in uint32 arithmetic, for all seeds at once
    (one row of the pool per word).  A seed below 2^32 mixes the same pool
    as the words [seed, 0], so every seed is two words, low first.  A seed
    outside [0, 2^64) is refused."""
    try:
        s = np.fromiter(map(operator.index, seeds), dtype=np.uint64,
                        count=len(seeds))
    except OverflowError:
        raise ValueError("seeds must lie in [0, 2**64)") from None
    pool = np.zeros((4, len(s)), dtype=np.uint32)
    pool[0] = s & 0xFFFFFFFF
    pool[1] = s >> 32
    pool ^= _FILL[0, :4]
    pool *= _FILL[1, :4]
    pool ^= pool >> 16
    for src, dst, before, after in _MIX:
        h = (pool[src] ^ before) * after
        h ^= h >> 16
        h *= _MIX_R
        m = pool[dst] * _MIX_L - h
        pool[dst] = m ^ (m >> 16)
    pool ^= _OUT[0]
    pool *= _OUT[1]
    pool ^= pool >> 16
    words = pool.astype(np.uint64)
    return (words[0::2] | words[1::2] << 32).T


class Streams:
    """Labelled streams keyed in one philox_keys pass; by default label
    (parent, *tags) is the stream of derive_seed(*label), derived once.
    `rng(label)` re-keys one Philox to the state a fresh Philox(seed) starts
    in, so numpy draws what rng_from_seed(seed) would until the next `rng`
    call.  A batch from `select` shares the Philox: one thread at a time."""

    def __init__(self, labels: list, seeds=None):
        seeds = [derive_seed(*s) for s in labels] if seeds is None else seeds
        self.keys = dict(zip(labels, philox_keys(seeds).tolist()))
        self._rng = np.random.Generator(np.random.Philox(key=0))
        self._state = {"bit_generator": "Philox", "buffer": [0, 0, 0, 0],
                       "state": {"counter": [0, 0, 0, 0], "key": None},
                       "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def __len__(self):
        return len(self.keys)

    def rng(self, label) -> np.random.Generator:
        self._state["state"]["key"] = self.keys[label]
        self._rng.bit_generator.state = self._state
        return self._rng

    def select(self, labels) -> "Streams":
        """The streams of `labels`, in order, labelled 0, 1, ..."""
        batch = copy.copy(self)
        batch.keys = dict(enumerate([self.keys[label] for label in labels]))
        return batch


def draw_streams(seeds, draw) -> np.ndarray:
    """np.array([draw(rng_from_seed(s)) for s in seeds]), the same numbers;
    `seeds` may be a Streams batch, keyed already."""
    streams = (seeds if isinstance(seeds, Streams)
               else Streams(range(len(seeds)), seeds))
    return np.array([draw(streams.rng(label)) for label in streams.keys])


def derive_seed(seed, *tags) -> int:
    """Stable sub-seed from a master seed and string/int tags."""
    h = hashlib.sha256(repr((int(seed),) + tags).encode())
    return int.from_bytes(h.digest()[:8], "little")


def generate_mackay(params: EnsembleParams, seed) -> SparseMatrix:
    """Draw a sparse matrix: per column, tau additions of a random nonzero
    element at a random row.  Cancellations come out as zeros.

    For q = 2 the only nonzero element is 1, and a draw from the empty range
    [0, q - 1) consumes no randomness, so the n per-column row draws are one
    stream and one call makes them."""
    rng = rng_from_seed(seed)
    q, l, n, tau = params.q, params.l, params.n, params.tau
    if q == 2:
        rows = rng.integers(0, l, size=(n, tau))
        vals = np.ones((n, tau), dtype=np.int64)
    else:
        rows = np.empty((n, tau), dtype=np.int64)
        vals = np.empty((n, tau), dtype=np.int64)
        for i in range(n):
            rows[i] = rng.integers(0, l, size=tau)
            vals[i] = 1 + rng.integers(0, q - 1, size=tau)
    dense = np.zeros((l, n), dtype=np.int64)
    np.add.at(dense, (rows, np.arange(n)[:, None]), vals)
    return SparseMatrix(q, dense)


def generate_uniform(q: int, l: int, n: int, seed) -> SparseMatrix:
    """Every entry i.i.d. uniform over GF(q)."""
    return SparseMatrix(q, rng_from_seed(seed).integers(0, q, size=(l, n)))


def recommended_tau(l: int, rate: float) -> int:
    """Column weight 2*ceil(ln(l^2 / R)), clamped to at least 2."""
    if l < 1:
        raise ValueError("l must be >= 1")
    if rate <= 0:
        raise ValueError("rate must be positive")
    tau = 2 * math.ceil(math.log(l * l / rate))
    return max(tau, 2)


def sample_image_point(A: SparseMatrix, seed) -> np.ndarray:
    """Uniform point of Im A, as A u for u uniform on GF(q)^n."""
    rng = rng_from_seed(seed)
    u = rng.integers(0, A.q, size=A.n)
    return A.matvec(u)
