"""Sparse l x n matrices over GF(q): generation, products, rank/image."""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gf import FieldSpec

# dense mirror kept whenever l*n fits this budget (always true at desk scale)
DENSE_LIMIT = 1 << 20


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
    """Column-sparse matrix over GF(q) with an optional dense mirror.

    Immutable after construction; duplicate (row,col) contributions are
    summed mod q at insertion and zero coefficients are dropped.
    """

    def __init__(self, q: int, l: int, n: int, columns=None):
        FieldSpec(q)  # primality check
        self.q = q
        if l < 1 or n < 1:
            raise ValueError("l and n must be >= 1")
        self.l = l
        self.n = n
        cols = []
        for i in range(n):
            entries = {}
            if columns is not None:
                for row, val in columns[i]:
                    if not (0 <= row < l):
                        raise ValueError("row index out of range")
                    entries[row] = (entries.get(row, 0) + val) % q
            cols.append(tuple(sorted((r, v) for r, v in entries.items() if v != 0)))
        self.columns = tuple(cols)
        self._dense = None
        if l * n <= DENSE_LIMIT:
            dense = np.zeros((l, n), dtype=np.int64)
            for i, col in enumerate(self.columns):
                for r, v in col:
                    dense[r, i] = v
            dense.setflags(write=False)
            self._dense = dense

    @classmethod
    def from_dense(cls, dense, q: int) -> "SparseMatrix":
        dense = np.asarray(dense) % q
        l, n = dense.shape
        columns = [
            [(r, int(dense[r, i])) for r in range(l) if dense[r, i] != 0]
            for i in range(n)
        ]
        return cls(q, l, n, columns)

    def dense(self) -> np.ndarray:
        if self._dense is None:
            raise ValueError("matrix too large for dense mirror")
        return self._dense

    def matvec(self, u) -> np.ndarray:
        """M u for one vector, or for every row of a (T, n) block."""
        u = np.asarray(u, dtype=np.int64)
        if u.ndim not in (1, 2) or u.shape[-1] != self.n:
            raise ValueError(f"expected vectors of length {self.n}, got {u.shape}")
        return ((u % self.q) @ self.dense().T) % self.q

    def rank_and_image(self):
        """Rank over GF(q) and a reduced-echelon basis of the column space."""
        basis = rref(self.dense().T, self.q)
        return basis.shape[0], basis

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and other.q == self.q
            and other.l == self.l
            and other.n == self.n
            and other.columns == self.columns
        )

    def __hash__(self):
        return hash((self.q, self.l, self.n, self.columns))

    def to_text(self) -> str:
        lines = [f"{self.q} {self.l} {self.n}"]
        for i, col in enumerate(self.columns):
            parts = [f"col {i}"] + [f"({r},{v})" for r, v in col]
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SparseMatrix":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        q, l, n = (int(x) for x in lines[0].split())
        columns = [[] for _ in range(n)]
        for ln in lines[1:]:
            parts = ln.split()
            if parts[0] != "col":
                raise ValueError(f"bad column line: {ln!r}")
            i = int(parts[1])
            for tok in parts[2:]:
                r, v = tok.strip("()").split(",")
                columns[i].append((int(r), int(v)))
        return cls(q, l, n, columns)


def gauss_jordan(m: np.ndarray, q: int, ncols: int | None = None) -> list:
    """Gauss-Jordan elimination over GF(q), in place, on the leading `ncols`
    columns of `m` (all of them by default); returns the pivot columns.

    Whole rows are swapped, scaled and combined, so any trailing columns
    carry the same row operations without steering them."""
    inv = FieldSpec(q).inv_table
    rows = m.shape[0]
    ncols = m.shape[1] if ncols is None else ncols
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == rows:
            break
        nonzero = m[r:, c] != 0
        if not nonzero.any():
            continue
        piv = r + int(nonzero.argmax())
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        if m[r, c] != 1:
            m[r] = (m[r] * int(inv[m[r, c]])) % q
        factor = m[:, c].copy()
        factor[r] = 0
        m -= factor[:, None] * m[r]
        m %= q
        pivots.append(c)
    return pivots


def rref(mat, q: int):
    """Reduced row-echelon form over GF(q); returns the nonzero rows."""
    m = np.array(mat, dtype=np.int64) % q
    return m[:len(gauss_jordan(m, q))]


def rng_from_seed(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def derive_seed(seed, *tags) -> int:
    """Stable sub-seed from a master seed and string/int tags."""
    h = hashlib.sha256(repr((int(seed),) + tags).encode())
    return int.from_bytes(h.digest()[:8], "little")


def generate_mackay(params: EnsembleParams, seed) -> SparseMatrix:
    """Draw a sparse matrix: per column, tau additions of a random nonzero
    element at a random row.  Cancellations are stored as absence.

    For q = 2 the only nonzero element is 1, and a draw from the empty range
    [0, q - 1) consumes no randomness, so it is skipped."""
    rng = rng_from_seed(seed)
    q, l, n, tau = params.q, params.l, params.n, params.tau
    vals = [1] * tau
    columns = [[] for _ in range(n)]
    for i in range(n):
        rows = rng.integers(0, l, size=tau).tolist()
        if q != 2:
            vals = (1 + rng.integers(0, q - 1, size=tau)).tolist()
        columns[i] = list(zip(rows, vals))
    return SparseMatrix(q, l, n, columns)


def generate_uniform(q: int, l: int, n: int, seed) -> SparseMatrix:
    """Every entry i.i.d. uniform over GF(q)."""
    rng = rng_from_seed(seed)
    dense = rng.integers(0, q, size=(l, n))
    return SparseMatrix.from_dense(dense, q)


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
