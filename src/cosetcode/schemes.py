"""Six coset-coding constructions: fixed matrices + shared vectors, with
pure encode/decode functions and dimension/rate bookkeeping.

Problems: sw (two correlated sources), ch (point-to-point channel),
gp (channel with encoder side information), lossy (rate-distortion),
wz (lossy with decoder side information), oho (one source helped by a
rate-limited second source).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cosets import (
    CosetDescription,
    fixed_point_metric,
    log_table,
    ml_code_cond_iid,
    ml_code_iid,
    ml_code_product,
    solve_coset,
)
from .matrices import (
    EnsembleParams,
    SparseMatrix,
    derive_seed,
    draw_streams,
    generate_mackay,
    generate_uniform,
    recommended_tau,
    sample_image_point,
)
from .types_lab import Distribution, entropy, zeta

# per problem, each scheme key with the alphabets that index its table's axes
# ("" for a number); the first table to index an alphabet fixes its size
SCHEME_KEYS = {
    "sw": {"joint": "xy", "rate_x": "", "rate_y": ""},
    "ch": {"mu_x": "x", "channel": "xy", "eps_a": "", "eps_b": ""},
    "gp": {"mu_z": "z", "mu_xw_z": "zxw", "channel": "xzy", "eps_a": "",
           "eps_b": "", "eps_ahat": ""},
    "lossy": {"mu_x": "x", "test_channel": "xy", "rho": "xy", "eps_a": "",
              "eps_b": ""},
    "wz": {"mu_xz": "xz", "test_channel": "xy", "f": "yz", "rho": "xw",
           "eps_a": "", "eps_b": ""},
    "oho": {"mu_xy": "xy", "channel": "yz", "eps_a": "", "eps_b": "",
            "eps_bhat": ""},
}
# probability tables, each with its number of trailing output axes: every
# row over the leading (given) axes is a pmf, a joint has no given axes
PMF_KEYS = {"joint": 2, "mu_x": 1, "mu_z": 1, "mu_xz": 2, "mu_xy": 2,
            "channel": 1, "test_channel": 1, "mu_xw_z": 2}


# per problem, its matrices in row-count order, each (alphabet, rate,
# column): a matrix over alphabet X has n * rate / log2 |X| rows, the rate in
# bits a symbol being signed terms summed left to right, each the entropy of
# a marginal (axis letters in axis order) or a scheme number; the summary
# column, if any, reports the rate of the matrix's image; a matrix without
# one is drawn with a shared vector A u
MATRICES = {
    "sw": {"A": ("x", "+rate_x", "rate_x"), "B": ("y", "+rate_y", "rate_y")},
    "ch": {"A": ("x", "+xy -y +eps_a", None),
           "B": ("x", "+x +y -xy -eps_b", "rate")},
    "gp": {"A": ("w", "+yw -y +eps_a", None),
           "B": ("w", "+w +y -yw -w -z +zw -eps_b", "rate"),
           "Ahat": ("x", "+xzw -zw -eps_ahat", None)},
    "lossy": {"A": ("y", "+xy -x -eps_a", None),
              "B": ("y", "+x +y -xy +eps_b", "rate")},
    "wz": {"A": ("y", "+xy -x -eps_a", None),
           "B": ("y", "+yz -z -xy +x +eps_b", "rate")},
    "oho": {"Bhat": ("x", "+xz -z +eps_bhat", "rate_x"),
            "A": ("z", "+yz -y -eps_a", None),
            "B": ("z", "+y +z -yz +eps_b", "rate_y")},
}


class EncoderFailure(Exception):
    """A coding failure of every trial of a batch, each counted as a block
    error.  The coders here return the trials whose constrained search came
    up empty in a `failed` mask instead of raising."""


@dataclass
class SchemeParams:
    """One problem setup: joint law over the named variables plus tuning.

    `joint` axes follow `axes` ordering; `numbers` holds the scheme's
    numbers (epsilons, rates) under their config keys; `rho` and `f` are
    tables for the distortion problems.
    """

    problem: str
    joint: Distribution
    axes: tuple
    numbers: dict = field(default_factory=dict)
    rho: object = None
    f: object = None
    # read-only tables, their integer metrics and the row counts per n,
    # filled on first use
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if self.problem not in SCHEME_KEYS:
            raise ValueError(f"unknown problem {self.problem!r}")
        self.validate()

    def axis(self, name: str) -> int:
        return self.axes.index(name)

    def card(self, name: str) -> int:
        return self.joint.p.shape[self.axis(name)]

    def _table(self, key, make) -> np.ndarray:
        # idempotent fill: threads that race compute equal tables
        table = self._tables.get(key)
        if table is None:
            table = make()
            table.setflags(write=False)
            table = self._tables.setdefault(key, table)
        return table

    def dims(self, n: int) -> "DimReport":
        """dims_for(self, n); cached, filled as the tables are."""
        dims = self._tables.get(("dims", n))
        if dims is None:
            dims = self._tables.setdefault(("dims", n), dims_for(self, n))
        return dims

    def cond(self, out: str, given: str) -> np.ndarray:
        """Conditional table indexed [given..., out...]; read-only, cached."""
        return self._table(("cond", out, given), lambda: Distribution(
            self.marg(given + out)).conditional(tuple(range(len(given)))))

    def marg(self, names: str) -> np.ndarray:
        """Marginal table indexed [names...]; read-only, cached."""
        def make():
            keep = tuple(self.axis(a) for a in names)
            m = self.joint.p.sum(
                axis=tuple(a for a in range(self.joint.p.ndim) if a not in keep)
            )
            return np.transpose(
                m, _perm_of(sorted(keep), [self.axis(a) for a in names]))

        return self._table(("marg", names), make)

    def metric_cond(self, out: str, given: str, n: int) -> np.ndarray:
        """fixed_point_metric of log cond(out, given), n-term sums; cached."""
        return self._table(("metric_cond", out, given, n), lambda:
                           fixed_point_metric(log_table(self.cond(out, given)), n))

    def metric_marg(self, names: str, n: int) -> np.ndarray:
        """fixed_point_metric of log marg(names), n-term sums; cached."""
        return self._table(("metric_marg", names, n), lambda:
                           fixed_point_metric(log_table(self.marg(names)), n))

    def validate(self):
        """Record the problem's epsilon admissibility issues in `eps_warnings`."""
        issues = []
        ea, eb = self.numbers.get("eps_a"), self.numbers.get("eps_b")
        # zeta is defined for a positive argument only: a bound that would
        # take it from a non-positive epsilon is reported as that epsilon
        if self.problem in ("ch", "gp"):
            if self.problem == "ch":
                sizes = self.card("x")
            else:
                sizes = self.card("z") * self.card("w")
            if eb - ea < 0:
                issues.append("need eps_b >= eps_a for the sqrt condition")
            else:
                mid = math.sqrt(6 * (eb - ea)) * math.log2(sizes) if sizes > 1 else 0.0
                if not (eb - ea <= mid < ea):
                    issues.append(
                        f"eps condition violated: {eb - ea:.4g} <= {mid:.4g} < {ea:.4g}")
            eah = self.numbers.get("eps_ahat")
            if self.problem == "gp" and eah <= 0:
                issues.append("need eps_ahat > 0")
            elif self.problem == "gp":
                bound = 2 * zeta(self.card("y") * self.card("w"), 6 * eah)
                if not bound < ea:
                    issues.append(
                        f"stage-2 condition violated: {bound:.4g} >= eps_a")
        elif self.problem in ("lossy", "wz", "oho") and ea <= 0:
            issues.append("need eps_a > 0")
        elif self.problem == "lossy":
            bound = ea + 2 * zeta(self.card("y"), 3 * ea)
            if not bound < eb:
                issues.append(f"need eps_a + 2*zeta_Y(3 eps_a) = {bound:.4g} < eps_b")
        elif self.problem == "wz":
            bound = ea + 2 * zeta(self.card("y") * self.card("z"), 3 * ea)
            if not bound < eb:
                issues.append(f"need eps_a + 2*zeta_YZ(3 eps_a) = {bound:.4g} < eps_b")
        elif self.problem == "oho":
            b1 = ea + zeta(self.card("z"), 3 * ea)
            if not eb > b1:
                issues.append(f"need eps_b > {b1:.4g}")
            b2 = 2 * zeta(self.card("x") * self.card("z"), 3 * ea)
            if not self.numbers["eps_bhat"] > b2:
                issues.append(f"need eps_bhat > {b2:.4g}")
        self.eps_warnings = issues


def _perm_of(current_order, wanted_order):
    """Permutation taking axes listed in `current_order` to `wanted_order`."""
    return tuple(current_order.index(a) for a in wanted_order)


# -- constructor --------------------------------------------------------------

def scheme_params(problem: str, scheme: dict) -> SchemeParams:
    """A problem's parameters from its config `scheme` values: the joint law
    is the product of the probability tables, matched by alphabet letter,
    over the axes of "xyzw" that they index.  Tables that each sum to 1
    within 1e-12 can have a product that does not: it is refused by name."""
    keys = SCHEME_KEYS[problem]
    tables = [key for key in keys if key in PMF_KEYS]
    axes = "".join(a for a in "xyzw" if any(a in keys[key] for key in tables))
    joint = np.einsum(",".join(keys[key] for key in tables) + "->" + axes,
                      *(np.asarray(scheme[key], dtype=float) for key in tables))
    try:
        joint = Distribution(joint)
    except ValueError as err:
        raise ValueError(f"the product of {', '.join(tables)}: {err}") from None
    rho, f = scheme.get("rho"), scheme.get("f")
    return SchemeParams(
        problem, joint, tuple(axes),
        numbers={key: scheme[key] for key, axes in keys.items() if not axes},
        rho=None if rho is None else np.asarray(rho, dtype=float),
        f=None if f is None else np.asarray(f, dtype=np.int64))


# -- dimensions ---------------------------------------------------------------

@dataclass(frozen=True)
class DimReport:
    """Real-valued and rounded row counts for each matrix."""

    real: dict
    rounded: dict
    clamped: dict


def dims_for(params: SchemeParams, n: int) -> DimReport:
    """Row counts from the problem's rate formulas in MATRICES, rounded to
    the nearest integer and clamped into [1, n] (clamping is reported, not
    fatal)."""
    real = {}
    for name, (alphabet, terms, _) in MATRICES[params.problem].items():
        rate = 0.0
        for term in terms.split():
            key = term[1:]
            value = (params.numbers[key] if key in params.numbers
                     else entropy(params.marg(key)))
            rate += value if term[0] == "+" else -value
        real[name] = n * rate / math.log2(params.card(alphabet))
    rounded, clamped = {}, {}
    for k, v in real.items():
        r = int(round(v))
        c = min(max(r, 1), n)
        rounded[k] = c
        clamped[k] = c != r
    return DimReport(real=real, rounded=rounded, clamped=clamped)


# -- instances ----------------------------------------------------------------

@dataclass
class SchemeInstance:
    """One drawn code: matrices plus the shared image vectors."""

    problem: str
    n: int
    matrices: dict
    vectors: dict
    dims: DimReport
    # gp: stage 2 is the forced reproduction x = w, and no Ahat is drawn
    stage2_forced: bool = False

    def coset(self, constraints, trials: int) -> CosetDescription:
        """Per trial j, {u : M u = t_j} for (matrix name, targets) pairs
        stacked in order; a target is a (trials, rows) block, or one vector
        that every trial shares."""
        return solve_coset([
            (self.matrices[name],
             np.broadcast_to(t, (trials, self.matrices[name].l)))
            for name, t in constraints])


def _is_identity_cond(cond_x_zw: np.ndarray) -> bool:
    """True when mu_{X|ZW} forces x = w (same alphabet)."""
    qz, qw, qx = cond_x_zw.shape
    if qw != qx:
        return False
    eye = np.eye(qx)
    return all(np.array_equal(cond_x_zw[z], eye) for z in range(qz))


def build_instance(params: SchemeParams, n: int, seed,
                   ensemble: str = "mackay", tau: int | None = None) -> SchemeInstance:
    """Draw the matrices, and a shared vector A u (u uniform) for every
    matrix without a summary column."""
    dims = params.dims(n)
    stage2_forced = params.problem == "gp" and _is_identity_cond(
        params.cond("x", "zw"))
    matrices, vectors = {}, {}
    for name, (var, _, column) in MATRICES[params.problem].items():
        if name == "Ahat" and stage2_forced:
            continue  # gp_encode returns w before it reads a stage 2
        q = params.card(var)
        l = dims.rounded[name]
        t = tau if tau is not None else recommended_tau(l, l * math.log2(q) / n)
        if ensemble == "mackay":
            if q == 2 and t % 2:
                t += 1
            ep = EnsembleParams(q=q, l=l, n=n, tau=t)
            matrices[name] = generate_mackay(ep, derive_seed(seed, "mat", name))
        elif ensemble == "uniform":
            matrices[name] = generate_uniform(q, l, n, derive_seed(seed, "mat", name))
        else:
            raise ValueError(f"unknown ensemble {ensemble!r}")
        if column is None:
            vectors[name] = sample_image_point(
                matrices[name], derive_seed(seed, "vec", name))
    return SchemeInstance(params.problem, n, matrices, vectors, dims,
                          stage2_forced=stage2_forced)


def sample_message(inst: SchemeInstance, seeds) -> np.ndarray:
    """Uniform points of Im B, the message law for the channel problems:
    B u for u uniform on GF(q)^n, one row per seed, u drawn as
    rng_from_seed(s).integers(0, q, size=n), each seed's own stream, keyed
    for the whole batch by draw_streams."""
    matrix = inst.matrices["B"]
    u = draw_streams(seeds, lambda rng: rng.integers(0, matrix.q, size=matrix.n))
    return matrix.matvec(np.reshape(u, (len(seeds), matrix.n)))


def rate_of(matrix: SparseMatrix, n: int) -> float:
    """log |Im B| / n in bits, via the rank."""
    rank, _ = matrix.rank_and_image()
    return rank * math.log2(matrix.q) / n


# -- encode/decode ------------------------------------------------------------
#
# Every coder takes a batch: one (T, n) row per trial of a code draw.  A
# coder whose constrained search can come up empty returns (result, failed),
# `failed` a (T,) mask; the result rows of failed trials hold no codeword.

def sw_decode(inst: SchemeInstance, params: SchemeParams, b_x, b_y):
    coset_x = inst.coset([("A", b_x)], len(b_x))
    coset_y = inst.coset([("B", b_y)], len(b_y))
    return ml_code_product(coset_x, coset_y, params.metric_marg("xy", inst.n))


def ch_encode(inst: SchemeInstance, params: SchemeParams, m):
    """Channel inputs for messages m; failed where no input matches (c, m)."""
    cosets = inst.coset([("A", inst.vectors["A"]), ("B", m)], len(m))
    return ml_code_iid(cosets, params.metric_marg("x", inst.n)), cosets.empty


def ch_decode(inst: SchemeInstance, params: SchemeParams, y) -> np.ndarray:
    cosets = inst.coset([("A", inst.vectors["A"])], len(y))
    # argmax of mu_{XY}(x|y): the joint table indexed [y, x] has the same argmax
    x_hat = ml_code_cond_iid(cosets, y, params.metric_marg("yx", inst.n))
    return inst.matrices["B"].matvec(x_hat)


def gp_encode(inst: SchemeInstance, params: SchemeParams, m, z):
    """Channel inputs for messages m and side information z; failed where no
    auxiliary sequence matches (c, m) or no input matches c-hat."""
    cosets = inst.coset([("A", inst.vectors["A"]), ("B", m)], len(m))
    w = ml_code_cond_iid(cosets, z, params.metric_cond("w", "z", inst.n))
    if inst.stage2_forced:
        return w, cosets.empty
    coset2 = inst.coset([("Ahat", inst.vectors["Ahat"])], len(m))
    x = ml_code_cond_iid(coset2, (z, w), params.metric_cond("x", "zw", inst.n))
    return x, cosets.empty | coset2.empty


def gp_decode(inst: SchemeInstance, params: SchemeParams, y) -> np.ndarray:
    cosets = inst.coset([("A", inst.vectors["A"])], len(y))
    w_hat = ml_code_cond_iid(cosets, y, params.metric_cond("w", "y", inst.n))
    return inst.matrices["B"].matvec(w_hat)


def lossy_encode(inst: SchemeInstance, params: SchemeParams, x) -> np.ndarray:
    cosets = inst.coset([("A", inst.vectors["A"])], len(x))
    y = ml_code_cond_iid(cosets, x, params.metric_cond("y", "x", inst.n))
    return inst.matrices["B"].matvec(y)


def lossy_decode(inst: SchemeInstance, params: SchemeParams, b):
    """Reproductions of codewords b; failed where b addresses no bin."""
    cosets = inst.coset([("A", inst.vectors["A"]), ("B", b)], len(b))
    return ml_code_iid(cosets, params.metric_marg("y", inst.n)), cosets.empty


wz_encode = lossy_encode  # side information enters only the decoder


def wz_decode(inst: SchemeInstance, params: SchemeParams, b, z):
    """Reproductions of codewords b with side information z; failed where b
    addresses no bin."""
    cosets = inst.coset([("A", inst.vectors["A"]), ("B", b)], len(b))
    y_hat = ml_code_cond_iid(cosets, z, params.metric_cond("y", "z", inst.n))
    return params.f[y_hat, np.asarray(z, dtype=np.int64)], cosets.empty


def oho_encode_y(inst: SchemeInstance, params: SchemeParams, y) -> np.ndarray:
    cosets = inst.coset([("A", inst.vectors["A"])], len(y))
    z = ml_code_cond_iid(cosets, y, params.metric_cond("z", "y", inst.n))
    return inst.matrices["B"].matvec(z)


def oho_decode(inst: SchemeInstance, params: SchemeParams, b_x, b_y):
    """Primary sources from codewords b_x and helper codewords b_y; failed
    where either codeword addresses no bin."""
    cosets = inst.coset([("A", inst.vectors["A"]), ("B", b_y)], len(b_y))
    z_hat = ml_code_iid(cosets, params.metric_marg("z", inst.n))
    coset_x = inst.coset([("Bhat", b_x)], len(b_x))
    x_hat = ml_code_cond_iid(coset_x, z_hat, params.metric_cond("x", "z", inst.n))
    return x_hat, cosets.empty | coset_x.empty
