"""Closed-form degree threshold functions and their constants.

For parameters c in [0,1), eps in (0,1) and a positive constant d, the
per-degree floor in internal mode is

    phi(i) = ((1-c)/4) * i - (2*d*i**((1+eps)/2) + eps*i)

with the equivalent product form phi(i) = ((1-c)/4 - mu_i/2) * i where
mu_i = 4*d*i**((eps-1)/2) + 2*eps.  External mode uses the same functional
form (called psi here) plus a lifted variant psi*(i) = max(psi(i), (1-c)i/8)
and a branch-dependent slack eta_i.  A degree is *active* when its threshold
function is positive; only active vertices carry constraints.

All degree comparisons elsewhere in the package use floor(threshold), since
per-vertex degrees are integers.  Real arithmetic is double precision with a
documented cross-check tolerance of 1e-12 relative to the magnitude of the
terms involved.

The built-in default d = 1000/eps**2 (internal) makes the series
sum_{i>=1} i*exp(-d^2 * i^eps) at most eps^2/1e5; ``verify_series_bound``
checks that numerically with a rigorous tail bound.  The defaults drive all
thresholds negative for desk-scale degrees, so d is overridable (diagnostic
mode) and every pipeline records the constant actually used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import mpmath

INTERNAL = "internal"
EXTERNAL = "external"

# documented tolerance for cross-checking algebraically equal real forms
CROSSCHECK_RTOL = 1e-12


def default_d_constant(c: float, eps: float, mode: str) -> float:
    """The default series constant for a mode.

    internal: 1000/eps^2;  external: 1000/(sqrt(1-c)*eps^2).  Accepts the
    closed boundary eps=1 (the formula is still well defined there).  An eps
    so small that the constant overflows gives inf.
    """
    if eps <= 0 or eps > 1:
        raise ValueError(f"eps must lie in (0,1], got {eps}")
    if not 0 <= c < 1:
        raise ValueError(f"c must lie in [0,1), got {c}")
    if mode == INTERNAL:
        scale = eps * eps
    elif mode == EXTERNAL:
        scale = math.sqrt(1.0 - c) * eps * eps
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return 1000.0 / scale if scale else math.inf


@dataclass(frozen=True)
class ParamSet:
    """Run parameters (c, eps, d constant, mode) for one construction.

    internal mode requires eps <= (1-c)/4 and external mode eps <= (1-c)/10;
    out-of-range values are rejected unless relaxed=True.  d_const=None means
    the mode's built-in default; an override must be finite and positive (0
    only when relaxed).  An eps whose default constant is not finite is
    rejected.
    """

    c: float
    eps: float
    mode: str = INTERNAL
    d_const: float | None = None
    relaxed: bool = False

    def __post_init__(self):
        if self.mode not in (INTERNAL, EXTERNAL):
            raise ValueError(f"mode must be 'internal' or 'external', got {self.mode!r}")
        if not 0 <= self.c < 1:
            raise ValueError(f"c must lie in [0,1), got {self.c}")
        if not 0 < self.eps < 1:
            raise ValueError(f"eps must lie in (0,1), got {self.eps}")
        cap = (1.0 - self.c) / (4.0 if self.mode == INTERNAL else 10.0)
        if self.eps > cap + 1e-15 and not self.relaxed:
            raise ValueError(
                f"{self.mode} mode requires eps <= (1-c)/{4 if self.mode == INTERNAL else 10}"
                f" = {cap}, got eps={self.eps} (pass relaxed=True to override)")
        if self.d_const is not None:
            # d=0 collapses phi to ((1-c)/4 - eps)i; useful for algebra
            # checks but not a legal run constant, hence relaxed-only
            if not math.isfinite(self.d_const):
                raise ValueError(f"d_const must be finite, got {self.d_const}")
            if self.d_const < 0 or (self.d_const == 0 and not self.relaxed):
                raise ValueError(f"d_const must be positive, got {self.d_const}")
        elif not math.isfinite(self.d):
            raise ValueError(f"eps={self.eps} is too small: the {self.mode} mode's "
                             f"default d constant is not finite")

    @property
    def d(self) -> float:
        """The resolved series constant (override or built-in default)."""
        if self.d_const is not None:
            return float(self.d_const)
        return default_d_constant(self.c, self.eps, self.mode)

    def as_dict(self) -> dict:
        return {"c": self.c, "eps": self.eps, "mode": self.mode,
                "d_const": self.d, "d_is_default": self.d_const is None,
                "relaxed": self.relaxed}


# -- series bound ------------------------------------------------------------


@dataclass(frozen=True)
class SeriesBoundResult:
    holds: bool
    partial_sum: float
    tail_bound: float
    target: float
    terms: int


def verify_series_bound(d: float, eps: float, budget: int = 1000,
                        target: float | None = None) -> SeriesBoundResult:
    """Check sum_{i>=1} i*exp(-d^2 * i^eps) <= target numerically.

    Sums the first ``budget`` terms and adds a rigorous upper bound on the
    tail.  All arithmetic runs in 60-digit mpmath, and the tail bound chains
    only true inequalities:

      * with T = budget and f(x) = x*exp(-d^2 x^eps), the tail
        sum_{i>T} f(i) is at most integral_T^inf f + f(x*) where x* is the
        peak of f (the extra term is needed only if the peak lies beyond T);
      * integral_T^inf f = Gamma_upper(2/eps, z) / (eps*d^(4/eps)) with
        z = d^2*T^eps, bounded above by min(Gamma(2/eps), 2*z^(2/eps-1)*e^-z)
        / (eps*d^(4/eps)), the closed form being valid once z >= 2*(2/eps-1).

    target defaults to eps^2/1e5 (pass (1-c)*eps^2/1e5 for the external
    variant).
    """
    if budget <= 0:
        raise ValueError(f"term budget must be positive, got {budget}")
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    if target is None:
        target = eps * eps / 1e5

    with mpmath.workdps(60):
        md, me = mpmath.mpf(d), mpmath.mpf(eps)
        d2 = md * md
        tgt = mpmath.mpf(target)
        partial = mpmath.mpf(0)
        for i in range(1, budget + 1):
            partial += i * mpmath.exp(-d2 * mpmath.mpf(i) ** me)
            if partial > tgt:
                # tail only increases the sum; fail fast
                return SeriesBoundResult(False, float(partial), float("inf"),
                                         float(tgt), i)
        a = 2 / me
        T = mpmath.mpf(budget)
        z = d2 * T ** me
        denom = me * md ** (4 / me)
        full = mpmath.gamma(a) / denom
        tail = full
        if z >= 2 * (a - 1):
            closed = 2 * z ** (a - 1) * mpmath.exp(-z) / denom
            tail = min(tail, closed)
        # peak of f at x* = (1/(d^2 eps))^(1/eps); beyond T the integrand is
        # monotone and the integral comparison alone is valid
        x_star = (1 / (d2 * me)) ** (1 / me)
        if x_star > T:
            tail += x_star * mpmath.exp(-1 / me)
        holds = bool(partial + tail <= tgt)
        return SeriesBoundResult(holds, float(partial), float(tail), float(tgt),
                                 budget)


# -- threshold table ---------------------------------------------------------


class ThresholdTable:
    """Precomputed thresholds for a fixed ParamSet over a set of degrees.

    Column arrays are aligned with ``degrees`` (sorted unique).  ``phi`` and
    ``psi`` have the same closed form under the table's single resolved
    constant d, so one column is stored and ``psi``/``fpsi`` are aliases of
    ``phi``/``fphi``: the internal pipeline names its floor phi, the external
    one psi (and psi_star).  Integer floors of every threshold are
    precomputed since all degree comparisons use them.  Immutable after
    construction; ``rows_of`` remembers the vertex rows of the last graph
    it was asked about, and ``column`` the per-vertex columns gathered over
    them.
    """

    def __init__(self, params: ParamSet, degrees):
        self.params = params
        if not isinstance(degrees, np.ndarray):
            degrees = list(degrees)
        degs = np.unique(np.asarray(degrees, dtype=np.int64))
        if degs.size and degs.min() < 0:
            raise ValueError("degrees must be non-negative")
        self.degrees = degs
        c, eps, d = params.c, params.eps, params.d
        i = degs.astype(np.float64)
        pos = degs > 0

        with np.errstate(divide="ignore", invalid="ignore"):
            pw_minus = np.where(pos, i ** ((eps - 1.0) / 2.0), 0.0)
            pw_plus = np.where(pos, i ** ((1.0 + eps) / 2.0), 0.0)
        self.mu = np.where(pos, 4.0 * d * pw_minus + 2.0 * eps, 0.0)
        self.lam = np.where(pos, (4.0 * d / (1.0 - c)) * pw_minus, 0.0)

        phi_direct = ((1.0 - c) / 4.0) * i - (2.0 * d * pw_plus + eps * i)
        phi_product = ((1.0 - c) / 4.0 - self.mu / 2.0) * i
        # cross-check the two algebraically equal forms; tolerance is relative
        # to the magnitude of the terms being cancelled, not to phi itself
        # (phi passes through zero at the activity boundary)
        scale = np.maximum(1.0, ((1.0 - c) / 4.0) * i + 2.0 * d * pw_plus + eps * i)
        bad = np.abs(phi_direct - phi_product) > CROSSCHECK_RTOL * scale
        if bad.any():
            j = int(np.argmax(bad))
            raise AssertionError(
                f"phi form mismatch at degree {degs[j]}: "
                f"{phi_direct[j]!r} vs {phi_product[j]!r}")
        self.phi = np.where(pos, phi_direct, 0.0)
        self.psi_star = np.maximum(self.psi, ((1.0 - c) / 8.0) * i)

        # eta switches branch exactly where psi drops below ((1-c)/8) i
        low_branch = self.psi < ((1.0 - c) / 8.0) * i
        self.eta = np.where(low_branch, 4.0 * eps * self.lam / (1.0 - c), self.mu)
        self.eta = np.where(pos, self.eta, 0.0)

        self.active = pos & (self.phi > 0.0)  # psi is phi

        self.thr_int = 2.0 * (1.0 + self.mu) * self.phi
        self.thr_ext = 2.0 * (1.0 + self.eta) * self.psi_star
        # on the low branch the external threshold equals ((1-c)/4 + eps*lam)*i
        alt = ((1.0 - c) / 4.0 + eps * self.lam) * i
        bad = low_branch & pos & (np.abs(self.thr_ext - alt)
                                  > CROSSCHECK_RTOL * np.maximum(1.0, alt))
        if bad.any():
            j = int(np.argmax(bad))
            raise AssertionError(
                f"external threshold identity fails at degree {degs[j]}")

        # floors, single or doubled, are only compared with neighbour counts
        # in [0, max degree], so clipping them to [-1, max degree + 1]
        # decides every comparison as before (as certify's floors do); it
        # also keeps the int64 cast defined where tiny eps makes d, and so a
        # floor, larger than 2**63
        top = int(degs.max(initial=0)) + 1
        self.fphi, self.fpsi_star, self.fthr_int, self.fthr_ext = (
            np.clip(np.floor(col), -1, top).astype(np.int64)
            for col in (self.phi, self.psi_star, self.thr_int, self.thr_ext))

        # dense degree -> row lookup
        self._row_of = np.full(top, -1, dtype=np.int64)
        self._row_of[degs] = np.arange(degs.size)
        self._rows_graph = self._rows = None
        self._columns: dict[str, np.ndarray] = {}

    @property
    def psi(self) -> np.ndarray:
        return self.phi

    @property
    def fpsi(self) -> np.ndarray:
        return self.fphi

    # -- lookup helpers ----------------------------------------------------

    def row_index(self, degree_values: np.ndarray) -> np.ndarray:
        """Row positions for an array of degrees; KeyError names the first
        degree the table lacks, negative ones included."""
        degs = np.asarray(degree_values, dtype=np.int64)
        inside = (degs >= 0) & (degs < len(self._row_of))
        idx = self._row_of[np.where(inside, degs, 0)]
        lacking = ~inside | (idx < 0)
        if lacking.any():
            raise KeyError(f"degree {degs[lacking][0]} not in table")
        return idx

    def rows_of(self, graph) -> np.ndarray:
        """``row_index(graph.degree)``, read-only, computed once per graph
        through its ``degree_classes``: only the distinct degrees are looked
        up.  The last graph's rows are kept."""
        if self._rows_graph is not graph:
            values, row = graph.degree_classes
            rows = self.row_index(values)[row]
            rows.setflags(write=False)
            self._rows_graph, self._rows = graph, rows
            self._columns = {}
        return self._rows

    def column(self, name: str, graph) -> np.ndarray:
        """``getattr(self, name)[rows_of(graph)]``, read-only: the column's
        value at each vertex of graph, gathered once per graph.  The last
        graph's columns are kept beside its rows."""
        rows = self.rows_of(graph)
        col = self._columns.get(name)
        if col is None:
            col = getattr(self, name)[rows]
            col.setflags(write=False)
            self._columns[name] = col
        return col

    def dump_csv(self) -> str:
        """CSV text with columns (i, phi, psi, psi_star, mu, lambda, eta,
        thr_int, thr_ext, active)."""
        lines = ["i,phi,psi,psi_star,mu,lambda,eta,thr_int,thr_ext,active\n"]
        for k, i in enumerate(self.degrees.tolist()):
            lines.append(
                f"{i},{self.phi[k]:.12g},{self.psi[k]:.12g},{self.psi_star[k]:.12g},"
                f"{self.mu[k]:.12g},{self.lam[k]:.12g},{self.eta[k]:.12g},"
                f"{self.thr_int[k]:.12g},{self.thr_ext[k]:.12g},{int(self.active[k])}\n")
        return "".join(lines)


def build_threshold_table(params: ParamSet, degrees) -> ThresholdTable:
    """Construct the immutable per-degree threshold table for a run."""
    return ThresholdTable(params, degrees)
