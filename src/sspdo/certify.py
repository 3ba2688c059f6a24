"""SSP coefficients by feasibility bisection with certified polynomial nonnegativity.

The method coefficient is the largest r for which the absolute-monotonicity
conditions hold:

    A(I+rA)^{-1} >= 0          r A(I+rA)^{-1} e <= 1
    b'(I+rA)^{-1} >= 0         r b'(I+rA)^{-1} e <= 1

The dense coefficient replaces b by the weight polynomials b(theta), for
every theta in [0,1], so the method's b-row conditions are the dense
conditions of the constant weights b and one probe decides both.  It converts
all s+1 condition polynomials to Bernstein coefficients in one matmul and
subdivides only the rows with a negative coefficient: never sampling alone,
which can miss sign dips near theta=0, where the weight polynomials vanish.
A failed row, weight_* (method) or dense_* (dense), is witnessed by the value
of its slack-folded polynomial at a theta (theta=0 for the constant b rows).
A probe walks its conditions once, stage conditions first, and reads the
whole walk: its verdict, its witnesses and whether it is inconclusive.
Bisection jumps to the two leaves around the root, estimated by Newton's
method, of the condition that an infeasible probe's first witness fails, and
infers every other verdict on its path from those probes.

One sign slack, SIGN_TOL = 1e-12, serves every condition: >=0 checks allow
-1e-12 and <=1 checks allow 1+1e-12, absorbing the ~1e-16-per-operation
perturbation of rational tableaux stored in double precision.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import poly
from .errors import DegreeTooHighError, InvalidArgumentError, SingularMatrixError
from .tableau import ButcherTableau, DenseWeights, check_stage_count, endpoint_check

SIGN_TOL = 1e-12        # slack allowed on both sides: >= -1e-12 and <= 1 + 1e-12
PIVOT_TOL = 1e-12
BISECT_TOL = 1e-10       # width at which bisection stops (_sup_by_bisection)
R_CAP = 1e6
MAX_DEPTH = 40
MAX_NODES = 200_000
MAX_DEGREE = 64         # highest polynomial degree the certifier converts
GUIDED_JUMPS = 4        # Newton-guided jumps per bisection (_sup_by_bisection)
NEWTON_STEPS = 8        # Newton iterations per root estimate
NEWTON_RTOL = 1e-13     # a Newton step this small, relative to r, ends the iteration


@functools.cache
def scipy_extension(name: str):
    """scipy's compiled extension module name (such as
    "scipy.linalg._flapack"), loaded at the first call and on its own, or
    None where this scipy release ships no such extension.

    Importing the package around it would run the package's __init__: the
    scipy.linalg package adds ~0.3 s, ~27 MB and ~300 modules to a process,
    and scipy.optimize brings scipy.linalg and scipy.sparse along; an
    extension alone adds a few MB.  The module is registered under its full
    name, so a later import of its package reuses it, and one already loaded
    is returned as it is.  Cached, because an import statement in resolvent
    costs ~2.4 us per call, ~1.5% of a sweep."""
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    package, _, _ = name.rpartition(".")
    directory = os.path.join(scipy.__path__[0], *package.split(".")[1:])
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@np.errstate(over="ignore")
def resolvent(tab: ButcherTableau, r: float) -> np.ndarray:
    """Inverse of I + r*A from LAPACK's inversion routines.

    Explicit tableaux make I + r*A unit lower triangular, so it is inverted
    as such (dtrtri) and singularity cannot occur.  Otherwise it is
    LU-factorized with partial pivoting (dgetrf) and inverted (dgetri); an
    exactly singular or non-finite matrix, or a pivot of magnitude below
    1e-12, raises SingularMatrixError.  These routines stay on one thread at
    these sizes, whereas a solve against the identity (dtrtrs, lu_solve)
    hands its s right-hand sides to OpenBLAS's threaded trsm, whose worker
    thread then spins between probes.  LAPACK's extension,
    scipy.linalg._flapack, whose routines scipy.linalg.lapack re-exports as
    the same function objects, is loaded at the first call, not with the
    module, so the CLI starts without scipy; integrate, figure1 and
    convergence never load it.  An entry of r*A that overflows fails the
    finiteness check without a numpy warning.
    """
    lapack = scipy_extension("scipy.linalg._flapack")
    B = np.eye(tab.s) + r * tab.A
    if tab.explicit:
        return lapack.dtrtri(B, lower=1, unitdiag=1)[0]
    lu, piv, info = lapack.dgetrf(B)
    # an overflowed entry can leave finite pivots and a finite, wrong inverse
    if info > 0 or not np.isfinite(B).all():
        raise SingularMatrixError(f"I + {r}*A is singular")
    if np.min(np.abs(np.diag(lu))) < PIVOT_TOL:
        raise SingularMatrixError(
            f"pivot below {PIVOT_TOL} while factorizing I + {r}*A"
        )
    return lapack.dgetri(lu, piv)[0]


class Violation(NamedTuple):
    """One failed inequality: which condition, where, and the offending value
    (None for a singular I + r*A, which has no value)."""

    condition: str
    index: tuple | None
    value: float | None
    theta: float | None = None


class CertStatus(Enum):
    NONNEG = "nonneg-certified"
    NEGATIVE = "negative-witness"
    INCONCLUSIVE = "inconclusive-at-depth"


@dataclass(frozen=True)
class PolyNonnegReport:
    certified: CertStatus
    witness_theta: float | None
    witness_value: float | None
    depth: int


@functools.lru_cache(maxsize=None)
def bernstein_matrix(n: int) -> np.ndarray:
    """Read-only (n+1) x (n+1) map from monomial to degree-n Bernstein
    coefficients on [0,1]: entry (i, k) is C(i,k)/C(n,k) for k <= i."""
    out = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for k in range(i + 1):
            out[i, k] = math.comb(i, k) / math.comb(n, k)
    out.setflags(write=False)
    return out


def monomial_to_bernstein(coeffs: np.ndarray) -> np.ndarray:
    """Bernstein coefficients on [0,1] of a polynomial given in the monomial
    basis, or of each row of a matrix of such polynomials; degree <= MAX_DEGREE."""
    c = np.asarray(coeffs, dtype=float)
    degree = c.shape[-1] - 1
    if degree < 0:
        raise InvalidArgumentError("polynomial has no coefficients")
    if degree > MAX_DEGREE:
        raise DegreeTooHighError(f"degree {degree} exceeds {MAX_DEGREE}")
    return c @ bernstein_matrix(degree).T


@functools.lru_cache(maxsize=None)
def half_cell_matrices(n: int) -> np.ndarray:
    """Read-only pair of (n+1) x (n+1) maps from degree-n Bernstein coefficients
    to those of the left and right halves: left entry (k, i) is C(k,i)/2^k for
    i <= k, and the right map is the left one reversed in both indices."""
    left = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        for i in range(k + 1):
            left[k, i] = math.comb(k, i) / 2**k
    out = np.stack([left, left[::-1, ::-1]])
    out.setflags(write=False)
    return out


def poly_nonneg_on_unit(coeffs) -> PolyNonnegReport:
    """Decide nonnegativity of a polynomial on [0,1] from Bernstein coefficients.

    All coefficients of a cell [a,b] nonnegative certifies it.  Otherwise its
    end coefficients are p(a), p(b) and its halves share p(mid); the first of
    p(a), p(mid), p(b) that reads below 0.0 is a negative witness, with no
    floor, else both halves are examined, right first, up to MAX_DEPTH and
    MAX_NODES; a cell with a non-finite coefficient is not split.
    Inconclusive cells leave the verdict open rather than wrong.

    A witness never turns a certified row into a refuted one: its value
    passes unchanged to the end of every subcell that holds its theta, so
    no cell there can certify, and the row would otherwise end inconclusive,
    which fails a probe just as a witness does.  A witness within rounding
    of zero thus marks a row that is not certified, not one proven negative.

    Non-finite coefficients neither raise nor warn, and a witness value is
    always finite.  A cell with a non-finite Bernstein coefficient is
    witnessed by p(a) if that is finite and negative, as p(0) = c0 = -1e308
    is for [-1e308, -1e308], whose conversion overflows p(1) to -inf, and is
    inconclusive otherwise.  An infinite coefficient of degree 1 or more
    makes p(0)'s Bernstein coefficient inf*0 = NaN, and a row with a NaN or
    such an infinite coefficient, or a constant -inf, is INCONCLUSIVE; a
    constant +inf with finite other coefficients is NONNEG.
    Each cell costs one reduction, its minimum, unless it fails.

    A constant row [c0] is decided by its sign, with the report its one cell
    would give at depth 0 and no conversion: c0 >= 0.0 (-0.0 and +inf
    included) is NONNEG, a finite negative c0 is NEGATIVE at theta = 0 with
    value c0, and NaN or -inf is INCONCLUSIVE.  Every weight row of a
    method probe is such a row.  An empty row raises InvalidArgumentError.
    """
    c = poly.as_poly(coeffs)
    if len(c) == 1:
        c0 = c.item(0)
        if c0 >= 0.0:
            return PolyNonnegReport(CertStatus.NONNEG, None, None, 0)
        if -math.inf < c0:
            return PolyNonnegReport(CertStatus.NEGATIVE, 0.0, c0, 0)
        return PolyNonnegReport(CertStatus.INCONCLUSIVE, None, None, 0)
    with np.errstate(invalid="ignore", over="ignore"):
        bern = monomial_to_bernstein(c)
    halves = half_cell_matrices(len(bern) - 1)
    stack = [(bern, 0.0, 1.0, 0)]
    deepest = nodes = 0
    inconclusive = False
    while stack:
        bern, a, b, depth = stack.pop()
        nodes += 1
        if depth > deepest:
            deepest = depth
        lowest = bern.min()  # NaN if any coefficient is NaN
        if lowest >= 0.0:
            continue
        if not (math.isfinite(lowest) and math.isfinite(bern.max())):
            first = bern.item(0)  # p(a), finite where only later ones overflowed
            if -math.inf < first < 0.0:
                return PolyNonnegReport(CertStatus.NEGATIVE, a, first, deepest)
            inconclusive = True
            continue
        split = halves @ bern  # the left and right halves' coefficients
        mid = 0.5 * (a + b)
        for theta, value in (a, bern.item(0)), (mid, split.item(0, -1)), (b, bern.item(-1)):
            if value < 0.0:
                return PolyNonnegReport(CertStatus.NEGATIVE, theta, value, deepest)
        if depth >= MAX_DEPTH or nodes > MAX_NODES:
            inconclusive = True
            continue
        stack.append((split[0], a, mid, depth + 1))
        stack.append((split[1], mid, b, depth + 1))
    if inconclusive:
        return PolyNonnegReport(CertStatus.INCONCLUSIVE, None, None, deepest)
    return PolyNonnegReport(CertStatus.NONNEG, None, None, deepest)


@functools.lru_cache(maxsize=None)
def _ones(s: int) -> np.ndarray:
    """Read-only vector e of s ones, one per stage count: a probe sums rows
    as products with e, in place of a fresh np.ones(s) at each call."""
    out = np.ones(s)
    out.setflags(write=False)
    return out


def condition_map(M: np.ndarray, r: float) -> np.ndarray:
    """The (s+1) x s linear part [M'; -r (Me)'] of the condition rows at r,
    with M the resolvent at r: applied to stage weights w, the transformed
    weights M'w and the budget term -r e'M'w."""
    s = len(M)
    out = np.empty((s + 1, s))
    out[:s] = M.T
    out[s] = M @ _ones(s)
    out[s] *= -r
    return out


def _condition_rows(M: np.ndarray, W: np.ndarray, r: float) -> np.ndarray:
    """The (s+1) x (d+1) condition polynomials at r of the weights W (s x
    (d+1), monomial coefficients): the rows of M'W, which must be >= 0, and
    the budget 1 - r * sum_j (M'W)_j, which must be >= 0 too."""
    rows = condition_map(M, r) @ W
    rows[-1, 0] += 1.0
    return rows


def _failures(tab: ButcherTableau, W: np.ndarray, r: float, label: str):
    """The failed conditions at r, in report order.

    A witnessed failure is yielded as the fields of its Violation: a singular
    I + r*A (infeasible, because the conditions need the inverse), then the
    entries of A M < 0 and the budgets r A M e > 1 (stage_*), then the
    condition polynomials of W that the Bernstein certifier refutes on [0,1]
    (label_nonneg, label_bound).  None marks a stage entry or budget that is
    non-finite, or a row the certifier leaves undecided: neither certified nor
    a witness, it makes the probe inconclusive.  Nothing yielded means
    feasible.  Arithmetic that overflows leaves a non-finite entry; _probe
    runs the walk under np.errstate, so numpy does not warn.
    """
    if r < 0:
        raise InvalidArgumentError("r must be nonnegative")
    try:
        M = resolvent(tab, r)
    except SingularMatrixError:
        yield ("singular", None, None, None)
        return
    AM = tab.A @ M
    budgets = r * (AM @ _ones(tab.s))
    # a non-finite entry leaves its row's budget non-finite too
    inconclusive = not np.isfinite(budgets).all()
    bad = AM < -SIGN_TOL
    over = budgets > 1.0 + SIGN_TOL
    if inconclusive:
        bad &= np.isfinite(AM)
        over &= np.isfinite(budgets)
    if bad.any():
        bad_rows, bad_cols = np.nonzero(bad)
        for i, j, value in zip(bad_rows.tolist(), bad_cols.tolist(), AM[bad].tolist()):
            yield ("stage_nonneg", (i + 1, j + 1), value, None)
    if over.any():
        for i in np.flatnonzero(over).tolist():
            yield ("stage_bound", (i + 1,), float(budgets[i]), None)
    if inconclusive:
        yield None
    # The stage checks' sign slack, folded into every constant coefficient
    # (the budget's after its 1.0) before certification.
    rows = _condition_rows(M, W, r)
    rows[:, 0] += SIGN_TOL
    # Nonnegative Bernstein coefficients certify a row; NaN fails this test.
    nonneg = monomial_to_bernstein(rows) >= 0.0
    if nonneg.all():
        return
    for j in np.flatnonzero(~nonneg.all(axis=1)).tolist():
        report = poly_nonneg_on_unit(rows[j])
        if report.certified is CertStatus.NEGATIVE:
            if j < tab.s:
                condition, index = f"{label}_nonneg", (j + 1,)
            else:
                condition, index = f"{label}_bound", None
            yield (condition, index, report.witness_value, report.witness_theta)
        elif report.certified is CertStatus.INCONCLUSIVE:
            yield None


def _condition_slope(
    tab: ButcherTableau, W: np.ndarray, r: float, condition: str, index: tuple | None
) -> tuple[float, float]:
    """g(r) and g'(r) for one failed condition of _failures, with its sign
    slack folded in, so that the condition holds where g >= 0.

    A stage is a dense output whose weights are the constants A_i: the stage
    entry (AM)_ij is transformed weight j of W = A_i[:, None], and the stage
    budget r(AMe)_i is the budget of that W.  So two conditions serve all
    four, with dM/dr = -M A M: transformed weight j, (M'W)_j, has slope
    -(M A M)_j' W, and the budget 1 - r(Me)'W has slope -(Me - r M A Me)'W.
    A condition polynomial's g is its minimum over theta in [0,1], and g' is
    its r-derivative at the argmin (envelope theorem), so that the Newton
    step follows the minimum rather than a fixed theta.  Only the row and
    column that the condition reads are formed, by matrix-vector products.
    A non-finite polynomial gives NaN.
    """
    M = resolvent(tab, r)
    A = tab.A
    if condition.startswith("stage"):
        W, index = A[index[0] - 1][:, None], index[1:] or None
    if index is None:  # the budget: 1 - r (Me)'W
        Me = M @ _ones(tab.s)
        row = -r * (Me @ W)
        row[0] += 1.0 + SIGN_TOL
        slope = -(Me - r * (M @ (A @ Me))) @ W
    else:  # the transformed weight (M'W)_j
        M_j = M[:, index[0] - 1]
        row = M_j @ W
        row[0] += SIGN_TOL
        slope = -(M @ (A @ M_j)) @ W
    if not all(map(math.isfinite, row.tolist() + slope.tolist())):
        return math.nan, math.nan
    g, theta = poly.min_on_unit(row)
    return g, poly.evaluate(slope, theta)


@np.errstate(all="ignore")
def _root_estimate(tab: ButcherTableau, W: np.ndarray, r: float, witness: tuple) -> float | None:
    """Newton's estimate, from r down, of the radius where the witnessed
    condition g turns from holding to failing: each iteration costs one
    resolvent (_condition_slope) and no probe.  None for a singular
    witness, a singular resolvent, a non-finite value, critical points of
    a polynomial that overflow (a leading coefficient near 1e-320), g' >= 0,
    or an iterate outside (0, r].  The estimate only guides bisection, which
    probes it; it is never an error or a warning."""
    condition, index, _, _ = witness
    if condition == "singular":
        return None
    x = r
    for _ in range(NEWTON_STEPS):
        try:
            g, slope = _condition_slope(tab, W, x, condition, index)
        except (SingularMatrixError, np.linalg.LinAlgError):
            return None
        if not (math.isfinite(g) and math.isfinite(slope) and slope < 0.0):
            return None
        step = g / slope
        x -= step
        if not 0.0 < x <= r:
            return None
        if abs(step) <= NEWTON_RTOL * x:
            break
    return x


class FeasibilityCheck:
    """The verdict of one probe, read from its whole walk of failures
    (_failures) on construction.

    violations builds its Violation objects on first access, which
    bisection makes at one radius only.  root, if given, maps the first
    witness to an estimate of the sup (root_estimate), read only when
    bisection asks for it.
    """

    def __init__(self, failures, root=None):
        self._failures = tuple(failures)
        self.feasible = not self._failures
        # infeasible without a witness rests on inconclusive entries only
        self.witnessed = any(failure is not None for failure in self._failures)
        self.inconclusive = None in self._failures
        self._root = root

    @functools.cached_property
    def root_estimate(self) -> float | None:
        """The radius where the first witness's condition turns, or None."""
        if self._root is None or not self.witnessed:
            return None
        return self._root(next(f for f in self._failures if f is not None))

    @functools.cached_property
    def violations(self) -> tuple[Violation, ...]:
        return tuple(Violation(*failure) for failure in self._failures if failure is not None)

    @property
    def singular(self) -> bool:
        return bool(self.violations) and self.violations[0].condition == "singular"

    def __repr__(self) -> str:
        return (
            f"FeasibilityCheck(feasible={self.feasible}, violations={self.violations!r}, "
            f"singular={self.singular}, inconclusive={self.inconclusive})"
        )


@np.errstate(over="ignore", invalid="ignore")
def _probe(tab: ButcherTableau, W: np.ndarray, r: float, label: str) -> FeasibilityCheck:
    """Stage conditions plus Bernstein-certified nonnegativity on [0,1] of
    the condition polynomials of W, failing as label_nonneg or label_bound,
    read whole on return (FeasibilityCheck)."""
    return FeasibilityCheck(
        _failures(tab, W, r, label), functools.partial(_root_estimate, tab, W, r)
    )


def monotonicity_feasible_method(tab: ButcherTableau, r: float) -> FeasibilityCheck:
    """All four absolute-monotonicity conditions at a single r >= 0: the dense
    conditions of the constant weights b."""
    return _probe(tab, tab.b[:, None], r, "weight")


def monotonicity_feasible_dense(
    tab: ButcherTableau, weights: DenseWeights, r: float
) -> FeasibilityCheck:
    """Feasibility of the dense conditions at one r: stage conditions plus
    Bernstein-certified nonnegativity of every transformed weight component
    and of the step-size budget polynomial on [0,1]."""
    check_stage_count(tab, weights)
    return _probe(tab, weights.coeffs, r, "dense")


@dataclass(frozen=True)
class SupResult:
    value: float
    first_infeasible: FeasibilityCheck | None
    unbounded: bool
    conservative: bool


def _sup_by_bisection(probe) -> SupResult:
    """Bisection for sup{r >= 0 : probe(r) feasible} over an interval-shaped set.

    One loop brackets the sup: starting from lo = 0, it probes hi = 1e-10,
    then max(1, 2*hi) capped at R_CAP, until a probe is infeasible; a
    feasible probe at R_CAP means unbounded.  A second loop then follows
    plain bisection's path of midpoints, halving the bracket until it is at
    most BISECT_TOL wide or cannot be split in floating point.  A midpoint
    outside the proven bracket (highest radius probed feasible, lowest radius
    probed infeasible) is inferred, as the interval shape decides it, and the
    loop halves on.  At the first midpoint it cannot infer, the loop reads
    the root estimate of the latest infeasible probe (Newton on its first
    witness, FeasibilityCheck.root_estimate).  An estimate inside the proven
    bracket picks the two adjacent leaves of the tree around it (_leaves),
    which are probed, at most GUIDED_JUMPS times; otherwise the midpoint is
    probed.  Either way the loop then looks at the same midpoint again.  On
    an interval-shaped set it thus takes plain bisection's path and returns
    its lo, the highest radius probed feasible, with at most
    2 * GUIDED_JUMPS more probes, and usually the two leaves alone; a probe
    without an estimate gives plain bisection.

    Every radius is probed once.  Then lo*(1+1e-8)+1e-8 (1e-8 for lo = 0)
    is post-verified: it lies above the lowest radius probed infeasible,
    which the walk leaves at most 1.2e-10 above lo (BISECT_TOL, or the
    spacing of doubles below R_CAP).  The first infeasible probe is kept as
    first_infeasible.  conservative means that the value is a certified
    lower bound that may not be tight, for either of two causes: some radius
    the walk judged infeasible had no witness, or the post-verification
    radius probed feasible, as float noise can make it where a condition
    stays within rounding of its bound over a range of r.  The value is lo
    either way; the exact feasible set is an interval, so every radius below
    lo is feasible too.

    The value is at most BISECT_TOL below the sup of the probe.  A probe
    whose sign checks allow SIGN_TOL of slack has its sup up to about
    C * SIGN_TOL above the exact coefficient C, so the value can exceed C.
    """
    conservative = False

    def run(r):
        nonlocal conservative
        check = probe(r)
        conservative = conservative or not (check.feasible or check.witnessed)
        return check

    lo, hi = 0.0, 1e-10
    while (first_bad := run(hi)).feasible:
        if hi >= R_CAP:
            return SupResult(R_CAP, None, True, conservative)
        lo, hi = hi, min(max(1.0, 2.0 * hi), R_CAP)
    # The proven bracket (feasible_max, infeasible_min), the walk's node
    # (a, b) and the root estimate of the latest infeasible probe, read at
    # the next midpoint the loop cannot infer while jumps remain.
    feasible_max, infeasible_min = lo, hi
    latest, estimate, jumps = first_bad, None, 0
    a, b = lo, hi
    while b - a > BISECT_TOL and (mid := 0.5 * (a + b)) not in (a, b):
        if not feasible_max < mid < infeasible_min:
            a, b = (mid, b) if mid <= feasible_max else (a, mid)
            continue
        if latest is not None:
            estimate = latest.root_estimate if jumps < GUIDED_JUMPS else None
            latest = None
        inside = estimate is not None and feasible_max < estimate < infeasible_min
        if inside and jumps < GUIDED_JUMPS:
            jumps += 1
            # the estimate lies inside [a, b], on plain bisection's path
            # from (lo, hi), so the walk's node leads to the same leaves
            radii = _leaves(a, b, estimate)
        else:
            radii = (mid,)
        for r in radii:
            if feasible_max < r < infeasible_min:
                latest = run(r)
                if latest.feasible:
                    feasible_max, latest = r, None
                else:
                    infeasible_min, estimate = r, None
    # post-verification decides no radius at or below feasible_max, so only
    # a feasible probe there sets the flag
    if probe(feasible_max * (1.0 + 1e-8) + 1e-8).feasible:
        conservative = True
    return SupResult(feasible_max, first_bad, False, conservative)


def _leaves(lo: float, hi: float, x: float) -> tuple[float, float]:
    """The pair of adjacent leaves around x that bisection of (lo, hi) ends
    on: it halves until the bracket is at most BISECT_TOL wide or cannot be
    split in floating point, keeping the upper half where mid <= x."""
    while hi - lo > BISECT_TOL and (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if mid <= x else (lo, mid)
    return lo, hi


def ssp_coefficient(tab: ButcherTableau) -> float:
    """SSP coefficient of the method, bisected to BISECT_TOL."""
    return ssp_coefficient_detailed(tab).value


def ssp_coefficient_detailed(tab: ButcherTableau) -> SupResult:
    return _sup_by_bisection(lambda r: monotonicity_feasible_method(tab, r))


def dense_ssp_coefficient(tab: ButcherTableau, weights: DenseWeights) -> float:
    """SSP coefficient of the dense output formula, bisected to BISECT_TOL."""
    return dense_ssp_coefficient_detailed(tab, weights).value


def dense_ssp_coefficient_detailed(tab: ButcherTableau, weights: DenseWeights) -> SupResult:
    return _sup_by_bisection(lambda r: monotonicity_feasible_dense(tab, weights, r))


@np.errstate(over="ignore", invalid="ignore")
def gamma_at(tab: ButcherTableau, r: float) -> float:
    """b'(I + r*A)^{-1} e, the weight-budget total at radius r.  A total
    that overflows to inf or NaN raises InvalidArgumentError, without a
    numpy warning."""
    M = resolvent(tab, r)
    gamma = float(tab.b @ M @ _ones(tab.s))
    if not math.isfinite(gamma):
        raise InvalidArgumentError(f"gamma at r={r} is not finite")
    return gamma


@dataclass(frozen=True)
class XineqReport:
    holds: bool
    lhs: float   # gamma at r = ssp coefficient
    rhs: float   # 1 - ssp coefficient / 4


def check_xineq(tab: ButcherTableau, r: float | None = None) -> XineqReport:
    """Budget inequality that makes the quadratic dense recipe keep the full
    step-size coefficient: gamma <= 1 - C/4, up to 1e-9, at C = the method's
    coefficient r.

    Requires a positive SSP coefficient; gamma carries the bisection error of
    the coefficient when r is not supplied exactly.  An unbounded coefficient
    (feasible at R_CAP) raises InvalidArgumentError, like r <= 0: the
    inequality at the cap would judge the cap, not the method.
    """
    if r is None:
        method = ssp_coefficient_detailed(tab)
        if method.unbounded:
            raise InvalidArgumentError(
                "the budget inequality needs a bounded SSP coefficient"
            )
        r = method.value
    if r <= 0:
        raise InvalidArgumentError("the budget inequality needs a positive SSP coefficient")
    lhs = gamma_at(tab, r)
    rhs = 1.0 - r / 4.0
    return XineqReport(holds=bool(lhs <= rhs + 1e-9), lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class SspCertificate:
    """Computed SSP coefficients with feasibility witnesses.

    r_combined is the min of the method and dense coefficients and is what
    limits the usable step size when dense output is evaluated.
    dense_matches_b says whether the dense weights meet b at theta = 1
    (endpoint_check); r_dense does not depend on it.  conservative says
    that a coefficient is a certified lower bound that may not be tight:
    its bisection judged a radius infeasible without a witness, or its
    post-verification radius probed feasible.
    """

    r_method: float
    r_dense: float | None
    r_combined: float | None
    gamma: float
    xineq_holds: bool | None
    xineq_lhs: float | None
    xineq_rhs: float | None
    witnesses: tuple[Violation, ...]
    method_unbounded: bool = False
    dense_unbounded: bool | None = None
    dense_matches_b: bool | None = None
    conservative: bool = False

    def as_record(self) -> dict:
        return {
            "r_method": self.r_method,
            "r_dense": self.r_dense,
            "r_combined": self.r_combined,
            "gamma": self.gamma,
            "xineq_holds": self.xineq_holds,
            "xineq_lhs": self.xineq_lhs,
            "xineq_rhs": self.xineq_rhs,
            "method_unbounded": self.method_unbounded,
            "dense_unbounded": self.dense_unbounded,
            "dense_matches_b": self.dense_matches_b,
            "conservative": self.conservative,
            "witnesses": [
                {
                    "condition": v.condition,
                    "index": list(v.index) if v.index is not None else None,
                    "value": v.value,
                    "theta": v.theta,
                }
                for v in self.witnesses
            ],
        }


def compute_certificate(
    tab: ButcherTableau, weights: DenseWeights | None = None
) -> SspCertificate:
    """Full certificate: method coefficient, dense coefficient when weights are
    given, their min, gamma, and the budget-inequality verdict, built in one
    pass from the method's sup, the dense sup (None without weights) and the
    budget-inequality report.  That report is None when the method
    coefficient is 0 or unbounded (feasible at R_CAP), where gamma is read at
    r = 0 or at the cap and an inequality in C would judge the cap, not the
    method.  The method's witnesses come first.

    Each coefficient is the highest radius probed feasible, bisected to
    BISECT_TOL: at most 1e-10 below the sup of a probe whose sign checks
    allow SIGN_TOL (1e-12) of slack, so it can exceed the exact C.
    conservative is true when either bisection's is (_sup_by_bisection)."""
    method = ssp_coefficient_detailed(tab)
    dense = None if weights is None else dense_ssp_coefficient_detailed(tab, weights)
    bounded = method.value > 0 and not method.unbounded
    xineq = check_xineq(tab, r=method.value) if bounded else None
    sups = (method,) if dense is None else (method, dense)
    return SspCertificate(
        r_method=method.value,
        r_dense=None if dense is None else dense.value,
        r_combined=None if dense is None else min(method.value, dense.value),
        gamma=gamma_at(tab, method.value) if xineq is None else xineq.lhs,
        xineq_holds=None if xineq is None else xineq.holds,
        xineq_lhs=None if xineq is None else xineq.lhs,
        xineq_rhs=None if xineq is None else xineq.rhs,
        witnesses=tuple(
            v for sup in sups if sup.first_infeasible for v in sup.first_infeasible.violations
        ),
        method_unbounded=method.unbounded,
        dense_unbounded=None if dense is None else dense.unbounded,
        dense_matches_b=None if weights is None else endpoint_check(tab, weights).right_matches_b,
        conservative=any(sup.conservative for sup in sups),
    )
