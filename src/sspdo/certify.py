"""SSP coefficients by feasibility bisection with certified polynomial nonnegativity.

The method coefficient is the largest r for which the absolute-monotonicity
conditions hold:

    A(I+rA)^{-1} >= 0          r A(I+rA)^{-1} e <= 1
    b'(I+rA)^{-1} >= 0         r b'(I+rA)^{-1} e <= 1

The dense coefficient replaces the b-row conditions by the same inequalities
with the dense weight vector, required for every theta in [0,1].  Those
for-all-theta conditions are decided by exact coefficient manipulation plus
Bernstein-basis certification, never by sampling alone: sampling can miss
sign dips near theta=0, exactly where the weight polynomials vanish.

Sign tolerances are asymmetric: >=0 checks allow -1e-12 and <=1 checks allow
1+1e-12, absorbing the ~1e-16-per-operation perturbation of rational tableaux
stored in double precision.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import lu_factor, lu_solve, solve_triangular

from . import poly
from .errors import (
    DegreeTooHighError,
    DimensionMismatchError,
    InvalidArgumentError,
    PostVerificationError,
    SingularMatrixError,
)
from .tableau import ButcherTableau, DenseWeights

GE_TOL = 1e-12          # slack allowed on the >= 0 side
LE_TOL = 1e-12          # slack allowed on the <= 1 side
PIVOT_TOL = 1e-12
DEFAULT_BISECT_TOL = 1e-10
R_CAP = 1e6
WITNESS_TOL = 1e-15
MAX_DEPTH = 40
MAX_NODES = 200_000


def resolvent(tab: ButcherTableau, r: float) -> np.ndarray:
    """Inverse of I + r*A via partial-pivot factorization.

    Explicit tableaux make I + r*A unit lower triangular, so forward
    substitution is used and singularity cannot occur.  Otherwise a pivot of
    magnitude below 1e-12 raises SingularMatrixError.
    """
    s = tab.s
    iden = np.eye(s)
    B = iden + r * tab.A
    if tab.explicit:
        return solve_triangular(B, iden, lower=True, unit_diagonal=True)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # pivot check below decides
            lu, piv = lu_factor(B)
    except Exception as exc:  # LAPACK signals exact singularity
        raise SingularMatrixError(f"I + {r}*A is singular") from exc
    if np.min(np.abs(np.diag(lu))) < PIVOT_TOL:
        raise SingularMatrixError(
            f"pivot below {PIVOT_TOL} while factorizing I + {r}*A"
        )
    return lu_solve((lu, piv), iden)


@dataclass(frozen=True)
class Violation:
    """One failed inequality: which condition, where, and the offending value."""

    condition: str
    index: tuple | None
    value: float
    theta: float | None = None


@dataclass(frozen=True)
class FeasibilityCheck:
    feasible: bool
    violations: tuple[Violation, ...]
    singular: bool = False
    inconclusive: bool = False


def _stage_conditions(tab: ButcherTableau, r: float, M: np.ndarray) -> list[Violation]:
    violations = []
    AM = tab.A @ M
    bad = AM < -GE_TOL
    for i, j in zip(*np.nonzero(bad)):
        violations.append(
            Violation("stage_nonneg", (int(i) + 1, int(j) + 1), float(AM[i, j]))
        )
    rows = r * (AM @ np.ones(tab.s))
    for i in np.nonzero(rows > 1.0 + LE_TOL)[0]:
        violations.append(Violation("stage_bound", (int(i) + 1,), float(rows[i])))
    return violations


def monotonicity_feasible_method(tab: ButcherTableau, r: float) -> FeasibilityCheck:
    """Check all four absolute-monotonicity conditions at a single r >= 0.

    A singular I + r*A counts as infeasible (the conditions need the inverse
    to exist) and is reported distinctly.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    try:
        M = resolvent(tab, r)
    except SingularMatrixError:
        return FeasibilityCheck(
            feasible=False,
            violations=(Violation("singular", None, float("nan")),),
            singular=True,
        )
    violations = _stage_conditions(tab, r, M)
    bM = tab.b @ M
    for j in np.nonzero(bM < -GE_TOL)[0]:
        violations.append(Violation("weight_nonneg", (int(j) + 1,), float(bM[j])))
    total = r * float(bM.sum())
    if total > 1.0 + LE_TOL:
        violations.append(Violation("weight_bound", None, total))
    return FeasibilityCheck(feasible=not violations, violations=tuple(violations))


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
    """Bernstein coefficients on [0,1] of a polynomial given in the monomial basis."""
    c = poly.as_poly(coeffs)
    return bernstein_matrix(len(c) - 1) @ c


def _decasteljau_split(bern: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(bern) - 1
    left = np.empty_like(bern)
    right = np.empty_like(bern)
    work = bern.copy()
    left[0] = work[0]
    right[n] = work[n]
    for level in range(1, n + 1):
        work = 0.5 * (work[:-1] + work[1:])
        left[level] = work[0]
        right[n - level] = work[-1]
    return left, right


def poly_nonneg_on_unit(
    coeffs,
    *,
    max_depth: int = MAX_DEPTH,
    witness_tol: float = WITNESS_TOL,
    max_nodes: int = MAX_NODES,
) -> PolyNonnegReport:
    """Decide nonnegativity of a polynomial on [0,1].

    All Bernstein coefficients nonnegative on a cell certifies that cell; an
    evaluation at a subdivision endpoint or midpoint below -witness_tol is a
    negative witness; otherwise the cell is split by de Casteljau up to
    max_depth.  Inconclusive cells leave the verdict open rather than wrong.
    """
    c = poly.as_poly(coeffs)
    if len(c) - 1 > 64:
        raise DegreeTooHighError(f"degree {len(c) - 1} exceeds 64")
    stack = [(monomial_to_bernstein(c), 0.0, 1.0, 0)]
    deepest = 0
    nodes = 0
    inconclusive = False
    while stack:
        bern, a, b, depth = stack.pop()
        nodes += 1
        deepest = max(deepest, depth)
        if np.all(bern >= 0.0):
            continue
        for theta in (a, 0.5 * (a + b), b):
            value = float(poly.evaluate(c, theta))
            if value < -witness_tol:
                return PolyNonnegReport(CertStatus.NEGATIVE, theta, value, deepest)
        if depth >= max_depth or nodes > max_nodes:
            inconclusive = True
            continue
        left, right = _decasteljau_split(bern)
        mid = 0.5 * (a + b)
        stack.append((left, a, mid, depth + 1))
        stack.append((right, mid, b, depth + 1))
    if inconclusive:
        return PolyNonnegReport(CertStatus.INCONCLUSIVE, None, None, deepest)
    return PolyNonnegReport(CertStatus.NONNEG, None, None, deepest)


def monotonicity_feasible_dense(
    tab: ButcherTableau, weights: DenseWeights, r: float
) -> FeasibilityCheck:
    """Feasibility of the dense conditions at one r: stage conditions plus
    Bernstein-certified nonnegativity of every transformed weight component
    and of the step-size budget polynomial on [0,1]."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    try:
        M = resolvent(tab, r)
    except SingularMatrixError:
        return FeasibilityCheck(
            feasible=False,
            violations=(Violation("singular", None, float("nan")),),
            singular=True,
        )
    violations = _stage_conditions(tab, r, M)
    inconclusive = False
    components = M.T @ weights.coeffs
    budget = -r * components.sum(axis=0)
    budget[0] += 1.0
    # Same sign slack as the scalar checks: >=0 allows -GE_TOL and <=1 allows
    # 1+LE_TOL, folded into the constant coefficient before certification.
    components = components.copy()
    components[:, 0] += GE_TOL
    budget[0] += LE_TOL
    for j in range(tab.s):
        report = poly_nonneg_on_unit(components[j])
        if report.certified is CertStatus.NEGATIVE:
            violations.append(
                Violation(
                    "dense_nonneg",
                    (j + 1,),
                    report.witness_value,
                    theta=report.witness_theta,
                )
            )
        elif report.certified is CertStatus.INCONCLUSIVE:
            inconclusive = True
    report = poly_nonneg_on_unit(budget)
    if report.certified is CertStatus.NEGATIVE:
        violations.append(
            Violation(
                "dense_bound", None, report.witness_value, theta=report.witness_theta
            )
        )
    elif report.certified is CertStatus.INCONCLUSIVE:
        inconclusive = True
    feasible = not violations and not inconclusive
    return FeasibilityCheck(
        feasible=feasible, violations=tuple(violations), inconclusive=inconclusive
    )


@dataclass(frozen=True)
class SupResult:
    value: float
    first_infeasible: FeasibilityCheck | None
    unbounded: bool
    conservative: bool


def _sup_by_bisection(probe, tol: float, cap: float = R_CAP) -> SupResult:
    """Bisection for sup{r >= 0 : probe(r) feasible} over an interval-shaped set.

    Both endpoints are post-verified so a non-interval pathology surfaces as
    an error rather than a wrong answer.  Bisection stops at tol or once the
    bracket cannot be split in floating point, whichever comes first.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidArgumentError(f"tolerance must be finite and positive, got {tol}")
    conservative = False

    def run(r):
        nonlocal conservative
        check = probe(r)
        conservative = conservative or check.inconclusive
        return check

    first = run(1e-10)
    if not first.feasible:
        upper = run(1e-8)
        if upper.feasible:
            raise PostVerificationError(
                "feasible at r=1e-8 but not at r=1e-10; feasible set is not an interval",
                r=1e-8,
            )
        return SupResult(0.0, first, False, conservative)
    lo, hi = 1e-10, 1.0
    first_bad = None
    while True:
        if hi >= cap:
            check = run(cap)
            if check.feasible:
                return SupResult(cap, None, True, conservative)
            first_bad = check
            hi = cap
            break
        check = run(hi)
        if not check.feasible:
            first_bad = check
            break
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if run(mid).feasible:
            lo = mid
        else:
            hi = mid
    if not run(lo).feasible:
        raise PostVerificationError(
            f"post-verification failed: r={lo} probed infeasible", r=lo
        )
    upper = lo * (1.0 + 1e-8) + 1e-8
    if run(upper).feasible:
        raise PostVerificationError(
            f"post-verification failed: r={upper} probed feasible above the sup",
            r=upper,
        )
    return SupResult(lo, first_bad, False, conservative)


def ssp_coefficient(tab: ButcherTableau, tol: float = DEFAULT_BISECT_TOL) -> float:
    """SSP coefficient of the method, to absolute tolerance tol."""
    return ssp_coefficient_detailed(tab, tol).value


def ssp_coefficient_detailed(
    tab: ButcherTableau, tol: float = DEFAULT_BISECT_TOL
) -> SupResult:
    return _sup_by_bisection(lambda r: monotonicity_feasible_method(tab, r), tol)


def dense_ssp_coefficient(
    tab: ButcherTableau, weights: DenseWeights, tol: float = DEFAULT_BISECT_TOL
) -> float:
    """SSP coefficient of the dense output formula, to absolute tolerance tol."""
    return dense_ssp_coefficient_detailed(tab, weights, tol).value


def dense_ssp_coefficient_detailed(
    tab: ButcherTableau, weights: DenseWeights, tol: float = DEFAULT_BISECT_TOL
) -> SupResult:
    if weights.s != tab.s:
        raise DimensionMismatchError(
            f"weights have {weights.s} rows, tableau has {tab.s} stages"
        )
    return _sup_by_bisection(
        lambda r: monotonicity_feasible_dense(tab, weights, r), tol
    )


def gamma_at(tab: ButcherTableau, r: float) -> float:
    """b'(I + r*A)^{-1} e, the weight-budget total at radius r."""
    M = resolvent(tab, r)
    return float(tab.b @ M @ np.ones(tab.s))


@dataclass(frozen=True)
class XineqReport:
    holds: bool
    lhs: float   # gamma at r = ssp coefficient
    rhs: float   # 1 - ssp coefficient / 4
    r: float


def check_xineq(
    tab: ButcherTableau, r: float | None = None, tol: float = 1e-9
) -> XineqReport:
    """Budget inequality that makes the quadratic dense recipe keep the full
    step-size coefficient: gamma <= 1 - C/4 at C = the method's coefficient.

    Requires a positive SSP coefficient; gamma carries the bisection error of
    the coefficient when r is not supplied exactly.
    """
    if r is None:
        r = ssp_coefficient(tab)
    if r <= 0:
        raise ValueError("the budget inequality needs a positive SSP coefficient")
    lhs = gamma_at(tab, r)
    rhs = 1.0 - r / 4.0
    return XineqReport(holds=bool(lhs <= rhs + tol), lhs=lhs, rhs=rhs, r=r)


@dataclass(frozen=True)
class SspCertificate:
    """Computed SSP coefficients with feasibility witnesses.

    r_combined is the min of the method and dense coefficients and is what
    limits the usable step size when dense output is evaluated.
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
    conservative: bool = False
    tol: float = DEFAULT_BISECT_TOL

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
    tab: ButcherTableau,
    weights: DenseWeights | None = None,
    tol: float = DEFAULT_BISECT_TOL,
) -> SspCertificate:
    """Full certificate: method coefficient, dense coefficient when weights are
    given, their min, gamma, and the budget-inequality verdict."""
    method = ssp_coefficient_detailed(tab, tol)
    witnesses = (
        method.first_infeasible.violations if method.first_infeasible else ()
    )
    conservative = method.conservative
    r_dense = None
    r_combined = None
    if weights is not None:
        dense = dense_ssp_coefficient_detailed(tab, weights, tol)
        r_dense = dense.value
        r_combined = min(method.value, dense.value)
        conservative = conservative or dense.conservative
        if dense.first_infeasible is not None:
            witnesses = witnesses + dense.first_infeasible.violations
    gamma = gamma_at(tab, method.value)
    if method.value > 0:
        xineq = check_xineq(tab, r=method.value)
        holds, lhs, rhs = xineq.holds, xineq.lhs, xineq.rhs
    else:
        holds = lhs = rhs = None
    return SspCertificate(
        r_method=method.value,
        r_dense=r_dense,
        r_combined=r_combined,
        gamma=gamma,
        xineq_holds=holds,
        xineq_lhs=lhs,
        xineq_rhs=rhs,
        witnesses=witnesses,
        method_unbounded=method.unbounded,
        conservative=conservative,
        tol=tol,
    )
