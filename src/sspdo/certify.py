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

Sign tolerances are asymmetric: >=0 checks allow -1e-12 and <=1 checks allow
1+1e-12, absorbing the ~1e-16-per-operation perturbation of rational tableaux
stored in double precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import poly
from .errors import (
    DegreeTooHighError,
    InvalidArgumentError,
    PostVerificationError,
    SingularMatrixError,
)
from .tableau import ButcherTableau, DenseWeights, check_stage_count

GE_TOL = 1e-12          # slack allowed on the >= 0 side
LE_TOL = 1e-12          # slack allowed on the <= 1 side
PIVOT_TOL = 1e-12
DEFAULT_BISECT_TOL = 1e-10
R_CAP = 1e6
WITNESS_TOL = 1e-15
MAX_DEPTH = 40
MAX_NODES = 200_000
MAX_DEGREE = 64         # highest polynomial degree the certifier converts
MAX_STAGES = 1000       # largest family member built: certify takes ~8 s there


@functools.cache
def _lapack():
    """scipy's LAPACK wrappers, imported at the first call: scipy.linalg adds
    ~0.34 s and ~26 MB to a process, and construct, integrate, figure1 and
    convergence never invert.  Cached, because an import statement in
    resolvent costs ~2.4 us per call, ~1.5% of a sweep."""
    from scipy.linalg import lapack

    return lapack


def resolvent(tab: ButcherTableau, r: float) -> np.ndarray:
    """Inverse of I + r*A from LAPACK's inversion routines.

    Explicit tableaux make I + r*A unit lower triangular, so it is inverted
    as such (dtrtri) and singularity cannot occur.  Otherwise it is
    LU-factorized with partial pivoting (dgetrf) and inverted (dgetri); an
    exactly singular or non-finite matrix, or a pivot of magnitude below
    1e-12, raises SingularMatrixError.  These routines stay on one thread at
    these sizes, whereas a solve against the identity (dtrtrs, lu_solve)
    hands its s right-hand sides to OpenBLAS's threaded trsm, whose worker
    thread then spins between probes.  LAPACK is imported at the first call
    (_lapack), not with the module, so the CLI starts without scipy.
    """
    lapack = _lapack()
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


@dataclass(frozen=True)
class Violation:
    """One failed inequality: which condition, where, and the offending value
    (None for a singular I + r*A, which has no value)."""

    condition: str
    index: tuple | None
    value: float | None
    theta: float | None = None


@dataclass(frozen=True)
class FeasibilityCheck:
    feasible: bool
    violations: tuple[Violation, ...]
    singular: bool = False
    inconclusive: bool = False


def _stage_conditions(
    tab: ButcherTableau, r: float, M: np.ndarray
) -> tuple[list[Violation], bool]:
    """Violations of A M >= 0 and r A M e <= 1, and whether an entry or a
    budget is non-finite: it is neither certified nor a witness, so it makes
    the probe inconclusive, as a non-finite Bernstein cell does."""
    AM = tab.A @ M
    rows = r * (AM @ np.ones(tab.s))
    # a non-finite entry leaves its row's budget non-finite too
    inconclusive = not np.isfinite(rows).all()
    bad = AM < -GE_TOL
    over = rows > 1.0 + LE_TOL
    if inconclusive:
        bad &= np.isfinite(AM)
        over &= np.isfinite(rows)
    bad_rows, bad_cols = np.nonzero(bad)
    violations = [
        Violation("stage_nonneg", (i + 1, j + 1), value)
        for i, j, value in zip(bad_rows.tolist(), bad_cols.tolist(), AM[bad].tolist())
    ]
    for i in np.nonzero(over)[0]:
        violations.append(Violation("stage_bound", (int(i) + 1,), float(rows[i])))
    return violations, inconclusive


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
    c = np.atleast_1d(np.asarray(coeffs, dtype=float))
    degree = c.shape[-1] - 1
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
    p(a), p(mid), p(b) below -WITNESS_TOL is a negative witness, else both
    halves are examined, right first, up to MAX_DEPTH and MAX_NODES; a cell
    with a non-finite coefficient is not split.  Inconclusive cells leave the
    verdict open rather than wrong.
    """
    bern = monomial_to_bernstein(poly.as_poly(coeffs))
    halves = half_cell_matrices(len(bern) - 1)
    stack = [(bern, 0.0, 1.0, 0)]
    deepest = 0
    nodes = 0
    inconclusive = False
    while stack:
        bern, a, b, depth = stack.pop()
        nodes += 1
        deepest = max(deepest, depth)
        if np.all(bern >= 0.0):
            continue
        if not np.isfinite(bern).all():
            inconclusive = True
            continue
        left, right = halves @ bern
        mid = 0.5 * (a + b)
        for theta, value in ((a, bern[0]), (mid, left[-1]), (b, bern[-1])):
            if value < -WITNESS_TOL:
                return PolyNonnegReport(CertStatus.NEGATIVE, theta, float(value), deepest)
        if depth >= MAX_DEPTH or nodes > MAX_NODES:
            inconclusive = True
            continue
        stack.append((left, a, mid, depth + 1))
        stack.append((right, mid, b, depth + 1))
    if inconclusive:
        return PolyNonnegReport(CertStatus.INCONCLUSIVE, None, None, deepest)
    return PolyNonnegReport(CertStatus.NONNEG, None, None, deepest)


def condition_map(M: np.ndarray, r: float) -> np.ndarray:
    """The (s+1) x s linear part [M'; -r (Me)'] of the condition rows at r,
    with M the resolvent at r: applied to stage weights w, the transformed
    weights M'w and the budget term -r e'M'w."""
    return np.vstack([M.T, -r * (M @ np.ones(len(M)))])


def _condition_rows(M: np.ndarray, W: np.ndarray, r: float) -> np.ndarray:
    """The (s+1) x (d+1) condition polynomials at r of the weights W (s x
    (d+1), monomial coefficients): the rows of M'W, which must be >= 0, and
    the budget 1 - r * sum_j (M'W)_j, which must be >= 0 too."""
    rows = condition_map(M, r) @ W
    rows[-1, 0] += 1.0
    return rows


def _probe(tab: ButcherTableau, W: np.ndarray, r: float, label: str) -> FeasibilityCheck:
    """Stage conditions plus Bernstein-certified nonnegativity on [0,1] of
    the condition polynomials of W, failing as label_nonneg or label_bound.
    A singular I + r*A is infeasible (the conditions need the inverse) and
    is reported distinctly."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    try:
        M = resolvent(tab, r)
    except SingularMatrixError:
        return FeasibilityCheck(
            feasible=False,
            violations=(Violation("singular", None, None),),
            singular=True,
        )
    violations, inconclusive = _stage_conditions(tab, r, M)
    rows = _condition_rows(M, W, r)
    # Same sign slack as the stage checks: >=0 allows -GE_TOL and <=1 allows
    # 1+LE_TOL, folded into the constant coefficient before certification.
    rows[:-1, 0] += GE_TOL
    rows[-1, 0] += LE_TOL
    # Nonnegative Bernstein coefficients certify a row; NaN fails this test.
    certified = (monomial_to_bernstein(rows) >= 0.0).all(axis=1)
    for j in np.flatnonzero(~certified).tolist():
        report = poly_nonneg_on_unit(rows[j])
        if report.certified is CertStatus.NEGATIVE:
            if j < tab.s:
                condition, index = f"{label}_nonneg", (j + 1,)
            else:
                condition, index = f"{label}_bound", None
            violations.append(
                Violation(condition, index, report.witness_value, theta=report.witness_theta)
            )
        elif report.certified is CertStatus.INCONCLUSIVE:
            inconclusive = True
    return FeasibilityCheck(
        feasible=not violations and not inconclusive,
        violations=tuple(violations),
        inconclusive=inconclusive,
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


def _sup_by_bisection(probe, tol: float) -> SupResult:
    """Bisection for sup{r >= 0 : probe(r) feasible} over an interval-shaped set.

    One loop brackets the sup: starting from lo = 0, it probes hi = 1e-10,
    then max(1, 2*hi) capped at R_CAP, until a probe is infeasible; a
    feasible probe at R_CAP means unbounded.  Bisection then halves the
    bracket until it is at most tol wide or cannot be split in floating
    point.  Every radius is probed once: lo is 0 or the last radius that
    probed feasible, so only the radius lo*(1+1e-8)+1e-8 just above the sup
    is post-verified, and a feasible probe there means a non-interval set and
    surfaces as an error rather than a wrong answer.  For r = 0 that radius
    is 1e-8; a tol below 1e-10 also bisects (0, 1e-10) when 1e-10 probes
    infeasible.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidArgumentError(f"tolerance must be finite and positive, got {tol}")
    conservative = False

    def run(r):
        nonlocal conservative
        check = probe(r)
        conservative = conservative or check.inconclusive
        return check

    lo, hi = 0.0, 1e-10
    while (first_bad := run(hi)).feasible:
        if hi >= R_CAP:
            return SupResult(R_CAP, None, True, conservative)
        lo, hi = hi, min(max(1.0, 2.0 * hi), R_CAP)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if run(mid).feasible:
            lo = mid
        else:
            hi = mid
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
    return _sup_by_bisection(lambda r: monotonicity_feasible_dense(tab, weights, r), tol)


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
    if method.value > 0:
        xineq = check_xineq(tab, r=method.value)
        holds, lhs, rhs = xineq.holds, xineq.lhs, xineq.rhs
        gamma = lhs
    else:
        gamma = gamma_at(tab, method.value)
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
    )
