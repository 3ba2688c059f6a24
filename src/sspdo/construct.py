"""Construction of SSP dense-output weights, and the search that decides
whether any exist.

Two closed-form recipes cover most practical needs: scaling the step weights
linearly in theta always keeps the full SSP coefficient at first order, and a
quadratic recipe gives second order whenever the first row of A is zero.  For
anything else, lp_search first screens closed-form causes of non-existence,
among them the order-3 barrier (no order-3 dense output keeps a positive SSP
coefficient when A >= 0), and then solves max-margin LPs over the free
polynomial coefficients with scipy's HiGHS solver.  A Bernstein restriction
(nonnegative Bernstein coefficients after degree elevation, or its vertex
where its margin point fails) yields weights that satisfy the conditions for
every theta; a collocation relaxation (conditions at finitely many theta) can
prove that no weights exist.  Every candidate is certified in the Bernstein
basis before it is reported, so the verdict is "feasible" with certified
weights, "infeasible", or "inconclusive".
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import poly
from .certify import (
    MAX_DEGREE,
    SIGN_TOL,
    bernstein_matrix,
    condition_map,
    monotonicity_feasible_dense,
    monotonicity_feasible_method,
    resolvent,
)
from .errors import (
    DegreeTooHighError,
    InvalidArgumentError,
    NumericalCycleError,
    StructureError,
)
from .simplex import phase1_feasible
from .tableau import (
    ButcherTableau,
    DenseWeights,
    dense_order_conditions,
    dense_order_residuals,
    method_order_residuals,
)

#: Degree elevation of the Bernstein restriction LP above the weight degree.
ELEVATION = 32
#: Largest family member built: certify takes ~2 s there.
MAX_STAGES = 1000


def family_tableau(s: int) -> ButcherTableau:
    """Optimal second-order SSP method with s stages: a_ij = 1/(s-1) below the
    diagonal, b_j = 1/s, SSP coefficient s-1; built for 2 <= s <= MAX_STAGES."""
    if s < 2:
        raise InvalidArgumentError(
            "the family needs s >= 2 (abscissas divide by s-1)"
        )
    if s > MAX_STAGES:
        raise InvalidArgumentError(f"the family is built up to s = {MAX_STAGES}, got {s}")
    A = np.tri(s, k=-1) / (s - 1)
    b = np.full(s, 1.0 / s)
    return ButcherTableau(A=A, b=b, name=f"family-s{s}")


def is_family_member(tab: ButcherTableau) -> bool:
    """True iff A and b match family_tableau(tab.s) entrywise within 1e-12."""
    if tab.s < 2:
        return False
    reference = family_tableau(tab.s)
    return bool(
        np.all(np.abs(tab.A - reference.A) <= 1e-12)
        and np.all(np.abs(tab.b - reference.b) <= 1e-12)
    )


def first_order_weights(tab: ButcherTableau) -> DenseWeights:
    """First-order dense weights b_j * theta; keeps the method's SSP coefficient."""
    report = method_order_residuals(tab)
    if report.order < 1:
        raise StructureError("method must be at least first order")
    coeffs = np.zeros((tab.s, 2))
    coeffs[:, 1] = tab.b
    return DenseWeights(coeffs)


def second_order_weights(tab: ButcherTableau) -> DenseWeights:
    """Second-order quadratic dense weights.

    Requires the first row of A to be zero (necessary for any order-2 dense
    output with a positive combined SSP coefficient) and method order >= 2.
    Stage 1 gets theta - (1-b_1)*theta^2, every other stage b_j*theta^2; the
    result matches b at theta = 1 by construction.
    """
    if np.any(tab.A[0] != 0.0):
        raise StructureError(
            "quadratic dense recipe needs the first row of A identically zero"
        )
    report = method_order_residuals(tab)
    if report.order < 2:
        raise StructureError("method must be at least second order")
    coeffs = np.zeros((tab.s, 3))
    coeffs[0, 1] = 1.0
    coeffs[0, 2] = -(1.0 - tab.b[0])
    coeffs[1:, 2] = tab.b[1:]
    return DenseWeights(coeffs)


@dataclass(frozen=True)
class PrescreenViolation:
    condition: str
    detail: str
    theta: float | None = None
    lhs: float | None = None
    rhs: float | None = None

    def as_record(self) -> dict:
        return {
            "condition": self.condition,
            "detail": self.detail,
            "theta": self.theta,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True)
class LpProblem:
    """Feasibility LP over the free weight coefficients (powers 1..degree;
    the constant terms are pinned to zero by construction).

    ``conditions`` holds the s transformed weights (rows of -M^T, with M the
    resolvent at r) and the step budget (r (M e)^T) as linear forms in the
    stage weights: the negated ``certify.condition_map``, so that every row
    reads <= its right-hand side.  Each row of ``basis`` maps powers 1..degree
    of a weight to one number: its value at a collocation point (relaxation)
    or one of its Bernstein coefficients (restriction).  The inequality block applies every
    condition to every basis row: transformed weights >= 0, budget <= 1.
    """

    s: int
    degree: int
    A_eq: np.ndarray
    b_eq: np.ndarray
    conditions: np.ndarray
    basis: np.ndarray

    @property
    def n_variables(self) -> int:
        return self.s * self.degree

    @property
    def A_ub(self) -> np.ndarray:
        # Kronecker product of basis and conditions; rows run basis-row-major,
        # columns stage-major as in the variable layout.
        block = self.basis[:, None, None, :] * self.conditions[None, :, :, None]
        return block.reshape(-1, self.n_variables)

    @property
    def b_ub(self) -> np.ndarray:
        rhs = np.zeros((len(self.basis), len(self.conditions)))
        rhs[:, -1] = 1.0  # the budget; the transformed weights have rhs 0
        return rhs.ravel()


@dataclass(frozen=True)
class SearchResult:
    status: str                       # "feasible" | "infeasible" | "inconclusive"
    weights: DenseWeights | None
    violated_necessary: PrescreenViolation | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    @property
    def certified(self) -> bool:
        """Only certified weights are ever reported feasible."""
        return self.feasible

    def as_record(self) -> dict:
        return {
            "status": self.status,
            "certified": self.certified,
            "weights": None if self.weights is None else self.weights.coeffs.tolist(),
            "violated_necessary": (
                None
                if self.violated_necessary is None
                else self.violated_necessary.as_record()
            ),
        }


def chebyshev_lobatto(n: int) -> np.ndarray:
    """n Chebyshev-distributed points on [0,1] including both endpoints."""
    if n < 2:
        raise InvalidArgumentError("need at least the two endpoints")
    return 0.5 * (1.0 - np.cos(np.pi * np.arange(n) / (n - 1)))


def _prescreen(tab, order, degree, r, check) -> PrescreenViolation | None:
    """The first closed-form cause, at r > 0, for which no weights exist:
    stage-conditions-at-r, zero-first-row, order-3-barrier or
    family-quadratic-peak; None where the LPs must decide.

    order-3-barrier is the theorem that no order-3 dense output keeps a
    positive SSP coefficient, for every tableau with A >= 0 (exact on the
    stored entries: only their signs are tested).  For an explicit tableau
    the stage conditions at r > 0 already imply A >= 0: K = A (I + rA)^-1
    >= 0 is strictly lower triangular and A = (I - rK)^-1 K.  Where an
    entry of A is negative, the LPs decide.

    Proof.  Let v = (I + rA)^-T w, the transformed weights: v >= 0 on
    [0, 1], and v(0) = 0 since the weights have no constant terms.  A
    condition sum_j f_j w_j reads ((I + rA) f)^T v, so with g = (I + rA) c
    and h = (I + rA) c^2 the order-2 and order-3 conditions read g^T v =
    theta^2/2 and h^T v = theta^3/3.  A >= 0 gives g, h >= 0, and h_j > 0
    wherever g_j > 0 (h_j >= c_j^2 if c_j > 0; r (A c^2)_j > 0 if c_j = 0
    and (A c)_j > 0).  From v(0) = 0 and v >= 0, v'(0) >= 0; the theta^1
    coefficient gives h^T v'(0) = 0, so v_j'(0) = 0 wherever h_j > 0, there
    v_j''(0) >= 0, and the theta^2 coefficient gives h^T v''(0) = 0, so
    v_j''(0) = 0.  Hence g^T v''(0) = 0, but the theta^2 coefficient of
    g^T v = theta^2/2 needs g^T v''(0) = 1.
    """
    # a probe reports singular and stage_* before any weight row
    worst = check.violations[0] if check.violations else None
    if worst is not None and worst.condition.startswith(("singular", "stage")):
        return PrescreenViolation(
            condition="stage-conditions-at-r",
            detail="the stage conditions fail at the requested r regardless of "
            f"weights (first violation: {worst.condition} at {worst.index})",
            lhs=worst.value,
        )
    if order >= 2 and r > 0 and np.any(tab.A[0] != 0.0):
        return PrescreenViolation(
            condition="zero-first-row",
            detail="order-2 dense output with positive SSP coefficient needs "
            "the first row of A identically zero",
        )
    if order >= 3 and np.all(tab.A >= 0.0):
        return PrescreenViolation(
            condition="order-3-barrier",
            detail="order-3 dense output with positive SSP coefficient does "
            "not exist for a tableau with A >= 0",
        )
    if order == 2 and degree == 2 and is_family_member(tab):
        s = tab.s
        # Uniqueness pins the quadratic coefficients to 1/s, so the first
        # weight is theta - ((s-1)/s) theta^2; its peak, at theta* =
        # s/(2(s-1)) in [1/2, 1] for every s >= 2, must respect 1/r.
        theta_star = s / (2.0 * (s - 1.0))
        peak = theta_star - (s - 1.0) / s * theta_star**2
        if peak > 1.0 / r + SIGN_TOL:
            return PrescreenViolation(
                condition="family-quadratic-peak",
                detail="the unique quadratic candidate exceeds the step "
                "budget at its peak",
                theta=theta_star,
                lhs=peak,
                rhs=1.0 / r,
            )
    return None


def _equalities(tab, order, D, r) -> tuple[np.ndarray, np.ndarray]:
    """Monomial-coefficient rows of the dense order conditions up to order,
    then the derivative pins at theta=0 when order >= 2 and r > 0."""
    s = tab.s
    blocks, rhs = [], []
    for _, level, stage_factors, target in dense_order_conditions(tab):
        if level > order:
            continue
        # Powers above D carry no variables, so their rows are zero; a
        # nonzero demand there is a structural contradiction the LP must report.
        target = poly.pad(target, D + 1)
        blocks.append(np.kron(stage_factors, np.eye(len(target) - 1, D)))
        rhs.append(target[1:])
    if order >= 2 and r > 0:
        blocks.append(np.kron(np.eye(s), np.eye(1, D)))
        rhs.append(np.eye(1, s)[0])
    A_eq = np.vstack(blocks)
    b_eq = np.concatenate(rhs)
    keep = np.any(A_eq != 0.0, axis=1) | (b_eq != 0.0)
    return A_eq[keep], b_eq[keep]


# theta = 0 and the first Bernstein coefficient (the value at 0) would only
# give 0 <= 0 rows, so both bases skip them.
def _collocation_basis(D: int) -> np.ndarray:
    """Powers 1..D at D + ELEVATION + 1 Chebyshev points."""
    return np.power(chebyshev_lobatto(D + ELEVATION + 1)[1:, None], np.arange(1, D + 1))


def _bernstein_basis(D: int) -> np.ndarray:
    """Bernstein coefficients at degree D + ELEVATION of powers 1..D."""
    return bernstein_matrix(D + ELEVATION)[1:, 1 : D + 1]


def build_lp(
    tab: ButcherTableau,
    order: int,
    degree: int,
    r: float,
) -> LpProblem:
    """Assemble the collocation relaxation LP.

    Equalities match monomial coefficients of the dense order conditions up
    to the requested order (rows that are structurally zero are dropped; a
    zero row with nonzero right-hand side is kept and makes the LP
    infeasible).  When order >= 2 and r > 0 the derivative pins at theta=0
    (first-stage linear coefficient 1, all others 0) are added; they are
    necessary for any order-2 dense output with positive SSP coefficient.
    Inequalities impose the transformed-weight nonnegativity and the step
    budget at degree + ELEVATION + 1 Chebyshev points, so an infeasible
    relaxation proves that no weights exist.  Replacing ``basis`` gives
    another LP with the same equalities.  A row that overflows raises
    InvalidArgumentError.
    """
    A_eq, b_eq = _equalities(tab, order, degree, r)
    with np.errstate(over="ignore"):
        conditions = -condition_map(resolvent(tab, r), r)
    if not (np.isfinite(A_eq).all() and np.isfinite(conditions).all()):
        # the solver rejects such rows; no weights can be found from them
        raise InvalidArgumentError(f"the LP rows at r={r} are not finite")
    return LpProblem(
        s=tab.s,
        degree=degree,
        A_eq=A_eq,
        b_eq=b_eq,
        conditions=conditions,
        basis=_collocation_basis(degree),
    )


def _margin_rows(problem: LpProblem) -> np.ndarray:
    """Mask of the inequality rows outside the row space of the equalities,
    from one SVD of A_eq: its right singular vectors with sigma above 1e-9
    sigma_max, a prefix of Vt, span that space.  The rows inside it, such as
    the first Bernstein coefficients that the theta=0 pins fix, can keep no
    margin."""
    sigma, Vt = np.linalg.svd(problem.A_eq, full_matrices=False)[1:]
    Vt = Vt[: np.count_nonzero(sigma > 1e-9 * sigma[0])]
    A = problem.A_ub
    return np.linalg.norm(A - (A @ Vt.T) @ Vt, axis=1) > 1e-9 * np.linalg.norm(A, axis=1)


def _solve_lp(problem: LpProblem, margin: bool = True) -> DenseWeights | None:
    """Weights of the LP over free coefficients (None if infeasible), with
    the margin on _margin_rows maximized, or at a vertex if not margin."""
    mask = _margin_rows(problem) if margin else None
    result = phase1_feasible(problem.A_eq, problem.b_eq, problem.A_ub, problem.b_ub, mask)
    if not result.feasible:
        return None
    coeffs = np.zeros((problem.s, problem.degree + 1))
    coeffs[:, 1:] = result.x.reshape(problem.s, problem.degree)
    return DenseWeights(coeffs)


def _certify_candidate(tab, weights, order, r) -> bool:
    report = dense_order_residuals(tab, weights)
    if any(
        norm > 1e-10
        for lvl, norm in zip(report.levels, report.max_norms)
        if lvl <= order
    ):
        return False
    check = monotonicity_feasible_dense(tab, weights, r)
    return check.feasible


def lp_search(
    tab: ButcherTableau,
    order: int,
    degree: int,
    r: float,
) -> SearchResult:
    """Search for dense weights of the requested order and degree feasible at r.

    Closed-form causes are screened first, and an "infeasible" from one of
    them names it in violated_necessary: stage-conditions-at-r (the stage
    conditions fail at r), zero-first-row (order >= 2 needs a zero first row
    of A), order-3-barrier (order >= 3 with A >= 0) or family-quadratic-peak
    (the unique quadratic of a family member exceeds the step budget).  Then
    at most three LPs run, with the same equalities:

    1. the Bernstein restriction: every transformed weight and the budget must
       have nonnegative Bernstein coefficients at degree D + ELEVATION, which
       implies the continuous conditions; its max-margin point (_solve_lp)
       that certifies is "feasible", and so is its vertex if that point fails
       certification;
    2. the relaxation at D + ELEVATION + 1 collocation points: infeasible
       means "infeasible", a point that certifies is "feasible", and any
       other point leaves the verdict "inconclusive".

    An LP that the solver stops without a verdict (NumericalCycleError: at
    the iteration bound or by a numerical breakdown) ends the search
    "inconclusive".  Every "feasible" carries weights certified continuously
    in the Bernstein basis; "infeasible" and "inconclusive" carry none.
    The weights vanish at theta = 0, but nothing pins w(1) = b: a feasible
    formula's value at theta = 1 can differ from the step's.
    """
    levels = sorted({level for _, level, _, _ in dense_order_conditions(tab)})
    if order not in levels:
        raise InvalidArgumentError(f"order must be one of {levels}")
    if degree < 1:
        raise InvalidArgumentError("degree must be at least 1")
    if degree > MAX_DEGREE:
        # the certifier could not convert the candidate; fail before any LP
        raise DegreeTooHighError(f"degree {degree} exceeds {MAX_DEGREE}")
    if r <= 0:
        raise InvalidArgumentError("r must be positive")
    method_check = monotonicity_feasible_method(tab, r)
    if not method_check.feasible:
        warnings.warn(
            "requested r exceeds the method's SSP coefficient", stacklevel=2
        )
    violation = _prescreen(tab, order, degree, r, method_check)
    if violation is not None:
        return SearchResult("infeasible", None, violation)
    relaxation = build_lp(tab, order, degree, r)
    restriction = replace(relaxation, basis=_bernstein_basis(degree))
    try:
        # a vertex certifies where some rows must touch zero (at r = C, say)
        for margin in (True, False):
            weights = _solve_lp(restriction, margin)
            if weights is None:
                break
            if _certify_candidate(tab, weights, order, r):
                return SearchResult("feasible", weights)
        weights = _solve_lp(relaxation)
    except NumericalCycleError:
        # An LP the solver stopped without a verdict decides nothing.
        return SearchResult("inconclusive", None)
    if weights is None:
        return SearchResult("infeasible", None)
    if _certify_candidate(tab, weights, order, r):
        return SearchResult("feasible", weights)
    return SearchResult("inconclusive", None)
