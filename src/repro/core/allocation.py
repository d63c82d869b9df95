"""Resource allocation across Best-Effort applications (Sec. IV-C/D).

Given placements (task assignment paths) for a set of BE applications, the
rates are chosen by weighted proportional fairness — Problem (4):

    maximize   sum_j  P_j * log(x_j)
    subject to R X <= C,

where ``x_j`` is application ``j``'s total processing rate (summed over its
paths), ``R`` stacks the per-unit loads of every path on every
(element, resource) pair, and ``C`` is the residual capacity vector.

Three solvers are provided and cross-checked in the test suite:

* :func:`solve_single_constraint` — the closed form when exactly one
  capacity constraint binds (rates split proportionally to priority);
* :func:`solve_dual` — a projected dual subgradient method (one variable
  per single-path application; fast, dependency-free);
* :func:`solve_slsqp` — SciPy SLSQP on the general multipath problem.

:func:`solve_proportional_fairness` picks the right one automatically.

The module also implements the Theorem-3 capacity *prediction* of Eq. (6):
before placing a new BE application ``J`` with priority ``P_J``, each
element already hosting applications ``J_n`` only offers ``J`` the share
``P_J / (P_J + sum of P_J')`` of its capacity, which is what application
``J`` would end up with under proportional fairness.  Feeding the predicted
capacities to Algorithm 2 decouples task assignment from arrival order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.placement import CapacityView, Loads, Placement, merge_loads
from repro.exceptions import AllocationError

#: Rates below this are treated as zero when reporting.
RATE_EPSILON = 1e-12


@dataclass(frozen=True)
class BEApp:
    """A Best-Effort application entering the allocation problem.

    ``placements`` holds one entry per task assignment path.  ``priority``
    is the weight ``P_j`` in Problem (4); the paper's availability loop adds
    paths until the requested availability is met, so multiple paths per
    application are first-class here.
    """

    app_id: str
    priority: float
    placements: tuple[Placement, ...]

    def __post_init__(self) -> None:
        if self.priority <= 0:
            raise AllocationError(f"app {self.app_id!r} has non-positive priority")
        if not self.placements:
            raise AllocationError(f"app {self.app_id!r} has no placements")
        object.__setattr__(self, "placements", tuple(self.placements))


@dataclass
class AllocationResult:
    """Solved rates: per application and per path.

    ``app_rates[app_id]`` is the application's total processing rate;
    ``path_rates[app_id]`` its per-path split; ``utility`` the achieved
    value of the Problem-(4) objective.
    """

    app_rates: dict[str, float]
    path_rates: dict[str, tuple[float, ...]]
    utility: float
    solver: str
    iterations: int = 0
    residuals: dict[tuple[str, str], float] = field(default_factory=dict)


@dataclass
class _Matrices:
    """Problem (4) in matrix form: A x <= c, one column per path."""

    a: np.ndarray  # (n_constraints, n_paths)
    c: np.ndarray  # (n_constraints,)
    rows: list[tuple[str, str]]  # (element, resource) per constraint row
    app_of_path: list[int]  # path column -> app index
    apps: list[BEApp]


def build_matrices(apps: Sequence[BEApp], capacities: CapacityView) -> _Matrices:
    """Stack per-path loads into the constraint matrix of Problem (4).

    Only (element, resource) pairs loaded by at least one path become rows.
    Raises :class:`AllocationError` when some loaded element has zero
    residual capacity — no positive rate vector can satisfy ``A x <= c``
    then, and ``log`` utilities need strictly positive rates.
    """
    if not apps:
        raise AllocationError("no applications to allocate")
    row_index: dict[tuple[str, str], int] = {}
    columns: list[dict[tuple[str, str], float]] = []
    app_of_path: list[int] = []
    for app_idx, app in enumerate(apps):
        for placement in app.placements:
            column: dict[tuple[str, str], float] = {}
            for element, bucket in placement.loads().items():
                for resource, load in bucket.items():
                    if load <= 0.0:
                        continue
                    key = (element, resource)
                    row_index.setdefault(key, len(row_index))
                    column[key] = column.get(key, 0.0) + load
            columns.append(column)
            app_of_path.append(app_idx)
    n_rows, n_cols = len(row_index), len(columns)
    if n_rows == 0:
        raise AllocationError("placements impose no load; rates are unbounded")
    a = np.zeros((n_rows, n_cols))
    c = np.zeros(n_rows)
    rows = [None] * n_rows  # type: ignore[list-item]
    for key, r in row_index.items():
        rows[r] = key
        c[r] = capacities.capacity(*key)
    for col, column in enumerate(columns):
        for key, load in column.items():
            a[row_index[key], col] = load
    binding_zero = [rows[r] for r in range(n_rows) if c[r] <= 0 and a[r].max() > 0]
    if binding_zero:
        raise AllocationError(
            f"loaded elements have zero residual capacity: {sorted(binding_zero)}"
        )
    empty_columns = [col for col in range(n_cols) if not columns[col]]
    if empty_columns:
        offenders = sorted({apps[app_of_path[col]].app_id for col in empty_columns})
        raise AllocationError(
            f"apps {offenders} have paths that impose no load; their rates "
            "would be unbounded under a log utility"
        )
    return _Matrices(a, c, rows, app_of_path, list(apps))


def _result_from_path_rates(
    mats: _Matrices, x: np.ndarray, solver: str, iterations: int
) -> AllocationResult:
    x = np.maximum(x, 0.0)
    app_rates: dict[str, float] = {}
    path_rates: dict[str, list[float]] = {}
    for col, app_idx in enumerate(mats.app_of_path):
        app = mats.apps[app_idx]
        app_rates[app.app_id] = app_rates.get(app.app_id, 0.0) + float(x[col])
        path_rates.setdefault(app.app_id, []).append(float(x[col]))
    utility = 0.0
    for app in mats.apps:
        rate = app_rates[app.app_id]
        utility += app.priority * math.log(max(rate, RATE_EPSILON))
    slack = mats.c - mats.a @ x
    residuals = {mats.rows[r]: float(slack[r]) for r in range(len(mats.rows))}
    return AllocationResult(
        app_rates,
        {k: tuple(v) for k, v in path_rates.items()},
        utility,
        solver,
        iterations,
        residuals,
    )


# ----------------------------------------------------------------------
# Solver 1: closed form when a single constraint binds
# ----------------------------------------------------------------------
def solve_single_constraint(apps: Sequence[BEApp], capacities: CapacityView) -> AllocationResult:
    """Exact solution of Problem (4) when only one constraint row exists.

    With one shared constraint ``sum_j a_j x_j <= c``, KKT gives
    ``x_j = (P_j / sum_m P_m) * c / a_j`` — each application receives a
    capacity share proportional to its priority (Theorem 3 in miniature).
    Raises when the problem has more than one constraint row.
    """
    mats = build_matrices(apps, capacities)
    if mats.a.shape[0] != 1:
        raise AllocationError(
            f"closed form needs exactly one constraint row, got {mats.a.shape[0]}"
        )
    if mats.a.shape[1] != len(apps):
        raise AllocationError("closed form supports one path per application")
    priorities = np.array([app.priority for app in mats.apps])
    total_priority = priorities.sum()
    c = float(mats.c[0])
    x = np.zeros(len(apps))
    for j, app in enumerate(mats.apps):
        a_j = float(mats.a[0, j])
        if a_j <= 0:
            raise AllocationError(f"app {app.app_id!r} places no load on the constraint")
        x[j] = (app.priority / total_priority) * c / a_j
    return _result_from_path_rates(mats, x, "closed-form", 1)


# ----------------------------------------------------------------------
# Solver 2: dual subgradient (single path per app)
# ----------------------------------------------------------------------
def solve_dual(
    apps: Sequence[BEApp],
    capacities: CapacityView,
    *,
    max_iterations: int = 2000,
) -> AllocationResult:
    """Smooth dual solver for Problem (4) (one path per application).

    The Lagrangian decomposes per application as
    ``x_j(lambda) = P_j / (lambda . a_j)``, which turns the dual into the
    smooth convex problem

        minimize over lambda >= 0 of  lambda . c - sum_j P_j log(lambda . a_j),

    solved here with L-BFGS-B.  The recovered primal point is polished onto
    the feasible region with a uniform shrink (strong duality makes the
    duality gap zero at the optimum, so the shrink is a no-op up to solver
    tolerance).  Requires one path per application — the log-of-sum coupling
    of multipath needs :func:`solve_slsqp`.
    """
    # Imported here: scipy.optimize is ~0.4 s of interpreter start that
    # the serving path (which never solves Problem (4)) must not pay.
    from scipy import optimize

    mats = build_matrices(apps, capacities)
    if mats.a.shape[1] != len(apps):
        raise AllocationError("dual solver supports one path per application")
    priorities = np.array([app.priority for app in mats.apps])
    a, c = mats.a, mats.c
    lower = 1e-14

    def dual_value_and_grad(lam: np.ndarray) -> tuple[float, np.ndarray]:
        denom = a.T @ lam  # (n_apps,)
        denom = np.maximum(denom, lower)
        value = float(lam @ c - priorities @ np.log(denom))
        x = priorities / denom
        gradient = c - a @ x
        return value, gradient

    # Scale-aware start: each constraint alone would be roughly binding.
    lam0 = np.array([priorities.sum() / max(c[r], 1e-12) for r in range(len(c))])
    solution = optimize.minimize(
        dual_value_and_grad,
        lam0,
        jac=True,
        bounds=[(lower, None)] * len(c),
        method="L-BFGS-B",
        options={"maxiter": max_iterations, "ftol": 1e-15, "gtol": 1e-12},
    )
    lam = np.maximum(np.asarray(solution.x), lower)
    x = priorities / np.maximum(a.T @ lam, lower)
    usage = a @ x
    with np.errstate(divide="ignore", invalid="ignore"):
        over = np.max(np.where(c > 0, usage / c, 0.0))
    if over > 1.0:
        x = x / over
    return _result_from_path_rates(mats, x, "dual", int(solution.nit))


# ----------------------------------------------------------------------
# Solver 3: SLSQP on the general multipath problem
# ----------------------------------------------------------------------
def solve_slsqp(
    apps: Sequence[BEApp],
    capacities: CapacityView,
    *,
    max_iterations: int = 500,
) -> AllocationResult:
    """SciPy SLSQP on Problem (4) with per-path variables.

    Handles the general case: multiple paths per application with the
    concave objective ``sum_j P_j log(sum of j's path rates)``.
    """
    from scipy import optimize  # function-local: see solve_dual

    mats = build_matrices(apps, capacities)
    n_paths = mats.a.shape[1]
    priorities = np.array([app.priority for app in mats.apps])
    app_of_path = np.array(mats.app_of_path)
    n_apps = len(mats.apps)

    def app_totals(x: np.ndarray) -> np.ndarray:
        totals = np.zeros(n_apps)
        np.add.at(totals, app_of_path, x)
        return totals

    def objective(x: np.ndarray) -> float:
        totals = np.maximum(app_totals(x), RATE_EPSILON)
        return -float(np.sum(priorities * np.log(totals)))

    def gradient(x: np.ndarray) -> np.ndarray:
        totals = np.maximum(app_totals(x), RATE_EPSILON)
        return -(priorities / totals)[app_of_path]

    # Feasible strictly positive start: split each row's capacity evenly.
    with np.errstate(divide="ignore"):
        per_path_cap = np.min(
            np.where(mats.a > 0, mats.c[:, None] / np.where(mats.a > 0, mats.a, 1.0), np.inf),
            axis=0,
        )
    base = np.where(np.isfinite(per_path_cap), per_path_cap, 1.0) / (n_paths + 1)
    base = np.maximum(base, 1e-9)

    constraints = [
        {
            "type": "ineq",
            "fun": lambda x: mats.c - mats.a @ x,
            "jac": lambda x: -mats.a,
        }
    ]
    bounds = [(1e-12, None)] * n_paths

    def polish(x: np.ndarray) -> np.ndarray:
        """Shrink uniformly onto the feasible region."""
        x = np.maximum(np.asarray(x), 1e-12)
        usage = mats.a @ x
        with np.errstate(divide="ignore", invalid="ignore"):
            over = np.max(np.where(mats.c > 0, usage / mats.c, 0.0))
        return x / over if over > 1.0 else x

    # SLSQP occasionally stalls ("positive directional derivative"); retry
    # from progressively more conservative interior points and keep the
    # best feasible outcome.
    best_x: np.ndarray | None = None
    best_value = math.inf
    iterations = 0
    last_message = ""
    for scale in (1.0, 0.1, 0.01):
        solution = optimize.minimize(
            objective,
            base * scale,
            jac=gradient,
            bounds=bounds,
            constraints=constraints,
            method="SLSQP",
            options={"maxiter": max_iterations, "ftol": 1e-12},
        )
        last_message = str(solution.message)
        candidate = polish(solution.x)
        value = objective(candidate)
        if math.isfinite(value) and value < best_value:
            best_value = value
            best_x = candidate
            iterations = int(solution.nit)
        if solution.success:
            break
    if best_x is None:
        raise AllocationError(f"SLSQP failed from every start: {last_message}")
    return _result_from_path_rates(mats, best_x, "slsqp", iterations)


def solve_proportional_fairness(
    apps: Sequence[BEApp],
    capacities: CapacityView,
    *,
    method: str = "auto",
) -> AllocationResult:
    """Solve Problem (4), dispatching to the appropriate solver.

    ``method`` is ``"auto"`` (dual when every app has one path, else
    SLSQP), or one of ``"closed-form"``, ``"dual"``, ``"slsqp"``.
    """
    single_path = all(len(app.placements) == 1 for app in apps)
    if method == "auto":
        method = "dual" if single_path else "slsqp"
    if method == "closed-form":
        return solve_single_constraint(apps, capacities)
    if method == "dual":
        return solve_dual(apps, capacities)
    if method == "slsqp":
        return solve_slsqp(apps, capacities)
    raise AllocationError(f"unknown allocation method {method!r}")


# ----------------------------------------------------------------------
# Theorem 3 / Eq. (6): capacity prediction for a newly arriving BE app
# ----------------------------------------------------------------------
def predict_capacity_factors(
    new_priority: float,
    tenants: Sequence[tuple[float, Sequence[Placement]]],
) -> dict[str, float]:
    """Per-element Eq. (6) share factors for a newly arriving BE app.

    ``tenants`` lists ``(priority, placements)`` of the already-placed BE
    applications.  For every element hosting at least one tenant task, the
    factor is ``P_new / (P_new + sum of tenant priorities on the element)``;
    untouched elements get no entry (factor 1 implicitly).  Reproduces the
    paper's example: one tenant at priority ``P`` and a newcomer at ``2P``
    yields ``2/3``.
    """
    if new_priority <= 0:
        raise AllocationError("the arriving application needs a positive priority")
    tenant_priority_on: dict[str, float] = {}
    for priority, placements in tenants:
        if priority <= 0:
            raise AllocationError("tenant priorities must be positive")
        touched: set[str] = set()
        for placement in placements:
            touched |= placement.used_elements()
        for element in touched:
            tenant_priority_on[element] = tenant_priority_on.get(element, 0.0) + priority
    return {
        element: new_priority / (new_priority + total)
        for element, total in tenant_priority_on.items()
    }


def predicted_view(
    capacities: CapacityView,
    new_priority: float,
    tenants: Sequence[tuple[float, Sequence[Placement]]],
) -> CapacityView:
    """A capacity view scaled by the Eq. (6) factors (Theorem 3 prediction)."""
    return capacities.scaled(predict_capacity_factors(new_priority, tenants))


def aggregate_loads(placements: Sequence[Placement]) -> Loads:
    """Total per-unit load of several paths (for capacity bookkeeping)."""
    return merge_loads(p.loads() for p in placements)
