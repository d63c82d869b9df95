"""The built-in SPARCLE lint rules (SPC001–SPC006).

Each rule encodes an invariant whose violation has already cost a real
debugging session in this repo's history (see ``docs/static-analysis.md``
for the rule-by-rule rationale and the originating bugs):

* **SPC001** — raw resource-name string literals where the
  :mod:`repro.core.taskgraph` constants are required;
* **SPC002** — ``random`` / ``numpy.random`` use outside the seeded
  :mod:`repro.utils.rng` path (determinism guard);
* **SPC003** — read-modify-write on shared ``self._*`` dict state outside
  a ``with lock:`` block in :mod:`repro.perf`;
* **SPC004** — ``==`` / ``!=`` between float-typed rate/capacity
  expressions in ``core/`` and ``simulator/`` (epsilon discipline);
* **SPC005** — attribute or element assignment on frozen values
  (``ResidualSnapshot`` / the array kernel's ``CompiledNetwork`` CSR
  arrays);
* **SPC006** — bare or broad ``except`` clauses (``except:`` /
  ``except Exception`` / ``except BaseException``) outside a small
  documented allowlist (silent-degradation guard).

Allowlists are part of each rule's definition, not suppressions in the
linted code: a JSON schema legitimately spells ``"bandwidth"`` in
``core/scenario.py``, and the networkx edge attribute in
``core/routing.py`` predates the constants.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator

from repro.core.taskgraph import BANDWIDTH, CPU, MEMORY
from repro.devtools.engine import FileContext, Rule, Violation

#: Resource names that must be spelled via the canonical constants.
RESOURCE_CONSTANTS = {
    CPU: "CPU",
    MEMORY: "MEMORY",
    BANDWIDTH: "BANDWIDTH",
}

_SNAKE = re.compile(r"[a-z0-9]+")


def _tokens(identifier: str) -> frozenset[str]:
    """Snake-case tokens of an identifier, lowercased."""
    return frozenset(_SNAKE.findall(identifier.lower()))


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _matches_any(relpath: str, suffixes: Iterable[str]) -> bool:
    return any(relpath.endswith(suffix) for suffix in suffixes)


class ResourceLiteralRule(Rule):
    """SPC001: raw ``"cpu"`` / ``"memory"`` / ``"bandwidth"`` literals.

    PR 1 fixed an outage-handling bug in ``scheduler.py`` caused by a raw
    ``"bandwidth"`` literal drifting from the canonical constant; resource
    keys must be spelled via :data:`repro.core.taskgraph.CPU` /
    ``MEMORY`` / ``BANDWIDTH`` so a typo is an ImportError, not a silent
    zero-capacity lookup.
    """

    rule_id = "SPC001"
    summary = "raw resource-name literal; use the core.taskgraph constants"

    #: Files where the bare strings are the point, not a drift hazard.
    ALLOWLIST = (
        "core/taskgraph.py",   # the definition site of the constants
        "core/routing.py",     # networkx edge attribute name
        "core/scenario.py",  # JSON field names of the scenario format
        "emulator/scenario.py",  # the same module's original import path
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if _matches_any(ctx.relpath, self.ALLOWLIST):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in RESOURCE_CONSTANTS
            ):
                constant = RESOURCE_CONSTANTS[node.value]
                yield ctx.violation(
                    node, self.rule_id,
                    f"raw resource literal {node.value!r}; use "
                    f"repro.core.taskgraph.{constant}",
                )


class UnseededRandomnessRule(Rule):
    """SPC002: randomness outside the seeded ``utils/rng.py`` path.

    The simulator's traces, the Hypothesis suites, and workflow-style
    seeding all assume every stochastic draw flows through
    :func:`repro.utils.rng.ensure_rng`.  A stray ``import random`` or
    ``np.random.default_rng()`` call silently breaks run-to-run
    reproducibility.
    """

    rule_id = "SPC002"
    summary = "randomness outside repro.utils.rng; pass an rng through ensure_rng"

    ALLOWLIST = ("utils/rng.py",)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if _matches_any(ctx.relpath, self.ALLOWLIST):
            return
        numpy_aliases = {"numpy"}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield ctx.violation(
                            node, self.rule_id,
                            "import of the stdlib 'random' module; use "
                            "repro.utils.rng.ensure_rng instead",
                        )
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
                    if alias.name.startswith("numpy.random"):
                        yield ctx.violation(
                            node, self.rule_id,
                            "direct numpy.random import; use "
                            "repro.utils.rng.ensure_rng instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "random" or module.startswith("random."):
                    yield ctx.violation(
                        node, self.rule_id,
                        "import from the stdlib 'random' module; use "
                        "repro.utils.rng.ensure_rng instead",
                    )
                elif module.startswith("numpy.random") or (
                    module == "numpy"
                    and any(alias.name == "random" for alias in node.names)
                ):
                    yield ctx.violation(
                        node, self.rule_id,
                        "direct numpy.random import; use "
                        "repro.utils.rng.ensure_rng instead",
                    )
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if len(parts) >= 3 and parts[0] in numpy_aliases and parts[1] == "random":
                    yield ctx.violation(
                        node, self.rule_id,
                        f"direct call {dotted}(...); draw from a Generator "
                        "obtained via repro.utils.rng.ensure_rng",
                    )


class UnlockedSharedMutationRule(Rule):
    """SPC003: dict read-modify-write on ``self._*`` state outside a lock.

    PR 3 fixed lost-update races where ``repro.perf`` registries ran
    ``self._counts[key] = self._counts.get(key, 0) + n`` without holding
    ``self._lock``.  In the concurrently-driven modules, every
    read-modify-write of instance dict state must sit inside a
    ``with <...lock...>:`` block.
    """

    rule_id = "SPC003"
    summary = "read-modify-write on shared instance state outside a lock"

    #: Only modules that are documented as thread-shared are in scope
    #: (the single-threaded, lock-free admission gateway is not).
    SCOPE_DIRS = ("perf/",)

    def _in_scope(self, relpath: str) -> bool:
        return any(f"/{d}" in f"/{relpath}" for d in self.SCOPE_DIRS)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not self._in_scope(ctx.relpath):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.FunctionDef) and node.name != "__init__":
                yield from self._check_function(ctx, node)

    # ------------------------------------------------------------------
    def _check_function(
        self, ctx: FileContext, func: ast.FunctionDef
    ) -> Iterator[Violation]:
        yield from self._walk_block(ctx, func.body, locked=False)

    def _walk_block(
        self, ctx: FileContext, body: list[ast.stmt], *, locked: bool
    ) -> Iterator[Violation]:
        for stmt in body:
            if isinstance(stmt, ast.With):
                inner = locked or any(
                    self._is_lock_expr(item.context_expr) for item in stmt.items
                )
                yield from self._walk_block(ctx, stmt.body, locked=inner)
            elif isinstance(stmt, ast.FunctionDef):
                # Nested defs (callbacks) run later, outside this lock —
                # the outer ast.walk visits them as their own functions,
                # starting unlocked, so no recursion here.
                continue
            elif isinstance(stmt, (ast.If, ast.For, ast.While)):
                yield from self._walk_block(ctx, stmt.body, locked=locked)
                yield from self._walk_block(ctx, stmt.orelse, locked=locked)
            elif isinstance(stmt, ast.Try):
                yield from self._walk_block(ctx, stmt.body, locked=locked)
                for handler in stmt.handlers:
                    yield from self._walk_block(ctx, handler.body, locked=locked)
                yield from self._walk_block(ctx, stmt.orelse, locked=locked)
                yield from self._walk_block(ctx, stmt.finalbody, locked=locked)
            elif not locked:
                violation = self._rmw_violation(ctx, stmt)
                if violation is not None:
                    yield violation

    @staticmethod
    def _is_lock_expr(expr: ast.expr) -> bool:
        for node in ast.walk(expr):
            name = None
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            if name is not None and "lock" in name.lower():
                return True
        return False

    @staticmethod
    def _self_attr_of_subscript(target: ast.expr) -> str | None:
        """``attr`` when target is ``self.<attr>[...]``, else ``None``."""
        if (
            isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and isinstance(target.value.value, ast.Name)
            and target.value.value.id == "self"
        ):
            return target.value.attr
        return None

    def _rmw_violation(self, ctx: FileContext, stmt: ast.stmt) -> Violation | None:
        if isinstance(stmt, ast.AugAssign):
            attr = self._self_attr_of_subscript(stmt.target)
            if attr is not None:
                return ctx.violation(
                    stmt, self.rule_id,
                    f"augmented assignment to self.{attr}[...] outside a "
                    "'with lock:' block",
                )
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            attr = self._self_attr_of_subscript(stmt.targets[0])
            if attr is not None and self._reads_self_attr(stmt.value, attr):
                return ctx.violation(
                    stmt, self.rule_id,
                    f"read-modify-write of self.{attr}[...] outside a "
                    "'with lock:' block",
                )
        return None

    @staticmethod
    def _reads_self_attr(expr: ast.expr, attr: str) -> bool:
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == attr
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return True
        return False


class FloatEqualityRule(Rule):
    """SPC004: ``==`` / ``!=`` between float rate/capacity expressions.

    Rates and capacities are accumulated floats; the processor-sharing
    boundary fixes showed that exact equality on them flips on rounding
    noise.  Compare with an epsilon (``math.isclose`` or an explicit
    tolerance), or use ``<=`` / ``>=`` against exact sentinels.
    """

    rule_id = "SPC004"
    summary = "float equality on rate/capacity expressions; use a tolerance"

    #: Identifier tokens that mark an expression as a float quantity.
    STEMS = frozenset({
        "rate", "rates", "capacity", "capacities", BANDWIDTH,
        "bottleneck", "residual", "headroom", "load", "loads",
    })

    SCOPE_DIRS = ("core/", "simulator/")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not any(f"/{d}" in f"/{ctx.relpath}" for d in self.SCOPE_DIRS):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if self._pair_is_suspect(left, right):
                    yield ctx.violation(
                        node, self.rule_id,
                        "exact float comparison of a rate/capacity "
                        "expression; compare with a tolerance",
                    )

    def _pair_is_suspect(self, left: ast.expr, right: ast.expr) -> bool:
        lr, rr = self._rate_like(left), self._rate_like(right)
        if lr and rr:
            return True
        return (lr and self._float_const(right)) or (rr and self._float_const(left))

    @staticmethod
    def _float_const(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, float)

    def _rate_like(self, node: ast.expr) -> bool:
        if isinstance(node, ast.BinOp):
            return self._rate_like(node.left) or self._rate_like(node.right)
        if isinstance(node, ast.Call):
            return self._rate_like(node.func)
        identifier = None
        if isinstance(node, ast.Attribute):
            identifier = node.attr
        elif isinstance(node, ast.Name):
            identifier = node.id
        if identifier is None:
            return False
        return bool(_tokens(identifier) & self.STEMS)


class FrozenSnapshotMutationRule(Rule):
    """SPC005: mutation of frozen snapshot / compiled-network values.

    ``ResidualSnapshot`` is immutable by contract — it is what the event
    log records and a warm start thaws.  ``CompiledNetwork`` (the CSR
    arrays behind the array route kernel) is likewise frozen: its numpy
    arrays are shared by every cached tree, and all carry
    ``writeable=False``, so a write that slips past this rule still raises
    at runtime — but only at the call site, far from the bug.  Writing
    through either — attribute assignment, element assignment
    (``compiled.tie_rank[i] = ...``), or ``object.__setattr__`` — corrupts
    every holder of the value.
    """

    rule_id = "SPC005"
    summary = "mutation of a frozen snapshot or compiled-network value"

    FROZEN_CONSTRUCTORS = frozenset(
        {"ResidualSnapshot", "CompiledNetwork"}
    )
    FROZEN_FACTORIES = frozenset(
        {"freeze", "compile_network"}
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        frozen_names = self._collect_frozen_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and self._is_frozen_name(target.value.id, frozen_names)
                    ):
                        yield ctx.violation(
                            node, self.rule_id,
                            f"attribute assignment on frozen value "
                            f"{target.value.id!r} ({target.value.id}."
                            f"{target.attr} = ...)",
                        )
                    elif isinstance(target, ast.Subscript):
                        # Element writes into a frozen value's arrays:
                        # compiled.fwd_targets[i] = ... or snapshot[k] = ...
                        base = target.value
                        name = None
                        spelled = ""
                        if (
                            isinstance(base, ast.Attribute)
                            and isinstance(base.value, ast.Name)
                        ):
                            name = base.value.id
                            spelled = f"{name}.{base.attr}[...]"
                        elif isinstance(base, ast.Name):
                            name = base.id
                            spelled = f"{name}[...]"
                        if name is not None and self._is_frozen_name(
                            name, frozen_names
                        ):
                            yield ctx.violation(
                                node, self.rule_id,
                                f"element assignment into frozen value "
                                f"{name!r} ({spelled} = ...)",
                            )
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted == "object.__setattr__" and node.args:
                    first = node.args[0]
                    if isinstance(first, ast.Name) and self._is_frozen_name(
                        first.id, frozen_names
                    ):
                        yield ctx.violation(
                            node, self.rule_id,
                            f"object.__setattr__ on frozen snapshot {first.id!r}",
                        )

    def _collect_frozen_names(self, tree: ast.Module) -> frozenset[str]:
        names: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            func = node.value.func
            frozen = (
                isinstance(func, ast.Name) and func.id in self.FROZEN_CONSTRUCTORS
            ) or (
                isinstance(func, ast.Attribute)
                and (
                    func.attr in self.FROZEN_CONSTRUCTORS
                    or func.attr in self.FROZEN_FACTORIES
                )
            )
            if frozen:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return frozenset(names)

    @staticmethod
    def _is_frozen_name(identifier: str, frozen_names: frozenset[str]) -> bool:
        lowered = identifier.lower()
        return (
            identifier in frozen_names
            or lowered.endswith("snapshot")
            or lowered.endswith("compiled")
            or lowered.startswith("compiled")
        )


class BroadExceptRule(Rule):
    """SPC006: bare or broad ``except`` clauses outside the allowlist.

    The array kernel once shipped with two ``except Exception:`` blocks
    that silently degraded its (since deleted) JIT body to pure Python on
    *any* failure — including plain bugs — which is exactly how a 10x
    slowdown hides for months.  Catch the specific expected exception
    types; when a catch-all is genuinely the contract (a CLI boundary
    that converts anything into an exit code, a sandbox around
    user-supplied operators), the file goes on the allowlist with a
    rationale, not behind a suppression comment.  The fixed tree ships
    with an empty violation baseline: any new broad except fails lint.
    """

    rule_id = "SPC006"
    summary = "bare/broad except clause; catch the expected exception types"

    #: Exception names that catch everything.
    BROAD = frozenset({"Exception", "BaseException"})

    #: Files where a documented catch-all boundary is the contract.
    ALLOWLIST = (
        "repro/cli.py",        # CLI surface: anything becomes an exit code
        "runtime/engine.py",   # user-operator sandbox: failures -> outcome errors
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if _matches_any(ctx.relpath, self.ALLOWLIST):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield ctx.violation(
                    node, self.rule_id,
                    "bare 'except:' clause; name the expected exception "
                    "types",
                )
                continue
            for expr in self._clause_types(node.type):
                name = self._exception_name(expr)
                if name in self.BROAD:
                    yield ctx.violation(
                        node, self.rule_id,
                        f"'except {name}' swallows unexpected failures; "
                        "catch the specific expected types (or allowlist "
                        "the file with a rationale)",
                    )
                    break

    @staticmethod
    def _clause_types(expr: ast.expr) -> list[ast.expr]:
        if isinstance(expr, ast.Tuple):
            return list(expr.elts)
        return [expr]

    @staticmethod
    def _exception_name(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Attribute):  # builtins.Exception
            return expr.attr
        return None


#: The rule set ``sparcle lint`` runs by default, in report order.
DEFAULT_RULES: tuple[Rule, ...] = (
    ResourceLiteralRule(),
    UnseededRandomnessRule(),
    UnlockedSharedMutationRule(),
    FloatEqualityRule(),
    FrozenSnapshotMutationRule(),
    BroadExceptRule(),
)
