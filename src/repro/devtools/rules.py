"""The built-in SPARCLE lint rules (SPC001, SPC004, SPC006).

Each rule encodes an invariant whose violation has already cost a real
debugging session in this repo's history, and whose planted bug tier-1
misses (see ``docs/static-analysis.md`` for the rule-by-rule rationale,
the originating bugs, and the plants):

* **SPC001** — raw resource-name string literals where the
  :mod:`repro.core.taskgraph` constants are required;
* **SPC004** — ``==`` / ``!=`` between float-typed rate/capacity
  expressions in ``core/`` and ``simulator/`` (epsilon discipline);
* **SPC006** — bare or broad ``except`` clauses (``except:`` /
  ``except Exception`` / ``except BaseException``) outside a small
  documented allowlist (silent-degradation guard).

Retired IDs, not reused: SPC003 (unguarded read-modify-write in the
lock-guarded ``repro.perf`` registries) left with those locks; SPC002
(unseeded randomness) and SPC005 (frozen-value mutation) left because
tier-1 catches their planted bugs — the same-seed determinism tests and
the frozen dataclasses / read-only arrays respectively.

Allowlists are part of each rule's definition, not suppressions in the
linted code: a JSON schema legitimately spells ``"bandwidth"`` in
``core/scenario.py``.
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
    FloatEqualityRule(),
    BroadExceptRule(),
)
