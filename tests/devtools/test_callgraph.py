"""Unit tests for the project symbol table / call-edge resolver."""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

from repro.devtools.callgraph import (
    ProjectIndex,
    dotted_chain,
    module_name_for,
)
from repro.devtools.engine import FileContext


def _ctx(relpath: str, source: str) -> FileContext:
    text = textwrap.dedent(source).strip() + "\n"
    return FileContext(
        path=Path("/nonexistent") / relpath,
        relpath=relpath,
        source=text,
        tree=ast.parse(text),
        lines=tuple(text.splitlines()),
    )


def _index(**files: str) -> ProjectIndex:
    summaries = {
        relpath: ProjectIndex.extract_module(_ctx(relpath, source))
        for relpath, source in files.items()
    }
    return ProjectIndex(summaries)


class TestHelpers:
    def test_module_name_strips_src_prefix(self):
        assert module_name_for("src/repro/service/server.py") == (
            "repro.service.server"
        )
        assert module_name_for("src/repro/service/__init__.py") == (
            "repro.service"
        )
        assert module_name_for("tests/conftest.py") == "tests.conftest"

    def test_dotted_chain(self):
        expr = ast.parse("a.b.c(1)").body[0].value
        assert dotted_chain(expr.func) == "a.b.c"
        chained = ast.parse("get_loop().create_task(x)").body[0].value
        assert dotted_chain(chained.func) == "get_loop.create_task"
        subscript = ast.parse("handlers[0](x)").body[0].value
        assert dotted_chain(subscript.func) is None


class TestExtraction:
    def test_locks_and_functions(self):
        index = _index(
            **{
                "pkg/mod.py": """
                import threading

                GLOBAL_LOCK = threading.Lock()


                class Box:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self._data = []

                    def push(self, item):
                        with self._lock:
                            self._data.append(item)
                """
            }
        )
        summary = index.summaries["pkg/mod.py"]
        # Functions and methods are indexed; locks are not facts any more.
        assert sorted(summary) == ["functions", "imports", "module", "relpath"]
        assert set(summary["functions"][0]) == {
            "qualname", "name", "cls", "line", "is_async", "calls",
        }
        assert "pkg.mod.Box.push" in index.functions

    def test_nested_def_calls_not_attributed_to_parent(self):
        index = _index(
            **{
                "pkg/mod.py": """
                def outer():
                    def inner():
                        helper()
                    return inner


                def helper():
                    pass
                """
            }
        )
        outer = index.functions["pkg.mod.outer"]
        assert not any(c["dotted"] == "helper" for c in outer["calls"])
        inner = index.functions["pkg.mod.outer.inner"]
        assert any(c["dotted"] == "helper" for c in inner["calls"])

    def test_await_flag_recorded(self):
        index = _index(
            **{
                "pkg/mod.py": """
                import asyncio


                async def main():
                    await asyncio.sleep(1)
                    asyncio.ensure_future(main())
                """
            }
        )
        calls = {
            c["dotted"]: c for c in index.functions["pkg.mod.main"]["calls"]
        }
        assert calls["asyncio.sleep"]["awaited"] is True
        assert calls["asyncio.ensure_future"]["awaited"] is False


class TestResolution:
    def test_self_method_resolves_within_class(self):
        index = _index(
            **{
                "pkg/mod.py": """
                class Worker:
                    def run(self):
                        self.step()

                    def step(self):
                        pass
                """
            }
        )
        caller = index.functions["pkg.mod.Worker.run"]
        assert index.resolve(caller, "self.step", module="pkg.mod") == [
            "pkg.mod.Worker.step"
        ]

    def test_bare_name_follows_import_map(self):
        index = _index(
            **{
                "pkg/a.py": """
                from pkg.b import helper


                def run():
                    helper()
                """,
                "pkg/b.py": """
                def helper():
                    pass
                """,
            }
        )
        caller = index.functions["pkg.a.run"]
        assert index.resolve(caller, "helper", module="pkg.a") == [
            "pkg.b.helper"
        ]

    def test_facade_reexport_followed(self):
        index = _index(
            **{
                "pkg/api.py": """
                from pkg.impl import real
                """,
                "pkg/impl.py": """
                def real():
                    pass
                """,
                "pkg/user.py": """
                from pkg import api


                def go():
                    api.real()
                """,
            }
        )
        caller = index.functions["pkg.user.go"]
        assert index.resolve(caller, "api.real", module="pkg.user") == [
            "pkg.impl.real"
        ]

    def test_unknown_receiver_falls_back_to_cha(self):
        index = _index(
            **{
                "pkg/a.py": """
                class A:
                    def refresh(self):
                        pass
                """,
                "pkg/b.py": """
                class B:
                    def refresh(self):
                        pass
                """,
            }
        )
        caller = {"cls": None, "qualname": "x.f", "name": "f"}
        resolved = index.resolve(caller, "obj.refresh", module="pkg.c")
        assert resolved == ["pkg.a.A.refresh", "pkg.b.B.refresh"]

    def test_files_matching(self):
        index = _index(
            **{
                "service/server.py": "x = 1",
                "service/client.py": "y = 2",
                "perf/timer.py": "z = 3",
            }
        )
        assert index.files_matching("service/server.py") == [
            "service/server.py"
        ]
        assert index.files_matching() == [
            "perf/timer.py", "service/client.py", "service/server.py",
        ]
