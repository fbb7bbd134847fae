"""Every name a ``repro`` package exports has a caller outside the tests.

Public API that only the tests call is code to read, test and keep bitwise
through every kernel rewrite, for no user.  For every entry of a ``repro``
package's ``__all__``, this scan requires at least one reference in the
code outside ``tests/``: ``src/``, ``benchmarks/``, ``examples/``,
``scripts/`` and ``perfbench/`` (its own tests excluded).  A reference is a
Python name token, so strings, comments and docstrings do not count, and
neither do the name's own ``def``/``class`` line nor a package
``__init__``'s re-export.  A name kept on purpose for the tests alone is
listed in :data:`TEST_ONLY` with the reason.
"""

from __future__ import annotations

import ast
import functools
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples", "scripts", "perfbench")

#: Exports whose only callers are tests, each with the reason it stays.
TEST_ONLY = {
    "multi_information_from_samples": (
        "the exact plug-in reference test_infotheory_decomposition compares "
        "the decomposition against"
    ),
}


def _exports() -> dict[str, list[str]]:
    """Every ``__all__`` entry of a ``repro`` package, with the packages exporting it."""
    exports: dict[str, list[str]] = {}
    for init in sorted(PACKAGE.rglob("__init__.py")):
        for node in ast.parse(init.read_text(encoding="utf8")).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                package = init.parent.relative_to(ROOT / "src").as_posix().replace("/", ".")
                for element in node.value.elts:
                    exports.setdefault(element.value, []).append(package)
    return exports


def _caller_files() -> list[Path]:
    files = []
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.relative_to(ROOT).parts[:2] != ("perfbench", "tests"):
                files.append(path)
    return files


def _count_names(text: str, *, package_init: bool) -> Counter:
    """Name tokens of ``text``, without ``def``/``class`` names and ``__init__`` re-exports."""
    reexport_lines: set[int] = set()
    if package_init:
        for node in ast.parse(text).body:
            if isinstance(node, ast.ImportFrom):
                reexport_lines.update(range(node.lineno, node.end_lineno + 1))
    counts: Counter = Counter()
    previous = None
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type != tokenize.NAME:
            if token.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.COMMENT):
                previous = None
            continue
        if previous not in ("def", "class") and token.start[0] not in reexport_lines:
            counts[token.string] += 1
        previous = token.string
    return counts


@functools.cache
def _references() -> Counter:
    """Name-token references in every caller file."""
    counts: Counter = Counter()
    for path in _caller_files():
        text = path.read_text(encoding="utf8")
        counts += _count_names(text, package_init=path.name == "__init__.py")
    return counts


class TestPublicSurface:
    def test_every_export_has_a_caller_outside_the_tests(self):
        references = _references()
        uncalled = {
            name: packages
            for name, packages in _exports().items()
            if references[name] == 0 and name not in TEST_ONLY
        }
        assert not uncalled, (
            "exported but referenced by no code outside tests/ (delete them, or "
            f"list them in TEST_ONLY with a reason): {uncalled}"
        )

    def test_test_only_names_are_exported_and_still_test_only(self):
        exports = _exports()
        for name, reason in TEST_ONLY.items():
            assert reason
            assert name in exports, f"{name} is no longer exported; drop it from TEST_ONLY"
            assert _references()[name] == 0, f"{name} has a caller now; drop it from TEST_ONLY"

    def test_only_uses_count(self):
        source = (
            "from repro.x import (\n"
            "    alpha,\n"
            ")\n"
            "def beta():\n"
            "    return gamma  # alpha\n"
            "class Delta:\n"
            "    name = 'alpha'\n"
            "beta(Delta)\n"
        )
        init = _count_names(source, package_init=True)
        assert (init["alpha"], init["beta"], init["gamma"], init["Delta"]) == (0, 1, 1, 1)
        module = _count_names(source, package_init=False)
        assert module["alpha"] == 1  # an import outside a package __init__ is a use
