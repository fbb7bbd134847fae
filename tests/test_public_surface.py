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

The public methods and properties of every exported class are scanned the
same way: a member counts as used when some caller file reads an attribute
of that name (``x.name``, inside f-strings too), so its own ``def`` line,
comments and docstrings do not count.  A member kept for the tests alone is
listed in :data:`TEST_ONLY_MEMBERS` with the reason.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import io
import tokenize
import types
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

#: Public methods and properties of exported classes whose only callers are
#: tests, each with the reason it stays.
TEST_ONLY_MEMBERS = {
    "AdaptiveDriftEngine.resolved": (
        "the engine tests read which kernel an auto engine is on; the kernels agree bit "
        "for bit, so no result shows it"
    ),
    "RigidTransform.angle": "the procrustes and ICP tests read the fitted rotation angle",
    "RigidTransform.inverse": "the ICP test fixtures move a target by a known inverse transform",
    "EnsembleSimulator.remove_observer": (
        "the observer-contract tests detach an observer; add_observer's other half"
    ),
    "PlanExecution.n_external": (
        "completes n_computed / n_cached for shared stores; the lease-adoption test reads it"
    ),
}

#: Class attributes that count as methods or properties.
MEMBER_KINDS = (
    types.FunctionType,
    property,
    classmethod,
    staticmethod,
    functools.cached_property,
)


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


def _count_attributes(text: str) -> Counter:
    """Attribute names read in ``text``: the ``name`` of every ``x.name``."""
    return Counter(
        node.attr for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Attribute)
    )


def _public_members() -> dict[str, str]:
    """``Class.member`` of every public method and property of an exported class."""
    members: dict[str, str] = {}
    for name, packages in _exports().items():
        for package in packages:
            exported = getattr(importlib.import_module(package), name)
            if not inspect.isclass(exported):
                continue
            for member, value in vars(exported).items():
                if not member.startswith("_") and isinstance(value, MEMBER_KINDS):
                    members[f"{exported.__name__}.{member}"] = member
    return members


@functools.cache
def _attribute_references() -> Counter:
    """Attribute reads in every caller file."""
    counts: Counter = Counter()
    for path in _caller_files():
        counts += _count_attributes(path.read_text(encoding="utf8"))
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

    def test_every_public_member_has_a_caller_outside_the_tests(self):
        references = _attribute_references()
        uncalled = sorted(
            qualified
            for qualified, member in _public_members().items()
            if references[member] == 0 and qualified not in TEST_ONLY_MEMBERS
        )
        assert not uncalled, (
            "public methods/properties read by no code outside tests/ (delete them, or "
            f"list them in TEST_ONLY_MEMBERS with a reason): {uncalled}"
        )

    def test_test_only_members_exist_and_are_still_test_only(self):
        members = _public_members()
        for qualified, reason in TEST_ONLY_MEMBERS.items():
            assert reason
            assert qualified in members, f"{qualified} is gone; drop it from TEST_ONLY_MEMBERS"
            assert _attribute_references()[members[qualified]] == 0, (
                f"{qualified} has a caller now; drop it from TEST_ONLY_MEMBERS"
            )

    def test_only_attribute_reads_count_for_members(self):
        source = (
            "class Probe:\n"
            "    def name(self):\n"
            '        """x.quiet in a docstring"""\n'
            "        return self.other  # x.silent\n"
            "x.name\n"
            "print(f'{y.formatted():.3f}')\n"
        )
        counts = _count_attributes(source)
        assert (counts["name"], counts["other"], counts["formatted"]) == (1, 1, 1)
        assert (counts["Probe"], counts["quiet"], counts["silent"]) == (0, 0, 0)
        assert _count_attributes("def name():\n    pass\n")["name"] == 0
