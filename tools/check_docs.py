#!/usr/bin/env python
"""Fail if the documentation names symbols that do not exist.

Five checks, run from the repository root (``python tools/check_docs.py``;
CI runs it on one Python version):

1. every name in every export list — ``repro.__all__`` and the
   ``__all__`` of each module under ``repro`` (``repro.__main__``, which
   runs the CLI on import, is skipped) — must resolve to an attribute of
   its module (the public surface is documented by name in docs/API.md
   and elsewhere, so a rename or deletion that forgets an export list
   must break the build);
2. every backticked dotted reference matching ``repro(.module)+`` in
   the checked documentation files (``CHECKED_DOCS``) must
   import/resolve — call parentheses and argument lists are ignored,
   only the dotted path is checked;
3. every ``docs/*.md`` file must be registered in ``CHECKED_DOCS`` — a
   doc added without registering it here is a doc whose references
   nobody verifies;
4. every repository path (``benchmarks/…``, ``tools/…``, ``examples/…``,
   ``tests/…``, ``src/…``, ``BENCH*.json``; glob patterns and
   placeholders skipped) and every ``repro <verb>`` /
   ``python -m repro <verb>`` inside code markup of the checked files
   plus ``PATH_CHECKED_DOCS`` must exist — as a file or directory of
   this checkout, or as a registered sub-parser of ``repro.cli``;
5. every backticked ``Name.attr`` in the same files whose ``Name`` is in
   ``repro.__all__`` must name a member of that export — an attribute, or
   an annotation (which covers every dataclass field); call parentheses
   are ignored.
"""

from __future__ import annotations

import argparse
import importlib
import pkgutil
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"

#: documentation files whose ``repro.*`` references must resolve — every
#: file under docs/ must appear here (check 3 enforces it)
CHECKED_DOCS = (
    DOCS_DIR / "API.md",
    DOCS_DIR / "ARCHITECTURE.md",
    DOCS_DIR / "DATA_LAYOUT.md",
    DOCS_DIR / "DURABILITY.md",
    DOCS_DIR / "MAINTENANCE.md",
    DOCS_DIR / "OBSERVABILITY.md",
    DOCS_DIR / "PAPER_MAP.md",
    DOCS_DIR / "PLANNING.md",
    DOCS_DIR / "RESILIENCE.md",
    DOCS_DIR / "SERVING.md",
    DOCS_DIR / "SHARDING.md",
)

#: the root documents that, with ``CHECKED_DOCS``, may name only files
#: and CLI verbs that exist (check 4)
PATH_CHECKED_DOCS = (
    REPO_ROOT / "README.md",
    REPO_ROOT / "EXPERIMENTS.md",
    REPO_ROOT / "DESIGN.md",
)

#: a backticked reference starting with ``repro.``: keep the leading
#: dotted-identifier run, drop any call syntax or trailing prose
REFERENCE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")


#: code markup: a fenced block, or an inline backticked span (which may
#: wrap over a line end but not over a blank line)
CODE = re.compile(r"```.*?```|`(?:[^`\n]|\n(?!\n))+`", re.DOTALL)

#: a repository path inside code markup
REPO_PATH = re.compile(
    r"(?<![\w/.-])"
    r"((?:benchmarks|tools|examples|tests|src)/[^\s`'\"(),;]*"
    r"|BENCH\w*\.json)"
)

#: what marks a path as a glob pattern or a placeholder, not one file
NOT_ONE_PATH = re.compile(r"[*?\[\]{}<>…]")

#: ``repro <verb>`` at the start of a code line, or ``-m repro <verb>``
#: anywhere in it; the verb may be a ``{a,b,c}`` list, flags before it
#: are skipped
CLI_VERB = re.compile(
    r"(?:^\W*repro|-m repro(?:\.cli)?)\s+(?:-\S+\s+)*"
    r"(\{[^}]*\}|[a-z][a-z-]*)",
    re.MULTILINE,
)


def _label(doc: Path) -> str:
    try:
        return str(doc.relative_to(REPO_ROOT))
    except ValueError:  # a doc outside the repo (tests)
        return str(doc)


def resolve(path: str) -> bool:
    """Can ``path`` be reached by importing modules and getattr-ing?"""
    parts = path.split(".")
    # find the longest importable module prefix
    obj = None
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        break
    if obj is None:
        return False
    for attr in parts[cut:]:
        try:
            obj = getattr(obj, attr)
        except AttributeError:
            return False
    return True


def check_exports() -> list[str]:
    import repro

    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"
    ]
    errors = []
    for module in modules:
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                errors.append(
                    f"{module.__name__}.__all__ names missing symbol {name!r}"
                )
    return errors


def check_doc_references() -> list[str]:
    errors = []
    for doc in CHECKED_DOCS:
        label = _label(doc)
        if not doc.is_file():
            errors.append(f"{label} is registered in CHECKED_DOCS but missing")
            continue
        text = doc.read_text(encoding="utf-8")
        for path in sorted(set(REFERENCE.findall(text))):
            if not resolve(path):
                errors.append(f"{label} references unresolvable {path!r}")
    return errors


def check_all_docs_registered() -> list[str]:
    registered = {doc.name for doc in CHECKED_DOCS}
    errors = []
    for doc in sorted(DOCS_DIR.glob("*.md")):
        if doc.name not in registered:
            errors.append(
                f"docs/{doc.name} is not registered in "
                "tools/check_docs.py CHECKED_DOCS"
            )
    return errors


def registered_verbs() -> set[str]:
    """The sub-parsers ``repro.cli`` registers."""
    from repro.cli import _build_parser

    return {
        verb
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
        for verb in action.choices
    }


def check_paths_and_verbs(docs=CHECKED_DOCS + PATH_CHECKED_DOCS) -> list[str]:
    verbs = registered_verbs()
    errors = []
    for doc in docs:
        if not doc.is_file():
            continue  # check 2 reports a registered doc that is missing
        label = _label(doc)
        stale_paths, stale_verbs = set(), set()
        for code in CODE.findall(doc.read_text(encoding="utf-8")):
            for path in REPO_PATH.findall(code):
                # drop a pytest node id / line number and end punctuation
                path = re.split(r"::|:\d", path)[0].rstrip(".:")
                if not (
                    NOT_ONE_PATH.search(path) or (REPO_ROOT / path).exists()
                ):
                    stale_paths.add(path)
            for named in CLI_VERB.findall(code):
                stale_verbs.update(
                    set(re.split(r"[\s,]+", named.strip("{}"))) - verbs - {""}
                )
        errors += [
            f"{label} names missing path {path!r}"
            for path in sorted(stale_paths)
        ]
        errors += [
            f"{label} names unregistered CLI verb {verb!r}"
            for verb in sorted(stale_verbs)
        ]
    return errors


def has_member(obj, attr: str) -> bool:
    """Is ``attr`` an attribute of ``obj``, or annotated on it or a base
    (dataclass fields without a default are only annotations)?"""
    return hasattr(obj, attr) or any(
        attr in vars(klass).get("__annotations__", {})
        for klass in getattr(obj, "__mro__", ())
    )


def check_member_references(
    docs=CHECKED_DOCS + PATH_CHECKED_DOCS,
) -> list[str]:
    import repro

    exports = sorted(name for name in repro.__all__ if not name.startswith("_"))
    member = re.compile(
        r"`(%s)\.([A-Za-z_][A-Za-z0-9_]*)" % "|".join(exports)
    )
    errors = []
    for doc in docs:
        if not doc.is_file():
            continue  # check 2 reports a registered doc that is missing
        label = _label(doc)
        text = doc.read_text(encoding="utf-8")
        for name, attr in sorted(set(member.findall(text))):
            if not has_member(getattr(repro, name), attr):
                errors.append(f"{label} names missing member '{name}.{attr}'")
    return errors


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    errors = (
        check_exports()
        + check_doc_references()
        + check_all_docs_registered()
        + check_paths_and_verbs()
        + check_member_references()
    )
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    if not errors:
        checked = ", ".join(
            str(doc.relative_to(REPO_ROOT)) for doc in CHECKED_DOCS
        )
        print(
            "check_docs: every repro export list, "
            f"{checked} references, and the paths, CLI verbs and export "
            "members they and README.md, EXPERIMENTS.md, DESIGN.md name OK"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
