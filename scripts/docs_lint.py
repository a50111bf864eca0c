#!/usr/bin/env python
"""Documentation lint for the reproduction tree.

Five checks, all enforced by ``make docs-lint`` (and the CI lint job):

1. every Python module under ``src/repro/`` carries a non-empty module
   docstring that names its paper anchor — a Section/Table/Figure
   reference (or the word "paper") tying the code back to Grad & Plessl,
   "Just-in-Time Instruction Set Extension" (RAW/IPDPS 2011);
2. every relative markdown link in the top-level docs (README.md,
   DESIGN.md, EXPERIMENTS.md, ROADMAP.md, docs/*.md) resolves to an
   existing file;
3. README.md links the architecture tour (docs/ARCHITECTURE.md) and the
   dispatch architecture guide (docs/VM.md);
4. every ``python -m repro`` subcommand registered in ``src/repro/cli.py``
   appears in the README's command table — a new subcommand without a
   README row fails the lint;
5. every ``python -m repro <name>`` example in the current docs
   (README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md, bench/README.md and
   the verify skill) names a registered subcommand, so a retired command
   cannot linger in an example. ROADMAP.md and CHANGES.md are history
   and may name retired commands.

The subcommand checks are is AST-based (no ``repro`` import: the CI lint job
installs no third-party packages, and ``repro`` pulls numpy),
so it understands both registration idioms used in ``cli.py``: direct
``sub.add_parser("name", ...)`` calls and the loop form
``for name, ... in (("jit", ...), ...): sub.add_parser(name, ...)``.

Exits non-zero listing every violation.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: What counts as a paper anchor inside a module docstring.
ANCHOR = re.compile(r"Section|Table|Figure|Fig\.|paper", re.IGNORECASE)

#: Markdown files whose relative links must resolve.
DOC_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")

#: Docs whose ``python -m repro <name>`` examples must name a registered
#: subcommand (with docs/*.md).
EXAMPLE_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "bench/README.md",
    ".claude/skills/verify/SKILL.md",
)

#: A CLI example: the subcommand name after ``python -m repro``.
REPRO_EXAMPLE = re.compile(r"python -m repro ([a-z][\w-]*)")

#: Inline markdown links: [text](target). Reference-style links are not
#: used in this tree.
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_docstrings() -> list[str]:
    problems: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(REPO)
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            problems.append(f"{rel}: does not parse ({exc})")
            continue
        doc = ast.get_docstring(tree)
        if not doc or not doc.strip():
            problems.append(f"{rel}: missing module docstring")
        elif not ANCHOR.search(doc):
            problems.append(
                f"{rel}: module docstring names no paper anchor "
                "(Section/Table/Figure/paper)"
            )
    return problems


def check_links() -> list[str]:
    problems: list[str] = []
    files = [REPO / name for name in DOC_FILES]
    files += sorted((REPO / "docs").glob("*.md"))
    for doc in files:
        if not doc.is_file():
            continue
        for lineno, line in enumerate(
            doc.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for target in MD_LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = (doc.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{doc.relative_to(REPO)}:{lineno}: broken link "
                        f"-> {target}"
                    )
    return problems


def check_architecture_link() -> list[str]:
    readme = REPO / "README.md"
    if not readme.is_file():
        return ["README.md: missing"]
    text = readme.read_text(encoding="utf-8")
    problems = []
    for target in ("docs/ARCHITECTURE.md", "docs/VM.md"):
        if target not in text:
            problems.append(f"README.md: does not link {target}")
    return problems


def _is_sub_add_parser(node: ast.AST) -> bool:
    """True for a ``sub.add_parser(...)`` call (top-level subcommands only;
    nested subparsers hang off ``runs_sub`` / ``cache_sub``)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_parser"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "sub"
    )


def cli_subcommands() -> set[str]:
    """Every top-level ``python -m repro`` subcommand name in cli.py."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in ast.walk(tree):
        # Idiom 1: sub.add_parser("analyze", ...)
        if _is_sub_add_parser(node) and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                names.add(arg.value)
        # Idiom 2: for name, ... in (("jit", ...), ("timeline", ...)):
        #              sub.add_parser(name, ...)
        if isinstance(node, ast.For) and any(
            _is_sub_add_parser(call) for call in ast.walk(node)
        ):
            if isinstance(node.iter, (ast.Tuple, ast.List)):
                for elt in node.iter.elts:
                    if isinstance(elt, (ast.Tuple, ast.List)) and elt.elts:
                        first = elt.elts[0]
                        if isinstance(first, ast.Constant) and isinstance(
                            first.value, str
                        ):
                            names.add(first.value)
    return names


def check_cli_coverage() -> list[str]:
    """Every CLI subcommand must appear in the README command table."""
    readme = REPO / "README.md"
    if not readme.is_file():
        return ["README.md: missing"]
    text = readme.read_text(encoding="utf-8")
    problems: list[str] = []
    for name in sorted(cli_subcommands()):
        # Whole names only: a `repro bench-vm` row must not stand in for
        # a command named by its prefix.
        if not re.search(rf"repro {re.escape(name)}(?![\w-])", text):
            problems.append(
                f"README.md: command table has no row for "
                f"`python -m repro {name}`"
            )
    return problems


def check_examples() -> list[str]:
    """Every ``python -m repro <name>`` example names a subcommand."""
    names = cli_subcommands()
    files = [REPO / name for name in EXAMPLE_FILES]
    files += sorted((REPO / "docs").glob("*.md"))
    problems: list[str] = []
    for doc in files:
        if not doc.is_file():
            continue
        for lineno, line in enumerate(
            doc.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for name in REPRO_EXAMPLE.findall(line):
                if name not in names:
                    problems.append(
                        f"{doc.relative_to(REPO)}:{lineno}: "
                        f"`python -m repro {name}` is not a subcommand"
                    )
    return problems


def main() -> int:
    problems = (
        check_docstrings()
        + check_links()
        + check_architecture_link()
        + check_cli_coverage()
        + check_examples()
    )
    for problem in problems:
        print(problem)
    if problems:
        print(f"\ndocs-lint: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("docs-lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
