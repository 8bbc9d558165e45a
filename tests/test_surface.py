"""Every public function and class of the package has a consumer.

A consumer is a reference from `src/` outside the name's own definition,
from the acceptance suite or the test fixtures, from `tools/` or from
`perfbench/`.  Unit tests of the name itself do not count: a name that
only its own tests call is dead surface.  References are `ast.Name` and
`ast.Attribute` nodes and imported names; docstrings and other strings
do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "zetaumm"
CONSUMERS = [
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "conftest.py",
    *sorted((ROOT / "tools").rglob("*.py")),
    *sorted((ROOT / "perfbench").rglob("*.py")),
]

EXEMPT = {
    # the README tells users to pass zero ordinates to pair_correlation
    # through it
    ("ensemble", "unfold_zeros"),
    # the artifact reader that the CLI round-trip tests use
    ("output", "read_csv"),
}

# Orphans whose deletion is scheduled (ROADMAP open item 6) but not yet
# done, so that one change does not take away more than a few dozen unit
# tests at once.  This set only ever shrinks.
DEFERRED = {
    ("resolvent", "trace_fluctuation"),
    ("wavelets", "ladder_apply"),
    ("wavelets", "ladder_word"),
}


def _references(node, skip=None) -> set:
    """Names referenced in `node`, not descending into `skip`."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(n))
    return out


def _orphans(src: Path, consumers: list) -> list:
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    outside = set()
    for path in consumers:
        outside |= _references(ast.parse(path.read_text()))
    orphans = []
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in outside or (stem, node.name) in EXEMPT | DEFERRED:
                continue
            if any(node.name in _references(other, skip=node) for other in modules.values()):
                continue
            orphans.append(f"{stem}.{node.name}")
    return orphans


def test_every_public_name_has_a_consumer():
    orphans = _orphans(SRC, CONSUMERS)
    assert not orphans, "public names with no consumer: " + ", ".join(orphans)


def test_guard_sees_an_orphan(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    '''mentions dead() in a docstring'''\n    return 1\n\n"
        "def dead():\n    return dead()\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from pkg.a import used\n")
    assert _orphans(pkg, [user]) == ["a.dead"]
