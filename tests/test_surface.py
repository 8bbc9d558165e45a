"""Every public function, class and class member of the package has a consumer.

A consumer is a reference from `src/` outside the name's own definition,
from the acceptance suite or the test fixtures, from `tools/` or from
`perfbench/`.  Unit tests of the name itself do not count: a name that
only its own tests call is dead surface.  References are `ast.Name` and
`ast.Attribute` nodes and imported names; docstrings and other strings
do not count.  A member (field, method or property of a public class) is
consumed only by an `ast.Attribute` read outside its own class body: a
constructor argument is a write, not a read.  A read on the argparse
namespace `args` names an option, so it consumes neither a member nor a
function.
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

# Orphans whose deletion is scheduled (ROADMAP open item 8) but not yet
# done, so that one change does not take away more than a few dozen unit
# tests at once.  A deferred class defers its members too.  This set only
# ever shrinks.
DEFERRED = {
    ("resolvent", "trace_fluctuation"),
    ("resolvent", "TraceFluctuation"),
}


def _walk(node, skip=None):
    """The nodes of `node`, not descending into `skip`."""
    stack = [node]
    while stack:
        n = stack.pop()
        if n is not skip:
            yield n
            stack.extend(ast.iter_child_nodes(n))


def _on_args(node) -> bool:
    """Whether `node` is an attribute of the argparse namespace `args`."""
    return isinstance(node.value, ast.Name) and node.value.id == "args"


def _references(node, skip=None) -> set:
    """Names referenced in `node`, not descending into `skip`."""
    out = set()
    for n in _walk(node, skip):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and not _on_args(n):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
    return out


def _attribute_reads(node, skip=None) -> set:
    """Attribute names read (not written) in `node`, not descending into `skip`."""
    return {n.attr for n in _walk(node, skip)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and not _on_args(n)}


def _members(cls: ast.ClassDef) -> list:
    """Public fields (annotated assignments), methods and properties."""
    names = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        elif isinstance(node, ast.FunctionDef):
            names.append(node.name)
    return [name for name in names if not name.startswith("_")]


def _orphans(src: Path, consumers: list) -> list:
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    consumer_trees = [ast.parse(path.read_text()) for path in consumers]
    outside = set().union(*map(_references, consumer_trees))
    read_outside = set().union(*map(_attribute_reads, consumer_trees))
    orphans = []
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if (stem, node.name) in DEFERRED:
                continue
            if not (node.name in outside
                    or any(node.name in _references(other, skip=node) for other in modules.values())):
                orphans.append(f"{stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            reads = read_outside.union(
                *(_attribute_reads(other, skip=node) for other in modules.values()))
            orphans += [f"{stem}.{node.name}.{m}" for m in _members(node) if m not in reads]
    return orphans


def test_every_public_name_has_a_consumer():
    orphans = _orphans(SRC, CONSUMERS)
    assert not orphans, "public names with no consumer: " + ", ".join(orphans)


def test_guard_sees_an_orphan(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass Record:\n    read: int\n    written: int\n\n"
        "def used():\n    return helper() + Record(read=1, written=2).read\n\n"
        "def helper():\n    '''mentions dead() in a docstring'''\n    return 1\n\n"
        "def dead():\n    return dead()\n"
    )
    user = tmp_path / "user.py"
    # an option of the same name read off the argparse namespace is no reader
    user.write_text("from pkg.a import used\n\ndef main(args):\n    return used() + args.written\n")
    assert _orphans(pkg, [user]) == ["a.Record.written", "a.dead"]
