"""Every public name of the package is read by the package, the benchmark or a demo, not only by its tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mpschain"

#: Public names only the tests read, each kept for the reason given.
ALLOWED = {
    "verify.closed_form_deviations": "the acceptance battery's API (tests/test_acceptance.py)",
    "verify.sector_agreement": "the acceptance battery's API (tests/test_acceptance.py)",
    "verify.generating_identity_deviation": "the acceptance battery's API (tests/test_acceptance.py)",
    "models.spin_form_report": "the acceptance battery's API (tests/test_acceptance.py)",
    "models.det_closed_form": "criterion 4's quoted determinant form (tests/test_acceptance.py)",
}


def public_names(tree: ast.Module):
    """(name, node) of each public module-level def, class and assignment, and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = [t.id for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                     if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def reads(tree: ast.AST) -> Counter:
    """How often the tree loads each name or reads each attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute))


def unread_public_names() -> list[str]:
    """'module.name' of each public name that src/ (outside its own definition and
    __init__'s re-exports), benchmarks/ and demos/ never read."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in (SRC, ROOT / "benchmarks", ROOT / "demos") for path in sorted(folder.glob("*.py"))}
    del trees[SRC / "__init__.py"]
    total = sum((reads(tree) for tree in trees.values()), Counter())
    out = []
    for path, tree in trees.items():
        if path.parent == SRC:
            for name, node in public_names(tree):
                last = name.rsplit(".", 1)[-1]
                if total[last] == reads(node)[last]:
                    out.append(f"{path.stem}.{name}")
    return out


def test_every_public_name_is_read_outside_the_tests():
    # an unread name is deleted or allowed with a reason; an allowed name goes once it is read or deleted
    assert sorted(unread_public_names()) == sorted(ALLOWED)
