"""Every import in a package module is read by that module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mpschain"


def unused_imports(path: Path) -> list[str]:
    """'file:line name' for each imported name the module never reads.

    Names listed in __all__ count as read, and an import statement with
    `# noqa: F401` on any of its lines is exempt, as in flake8.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_no_unused_imports_in_the_package():
    assert [u for path in sorted(SRC.glob("*.py")) for u in unused_imports(path)] == []
