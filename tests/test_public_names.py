"""Every public name of the package is read by the package, the benchmark or a demo, not only by its tests.

A read is resolved, not matched by spelling, so a local variable or parameter that
shares a public name does not count:
- a module-level name is read by `module.name`, by a load of the name a
  `from .module import name` binds, or, in its own module, by a load that
  `symtable` resolves to the module global;
- a method or property is read by an attribute read of its name.
"""

import ast
import symtable
from collections import defaultdict, deque
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mpschain"
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__", "__main__"}

#: Public names only the tests read, each kept for the reason given.
ALLOWED = {
    "verify.closed_form_deviations": "the acceptance battery's API (tests/test_acceptance.py)",
    "verify.sector_agreement": "the acceptance battery's API (tests/test_acceptance.py)",
    "verify.generating_identity_deviation": "the acceptance battery's API (tests/test_acceptance.py)",
    "models.spin_form_report": "the acceptance battery's API (tests/test_acceptance.py)",
    "models.det_closed_form": "criterion 4's quoted determinant form (tests/test_acceptance.py)",
    "mps.TransferSpectrum.rho": "the acceptance battery's spectral correlation lengths (_spectral_xi)",
    "mps.TransferSpectrum.projectors": "_spectral_xi's dominant group; what a diagnostics channel would report",
    "mps.amplitudes": "the label-keyed amplitude oracle of the genstate, mps, ring-oracle and symmetry tests",
}

#: The scope nodes symtable gives a table of their own, with the name it gives that table.
_SCOPE_NAMES = {ast.Lambda: "lambda", ast.ListComp: "listcomp", ast.SetComp: "setcomp",
                ast.DictComp: "dictcomp", ast.GeneratorExp: "genexpr"}


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


def global_loads(tree: ast.Module, source: str) -> list[ast.Name]:
    """Each Name load of tree that symtable resolves to a module global, not to a local,
    a parameter or a variable of an enclosing function."""
    out = []

    def child_tables(table):
        kids = defaultdict(deque)
        for child in table.get_children():
            kids[child.get_name(), child.get_lineno()].append(child)
        return kids

    def visit(node, table, kids):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            try:
                resolved_global = table.lookup(node.id).is_global()
            except KeyError:  # an annotation symtable leaves out
                resolved_global = True
            if resolved_global:
                out.append(node)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, *_SCOPE_NAMES)):
            outer, inner = _split_scope(node)
            for part in outer:
                visit(part, table, kids)
            name = getattr(node, "name", None) or _SCOPE_NAMES[type(node)]
            scope = kids[name, node.lineno].popleft()  # a mismatch raises here rather than misresolving
            scope_kids = child_tables(scope)
            for part in inner:
                visit(part, scope, scope_kids)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, table, kids)

    top = symtable.symtable(source, "<module>", "exec")
    visit(tree, top, child_tables(top))
    return out


def _split_scope(node) -> tuple[list, list]:
    """The parts of a scope node evaluated in the enclosing scope, and those evaluated in its own."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        outer = [*args.defaults, *(d for d in args.kw_defaults if d is not None)]
        if not isinstance(node, ast.Lambda):
            every = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
            outer += [*node.decorator_list, *(a.annotation for a in every if a is not None and a.annotation),
                      *([node.returns] if node.returns else [])]
            return outer, node.body
        return outer, [node.body]
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords], node.body
    first, *rest = node.generators
    body = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
    return [first.iter], [first.target, *first.ifs, *rest, *body]


def _package_path(node: ast.ImportFrom) -> str | None:
    """The mpschain module path an import-from reads from: "" for the package, "mps" for mpschain.mps."""
    if node.level:
        return node.module or ""
    if node.module == "mpschain" or (node.module or "").startswith("mpschain."):
        return node.module[len("mpschain."):]
    return None


def reexports() -> dict[str, str]:
    """The module each name `from .module import name` binds in the package's __init__ comes from."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module for alias in node.names}


def reads(tree: ast.Module, source: str, own: str | None, exported: dict[str, str]) -> list[tuple[str, ast.AST]]:
    """('module.name', node) of each resolved read of a module-level name, and ('.attr', node) of each
    attribute read, in tree; own is the module tree defines, if it is one of the package's."""
    modules, names = {}, {}  # module aliases anywhere; names bound at module level by a from-import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update({alias.asname: alias.name[len("mpschain."):] for alias in node.names
                            if alias.asname and alias.name.startswith("mpschain.")})
            modules.update({"mpschain": "" for alias in node.names if alias.name == "mpschain" and not alias.asname})
        elif isinstance(node, ast.ImportFrom) and _package_path(node) is not None:
            path = _package_path(node)
            for alias in node.names:
                bound = alias.asname or alias.name
                if path == "" and alias.name in MODULES:
                    modules[bound] = alias.name
                elif node in tree.body:
                    names[bound] = f"{exported.get(alias.name, path) if path == '' else path}.{alias.name}"
    out = []
    for node in global_loads(tree, source):
        if node.id in names:
            out.append((names[node.id], node))
        elif own is not None:
            out.append((f"{own}.{node.id}", node))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
            continue
        out.append((f".{node.attr}", node))
        value = node.value
        if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name) and modules.get(value.value.id) == "":
            module = value.attr  # mpschain.module.name
        elif isinstance(value, ast.Name) and value.id in modules:
            module = modules[value.id] or exported.get(node.attr)  # module.name, or mpschain.name re-exported
        else:
            continue
        if module in MODULES:
            out.append((f"{module}.{node.attr}", node))
    return out


def unread_public_names() -> list[str]:
    """'module.name' of each public name that src/ (outside its own definition and
    __init__'s re-exports), benchmarks/ and demos/ never read."""
    exported = reexports()
    found = defaultdict(set)  # key -> ids of the nodes that read it
    trees = {}
    for folder in (SRC, ROOT / "benchmarks", ROOT / "demos"):
        for path in sorted(folder.glob("*.py")):
            if path == SRC / "__init__.py":
                continue
            source = path.read_text(encoding="utf-8")
            tree = trees[path] = ast.parse(source)
            own = path.stem if path.parent == SRC else None
            for key, node in reads(tree, source, own, exported):
                found[key].add(id(node))
    out = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for name, node in public_names(tree):
            key = f".{name.rsplit('.', 1)[-1]}" if "." in name else f"{path.stem}.{name}"
            inside = {id(n) for n in ast.walk(node)}
            if not found[key] - inside:
                out.append(f"{path.stem}.{name}")
    return out


def test_every_public_name_is_read_outside_the_tests():
    # an unread name is deleted or allowed with a reason; an allowed name goes once it is read or deleted
    assert sorted(unread_public_names()) == sorted(ALLOWED)


def test_a_local_of_the_same_name_is_not_a_read():
    source = ("import numpy as np\n\n\ndef zero(d):\n    return np.zeros((d, d))\n\n\n"
              "def use(zero, rows):\n    other = [zero for zero in rows]\n    return zero, other\n\n\n"
              "def call():\n    return zero(3)\n")
    tree = ast.parse(source)
    keys = [key for key, _ in reads(tree, source, "spin", {})]
    assert keys.count("spin.zero") == 1  # call()'s, not the parameter's or the comprehension variable's
