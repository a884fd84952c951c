import ast
from pathlib import Path

import reebedit


def test_all_names_resolve_and_are_unique():
    namespace = {}
    exec("from reebedit import *", namespace)  # AttributeError on a stale name
    assert set(reebedit.__all__) <= set(namespace)
    assert len(set(reebedit.__all__)) == len(reebedit.__all__)


def _unused_imports(path: Path) -> list[str]:
    """Names an import binds in the module at path that it never reads
    and does not re-export through __all__."""
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and "__all__" in {
            t.id for t in node.targets if isinstance(t, ast.Name)
        }:
            used.update(ast.literal_eval(node.value))
    where = f"{path.parent.name}/{path.name}"
    return [f"{where}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(Path(reebedit.__file__).parent.glob("*.py"))
    paths += sorted(Path(__file__).parent.glob("*.py"))
    assert [u for p in paths for u in _unused_imports(p)] == []


def _unread_private_names(paths: list[Path]) -> list[str]:
    """Module-level private names defined in any of the modules at paths
    that no module among them ever reads."""
    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{where} {name}" for name, where in defined.items() if name not in read)


def test_every_private_name_of_the_library_is_read_in_the_library():
    paths = sorted(Path(reebedit.__file__).parent.glob("*.py"))
    assert _unread_private_names(paths) == []
