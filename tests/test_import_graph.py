import ast
import pathlib

import oscnoise

PACKAGE = pathlib.Path(oscnoise.__file__).parent


def _imported_modules(path: pathlib.Path) -> set[str]:
    # the package modules a module imports, at module level or inside a
    # function, relative or absolute
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["oscnoise" if node.level else "", node.module]))
            # "from package import x" imports the module x when there is one
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        names.update(t.split(".")[1] for t in targets if t.startswith("oscnoise."))
    return names


def test_package_imports_form_no_cycle():
    # one module owns each concept, so no two modules need each other; a
    # function-level import that closes a cycle is how such a split hides
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    graph = {
        name: sorted(_imported_modules(path) & modules.keys() - {name})
        for name, path in modules.items()
    }
    state = {}  # 1 while on the search path, 2 once finished

    def visit(name, path):
        state[name] = 1
        for dep in graph[name]:
            if state.get(dep) == 1:
                cycle = path[path.index(dep):] + [dep]
                raise AssertionError("import cycle: " + " -> ".join(cycle))
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = 2

    for name in sorted(graph):
        if name not in state:
            visit(name, [name])
