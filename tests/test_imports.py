"""Every name a cmpbayes module imports is used there or re-exported in __all__."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cmpbayes"

# Imported only so that bench/spans.py can patch them where the module looks
# them up; ROADMAP item 1 removes them once the tracer patches the kernels.
BENCH_ONLY = {
    ("mcmc", "conjugate_propriety"),
    ("mcmc", "flat_posterior_propriety"),
    ("mcmc", "log_posterior"),
    ("mcmc", "updated_hyper"),
    ("priors", "log_normalizer"),
    ("priors", "logz_hessian"),
}


def unused_imports(path: Path) -> dict[str, str]:
    """{imported name: its source line} for names neither used nor in __all__."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = lines[alias.lineno - 1]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return {name: line for name, line in imported.items() if name not in used}


def test_every_import_is_used_or_exported():
    unused = {(path.stem, name): line for path in sorted(SRC.glob("*.py"))
              for name, line in unused_imports(path).items()}
    assert set(unused) == BENCH_ONLY
    for key, line in unused.items():
        assert "# noqa: F401" in line and "bench/spans.py" in line, key
