"""The ttlab names that the benchmark under perfbench/ wraps or calls exist.

perfbench/spans.py wraps the functions in its LAYERS table, and the other
scripts import ttlab names or read them off an imported ttlab module.  A
name renamed or removed in ttlab breaks the benchmark only when it runs,
so each one is resolved here, without running or tracing anything.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    """perfbench/spans.py as a module; its `install` is not called."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, attrs: tuple[str, ...] = ()):
    """`module` with `attrs` read off it in turn, each an attribute or else
    a submodule, as `from module import attrs[0]` resolves; AttributeError
    or ImportError when that names nothing."""
    obj = importlib.import_module(module)
    for attr in attrs:
        try:
            obj = getattr(obj, attr)
        except AttributeError:
            obj = importlib.import_module(f"{obj.__name__}.{attr}")
    return obj


Ref = tuple[str, tuple[str, ...]]  # (module, attributes read off it)


def _ttlab_references(source: str) -> set[Ref]:
    """The ttlab names that `source` imports or reads off an imported
    ttlab name, also in string constants that import ttlab (code that the
    benchmark runs in a fresh interpreter)."""
    tree = ast.parse(source)
    refs: set[Ref] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "import ttlab" in node.value):
            refs |= _ttlab_references(node.value)
    bound: dict[str, Ref] = {}  # local name -> what it stands for
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "ttlab"):
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, (alias.name,))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ttlab":
                    refs.add((alias.name, ()))
                    # `import ttlab.cli` binds ttlab, `as c` binds ttlab.cli
                    local = alias.asname or "ttlab"
                    bound[local] = (alias.name if alias.asname else "ttlab", ())
    refs |= set(bound.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root, *path = ast.unparse(node).split(".")
            if root in bound and all(p.isidentifier() for p in path):
                module, attrs = bound[root]
                refs.add((module, attrs + tuple(path)))
    return refs


@pytest.mark.parametrize("layer", _spans().LAYERS, ids=lambda layer: layer[0])
def test_every_traced_layer_resolves(layer):
    _, module, attr = layer
    assert callable(_resolve(module, tuple(attr.split("."))))


@pytest.mark.parametrize("script", ["workloads.py", "oracle.py", "selftest.py"])
def test_every_ttlab_name_a_benchmark_script_uses_resolves(script):
    refs = _ttlab_references((PERFBENCH / script).read_text())
    assert refs, f"{script} uses no ttlab name"
    missing = []
    for module, attrs in sorted(refs):
        try:
            _resolve(module, attrs)
        except (AttributeError, ImportError):
            missing.append(".".join((module, *attrs)))
    assert missing == []
