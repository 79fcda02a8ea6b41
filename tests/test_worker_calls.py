"""The benchmark's worker calls some library functions directly; every
such call must still bind to the function's signature, or the benchmark
reports failed requests instead of a tier-1 failure.

The worker source is parsed, not imported, so nothing in it runs here.
"""

import ast
import importlib
import inspect
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _optwist_names(tree) -> dict:
    """Local name -> library object, from the worker's optwist imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("optwist"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("optwist.") and alias.asname:
                    names[alias.asname] = importlib.import_module(alias.name)
    return names


def _calls(tree, names) -> list:
    """(label, function, call node) for each call of a library function."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            out.append((func.id, names[func.id], node))
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and inspect.ismodule(names.get(func.value.id))):
            label = f"{func.value.id}.{func.attr}"
            out.append((label, getattr(names[func.value.id], func.attr, None), node))
    return out


def test_worker_calls_bind_to_library_signatures():
    tree = ast.parse(WORKER.read_text())
    calls = _calls(tree, _optwist_names(tree))
    labels = {label for label, _, _ in calls}
    assert {"random_functor", "eta_shriek", "f_operad", "constant_functor",
            "hom_solver", "build_base", "cli.parse_functor"} <= labels
    bad = []
    for label, fn, node in calls:
        if not callable(fn):
            bad.append(f"{label}: not found")
            continue
        args = [None] * len(node.args)
        kwargs = {kw.arg: None for kw in node.keywords}
        try:
            inspect.signature(fn).bind(*args, **kwargs)
        except TypeError as exc:
            bad.append(f"{label} at line {node.lineno}: {exc}")
    assert not bad, bad
