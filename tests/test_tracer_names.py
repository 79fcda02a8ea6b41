"""The benchmark's tracer patches library names from outside; every name
it lists must exist, or the traced benchmark pass crashes.

The tracer source is parsed, not imported, so nothing in it runs here.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tables() -> dict:
    tree = ast.parse(TRACER.read_text())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "HOT"):
                out[name] = ast.literal_eval(node.value)
    return out


def test_every_traced_name_resolves():
    tables = _tables()
    assert set(tables) == {"SPANS", "HOT"}
    missing = []
    for table in tables.values():
        for mod, qual in table:
            module = importlib.import_module(f"optwist.{mod}")
            if "." in qual:
                # methods are patched through the class's own __dict__
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name, None)
                ok = cls is not None and callable(vars(cls).get(meth))
            else:
                ok = callable(getattr(module, qual, None))
            if not ok:
                missing.append(f"optwist.{mod}.{qual}")
    assert not missing, missing
