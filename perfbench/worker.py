"""Benchmark worker: one long-lived process that serves optwist requests.

Run from the root of a source checkout with ``PYTHONPATH=src``.  It
reads one JSON message per line on stdin and answers one JSON line on
stdout; the CLI's own printing is captured per request.

Messages (``op``):

``run``     run ``optwist.cli.main(argv)`` in this process
``stats``   CPU seconds and peak RSS of this process so far
``trace``   install the outside-in tracer (before the first ``run``)
``report``  per-layer metrics of the tracer; writes its spans to a file
``ref``     compute a reference answer for the checker

The worker exits when stdin closes.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _import_optwist():
    """Import the package from this checkout's src/ and nowhere else."""
    import optwist.cli as cli

    src = (Path.cwd() / "src").resolve()
    where = Path(cli.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"optwist imported from {where}, not from {src}")
    return cli


def _obj(hint: str, x: str):
    """The object ``yon:x`` names, by the CLI's rule."""
    from optwist.operads import identity_values

    n = int(x)
    parts = hint.split(":")
    if parts[0] in ("gamma", "delta"):
        return n
    return (n, "*") if parts[1] == "com" else (n, identity_values(n))


def reference(spec: list):
    """Reference values for the checker (see checks.reference)."""
    from optwist import cli
    from optwist.operads import ass, com
    from optwist.qcohom import (constant_functor, eta_shriek, f_operad,
                                hom_solver, random_functor)
    from optwist.serialize import build_base

    kind, *rest = spec
    if kind == "dim":
        hint, x, target, p = rest
        base = build_base(hint)
        F = cli.parse_functor(target, base, hint, p, 0)
        return F.dims[_obj(hint, x)]
    if kind == "hom0":
        hint, source, target, p = rest
        base = build_base(hint)
        M = cli.parse_functor(source, base, hint, p, 0)
        F = cli.parse_functor(target, base, hint, p, 0)
        return hom_solver(M, F)
    if kind == "qhom0":
        operad, n, coeff, p = rest
        hint = f"tw:{operad}:{n}"
        base = build_base(hint)
        F = cli.parse_functor(coeff, base, hint, p, 0)
        P = com() if operad == "com" else ass()
        return hom_solver(f_operad(P, n, p, base=base), F)
    if kind == "les":
        n, seed, trials, p = rest
        base = build_base(f"delta:{n}")
        functors = [constant_functor(base, p, 1), eta_shriek(n, p, base)]
        functors += [random_functor(base, p, f"{seed}:{i}") for i in range(trials)]
        return [F.dims[0] for F in functors]
    raise ValueError(f"unknown reference {kind!r}")


def _stats() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mib": ru.ru_maxrss / 1024.0}


def serve(cli, inp, out) -> None:
    tracer = None
    for line in inp:
        msg = json.loads(line)
        op = msg["op"]
        if op == "run":
            captured = io.StringIO()
            error = None
            if tracer is not None:
                tracer.begin_request(msg["rid"])
            try:
                with contextlib.redirect_stdout(captured), \
                        contextlib.redirect_stderr(captured):
                    rc = cli.main(msg["argv"])
            except Exception:
                rc, error = None, traceback.format_exc()
            if tracer is not None:
                tracer.end_request()
            reply = {"rc": rc, "error": error, "output": captured.getvalue()}
        elif op == "stats":
            reply = _stats()
        elif op == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            reply = {"ok": True}
        elif op == "report":
            reply = tracer.report()
            with open(msg["spans_path"], "w") as fh:
                for span in tracer.spans():
                    fh.write(json.dumps(dict(zip(
                        ("id", "name", "layer", "start", "end", "parent",
                         "request", "hot_s"), span))) + "\n")
        elif op == "ref":
            try:
                reply = {"value": reference(msg["spec"])}
            except Exception:
                reply = {"error": traceback.format_exc()}
        else:
            reply = {"error": f"unknown op {op!r}"}
        out.write(json.dumps(reply) + "\n")
        out.flush()


def main() -> int:
    sys.path.insert(0, str(HERE))
    try:
        cli = _import_optwist()
    except ImportError as exc:
        print(f"worker: cannot import optwist: {exc}", file=sys.stderr)
        return 1
    out = sys.stdout
    out.write(json.dumps({"ready": True}) + "\n")
    out.flush()
    serve(cli, sys.stdin, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
