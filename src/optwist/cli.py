"""Command-line front end.

Subcommands mirror the library layers: ``operad check`` runs the axiom
suite, ``tw`` builds and certifies twisted arrow categories, ``sset``
enumerates quasi simplices and unstraightening simplices, and ``ext``,
``qcohom``, ``gamma ext-t``, ``ass les-check`` drive the functor
homology engine.

Exit codes: 0 when the requested check passes or the computation
succeeds, 1 when a check fails with a certified counterexample or
backends disagree, 2 on usage errors.  Every artifact written by --out
records field, truncation, backend, and seed; outputs are byte-stable
across runs and across --threads values.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .linalg import MAX_PRIME
from .operads import (
    FreeReducedOperad,
    UnitOperad,
    ass,
    check_operad_axioms,
    com,
    identity_values,
)
from .qcohom import (
    LinearFunctor,
    ResolutionError,
    constant_functor,
    eta_shriek,
    ext,
    ext_both,
    f_ass_delta,
    f_operad,
    gamma_t,
    les_check_ass,
    quillen_cohomology,
    random_functor,
    representable,
    transport_to_tw,
)
from .serialize import (
    SchemaError,
    artifact,
    build_base,
    dump_csv,
    dump_json,
    load_category,
    load_functor,
    load_json,
    make_meta,
    persist,
    sset_from_json,
)
from .sset import (
    boundary_simplex,
    cube_elements,
    enumerate_nerve_maps_split,
    grid_nerve,
    quasi_bucket,
    standard_simplex,
    un_point,
    _subset_leq,
)
from .twisted import (
    CertificationError,
    certify_tw_ass,
    certify_tw_com,
)


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Everything an invocation depends on besides the inputs
    themselves; meta() is stamped into every artifact."""

    p: int | None
    truncation: object
    seed: int
    backend: str
    out: str | None

    def meta(self) -> dict:
        return make_meta(self.p, self.truncation, self.backend, self.seed)


def _config(args, p=None, truncation=None, backend="none") -> RunConfig:
    if getattr(args, "threads", 1) < 1:
        raise UsageError("--threads must be at least 1")
    return RunConfig(
        p=p,
        truncation=truncation,
        seed=getattr(args, "seed", 0),
        backend=backend,
        out=getattr(args, "out", None),
    )


def _emit(cfg: RunConfig, kind: str, payload: dict, lines,
          header=None, rows=None) -> None:
    for line in lines:
        print(line)
    if cfg.out:
        if cfg.out.endswith(".csv"):
            if rows is None:
                raise UsageError("no tabular form for this artifact; "
                                 "use a .json output path")
            dump_csv(header, rows, cfg.meta(), cfg.out)
        else:
            dump_json(artifact(kind, payload, cfg.meta()), cfg.out)


# -- argument grammars -------------------------------------------------------

# MAX_PRIME is the int64 bound of the dense mod-p route (see the linalg
# module docstring); it also caps the trial division below at
# sqrt(p) < 46341.
def parse_field(text: str) -> int:
    if text == "q":
        return 0
    m = re.fullmatch(r"fp:(\d+)", text)
    if m:
        p = int(m.group(1))
        if p >= MAX_PRIME:
            raise UsageError(f"fp:{p} is too large; the prime must be below 2^31")
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise UsageError(f"{p} is not prime")
        return p
    raise UsageError(f"bad field {text!r}; expected q or fp:P")


def non_negative(text: str) -> int:
    """argparse type of every size flag: a negative arity, truncation,
    dimension, degree or trial count is a usage error."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def parse_degrees(text: str, low: int = 0) -> tuple[int, int]:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        raise UsageError(f"bad degree range {text!r}; expected a..b")
    a, b = int(m.group(1)), int(m.group(2))
    if a > b or a < low:
        raise UsageError(f"degree range must satisfy {low} <= a <= b")
    return a, b


def parse_operad_spec(spec: str, max_arity: int):
    if spec == "ass":
        return ass()
    if spec == "com":
        return com()
    if spec == "unit":
        return UnitOperad()
    if spec.startswith("free:"):
        gens = []
        for part in spec[5:].split(","):
            bits = part.split(":")
            if len(bits) != 2 or not bits[1].isdigit():
                raise UsageError(
                    f"bad generator {part!r}; expected name:arity")
            gens.append((bits[0], int(bits[1])))
        if not gens:
            raise UsageError("free: needs at least one generator")
        return FreeReducedOperad(tuple(gens), truncation=max_arity)
    raise UsageError(f"unknown operad spec {spec!r}")


_BASE_RE = re.compile(r"gamma:\d+|delta:\d+|tw:(com|ass):\d+")


def resolve_base(spec: str):
    """A base is either a builder hint or a category dump on disk."""
    if _BASE_RE.fullmatch(spec):
        return build_base(spec), spec
    if os.path.isfile(spec):
        doc = load_json(spec)
        if doc.get("kind") != "category":
            raise UsageError(f"{spec} is not a category dump")
        return load_category(doc), doc["payload"]["base"]
    raise UsageError(f"unknown base {spec!r}; expected gamma:N, delta:N, "
                     "tw:com:N, tw:ass:N, or a dump file")


def parse_functor(spec: str, base, hint: str, p: int, seed) -> LinearFunctor:
    parts = hint.split(":")
    kind, N = parts[0], int(parts[-1])
    if spec.startswith("const:"):
        d = spec[6:]
        if not d.isdigit():
            raise UsageError(f"bad dimension in {spec!r}")
        return constant_functor(base, p, int(d))
    if spec == "t":
        if kind == "gamma":
            return gamma_t(N, p, base)
        if hint.startswith("tw:com"):
            return transport_to_tw(gamma_t(N, p, build_base(f"gamma:{N}")), base)
        raise UsageError("t lives over gamma:N or tw:com:N")
    if spec == "eta":
        if kind != "delta":
            raise UsageError("eta lives over delta:N")
        return eta_shriek(N, p, base)
    if spec == "fass":
        if kind != "delta":
            raise UsageError("fass lives over delta:N")
        return f_ass_delta(N, p, base)
    if spec == "f":
        if kind != "tw":
            raise UsageError("f lives over tw:com:N or tw:ass:N")
        P = com() if parts[1] == "com" else ass()
        return f_operad(P, N, p, base=base)
    if spec.startswith("yon:"):
        x = spec[4:]
        if not x.isdigit():
            raise UsageError(f"bad object in {spec!r}")
        n = int(x)
        if kind in ("gamma", "delta"):
            obj = n
        elif parts[1] == "com":
            obj = (n, "*")
        else:
            obj = (n, identity_values(n))
        if obj not in base.objects:
            raise UsageError(f"object {obj!r} is not in the base")
        return representable(base, obj, p)
    if spec == "rand" or spec.startswith("rand:"):
        s = spec[5:] if spec.startswith("rand:") else str(seed)
        return random_functor(base, p, s)
    if spec.startswith("file:"):
        path = spec[5:]
        if not os.path.isfile(path):
            raise UsageError(f"no functor dump at {path}")
        doc = load_json(path)
        if doc.get("kind") != "functor":
            raise UsageError(f"{path} is not a functor dump")
        # a dump without a base hint is malformed, and load_functor says so
        stored = doc["payload"].get("base", hint)
        if stored != hint:
            raise UsageError(
                f"functor base {stored} does not match the requested base {hint}")
        F = load_functor(doc)
        if F.p != p:
            raise UsageError(f"functor field fp:{F.p or 'q'} does not "
                             "match the requested field")
        return F
    raise UsageError(f"unknown functor spec {spec!r}")


_CORPUS = {
    "d0": lambda: standard_simplex(0),
    "d1": lambda: standard_simplex(1),
    "d2": lambda: standard_simplex(2),
    "bd2": lambda: boundary_simplex(2),
    "grid": grid_nerve,
}


def resolve_sset(spec: str):
    if spec in _CORPUS:
        return _CORPUS[spec]()
    if os.path.isfile(spec):
        doc = load_json(spec)
        if doc.get("kind") != "sset":
            raise UsageError(f"{spec} is not a simplicial set dump")
        return sset_from_json(doc["payload"])
    raise UsageError(f"unknown input {spec!r}; expected one of "
                     f"{sorted(_CORPUS)} or a dump file")


# -- handlers ----------------------------------------------------------------

def cmd_operad_check(args) -> int:
    P = parse_operad_spec(args.spec, args.max_arity)
    fails = check_operad_axioms(P, args.max_arity)
    cfg = _config(args, truncation=args.max_arity, backend="exhaustive")
    status = "PASS" if not fails else "FAIL"
    lines = [f"operad {args.spec}: axioms {status} at arity <= "
             f"{args.max_arity}"] + [f"  {f}" for f in fails]
    payload = {"operad": args.spec, "max_arity": args.max_arity,
               "failures": list(fails)}
    _emit(cfg, "operad-check", payload, lines)
    return 0 if not fails else 1


def cmd_tw_build(args) -> int:
    if not args.out or args.out.endswith(".csv"):
        raise UsageError("tw build writes a category dump; "
                         "give --out with a .json output path")
    N = args.max_arity
    hint = f"tw:{args.operad}:{N}"
    C = build_base(hint)
    cfg = _config(args, truncation=N)
    persist(C, args.out, cfg.meta(), hint=hint)
    arrows = sum(len(h) for h in C.homs.values())
    print(f"tw({args.operad}) at arity <= {N}: {len(C.objects)} objects, "
          f"{arrows} morphisms -> {args.out}")
    return 0


def cmd_tw_certify_com(args) -> int:
    N = args.max_arity
    cert = certify_tw_com(N)
    cfg = _config(args, truncation=N, backend="exhaustive")
    lines = [f"tw(com) <= {N} matches pointed maps: "
             f"{cert['objects']} objects, {cert['morphisms']} morphisms, "
             f"{cert['pairs']} composable pairs checked"]
    _emit(cfg, "certificate", dict(cert), lines)
    return 0


def cmd_tw_certify_ass(args) -> int:
    N = args.max_arity
    cert = certify_tw_ass(N)
    # certify_tw_ass has just certified |Tw(mu_m, mu_n)| = C(m+n+1, m+1)
    header = ["m\\n"] + [str(n) for n in range(N + 1)]
    rows = [[m] + [comb(m + n + 1, m + 1) for n in range(N + 1)]
            for m in range(N + 1)]
    cfg = _config(args, truncation=N, backend="exhaustive")
    lines = [f"tw(ass) <= {N} matches the simplex category: "
             f"{cert['hom_pairs']} hom sets, {cert['witnesses']} witnesses, "
             f"{cert['sigma_links']} objects linked",
             "hom counts |Tw(mu_m, mu_n)|:",
             "  " + "  ".join(header)]
    lines += ["  " + "  ".join(str(v) for v in row) for row in rows]
    payload = dict(cert)
    payload["hom_counts"] = [row[1:] for row in rows]
    _emit(cfg, "certificate", payload, lines, header=header, rows=rows)
    return 0


def cmd_sset_quasi(args) -> int:
    X = resolve_sset(args.input)
    cfg = _config(args, truncation=args.dim, backend="enumerate")
    counts = {}
    for k in range(args.dim + 1):
        buckets = enumerate_nerve_maps_split(X, cube_elements(k), _subset_leq)
        counts[k] = sum(len(quasi_bucket(X, k, b)) for b in buckets)
    lines = [f"quasi {k}-simplices of {X.name or args.input}: {c}"
             for k, c in counts.items()]
    payload = {"space": X.name or args.input,
               "counts": {str(k): c for k, c in counts.items()}}
    _emit(cfg, "quasi-counts", payload, lines,
          header=["dim", "count"], rows=sorted(counts.items()))
    return 0


def cmd_sset_un(args) -> int:
    X = resolve_sset(args.input)
    cfg = _config(args, truncation=args.dim, backend=args.variance)
    counts = {k: len(un_point(X, args.variance, k))
              for k in range(args.dim + 1)}
    lines = [f"{args.variance} unstraightening {k}-simplices of "
             f"{X.name or args.input}: {c}" for k, c in counts.items()]
    payload = {"space": X.name or args.input, "variance": args.variance,
               "counts": {str(k): c for k, c in counts.items()}}
    _emit(cfg, "un-counts", payload, lines,
          header=["dim", "count"], rows=sorted(counts.items()))
    return 0


def _ext_table(cfg, M, F, a, b, backend) -> int:
    if backend == "both":
        dims = ext_both(M, F, b)
    else:
        dims = ext(M, F, b, backend=backend)
    rows = [(k, dims[k]) for k in range(a, b + 1)]
    lines = [f"Ext^{k} = {d}" for k, d in rows]
    payload = {"source": M.name or "source", "target": F.name or "target",
               "dims": {str(k): d for k, d in rows}}
    _emit(cfg, "ext-table", payload, lines,
          header=["degree", "dim"], rows=rows)
    return 0


def cmd_ext(args) -> int:
    p = parse_field(args.field)
    base, hint = resolve_base(args.base)
    a, b = parse_degrees(args.degrees)
    M = parse_functor(args.source, base, hint, p, args.seed)
    F = parse_functor(args.target, base, hint, p, args.seed)
    cfg = _config(args, p=p, truncation=hint, backend=args.backend)
    return _ext_table(cfg, M, F, a, b, args.backend)


def cmd_qcohom(args) -> int:
    p = parse_field(args.field)
    N = args.max_arity
    a, b = parse_degrees(args.degrees, low=-1)
    hint = f"tw:{args.operad}:{N}"
    base = build_base(hint)
    F = parse_functor(args.coeff, base, hint, p, args.seed)
    P = com() if args.operad == "com" else ass()
    cfg = _config(args, p=p, truncation=N, backend=args.backend)
    out = quillen_cohomology(P, F, N, b + 1, backend=args.backend)
    rows = [(k, out["table"][k]) for k in range(a, b + 1)]
    lines = [f"H^{k}({args.operad}; {args.coeff}) = {d}" for k, d in rows]
    payload = {"operad": args.operad, "coeff": args.coeff,
               "table": {str(k): d for k, d in rows}}
    _emit(cfg, "qcohom-table", payload, lines,
          header=["degree", "dim"], rows=rows)
    return 0


def cmd_gamma_ext_t(args) -> int:
    p = parse_field(args.field)
    N = args.trunc
    a, b = parse_degrees(args.degrees)
    hint = f"gamma:{N}"
    base = build_base(hint)
    M = gamma_t(N, p, base)
    F = parse_functor(args.target, base, hint, p, args.seed)
    cfg = _config(args, p=p, truncation=N, backend=args.backend)
    return _ext_table(cfg, M, F, a, b, args.backend)


def cmd_ass_les_check(args) -> int:
    p = parse_field(args.field)
    if p == 0:
        raise UsageError("les-check needs a prime field; use --field fp:P")
    N, K = args.trunc, args.top_degree
    base = build_base(f"delta:{N}")
    jobs = [("const:1", constant_functor(base, p, 1)),
            ("eta", eta_shriek(N, p, base))]
    jobs += [(f"rand:{args.seed}:{i}",
              random_functor(base, p, f"{args.seed}:{i}"))
             for i in range(args.trials)]
    cfg = _config(args, p=p, truncation=N, backend="cover")
    lines, results, ok = [], [], True
    for name, F in jobs:
        rep = les_check_ass(N, F, K)
        ok = ok and rep["all_exact"]
        lines.append(f"{name}: {'exact' if rep['all_exact'] else 'FAIL'} "
                     f"(middle ext {rep['ext_middle']})")
        results.append({
            "coeff": name,
            "all_exact": rep["all_exact"],
            "pointwise_exact": all(rep["pointwise_exact"].values()),
            "middle_vanishes": rep["middle_vanishes"],
            "hom_middle_is_F0": rep["hom_middle_is_F0"],
            "ext_middle": rep["ext_middle"],
        })
    lines.append(f"long exact sequence: {'PASS' if ok else 'FAIL'} on "
                 f"{len(jobs)} coefficient functors")
    payload = {"top_degree": K, "trials": args.trials, "results": results}
    _emit(cfg, "les-report", payload, lines,
          header=["coeff", "all_exact"],
          rows=[(r["coeff"], r["all_exact"]) for r in results])
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------

FIELD_HELP = "q | fp:P, P a prime below 2^31 (default q)"


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (building it costs a few
    milliseconds per request); parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="optwist",
        description="operadic twisted arrow categories, unstraightening, "
                    "and functor homology")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed recorded in artifacts and used by rand: "
                             "specs (default 0)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; changes neither "
                             "results nor speed")
    common.add_argument("--out", metavar="FILE",
                        help="write the artifact (.json, or .csv for tables)")

    sub = parser.add_subparsers(dest="group", required=True)

    operad = sub.add_parser("operad", help="operad axiom checks")
    osub = operad.add_subparsers(dest="cmd", required=True)
    oc = osub.add_parser("check", parents=[common],
                         help="run the axiom suite")
    oc.add_argument("--spec", required=True,
                    help="ass | com | unit | free:name:arity[,name:arity...]")
    oc.add_argument("--max-arity", type=non_negative, required=True)
    oc.set_defaults(handler=cmd_operad_check)

    tw = sub.add_parser("tw", help="twisted arrow categories")
    tsub = tw.add_subparsers(dest="cmd", required=True)
    tb = tsub.add_parser("build", parents=[common],
                         help="materialize and dump the category")
    tb.add_argument("--operad", choices=["com", "ass"], required=True)
    tb.add_argument("--max-arity", type=non_negative, required=True)
    tb.set_defaults(handler=cmd_tw_build)
    tc = tsub.add_parser("certify-com", parents=[common],
                         help="certify against pointed maps")
    tc.add_argument("--max-arity", type=non_negative, required=True)
    tc.set_defaults(handler=cmd_tw_certify_com)
    ta = tsub.add_parser("certify-ass", parents=[common],
                         help="certify against the simplex category")
    ta.add_argument("--max-arity", type=non_negative, required=True)
    ta.set_defaults(handler=cmd_tw_certify_ass)

    sset = sub.add_parser("sset", help="simplicial set enumerations")
    ssub = sset.add_subparsers(dest="cmd", required=True)
    sq = ssub.add_parser("quasi", parents=[common],
                         help="count quasi simplices per dimension")
    sq.add_argument("--input", required=True,
                    help="d0 | d1 | d2 | bd2 | grid | dump file")
    sq.add_argument("--dim", type=non_negative, required=True)
    sq.set_defaults(handler=cmd_sset_quasi)
    su = ssub.add_parser("un", parents=[common],
                         help="count unstraightening simplices over a point")
    su.add_argument("--variance", choices=["left", "right"], required=True)
    su.add_argument("--input", required=True)
    su.add_argument("--dim", type=non_negative, required=True)
    su.set_defaults(handler=cmd_sset_un)

    ex = sub.add_parser("ext", parents=[common],
                        help="Ext table between functors on a finite base")
    ex.add_argument("--base", required=True,
                    help="gamma:N | delta:N | tw:com:N | tw:ass:N | dump file")
    ex.add_argument("--source", required=True,
                    help="const:D | t | eta | fass | f | yon:X | rand:S | "
                         "file:PATH")
    ex.add_argument("--target", required=True)
    ex.add_argument("--degrees", required=True, metavar="a..b")
    ex.add_argument("--field", default="q", help=FIELD_HELP)
    ex.add_argument("--backend", default="cover",
                    choices=["cover", "bar", "bar-raw", "co-cover", "both"])
    ex.set_defaults(handler=cmd_ext)

    qc = sub.add_parser("qcohom", parents=[common],
                        help="operadic Quillen cohomology table")
    qc.add_argument("--operad", choices=["com", "ass"], required=True)
    qc.add_argument("--coeff", required=True,
                    help="const:D | t | yon:X | rand:S")
    qc.add_argument("--degrees", required=True, metavar="a..b")
    qc.add_argument("--max-arity", type=non_negative, required=True)
    qc.add_argument("--field", default="q", help=FIELD_HELP)
    qc.add_argument("--backend", default="co-cover",
                    choices=["cover", "bar", "bar-raw", "co-cover"])
    qc.set_defaults(handler=cmd_qcohom)

    gamma = sub.add_parser("gamma", help="pointed-set base computations")
    gsub = gamma.add_subparsers(dest="cmd", required=True)
    gt = gsub.add_parser("ext-t", parents=[common],
                         help="Ext from the reduced dimension functor")
    gt.add_argument("--target", required=True,
                    help="t | const:D | yon:X | rand:S")
    gt.add_argument("--trunc", type=non_negative, required=True)
    gt.add_argument("--degrees", required=True, metavar="a..b")
    gt.add_argument("--field", default="q", help=FIELD_HELP)
    gt.add_argument("--backend", default="bar",
                    choices=["cover", "bar", "bar-raw", "co-cover", "both"])
    gt.set_defaults(handler=cmd_gamma_ext_t)

    asg = sub.add_parser("ass", help="simplex category checks")
    asub = asg.add_subparsers(dest="cmd", required=True)
    al = asub.add_parser("les-check", parents=[common],
                         help="long exact sequence verification")
    al.add_argument("--trunc", type=non_negative, required=True)
    al.add_argument("--top-degree", type=non_negative, required=True)
    al.add_argument("--trials", type=non_negative, default=5)
    al.add_argument("--field", default="fp:101",
                    help="fp:P, P a prime below 2^31 (default fp:101)")
    al.set_defaults(handler=cmd_ass_les_check)

    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CertificationError, ResolutionError, SchemaError) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return cli_dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
