"""Seeded request streams, one per workload.

A request is an ``optwist`` argv plus the check its answer must pass.
``{out}`` in an argv is the request's artifact path and ``{dir}`` the
pass's scratch directory; the runner fills both in per pass, so the
same stream can be served twice into different directories.

Each workload is a fixed multiset of request templates, so the seed
never changes how many requests of each kind a stream has.  The seed
draws the order of service, the objects of representables and the
cheap coefficient functors (``rand:S`` over ``gamma:2``, ``delta:2``
and ``tw:com:2``).  The costly ones (over ``delta:3`` and ``tw:ass:2``,
in ``qcohom`` and in ``les-check``) come from ``pool``, a generator
with a fixed seed, so every stream of a given length carries the same
ones: the cost of a single one ranges over a factor of three, and with
about thirty of them drawn per seed the makespan still moved by 30%
from seed to seed.  Rational random functors are served only over the
small bases: over ``gamma:3`` and ``delta:3`` their cost moves by more
than a factor of ten between seeds, and so does that of F_101 random
functors over ``gamma:3`` and ``tw:com:3`` (see ``slow_requests.json``).

The multisets are weighed so that the median latency falls inside a
group of mid-sized requests (0.1 to 0.7 s): on the edge between two
groups it jumps from seed to seed, and requests of a few milliseconds
slow down more than large ones when the host is busy.
"""

from __future__ import annotations

import random

WORKLOADS = ("tables-q", "coeff-fp", "certify")

# Seconds one block of each workload takes at --threads 2 on a 2-core
# x86 VM; a stream of --seconds S serves round(S / BLOCK_SECONDS) blocks,
# at least one.
BLOCK_SECONDS = {"tables-q": 10.0, "coeff-fp": 12.0, "certify": 18.0}

FP = "fp:101"


def _req(text: str, **check) -> dict:
    return {"argv": text.split() + ["--out", "{out}"], "check": check}


def _rand(rng) -> str:
    return f"rand:{rng.randrange(10**6)}"


def _tables_q(rng, pool) -> list:
    """Rational Ext and Quillen-cohomology tables on the cover route,
    plus two small cover/bar cross-checks."""
    units = [
        _req("ext --base gamma:3 --source t --target t --degrees 0..2",
             kind="ext", closed=[1, 0, 0]),
        _req("ext --base gamma:3 --source t --target t --degrees 0..1",
             kind="ext", closed=[1, 0]),
        _req("ext --base gamma:2 --source t --target t --degrees 0..3",
             kind="ext", closed=[1, 0, 0, 0]),
        _req("ext --base gamma:2 --source t --target t --degrees 0..1 "
             "--backend both", kind="ext", closed=[1, 0]),
        _req("ext --base delta:3 --source fass --target fass --degrees 0..3",
             kind="ext", hom0=("delta:3", "fass", "fass", 0)),
        _req("qcohom --operad com --coeff const:1 --degrees 0..3 --max-arity 3",
             kind="qcohom", closed=[0, 0, 0, 0]),
        _req("qcohom --operad ass --coeff const:1 --degrees 0..3 --max-arity 2",
             kind="qcohom", closed=[0, 0, 0, 0]),
    ]
    # yon:1 and yon:2 three times each: six requests of one cost
    # (about 0.17 s) hold the median latency
    for x in (0, 1, 1, 1, 2, 2, 2, 3):
        units.append(_req(
            f"ext --base gamma:3 --source yon:{x} --target t --degrees 0..3",
            kind="ext", yoneda=("gamma:3", str(x), "t", 0)))
    for x in range(1, 4):
        units.append(_req(
            f"ext --base delta:3 --source yon:{x} --target fass --degrees 0..3",
            kind="ext", yoneda=("delta:3", str(x), "fass", 0)))
    for _ in range(3):
        r = _rand(pool)
        units.append(_req(
            f"qcohom --operad com --coeff {r} --degrees=-1..2 --max-arity 2",
            kind="qcohom", hom0=("com", 2, r, 0)))
    r = _rand(rng)
    units.append(_req(
        f"ext --base gamma:2 --source t --target {r} --degrees 0..0 "
        "--backend both", kind="ext", hom0=("gamma:2", "t", r, 0)))
    for _ in range(2):
        r = _rand(rng)
        units.append(_req(
            f"ext --base gamma:2 --source t --target {r} --degrees 0..3",
            kind="ext", hom0=("gamma:2", "t", r, 0)))
    for base in ("gamma:2", "tw:com:2"):
        r, x = _rand(rng), rng.randrange(3)
        units.append(_req(
            f"ext --base {base} --source yon:{x} --target {r} --degrees 0..3",
            kind="ext", yoneda=(base, str(x), r, 0)))
    r = _rand(rng)
    units.append(_req(
        f"ext --base delta:2 --source fass --target {r} --degrees 0..3",
        kind="ext", hom0=("delta:2", "fass", r, 0)))
    return [[u] for u in units]


def _coeff_fp(rng, pool) -> list:
    """F_101 requests that each bring a fresh seeded coefficient functor;
    the long-exact-sequence checks share cached resolutions."""
    units = [
        _req(f"ext --base gamma:3 --source t --target t --degrees 0..3 "
             f"--field {FP}", kind="ext", closed=[1, 0, 0, 0]),
    ]
    for _ in range(4):
        s = pool.randrange(10**6)
        units.append(_req(
            f"ass les-check --trunc 3 --top-degree 3 --trials 1 --seed {s} "
            f"--field {FP}", kind="les", les=(3, s, 1, 101)))
    for _ in range(8):
        r = _rand(pool)
        units.append(_req(
            f"ext --base delta:3 --source fass --target {r} --degrees 0..3 "
            f"--field {FP}", kind="ext", hom0=("delta:3", "fass", r, 101)))
    for i in range(6):
        r = _rand(pool)
        units.append(_req(
            f"ext --base tw:ass:2 --source yon:{i % 3} --target {r} "
            f"--degrees 0..3 --field {FP}",
            kind="ext", yoneda=("tw:ass:2", str(i % 3), r, 101)))
    for _ in range(4):
        r = _rand(pool)
        units.append(_req(
            f"qcohom --operad ass --coeff {r} --degrees=-1..2 --max-arity 2 "
            f"--field {FP}", kind="qcohom", hom0=("ass", 2, r, 101)))
    for _ in range(4):
        r = _rand(rng)
        units.append(_req(
            f"ext --base gamma:2 --source t --target {r} --degrees 0..3 "
            f"--field {FP}", kind="ext", hom0=("gamma:2", "t", r, 101)))
    for _ in range(4):
        r, x = _rand(rng), rng.randrange(3)
        units.append(_req(
            f"ext --base tw:com:2 --source yon:{x} --target {r} "
            f"--degrees 0..3 --field {FP}",
            kind="ext", yoneda=("tw:com:2", str(x), r, 101)))
    return [[u] for u in units]


def _certify(rng, pool) -> list:
    """Certificates and enumerations; no linear algebra except the tiny
    Ext between representables that re-certifies a dumped category."""
    units = [
        [_req(f"tw certify-com --max-arity {n}", kind="certify-com", n=n)]
        for n in (3, 4)
    ] + [
        [_req(f"tw certify-ass --max-arity {n}", kind="certify-ass", n=n)]
        for n in (3, 4)
    ]
    for spec, n in (("com", 4), ("unit", 4), ("free:m:2", 4),
                    ("free:m:2,u:3", 4), ("ass", 3)):
        units.append([_req(f"operad check --spec {spec} --max-arity {n}",
                           kind="operad")])
    for k, (operad, n) in enumerate((("com", 3), ("ass", 2))):
        dump = f"{{dir}}/tw-{operad}-{n}-{k}.json"
        a, b = rng.randrange(n + 1), rng.randrange(n + 1)
        build = {"argv": f"tw build --operad {operad} --max-arity {n} "
                         f"--out {dump}".split(),
                 "check": {"kind": "tw-build", "operad": operad, "n": n}}
        reload = _req(f"ext --base {dump} --source yon:{a} --target yon:{b} "
                      f"--degrees 0..2 --field {FP}",
                      kind="ext-reload", operad=operad, a=a, b=b)
        units.append([build, reload])
    for space in ("d1", "d2", "bd2", "grid"):
        units.append([_req(f"sset quasi --input {space} --dim 3",
                           kind="sset", space=space, dim=3)])
    for space in ("d2", "bd2"):
        for variance in ("left", "right"):
            units.append([_req(
                f"sset un --variance {variance} --input {space} --dim 3",
                kind="sset", space=space, dim=3)])
    variance = rng.choice(("left", "right"))
    units.append([_req(f"sset un --variance {variance} --input grid --dim 3",
                       kind="sset", space="grid", dim=3)])
    return units


_BLOCKS = {"tables-q": _tables_q, "coeff-fp": _coeff_fp, "certify": _certify}


def make_stream(workload: str, seed: int, seconds: float) -> list:
    """The requests of one run, in service order.  Units (a dump and its
    reload) stay together, and each request records the index of its
    unit; the order of units within a block is seeded."""
    rng = random.Random(f"optwist-bench:{workload}:{seed}")
    pool = random.Random(f"optwist-bench:{workload}:pool")
    blocks = max(1, round(seconds / BLOCK_SECONDS[workload]))
    stream = []
    for _ in range(blocks):
        units = _BLOCKS[workload](rng, pool)
        rng.shuffle(units)
        for unit in units:
            index = stream[-1]["unit"] + 1 if stream else 0
            stream.extend(dict(req, unit=index) for req in unit)
    return stream
