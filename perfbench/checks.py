"""Answer checks for the benchmark, run after the timed pass.

Every reference comes from somewhere other than the route being timed:
closed forms computed here, or a value the worker computes with another
algorithm (``hom_solver`` for Ext^0, the functor itself for Yoneda).
``reference()`` names what the worker must compute for a request and
``verify()`` compares an artifact against it.
"""

from __future__ import annotations

from math import comb, factorial


def reference(check: dict):
    """The worker-side reference a check needs, or None."""
    if "hom0" in check and check["kind"] == "ext":
        return ["hom0", *check["hom0"]]
    if "hom0" in check and check["kind"] == "qcohom":
        return ["qhom0", *check["hom0"]]
    if "yoneda" in check:
        return ["dim", *check["yoneda"]]
    if check["kind"] == "les":
        return ["les", *check["les"]]
    return None


def _pointed_counts(n: int):
    """Objects, morphisms and composable pairs of pointed maps between
    <0>..<n>: |<m> -> <k>| = (k+1)^m."""
    r = range(n + 1)
    morphisms = sum((k + 1) ** m for k in r for m in r)
    pairs = sum((k + 1) ** m * (m + 1) ** l for k in r for m in r for l in r)
    return n + 1, morphisms, pairs


def _simplex_hom(m: int, n: int) -> int:
    """|Tw(mu_m, mu_n)| over the associative operad."""
    return comb(m + n + 1, m + 1)


def _simplices(space: str, k: int) -> int:
    """k-simplices of the corpus spaces; quasi and unstraightening
    counts over a point agree with them degreewise in both variances."""
    if space == "d1":
        return k + 2
    if space == "d2":
        return comb(k + 3, 2)
    if space == "bd2":
        return comb(k + 3, 2) - comb(k, 2)
    if space == "grid":
        return (k + 2) ** 2
    raise ValueError(f"no closed form for {space!r}")


def _dims(table: dict) -> list:
    return [table[key] for key in sorted(table, key=int)]


def verify(check: dict, doc: dict, ref) -> str | None:
    """None when the artifact is right, else what is wrong."""
    kind = check["kind"]
    payload = doc["payload"]
    if kind == "ext":
        got = _dims(payload["dims"])
        if "closed" in check:
            want = check["closed"]
        elif "yoneda" in check:
            want = [ref] + [0] * (len(got) - 1)
        else:
            return None if got[0] == ref else f"Ext^0 {got[0]} != Hom {ref}"
        return None if got == want else f"Ext {got} != {want}"
    if kind == "qcohom":
        if "closed" in check:
            got = _dims(payload["table"])
            return None if got == check["closed"] else f"H {got} != {check['closed']}"
        h = payload["table"]["-1"]
        return None if h == ref else f"H^-1 {h} != Hom {ref}"
    if kind == "les":
        n, seed, trials, _p = check["les"]
        names = ["const:1", "eta"] + [f"rand:{seed}:{i}" for i in range(trials)]
        results = payload["results"]
        if [r["coeff"] for r in results] != names:
            return f"coefficients {[r['coeff'] for r in results]} != {names}"
        for r, d in zip(results, ref):
            want = [d] + [0] * (payload["top_degree"])
            if not r["all_exact"] or r["ext_middle"] != want:
                return f"{r['coeff']}: middle Ext {r['ext_middle']} != {want}"
        return None
    if kind == "certify-com":
        objects, morphisms, pairs = _pointed_counts(check["n"])
        got = (payload["objects"], payload["morphisms"], payload["pairs"])
        return None if got == (objects, morphisms, pairs) else \
            f"certificate {got} != {(objects, morphisms, pairs)}"
    if kind == "certify-ass":
        r = range(check["n"] + 1)
        table = [[_simplex_hom(m, n) for n in r] for m in r]
        want = {"hom_counts": table,
                "hom_pairs": len(r) ** 2,
                "witnesses": sum(map(sum, table)),
                "sigma_links": sum(factorial(n) for n in r)}
        got = {key: payload[key] for key in want}
        return None if got == want else f"certificate {got} != {want}"
    if kind == "operad":
        return None if payload["failures"] == [] else str(payload["failures"])
    if kind == "tw-build":
        n, r = check["n"], range(check["n"] + 1)
        if check["operad"] == "com":
            objects, arrows, _ = _pointed_counts(n)
        else:
            objects = sum(factorial(m) for m in r)
            arrows = sum(factorial(m) * factorial(k) * _simplex_hom(m, k)
                         for m in r for k in r)
        got = (payload["base"], len(payload["objects"]),
               sum(len(h["arrows"]) for h in payload["homs"]))
        want = (f"tw:{check['operad']}:{n}", objects, arrows)
        return None if got == want else f"dump {got} != {want}"
    if kind == "ext-reload":
        a, b = check["a"], check["b"]
        hom = (b + 1) ** a if check["operad"] == "com" else _simplex_hom(b, a)
        got = _dims(payload["dims"])
        want = [hom] + [0] * (len(got) - 1)
        return None if got == want else f"Ext {got} != {want}"
    if kind == "sset":
        got = {int(k): v for k, v in payload["counts"].items()}
        want = {k: _simplices(check["space"], k) for k in range(check["dim"] + 1)}
        return None if got == want else f"counts {got} != {want}"
    raise ValueError(f"unknown check {kind!r}")
