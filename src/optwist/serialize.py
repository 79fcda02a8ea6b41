"""Artifact persistence: versioned JSON for structures, CSV for tables.

Every file written here carries a schema_version and a meta block with
field, truncation, backend, and seed, so any table can be traced back
to the configuration that produced it.  Serialization is canonical
(sorted keys, fixed separators), so identical inputs give identical
bytes; nothing time- or thread-dependent goes into an artifact.

Categories and functors are stored with a rebuild hint next to the full
structural dump.  Loading reconstructs the object from its named
builder and certifies the stored copy against the rebuild, entry by
entry.  That keeps loaded categories executable (they come back with a
real composition law, not a pickled closure) and makes a stale or
hand-edited dump fail loudly instead of deserializing into something
subtly wrong.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache, wraps

from .encodings import IbMorphism
from .linalg import FinMatrix
from .operads import ass
from .pointed import MonotoneMap, Permutation, PointedMap
from .qcohom import LinearFunctor, delta_category, gamma_category
from .sset import FinSimplicialSet, Simp
from .twisted import FinCategory, tw_category, tw_com_fast

SCHEMA_VERSION = 1


class SchemaError(Exception):
    pass


def _reads_dump(load):
    """``load`` with a document it cannot read reported as SchemaError:
    a missing key, a value of the wrong type or a bad value anywhere in
    a dump makes the dump malformed, not the library faulty."""
    @wraps(load)
    def read(doc):
        try:
            return load(doc)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            raise SchemaError(f"malformed dump: {type(exc).__name__}: {exc}") from exc
    return read


def make_meta(p, truncation, backend: str, seed: int) -> dict:
    if p is None:
        field = "none"  # combinatorial artifact, no linear algebra involved
    else:
        field = "q" if p == 0 else f"fp:{p}"
    return {
        "field": field,
        "truncation": truncation,
        "backend": backend,
        "seed": seed,
    }


def artifact(kind: str, payload: dict, meta: dict) -> dict:
    for key in ("field", "truncation", "backend", "seed"):
        if key not in meta:
            raise ValueError(f"meta is missing {key!r}")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "meta": meta,
        "payload": payload,
    }


def to_bytes(doc: dict) -> bytes:
    text = json.dumps(doc, sort_keys=True, indent=1, separators=(",", ": "))
    return (text + "\n").encode()


def dump_json(doc: dict, path) -> None:
    with open(path, "wb") as fh:
        fh.write(to_bytes(doc))


def load_json(path) -> dict:
    """The artifact stored at path: a JSON object of the supported
    schema version whose payload is an object, else SchemaError."""
    with open(path, "rb") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("payload"), dict):
        raise SchemaError(f"{path} is not an artifact with an object payload")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"schema version {version!r} does not match supported "
            f"version {SCHEMA_VERSION}"
        )
    return doc


def csv_bytes(header: list, rows: list, meta: dict) -> bytes:
    """CSV with the mandatory meta as leading comment lines."""
    lines = [f"# schema_version: {SCHEMA_VERSION}"]
    for key in ("field", "truncation", "backend", "seed"):
        lines.append(f"# {key}: {meta[key]}")
    lines.append(",".join(str(h) for h in header))
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def dump_csv(header: list, rows: list, meta: dict, path) -> None:
    with open(path, "wb") as fh:
        fh.write(csv_bytes(header, rows, meta))


# -- value encoding --------------------------------------------------------

def encode(x):
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return {"t": "frac", "num": x.numerator, "den": x.denominator}
    if isinstance(x, tuple):
        return {"t": "tuple", "items": [encode(v) for v in x]}
    if isinstance(x, PointedMap):
        return {"t": "pointed", **x.to_json()}
    if isinstance(x, MonotoneMap):
        return {"t": "monotone", **x.to_json()}
    if isinstance(x, Permutation):
        return {"t": "perm", **x.to_json()}
    if isinstance(x, IbMorphism):
        return {
            "t": "ib",
            "source": encode(x.source),
            "target": encode(x.target),
            "f": encode(x.f),
            "alpha0": encode(x.alpha0),
            "alphas": [encode(a) for a in x.alphas],
        }
    raise TypeError(f"cannot encode {type(x).__name__}")


def decode(x):
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, dict):
        tag = x.get("t")
        if tag == "frac":
            return Fraction(x["num"], x["den"])
        if tag == "tuple":
            return tuple(decode(v) for v in x["items"])
        if tag == "pointed":
            return PointedMap.from_json(x)
        if tag == "monotone":
            return MonotoneMap.from_json(x)
        if tag == "perm":
            return Permutation.from_json(x)
        if tag == "ib":
            return IbMorphism(
                decode(x["source"]),
                decode(x["target"]),
                decode(x["f"]),
                decode(x["alpha0"]),
                tuple(decode(a) for a in x["alphas"]),
            )
    raise SchemaError(f"cannot decode {x!r}")


def matrix_to_json(A: FinMatrix) -> dict:
    entries = sorted(A.entries.items())
    return {
        "nrows": A.nrows,
        "ncols": A.ncols,
        "p": A.p,
        "entries": [[i, j, encode(v)] for (i, j), v in entries],
    }


def matrix_from_json(d: dict) -> FinMatrix:
    """Inverse of matrix_to_json.  An F_p entry must be an int: reducing
    a fraction by ``int(v) % p`` would read 205/2 as 1 in F_101, where
    it is 52."""
    entries = {(i, j): decode(v) for i, j, v in d["entries"]}
    if d["p"] and any(type(v) is not int for v in entries.values()):
        raise SchemaError(f"an entry of an fp:{d['p']} matrix is not an integer")
    return FinMatrix(d["nrows"], d["ncols"], entries, d["p"])


# -- categories -------------------------------------------------------------

_HINT_RE = re.compile(r"empty|(gamma|delta):\d+|tw:(com|ass):\d+")


@lru_cache(maxsize=16)
def build_base(hint: str) -> FinCategory:
    """Build the category a hint names, e.g. ``gamma:3`` or
    ``tw:com:4``, once per hint per process.

    Every later call with the hint returns the same object, so every
    functor, resolution and request on it shares its arrow numbering
    and composition table (see ``FinCategory``).  The cache keeps the
    16 most recently used hints, more than any stream of requests here
    uses.  Only what a hint builds is cached: ``load_category`` and
    ``load_functor`` compare every decoded hom set and check every
    decoded functor against the cached base, and nothing decoded is
    kept.  Any other hint is a SchemaError."""
    if not isinstance(hint, str) or not _HINT_RE.fullmatch(hint):
        raise SchemaError(f"unknown category hint {hint!r}")
    parts = hint.split(":")
    if parts == ["empty"]:
        return FinCategory(
            (), {},
            compose_fn=lambda g, f: (_ for _ in ()).throw(
                ValueError("empty category has no morphisms")),
            identity_fn=lambda x: (_ for _ in ()).throw(
                ValueError("empty category has no objects")),
        )
    if parts[0] == "gamma" and len(parts) == 2:
        return gamma_category(int(parts[1]))
    if parts[0] == "delta" and len(parts) == 2:
        return delta_category(int(parts[1]))
    if parts[0] == "tw" and len(parts) == 3:
        name, N = parts[1], int(parts[2])
        if name == "com":
            return tw_com_fast(N)
        if name == "ass":
            return tw_category(ass(), N)


def category_payload(C: FinCategory, hint: str) -> dict:
    pairs = sorted(C.homs, key=lambda pair: (encode_key(pair[0]),
                                             encode_key(pair[1])))
    return {
        "base": hint,
        "objects": [encode(x) for x in C.objects],
        "homs": [
            {
                "src": encode(x),
                "tgt": encode(y),
                "arrows": [encode(tr[2]) for tr in C.homs[(x, y)]],
            }
            for x, y in pairs
        ],
    }


def encode_key(x) -> str:
    return json.dumps(encode(x), sort_keys=True)


@_reads_dump
def load_category(doc: dict) -> FinCategory:
    """Rebuild the category named by the dump and certify the dump
    against it; returns the rebuilt (fully composable) category."""
    payload = doc["payload"]
    C = build_base(payload["base"])
    objects = [decode(x) for x in payload["objects"]]
    if list(C.objects) != objects:
        raise SchemaError("stored objects disagree with the rebuild hint")
    stored = {
        (decode(h["src"]), decode(h["tgt"])): [decode(a) for a in h["arrows"]]
        for h in payload["homs"]
    }
    live = {pair: [tr[2] for tr in hom] for pair, hom in C.homs.items() if hom}
    if stored != live:
        raise SchemaError("stored hom sets disagree with the rebuild hint")
    return C


# -- linear functors --------------------------------------------------------

def functor_payload(F: LinearFunctor, hint: str) -> dict:
    mats = sorted(zip(F.base.arrows(), F.mats), key=lambda kv: encode_key(kv[0]))
    return {
        "base": hint,
        "p": F.p,
        "name": F.name,
        "dims": [[encode(x), F.dims[x]] for x in F.base.objects],
        "mats": [
            {
                "src": encode(m[0]),
                "tgt": encode(m[1]),
                "map": encode(m[2]),
                "matrix": matrix_to_json(mat),
            }
            for m, mat in mats
        ],
    }


@_reads_dump
def load_functor(doc: dict) -> LinearFunctor:
    """Rebuild the base named by the dump and the functor on it.  The
    dump must list exactly the rebuilt base's objects, in order, and
    exactly one matrix per arrow of it, else SchemaError."""
    payload = doc["payload"]
    base = build_base(payload["base"])
    dims = [(decode(x), d) for x, d in payload["dims"]]
    if [x for x, _ in dims] != list(base.objects):
        raise SchemaError("stored objects disagree with the rebuilt base")
    stored = {
        (decode(e["src"]), decode(e["tgt"]), decode(e["map"])):
            matrix_from_json(e["matrix"])
        for e in payload["mats"]
    }
    if len(stored) != len(payload["mats"]) or stored.keys() != set(base.arrows()):
        raise SchemaError("stored arrows disagree with the rebuilt base")
    # the constructor runs the generator check, which implies full
    # functoriality, so a dump that decodes but is not a functor cannot load
    try:
        return LinearFunctor(base, payload["p"], dims, [stored[m] for m in base.arrows()],
                             name=payload.get("name", ""))
    except ValueError as exc:
        raise SchemaError(f"stored matrices are not a functor: {exc}") from exc


# -- top-level persist/load --------------------------------------------------

def persist(x, path, meta: dict, hint: str = "") -> None:
    if isinstance(x, FinCategory):
        if not hint:
            raise ValueError("persisting a category needs a rebuild hint")
        dump_json(artifact("category", category_payload(x, hint), meta), path)
    elif isinstance(x, LinearFunctor):
        if not hint:
            raise ValueError("persisting a functor needs a base hint")
        dump_json(artifact("functor", functor_payload(x, hint), meta), path)
    elif isinstance(x, dict):
        kind = hint or "table"
        dump_json(artifact(kind, x, meta), path)
    else:
        raise TypeError(f"cannot persist {type(x).__name__}")


def load(path):
    doc = load_json(path)
    if doc["kind"] == "category":
        return load_category(doc)
    if doc["kind"] == "functor":
        return load_functor(doc)
    return doc


# -- simplicial sets ---------------------------------------------------------

def _untuple(x):
    if isinstance(x, list):
        return tuple(_untuple(v) for v in x)
    return x


def simp_from_json(d: dict) -> Simp:
    return Simp(d["core_dim"], _untuple(d["core"]),
                MonotoneMap.from_json(d["epi"]))


@_reads_dump
def sset_from_json(d: dict) -> FinSimplicialSet:
    """Inverse of FinSimplicialSet.to_json."""
    cells: dict = {}
    faces: dict = {}
    for k_str, entries in d["nondegenerate"].items():
        k = int(k_str)
        cells[k] = [_untuple(e["id"]) for e in entries]
        for e in entries:
            if k > 0 and len(e["faces"]) != k + 1:
                raise SchemaError(f"cell {e['id']!r} needs {k + 1} faces")
            for i, fd in enumerate(e["faces"]):
                faces[(k, _untuple(e["id"]), i)] = simp_from_json(fd)
    return FinSimplicialSet(cells, faces, name=d.get("name", ""))
