"""Outside-in tracer for the optwist library, installed only in the
traced benchmark pass.

Nothing in ``src/`` knows about it: ``install()`` replaces chosen
functions and methods by wrappers, in every ``optwist`` module
namespace that binds them (a function imported into ``cli`` is patched
there too), and on the class for methods.

Two kinds of wrapper:

* span points record one span per call: name, start, end, parent span
  and request id.  Spans stay in memory until ``report()``.
* hot points (``HOT``) are called hundreds of thousands of times per
  request, so they keep only a call counter and an inclusive and a
  self timer per thread, with no span objects.

A wrapper belongs to a layer (the module that defines the code) and,
optionally, to a metric group; a group counts only its outermost call
per thread, so nested calls (``kernel_basis`` calling ``rref``) are not
counted twice.  Counters and the layer self times are aggregated by
``report()``; a span's self time is its duration minus the union of its
child spans and minus the time of hot calls made directly under it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "linalg", "qcohom", "twisted", "encodings", "operads",
          "products", "pointed", "sset", "serialize")

# (module, qualified name) -> (layer, metric group or None, post hook or
# None).  The layer is the module that defines the code, except for the
# category builders, which count as the twisted layer wherever they live.
SPANS = {
    ("linalg", "FinMatrix.rank"): ("linalg", "linalg.elim", "elim"),
    ("linalg", "FinMatrix.rref"): ("linalg", "linalg.elim", "elim"),
    ("linalg", "FinMatrix.kernel_basis"): ("linalg", "linalg.elim", "elim"),
    ("linalg", "FinMatrix.solve_matrix"): ("linalg", "linalg.elim", "elim"),
    ("linalg", "CochainComplex.cohomology_dims"): ("linalg", None, None),
    ("qcohom", "LinearFunctor.__init__"): ("qcohom", "qcohom.functor", "functor"),
    ("qcohom", "random_functor"): ("qcohom", "qcohom.functor", None),
    ("qcohom", "representable"): ("qcohom", "qcohom.functor", None),
    ("qcohom", "constant_functor"): ("qcohom", "qcohom.functor", None),
    ("qcohom", "gamma_t"): ("qcohom", "qcohom.functor", None),
    ("qcohom", "f_operad"): ("qcohom", "qcohom.functor", None),
    ("qcohom", "eta_shriek"): ("qcohom", "qcohom.functor", None),
    ("qcohom", "f_ass_delta"): ("qcohom", "qcohom.functor", None),
    ("qcohom", "transport_to_tw"): ("qcohom", "qcohom.functor", None),
    ("qcohom", "dual_functor"): ("qcohom", "qcohom.functor", None),
    ("qcohom", "cover_resolution"): ("qcohom", "qcohom.resolution", "resolution"),
    ("qcohom", "bar_resolution"): ("qcohom", "qcohom.resolution", "resolution"),
    ("qcohom", "Resolution.hom_cochain"): ("qcohom", "qcohom.cochain", "cochain"),
    ("qcohom", "les_check_ass"): ("qcohom", "qcohom.les", None),
    ("qcohom", "ext"): ("qcohom", None, None),
    ("qcohom", "ext_both"): ("qcohom", None, None),
    ("qcohom", "hom_solver"): ("qcohom", None, None),
    ("qcohom", "quillen_cohomology"): ("qcohom", None, None),
    ("qcohom", "gamma_category"): ("twisted", "twisted.base", None),
    ("qcohom", "delta_category"): ("twisted", "twisted.base", None),
    ("qcohom", "op_category"): ("twisted", "twisted.base", None),
    ("serialize", "build_base"): ("twisted", "twisted.base", None),
    ("twisted", "tw_category"): ("twisted", "twisted.base", None),
    ("twisted", "tw_com_fast"): ("twisted", "twisted.base", None),
    ("twisted", "ib_category"): ("twisted", "twisted.base", None),
    ("twisted", "grothendieck"): ("twisted", "twisted.base", None),
    ("twisted", "certify_tw_com"): ("twisted", "twisted.certify", "certify"),
    ("twisted", "certify_tw_ass"): ("twisted", "twisted.certify", "certify"),
    ("twisted", "FinCategory.check"): ("twisted", "twisted.certify", "certify"),
    ("twisted", "tw_hom"): ("twisted", None, None),
    ("encodings", "enumerate_ib"): ("encodings", "encodings.enumerate", None),
    ("encodings", "enumerate_r"): ("encodings", "encodings.enumerate", None),
    ("encodings", "enumerate_b"): ("encodings", "encodings.enumerate", None),
    ("encodings", "enumerate_b_under"): ("encodings", "encodings.enumerate", None),
    ("encodings", "enumerate_l"): ("encodings", "encodings.enumerate", None),
    ("operads", "check_operad_axioms"): ("operads", "operads.axioms", None),
    ("sset", "enumerate_nerve_maps_split"): ("sset", "sset.enumerate", "cubes"),
    ("sset", "enumerate_nerve_maps"): ("sset", "sset.enumerate", None),
    ("sset", "enumerate_cube_maps"): ("sset", "sset.enumerate", None),
    ("sset", "quasi_bucket"): ("sset", "sset.filter", "quasi"),
    ("sset", "un_point"): ("sset", "sset.un", None),
    ("serialize", "dump_json"): ("serialize", "serialize.dump", "json_bytes"),
    ("serialize", "dump_csv"): ("serialize", "serialize.dump", "csv_bytes"),
    ("serialize", "persist"): ("serialize", "serialize.dump", None),
    ("serialize", "load_json"): ("serialize", "serialize.load", None),
    ("serialize", "load_category"): ("serialize", "serialize.load", None),
    ("serialize", "load_functor"): ("serialize", "serialize.load", None),
    ("serialize", "sset_from_json"): ("serialize", "serialize.load", None),
}

# (module, qualified name) -> counter name; counters and timers only.
HOT = {
    ("twisted", "FinCategory.compose"): "twisted.compose",
    ("linalg", "FinMatrix.__matmul__"): "linalg.matmul",
    ("encodings", "ib_compose"): "encodings.ib_compose",
    ("pointed", "PointedMap.compose"): "pointed.compose",
    ("pointed", "MonotoneMap.compose"): "pointed.compose",
    ("operads", "ComOperad.compose"): "operads.compose",
    ("operads", "AssOperad.compose"): "operads.compose",
    ("operads", "UnitOperad.compose"): "operads.compose",
    ("operads", "FreeReducedOperad.compose"): "operads.compose",
    ("products", "compose_blocks"): "products.compose_blocks",
}

ROOT = "cli.request"

_clock = time.perf_counter


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class _State:
    """What one thread records; worker threads never share a counter."""

    def __init__(self):
        self.stack = []           # open spans of this thread
        self.hot_acc = 0.0        # hot time under the innermost open frame
        self.groups = defaultdict(int)       # open calls per metric group
        self.hot = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, incl, self, depth
        self.spans = []


class _Local(threading.local):
    def __init__(self, tracer):
        self.state = _State()
        with tracer.lock:
            tracer.threads.append(self.state)


class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.threads = []
        self.ids = itertools.count(1)
        self.rid = None           # id of the request being served
        self.root = None          # root span of that request
        self.tls = _Local(self)
        self.counts = defaultdict(int)
        self._pairs_cache = {}

    # -- request roots ----------------------------------------------------

    def begin_request(self, rid):
        self.rid = rid
        self.root = self._open(ROOT, "cli")

    def end_request(self):
        self._close(self.root)
        self.root = None

    # -- spans --------------------------------------------------------------

    def _open(self, name, layer):
        loc = self.tls.state
        if loc.stack:
            parent = loc.stack[-1][0]
        else:
            parent = self.root[0] if self.root is not None else None
        span = [next(self.ids), name, layer, _clock(), 0.0, parent, self.rid,
                0.0, loc.hot_acc]
        loc.hot_acc = 0.0
        loc.stack.append(span)
        return span

    def _close(self, span):
        loc = self.tls.state
        span[4] = _clock()
        span[7] = loc.hot_acc
        loc.hot_acc = span[8]
        loc.stack.pop()
        loc.spans.append(span[:8])

    def _span_wrapper(self, fn, name, layer, group, hook):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            groups = tracer.tls.state.groups
            outer = group is not None and groups[group] == 0
            if group is not None:
                groups[group] += 1
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
                if group is not None:
                    groups[group] -= 1
            if outer or hook is not None:
                with tracer.lock:
                    if outer:
                        counts[group + "_calls"] += 1
                        counts[group + "_s"] += span[4] - span[3]
                    if hook is not None:
                        tracer._hook(hook, outer, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _hot_wrapper(self, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            loc = tracer.tls.state
            c = loc.hot[counter]
            c[0] += 1
            if c[3]:
                return fn(*args, **kwargs)
            c[3] = 1
            saved = loc.hot_acc
            loc.hot_acc = 0.0
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                c[1] += dt
                c[2] += dt - loc.hot_acc
                loc.hot_acc = saved + dt
                c[3] = 0

        return functools.update_wrapper(wrapper, fn)

    # -- counters computed from arguments and results -------------------------

    def _validate_pairs(self, base) -> int:
        """Composable pairs LinearFunctor checks with check="full":
        every f followed by every g out of f's target."""
        hit = self._pairs_cache.get(id(base))
        if hit is not None and hit[0] is base:
            return hit[1]
        out = defaultdict(int)
        for (x, _y), ms in base.homs.items():
            out[x] += len(ms)
        pairs = sum(out[y] * len(ms) for (_x, y), ms in base.homs.items())
        self._pairs_cache[id(base)] = (base, pairs)
        return pairs

    def _hook(self, hook, outer, args, kwargs, result):
        """Called under the lock after a span point returns."""
        counts = self.counts
        if hook == "elim" and outer:
            m = args[0]
            key = "linalg.fp_cells" if m.p else "linalg.q_cells"
            counts[key] += m.nrows * m.ncols
        elif hook == "functor":
            counts["qcohom.functors_built"] += 1
            if _arg(args, kwargs, 6, "check", "full") == "full":
                counts["qcohom.validate_pairs"] += self._validate_pairs(args[1])
        elif hook == "resolution" and outer:
            counts["qcohom.resolution_gens"] += sum(len(t) for t in result.terms)
        elif hook == "cochain" and outer:
            counts["qcohom.cochain_dim"] += sum(result.dims)
        elif hook == "certify":
            counts["twisted.pairs_checked"] += result.get(
                "pairs", result.get("functorial_pairs", 0))
        elif hook == "cubes" and outer:
            counts["sset.cubes"] += sum(len(b) for b in result)
        elif hook == "quasi":
            counts["sset.quasi_kept"] += len(result)
        elif hook == "json_bytes":
            counts["serialize.bytes_out"] += os.path.getsize(
                _arg(args, kwargs, 1, "path"))
        elif hook == "csv_bytes":
            counts["serialize.bytes_out"] += os.path.getsize(
                _arg(args, kwargs, 3, "path"))

    # -- installation -------------------------------------------------------

    def install(self):
        mods = [importlib.import_module(f"optwist.{m}") for m in
                ("pointed", "operads", "products", "encodings", "twisted",
                 "sset", "linalg", "qcohom", "serialize", "cli")]
        loaded = [m for name, m in sys.modules.items()
                  if name == "optwist" or name.startswith("optwist.")]
        by_name = {m.__name__.split(".")[-1]: m for m in mods}
        for (mod, qual), (layer, group, hook) in SPANS.items():
            self._patch(by_name[mod], qual, loaded, self._span_wrapper,
                        f"{layer}.{qual}", layer, group, hook)
        for (mod, qual), counter in HOT.items():
            self._patch(by_name[mod], qual, loaded, self._hot_wrapper, counter)

    @staticmethod
    def _patch(module, qual, loaded, make, *spec):
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(cls.__dict__[meth], *spec))
            return
        orig = getattr(module, qual)
        wrapped = make(orig, *spec)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    # -- report -------------------------------------------------------------

    def spans(self) -> list:
        out = []
        for loc in self.threads:
            out.extend(loc.spans)
        return out

    def report(self) -> dict:
        """Per-layer metrics; time figures are seconds."""
        spans = self.spans()
        children = defaultdict(list)
        for s in spans:
            if s[5] is not None:
                children[s[5]].append((s[3], s[4]))
        layer_self = defaultdict(float)
        requests_s = 0.0
        for s in spans:
            t0, t1 = s[3], s[4]
            kids = [(max(a, t0), min(b, t1)) for a, b in children.get(s[0], ())]
            self_s = (t1 - t0) - _union(k for k in kids if k[1] > k[0]) - s[7]
            layer_self[s[2]] += max(self_s, 0.0)
            if s[1] == ROOT:
                requests_s += t1 - t0
        hot = defaultdict(lambda: [0, 0.0])
        for loc in self.threads:
            for counter, (calls, incl, self_s, _depth) in loc.hot.items():
                hot[counter][0] += calls
                hot[counter][1] += incl
                layer_self[counter.split(".")[0]] += self_s
        c = self.counts
        out = {
            "linalg.elim_s": c["linalg.elim_s"],
            "linalg.elim_calls": c["linalg.elim_calls"],
            "linalg.q_cells": c["linalg.q_cells"],
            "linalg.fp_cells": c["linalg.fp_cells"],
            "linalg.matmul_calls": hot["linalg.matmul"][0],
            "linalg.matmul_s": hot["linalg.matmul"][1],
            "qcohom.functor_s": c["qcohom.functor_s"],
            "qcohom.functors_built": c["qcohom.functors_built"],
            "qcohom.validate_pairs": c["qcohom.validate_pairs"],
            "qcohom.resolution_s": c["qcohom.resolution_s"],
            "qcohom.resolution_gens": c["qcohom.resolution_gens"],
            "qcohom.cochain_s": c["qcohom.cochain_s"],
            "qcohom.cochain_dim": c["qcohom.cochain_dim"],
            "qcohom.les_s": c["qcohom.les_s"],
            "twisted.base_s": c["twisted.base_s"],
            "twisted.compose_calls": hot["twisted.compose"][0],
            "twisted.compose_s": hot["twisted.compose"][1],
            "twisted.certify_s": c["twisted.certify_s"],
            "twisted.pairs_checked": c["twisted.pairs_checked"],
            "encodings.ib_compose_calls": hot["encodings.ib_compose"][0],
            "encodings.ib_compose_s": hot["encodings.ib_compose"][1],
            "encodings.enumerate_s": c["encodings.enumerate_s"],
            "operads.axioms_s": c["operads.axioms_s"],
            "operads.compose_calls": hot["operads.compose"][0],
            "products.compose_blocks_calls": hot["products.compose_blocks"][0],
            "pointed.compose_calls": hot["pointed.compose"][0],
            "sset.enumerate_s": c["sset.enumerate_s"],
            "sset.filter_s": c["sset.filter_s"],
            "sset.un_s": c["sset.un_s"],
            "sset.cubes": c["sset.cubes"],
            "sset.quasi_ratio": (c["sset.quasi_kept"] / c["sset.cubes"]
                                 if c["sset.cubes"] else 0.0),
            "serialize.dump_s": c["serialize.dump_s"],
            "serialize.load_s": c["serialize.load_s"],
            "serialize.bytes_out": c["serialize.bytes_out"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["trace.spans"] = len(spans)
        out["trace.covered_s"] = requests_s - layer_self["cli"]
        return out
