"""Per-layer tracing for the benchmark's traced runs.

`Tracer.install` rebinds each traced library function in every neutromagma
module that holds it, and wraps `FiniteMagma.__init__` and each corpus
entry, so that every call records a span (id, parent id, layer, start, end).
Spans stay in memory until `write`.  A layer's self time is the duration of
its spans less the spans they directly contain.
"""

import dataclasses
import gzip
import importlib
import sys
import time

# layer -> functions of the module named by the layer's first word
LAYERS = {
    "magma.closure": ("generated_closure",),
    "magma.closed_subsets": ("enumerate_closed_subsets",),
    "magma.predicate": ("evaluate_predicate",),
    "magma.identity_law": ("check_identity_law",),
    "magma.classify_basic": ("classify_basic",),
    "magma.table_build": ("FiniteMagma.__init__",),
    "constructors.build": ("ln", "ln_class", "zn", "zmod_mult", "cyclic",
                           "symmetric_group", "alternating", "dihedral",
                           "symmetric_semigroup", "direct_product"),
    "neutro.carrier": ("extend_tagged", "zn_full_neutro", "zn_line_neutro",
                       "zn_units_neutro", "zn_affine_neutro"),
    "neutro.real_subgroup": ("has_real_subgroup",),
    "classify.detect": ("detect_s_kind",),
    "classify.engines": ("lagrange_classify", "sylow_classify", "cauchy_classify"),
    "nstruct.build": ("build_n_structure",),
    "nstruct.combinations": ("enumerate_n_substructures", "deficit_substructures"),
    "nstruct.engines": ("n_lagrange", "n_sylow", "n_cauchy", "tuple_sylow"),
    "serialize.load": ("magma_from_dict", "nstructure_from_dict", "load_magma",
                       "load_nstructure"),
    "serialize.dump": ("magma_to_dict", "nstructure_to_dict", "save_magma",
                       "save_nstructure"),
    "atlas.member": ("classify_member",),
    "corpus.entry": ("CorpusEntry.run",),
}

# the reported metrics, in BENCHMARK.json order
METRICS = (
    "magma.closure.calls", "magma.closure.self_s",
    "magma.closed_subsets.calls", "magma.closed_subsets.self_s",
    "magma.closed_subsets.items", "magma.closed_subsets.repeat_calls",
    "magma.closed_subsets.incomplete",
    "magma.predicate.calls", "magma.predicate.self_s",
    "magma.identity_law.calls", "magma.identity_law.self_s",
    "magma.classify_basic.self_s",
    "magma.table_build.calls", "magma.table_build.self_s",
    "constructors.build.calls", "constructors.build.self_s",
    "neutro.carrier.self_s",
    "neutro.real_subgroup.calls", "neutro.real_subgroup.self_s",
    "classify.detect.calls", "classify.detect.self_s",
    "classify.engines.calls", "classify.engines.self_s",
    "nstruct.build.self_s",
    "nstruct.combinations.calls", "nstruct.combinations.self_s",
    "nstruct.combinations.items",
    "nstruct.engines.self_s",
    "serialize.load.self_s", "serialize.dump.self_s",
    "atlas.member.calls", "atlas.member.self_s",
    "corpus.entry.calls", "corpus.entry.self_s",
)


class Tracer:
    def __init__(self):
        self.spans = []           # (id, parent, layer, start, end), in end order
        self.counts = {}          # "layer.counter" -> int
        self._stack = []
        self._next = 0
        self._searched = {}       # id(carrier) -> carrier, for repeat_calls

    def _bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, layer, fn, before=None, after=None):
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, layer, t0, t1))
            if after is not None:
                after(result)
            return result

        return traced

    # counters recorded at the layer boundaries
    def _before_search(self, args):
        m = args[0]
        if id(m) in self._searched:
            self._bump("magma.closed_subsets.repeat_calls")
        self._searched[id(m)] = m

    def _after_search(self, result):
        self._bump("magma.closed_subsets.items", len(result))
        if not getattr(result, "complete", True):
            self._bump("magma.closed_subsets.incomplete")

    def _after_combinations(self, result):
        subs = result[0] if isinstance(result, tuple) else result
        self._bump("nstruct.combinations.items", len(subs))

    def install(self):
        """Import the traced modules and wrap every traced function."""
        home = {layer.split(".")[0] for layer in LAYERS}
        home = {name: importlib.import_module("neutromagma." + name) for name in home}
        magma, corpus = home["magma"], home["corpus"]
        hooks = {
            "enumerate_closed_subsets": (self._before_search, self._after_search),
            "enumerate_n_substructures": (None, self._after_combinations),
            "deficit_substructures": (None, self._after_combinations),
        }
        modules = [m for name, m in sys.modules.items()
                   if (name == "neutromagma" or name.startswith("neutromagma."))
                   and m is not None]
        for layer, names in LAYERS.items():
            module = home[layer.split(".")[0]]
            for name in names:
                if name == "FiniteMagma.__init__":
                    magma.FiniteMagma.__init__ = self._wrap(layer, magma.FiniteMagma.__init__)
                    continue
                if name == "CorpusEntry.run":
                    corpus._ENTRIES[:] = [dataclasses.replace(e, run=self._wrap(layer, e.run))
                                          for e in corpus._ENTRIES]
                    continue
                fn = getattr(module, name)
                traced = self._wrap(layer, fn, *hooks.get(name, (None, None)))
                for mod in modules:
                    if getattr(mod, name, None) is fn:
                        setattr(mod, name, traced)

    def metrics(self):
        """Every METRICS value from the spans and counters recorded so far."""
        calls = {}
        total = {}
        inner = {}
        for sid, parent, layer, t0, t1 in self.spans:
            calls[layer] = calls.get(layer, 0) + 1
            total[layer] = total.get(layer, 0.0) + (t1 - t0)
            if parent >= 0:
                inner[parent] = inner.get(parent, 0.0) + (t1 - t0)
        self_s = dict(total)
        for sid, parent, layer, t0, t1 in self.spans:
            if sid in inner:
                self_s[layer] -= inner[sid]
        out = {}
        for name in METRICS:
            layer, kind = name.rsplit(".", 1)
            if kind == "calls":
                out[name] = calls.get(layer, 0)
            elif kind == "self_s":
                out[name] = self_s.get(layer, 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def write(self, path):
        """Write the spans as tab-separated lines, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tlayer\tstart\tend\n")
            for sid, parent, layer, t0, t1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{layer}\t{t0!r}\t{t1!r}\n")
