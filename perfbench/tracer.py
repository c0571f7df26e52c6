"""Per-layer tracing of rowfin from outside its source tree.

`Tracer.install()` replaces public rowfin functions and methods with
wrappers defined here, and `uninstall()` puts the originals back.
Nothing under `src/` is edited.

Three kinds of measurement, chosen by cost:

* Hot ring, `FinVec` and `RowFiniteMap` methods only bump a counter.
  Timestamping every call slowed `two-gen` about 3.5x in a prototype.
* Coarse boundaries (a construction, an oracle query, a census, JSON
  serialisation) record spans with start, end and parent. A span's self
  time is its duration minus the time covered by its child spans.
* Self time of whole modules (`rings`, `matrices`, ...) comes from a
  SIGPROF sampler that charges each sample to the innermost rowfin
  module on the Python stack, scaled by the CPU time of the pass.

A function imported by name into another module (`triangular` imports
`tri_split`, `words` imports `compose` and `add_maps`, `cli` imports
`parse_ring_spec`) is replaced in every rowfin module that binds it,
not only where it is defined.
"""

from __future__ import annotations

import json
import signal
import sys
import time

# Coarse spans and the public functions or methods they wrap.
SPANS = {
    "twogen.build": [("twogen", "build_g_family"),
                     ("twogen", "build_two_generators")],
    "words.oracle": [("words", "proximity_oracle")],
    "triangular.sandwich_x": [("triangular", "sandwich_X")],
    "classify.witness_verify": [("classify", "EquivWitness.verify")],
    "classify.census": [("classify", "simple_full_check")],
    "fearing.witness": [("fearing", "fear_witness")],
    "cli.to_json": [("cli", "Report.to_json")],
}

# Counters bumped on every call of a function or method.
CALLS = {
    "rings.parse_calls": ("rings", "parse_ring_spec"),
    "rings.eq_calls": ("rings", "BaseRing.__eq__"),
    "matrices.row_calls": ("matrices", "RowFiniteMap.row"),
    "matrices.apply_calls": ("matrices", "FinVec.apply"),
    "matrices.vec_add_calls": ("matrices", "FinVec.add"),
    "matrices.vec_init_calls": ("matrices", "FinVec.__init__"),
    "matrices.compose_calls": ("matrices", "compose"),
    "matrices.add_maps_calls": ("matrices", "add_maps"),
    "indexing.decode_calls": ("indexing", "ZPairing.decode"),
    "indexing.class_of_calls": ("indexing", "SevenPartition.class_of"),
    "indexing.tri_split_calls": ("indexing", "tri_split"),
}

# Ring operations are counted on every ring class that defines them.
RING_OPS = ("add", "mul", "canon")

# Modules whose sampled self time is reported.
SAMPLED = ("rings", "matrices")

SAMPLE_INTERVAL_S = 0.001


class Tracer:
    def __init__(self, modules: dict):
        """`modules` maps short names ("rings", ...) to rowfin modules."""
        self.modules = modules
        self.counts = {}
        self.span_log = []          # finished spans, in closing order
        self.self_s = {}            # span name -> summed self time
        self._stack = []            # open spans: [id, name, start, child_s]
        self._undo = []
        self._next_id = 0
        self.item = None
        self.samples = {}
        self._row_evals = modules["matrices"].row_evals
        self._row_evals_base = 0
        self._layer_of_file = {m.__file__: name for name, m in modules.items()}
        self._layer_of_file[__file__] = "trace"

    # -- counters --------------------------------------------------------

    def _cell(self, name):
        return self.counts.setdefault(name, [0])

    def reset_counts(self):
        for cell in self.counts.values():
            cell[0] = 0
        self.self_s = {}
        self.samples = {}
        self._row_evals_base = self._row_evals.count

    def snapshot(self) -> dict:
        """Counts since the last reset, with rowfin's own primitive-row counter."""
        out = {name: cell[0] for name, cell in self.counts.items()}
        out["matrices.primitive_row_evals"] = (self._row_evals.count
                                               - self._row_evals_base)
        return dict(sorted(out.items()))

    # -- spans -----------------------------------------------------------

    def open(self, name: str):
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def close(self):
        end = time.perf_counter()
        span_id, name, start, child_s = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_s
        self.span_log.append({"id": span_id, "name": name, "item": self.item,
                              "parent": parent[0] if parent else None,
                              "start": start, "end": end})

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.span_log:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    # -- sampler ---------------------------------------------------------

    def _on_sample(self, signum, frame):
        layers = self._layer_of_file
        while frame is not None:
            layer = layers.get(frame.f_code.co_filename)
            if layer is not None:
                break
            frame = frame.f_back
        else:
            layer = "other"
        self.samples[layer] = self.samples.get(layer, 0) + 1

    def sampled_shares(self) -> dict:
        """Share of sampler ticks per layer since the last reset."""
        total = sum(self.samples.values())
        return {name: (self.samples.get(name, 0) / total if total else 0.0)
                for name in SAMPLED}

    # -- installation ----------------------------------------------------

    def _lookup(self, module, dotted):
        owner = self.modules[module]
        *cls, attr = dotted.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        return owner, attr, getattr(owner, attr)

    def _replace(self, owner, attr, original, wrapper):
        """Swap `original` for `wrapper` on a class, or on every module
        that binds the function under any name."""
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def _counted(self, fn, name):
        cell = self._cell(name)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    def _observed(fn, on_result):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(result)
            return result

        return wrapper

    def _spanned(self, fn, name, on_result=None):
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _add_to(self, name, measure):
        cell = self._cell(name)

        def on_result(result):
            cell[0] += measure(result)

        return on_result

    def install(self):
        hooks = {
            "words.oracle": self._add_to("words.words_tried",
                                         lambda res: res.words_tried),
            "classify.census": self._add_to("classify.subrings_found",
                                            lambda res: res.count),
        }
        for span, targets in SPANS.items():
            for module, dotted in targets:
                owner, attr, fn = self._lookup(module, dotted)
                self._replace(owner, attr, fn,
                              self._spanned(fn, span, hooks.get(span)))
        for name, (module, dotted) in CALLS.items():
            owner, attr, fn = self._lookup(module, dotted)
            self._replace(owner, attr, fn, self._counted(fn, name))

        owner, attr, fn = self._lookup("words", "support_closure")
        self._replace(owner, attr, fn, self._observed(
            fn, self._add_to("words.cover_size", lambda rep: len(rep.cover))))

        rings = self.modules["rings"]
        for cls in vars(rings).values():
            if isinstance(cls, type) and issubclass(cls, rings.BaseRing):
                for op in RING_OPS:
                    if op in vars(cls):
                        self._replace(cls, op, vars(cls)[op], self._counted(
                            vars(cls)[op], f"rings.{op}_calls"))

        # The row function handed to each map runs only on a memo miss.
        rfm = self.modules["matrices"].RowFiniteMap
        init = rfm.__init__
        built = self._cell("matrices.maps_built")
        rowfn_cell = self._cell("matrices.rowfn_calls")

        def counted_init(map_self, ring, rowfn, *args, **kwargs):
            built[0] += 1

            def counted_rowfn(alpha):
                rowfn_cell[0] += 1
                return rowfn(alpha)

            init(map_self, ring, counted_rowfn, *args, **kwargs)

        self._replace(rfm, "__init__", init, counted_init)

        self._prev_handler = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._prev_handler)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []


def rowfin_modules() -> dict:
    """Short name -> module for every loaded rowfin submodule."""
    return {name.split(".", 1)[1]: mod for name, mod in sorted(sys.modules.items())
            if name.startswith("rowfin.")}
