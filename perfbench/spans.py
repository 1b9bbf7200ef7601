"""Span tracing of ttlab's layers, installed from outside the package.

`install` wraps each function in LAYERS and rebinds every name under which a
ttlab module holds it: `from .splitting import apply_split` copies the
binding into the importing module, so patching only the defining module
would miss those calls.  `track.construct` is `TrainTrack.__post_init__`,
the validation every new track pays.

A span is (name, start, end, parent).  Spans live in flat arrays while the
operation runs; `summary` turns them into per-layer counts and self times
afterwards, and `write` appends them to a file.  Self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import struct
import sys
import time
from array import array

ROOT = "op"

# (layer name, module, attribute); the order fixes the name ids in span files
LAYERS = (
    ("splitting.apply_split", "ttlab.splitting", "apply_split"),
    ("splitting.legal_splits", "ttlab.splitting", "legal_splits"),
    ("splitting.apply_sequence", "ttlab.splitting", "apply_sequence"),
    ("track.construct", "ttlab.track", "TrainTrack.__post_init__"),
    ("track.isomorphisms", "ttlab.track", "isomorphisms"),
    ("morphism.compose", "ttlab.morphism", "compose"),
    ("words.free_reduce", "ttlab.words", "free_reduce"),
    ("incidence.dilatation", "ttlab.incidence", "dilatation"),
    ("incidence.primitivity", "ttlab.incidence", "primitivity"),
    ("incidence.irreducibility", "ttlab.incidence", "irreducibility"),
    ("boundary.boundary_action", "ttlab.boundary", "boundary_action"),
    ("boundary.side_dynamics", "ttlab.boundary", "side_dynamics"),
    ("certify.certify", "ttlab.certify", "certify"),
    ("search.search_loops", "ttlab.search", "search_loops"),
)
NAMES = (ROOT,) + tuple(name for name, _, _ in LAYERS)
_ID = {name: i for i, name in enumerate(NAMES)}

# every per-layer metric `Recorder.summary` reports, with its unit
METRIC_UNITS = {
    **{f"{name}.{kind}": unit for name, _, _ in LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    f"{ROOT}.self_s": "s",
    "search.nodes": "count",
    "search.iso_calls": "count",
    "search.iso_hit_ratio": "ratio",
    "incidence.perron_iterations": "count",
    "incidence.bracket_bits": "bits",
    "words.letters_out": "count",
}

# one span record in a span file: op id, name id, parent index, start, end
# (nanoseconds from the start of the operation); parent -1 marks the root
RECORD = struct.Struct("<IHiqq")


class Recorder:
    """Spans of one operation, plus the counts read from return values."""

    def __init__(self) -> None:
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.closures = 0          # isomorphisms found under the search
        self.perron_iterations: list[int] = []
        self.bracket_bits = 0
        self.letters_out = 0

    def wrap(self, name: str, fn, observe=None):
        nid = _ID[name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def root(self, fn):
        """`fn` as the operation's root span."""
        return self.wrap(ROOT, fn)

    # -- counts read from return values --------------------------------

    def _saw_isomorphisms(self, idx, isos) -> None:
        p = self.parent[idx]
        if p >= 0 and self.name[p] == _ID["search.search_loops"]:
            self.closures += len(isos)

    def _saw_perron(self, idx, perron) -> None:
        self.perron_iterations.append(perron.iterations)
        bits = max(x.bit_length() for f in (perron.lower, perron.upper)
                   for x in (f.numerator, f.denominator))
        self.bracket_bits = max(self.bracket_bits, bits)

    def _saw_compose(self, idx, m) -> None:
        self.letters_out += sum(len(w) for _, w in m.images)

    # -- results ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the recorded operation."""
        n = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        calls = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        by_search = [0] * len(NAMES)     # calls made directly by the search
        search = _ID["search.search_loops"]
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_ns[nid] += dur[i] - covered[i]
            p = self.parent[i]
            if p >= 0 and self.name[p] == search:
                by_search[nid] += 1
        out: dict[str, float] = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = calls[_ID[name]]
            out[f"{name}.self_s"] = self_ns[_ID[name]] / 1e9
        out[f"{ROOT}.self_s"] = self_ns[_ID[ROOT]] / 1e9
        iso_calls = by_search[_ID["track.isomorphisms"]]
        out["search.nodes"] = by_search[_ID["splitting.apply_split"]]
        out["search.iso_calls"] = iso_calls
        out["search.iso_hit_ratio"] = self.closures / iso_calls if iso_calls else 0.0
        out["incidence.perron_iterations"] = sum(self.perron_iterations)
        out["incidence.bracket_bits"] = self.bracket_bits
        out["words.letters_out"] = self.letters_out
        return out

    def write(self, path: str, op_id: int) -> None:
        """Append the spans to `path`, times relative to the root's start."""
        if not len(self.start):
            return
        t0 = self.start[0]
        with open(path, "ab") as fh:
            fh.write(b"".join(
                RECORD.pack(op_id, nid, p, s - t0, e - t0)
                for nid, p, s, e in zip(self.name, self.parent, self.start, self.end)
            ))


def install(rec: Recorder) -> None:
    """Route every call of a LAYERS function through `rec`.

    Meant for a throwaway process: nothing is restored afterwards.
    """
    observers = {
        "track.isomorphisms": rec._saw_isomorphisms,
        "incidence.dilatation": rec._saw_perron,
        "morphism.compose": rec._saw_compose,
    }
    ttlab_modules = [m for k, m in sys.modules.items()
                     if m is not None and (k == "ttlab" or k.startswith("ttlab."))]
    for name, module, attr in LAYERS:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, rec.wrap(name, getattr(cls, attr)))
            continue
        original = getattr(owner, attr)
        traced = rec.wrap(name, original, observers.get(name))
        for mod in ttlab_modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)


def read(path: str):
    """Yield (op id, name, parent, start_ns, end_ns) from a span file."""
    with open(path, "rb") as fh:
        data = fh.read()
    for op_id, nid, parent, start, end in RECORD.iter_unpack(data):
        yield op_id, NAMES[nid], parent, start, end
