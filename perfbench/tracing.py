"""Span and counter recorder for the traced benchmark run.

Tracing is installed from outside the program: the public functions of the
layer modules are replaced by timing wrappers, in every `hopfmonad` module
that bound them by name (``compare_at`` lives in ``monad`` but is also bound
in ``antipode`` and ``hopfstruct``), and a few methods are wrapped on their
class.  Nothing under ``src/`` is edited.

Spans (name, start, end, parent id) and counters stay in memory and are
written out once, when the operation ends.  Totals, counters and maxima are
kept per phase: "setup" until `verify_model` is entered, "run" from then on,
so the "run" figures cover the same window as the benchmark's `wall_s`.
"""

from __future__ import annotations

import json
import sys
import time

# (module, function) pairs wrapped wherever they are bound
FUNCTIONS = [
    ("exactla", "solve_affine"),
    ("qtrib", "drinfeld_element"),
    ("qtrib", "drinfeld_inverse"),
    ("qtrib", "star_inverse_of_r"),
    ("antipode", "is_involutory"),
    ("antipode", "square_of_antipode"),
    ("hopfstruct", "gamma_family"),
    ("hopfstruct", "fundamental_iso"),
    ("hopfstruct", "solve_integrals"),
    ("hopfstruct", "maschke_verdict"),
    ("modcat", "module_hom_space"),
    ("presentation", "load"),
    ("monad", "compare_at"),
]

# verify_model runs its suites in this order (hopfmonad.verify.SUITES, copied
# so that the metric names stay fixed), each behind one `"<suite>" in checks`
# test; the time between two tests is the suite's
SUITE_ORDER = ("axioms", "derived", "modules", "hopfmodules", "integrals",
               "maschke", "quasitriangular")


class Recorder:
    """In-memory spans plus per-phase totals; self time excludes children."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.stack: list[list] = []   # open spans: [id, name, start, child_s]
        self.phases = {p: {"totals": {}, "counters": {}, "maxima": {}}
                       for p in ("setup", "run")}
        self.phase = "setup"
        self.cache_at_run = None  # cache_info() when the "run" phase began

    def _acc(self, kind: str) -> dict:
        return self.phases[self.phase][kind]

    def begin(self, name: str) -> None:
        self.stack.append([len(self.spans) + len(self.stack), name,
                           time.perf_counter(), 0.0])

    def end(self) -> float:
        now = time.perf_counter()
        sid, name, start, child_s = self.stack.pop()
        dur = now - start
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][3] += dur
        self.spans.append((sid, name, start, now, parent))
        tot = self._acc("totals").setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        tot["calls"] += 1
        tot["s"] += dur
        tot["self_s"] += dur - child_s
        return dur

    def count(self, name: str, amount: float = 1) -> None:
        counters = self._acc("counters")
        counters[name] = counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        maxima = self._acc("maxima")
        if value > maxima.get(name, 0):
            maxima[name] = value

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": sorted(self.spans)}, fh)

    def summary(self) -> dict:
        return self.phases


def _rebind(original, replacement) -> None:
    """Replace `original` in every loaded hopfmonad module that bound it."""
    for name, mod in list(sys.modules.items()):
        if name == "hopfmonad" or name.startswith("hopfmonad."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


class SuiteClock(tuple):
    """The `checks` tuple of verify_model, timing each `in` test.

    verify_model asks `"<suite>" in checks` once per suite, in SUITE_ORDER,
    so each test marks the end of the previous suite's span.
    """

    rec: Recorder

    def __contains__(self, suite):
        if self.rec.stack and self.rec.stack[-1][1].startswith("verify.suite."):
            self.rec.end()
        self.rec.begin(f"verify.suite.{suite}")
        return tuple.__contains__(self, suite)


def install(rec: Recorder) -> None:
    """Wrap the layer functions of an imported hopfmonad with `rec` spans."""
    import importlib

    from hopfmonad import cat, chain, exactla, report, verify

    for mod_name, fn_name in FUNCTIONS:
        mod = importlib.import_module(f"hopfmonad.{mod_name}")
        fn = getattr(mod, fn_name)
        if fn_name == "compare_at":
            wrapped = _counted_compare_at(rec, fn)
        else:
            wrapped = rec.span(f"{mod_name}.{fn_name}", fn)
        _rebind(fn, wrapped)

    spec = exactla.FieldSpec
    matmul, rref = spec.matmul, spec.rref

    def traced_matmul(self, a, b):
        name = f"exactla.matmul.{self.kind}"
        rec.begin(name)
        try:
            out = matmul(self, a, b)
        finally:
            rec.end()
        rec.count(f"{name}.flop", 2 * a.shape[0] * a.shape[1] * b.shape[1])
        rec.count(f"{name}.bytes", sum(x.size * x.itemsize for x in (a, b, out)))
        return out

    def traced_rref(self, a):
        name = f"exactla.rref.{self.kind}"
        rec.peak(f"{name}.max_entries", a.size)
        rec.begin(name)
        try:
            return rref(self, a)
        finally:
            rec.end()

    spec.matmul, spec.rref = traced_matmul, traced_rref

    chain_eval = chain.Chain.eval

    def traced_eval(self):
        rec.begin("chain.eval")
        try:
            out = chain_eval(self)
        finally:
            rec.end()
        rec.peak("chain.eval.max_out_entries",
                 sum(b.size for b in out.blocks.values()))
        return out

    chain.Chain.eval = traced_eval
    cat.GradedMor.compose = rec.span("cat.compose", cat.GradedMor.compose)
    report.Report.dumps = rec.span("report.dumps", report.Report.dumps)

    verify_model = verify.verify_model

    def traced_verify(model, checks=verify.SUITES, *args, **kwargs):
        clock = SuiteClock(checks)
        clock.rec = rec
        rec.phase = "run"
        rec.cache_at_run = cache_info()
        rec.begin("verify.verify_model")
        try:
            return verify_model(model, clock, *args, **kwargs)
        finally:
            if rec.stack[-1][1].startswith("verify.suite."):
                rec.end()
            rec.end()

    _rebind(verify_model, traced_verify)


def _counted_compare_at(rec: Recorder, compare_at):
    def wrapper(report, check, items):
        def counted():
            for item in items:
                rec.count("monad.compare_at.items")
                yield item
        rec.begin("monad.compare_at")
        try:
            return compare_at(report, check, counted())
        finally:
            rec.end()
    wrapper.__wrapped__ = compare_at
    return wrapper


def cache_info(since: dict | None = None) -> dict:
    """Totals over the lru caches of hopfmonad.cat at this moment.

    With `since` (an earlier result), hits and misses count from then on.
    """
    from hopfmonad import cat
    hits = misses = entries = 0
    for value in vars(cat).values():
        info = getattr(value, "cache_info", None)
        if callable(info):
            ci = info()
            hits, misses, entries = (hits + ci.hits, misses + ci.misses,
                                     entries + ci.currsize)
    if since:
        hits, misses = hits - since["hits"], misses - since["misses"]
    return {"hits": hits, "misses": misses, "entries": entries}
