"""Spans around nlpoly's public functions, installed from outside the package.

Every nlpoly module binds the names it imports directly (``from .om import
nonneg_face_lattice``), so a wrapper is installed on every module attribute
that holds the original function, and on the class for methods.  Spans are
kept in memory as ``[name, start, end, parent, instance, counts]`` and
written out by the caller when the run ends.  Tracing is single-threaded:
the parent of a span is the span open when it started.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("cli", "digraph", "ratlin", "om", "union", "poly", "checks")
ROOT = "cli.main"


def _terms(result):
    poly = result[0] if isinstance(result, tuple) else result
    return {"terms": len(poly.terms)}


def _cases(results):
    return {
        "cases": sum(
            int(r.detail.split()[0]) for r in results if r.passed and r.detail.endswith(" cases")
        )
    }


# (span name, defining module, attribute or "Class.method", counter, cache slot).
# A call that finds its result already in the cache slot counts no work.
TARGETS = (
    ("cli.load_input", "cli", "load_input", None, None),
    ("digraph.totally_cyclic_poset", "digraph", "totally_cyclic_poset",
     lambda a, r: {"tested": 1 << a[0].arc_count, "members": len(r)}, None),
    ("digraph.nl_coflow_graphic", "digraph", "nl_coflow_graphic", None, None),
    ("ratlin.rank_rat", "ratlin", "rank_rat", None, None),
    ("ratlin.standard_form", "ratlin", "standard_form", None, None),
    ("ratlin.det_sign_eps", "ratlin", "det_sign_eps", None, None),
    ("om.chirotope_from_matrix", "om", "chirotope_from_matrix",
     lambda a, r: {"tuples": len(r.signs), "bases": sum(1 for s in r.signs.values() if s)}, None),
    ("om.cocircuits", "om", "cocircuits",
     lambda a, r: {"total": len(r), "nonneg": sum(1 for d in r if d.is_nonnegative())},
     "_cocircuits"),
    ("om.nonneg_face_lattice", "om", "nonneg_face_lattice",
     lambda a, r: {"elements": len(r), "max_rank": max(r.rank_of.values())}, "_lattice"),
    ("om.column_rank", "om", "RealizedOM.column_rank", None, None),
    ("om.mobius_from_bottom", "om", "mobius_from_bottom", lambda a, r: {"members": len(r)}, None),
    ("om.standardize", "om", "standardize", None, None),
    ("om.dual_realization", "om", "dual_realization", None, None),
    ("union.build_hat", "union", "build_hat", None, None),
    ("union.minor", "union", "minor", None, None),
    ("poly.nl_coflow_matroid", "poly", "nl_coflow_matroid", lambda a, r: _terms(r), None),
    ("poly.nl_flow_matroid", "poly", "nl_flow_matroid", lambda a, r: _terms(r), None),
    ("poly.dichromate", "poly", "dichromate", lambda a, r: _terms(r), None),
    ("poly.dichromate_from_hat", "poly", "dichromate_from_hat", lambda a, r: _terms(r), None),
    ("checks.run_checks", "checks", "run_checks", lambda a, r: _cases(r), None),
)


def package_modules():
    names = ("nlpoly",) + tuple(f"nlpoly.{m}" for m in MODULES + ("errors",))
    return [importlib.import_module(n) for n in names]


def _resolve(module, attr):
    owner = importlib.import_module(f"nlpoly.{module}")
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def originals():
    """The untraced function object of every target, by span name."""
    out = {}
    for name, module, attr, _, _ in TARGETS:
        owner, key = _resolve(module, attr)
        fn = vars(owner)[key]
        out[name] = getattr(fn, "__wrapped__", fn)
    return out


class Tracer:
    """Install with ``with Tracer() as t:``; run each instance via ``t.root``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._instance = -1
        self._installed = []

    def _wrap(self, name, fn, counter, cache):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cached = cache is not None and getattr(args[0], cache, None) is not None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._instance, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if cached:
                span[5] = {"cached": 1}
            elif counter is not None:
                span[5] = counter(args, result)
            return result

        wrapper.traced = True
        return wrapper

    def install(self):
        modules = package_modules()
        for (name, module, attr, counter, cache), fn in zip(TARGETS, originals().values()):
            wrapper = self._wrap(name, fn, counter, cache)
            owner, key = _resolve(module, attr)
            bindings = [(m, k) for m in modules for k, v in list(vars(m).items()) if v is fn]
            if isinstance(owner, type):
                bindings.append((owner, key))
            for target, target_key in bindings:
                self._installed.append((target, target_key, fn))
                setattr(target, target_key, wrapper)

    def uninstall(self):
        while self._installed:
            target, key, original = self._installed.pop()
            setattr(target, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def root(self, instance, fn, *args):
        """Call ``fn(*args)`` inside the root span of ``instance``."""
        self._instance = instance
        span = [ROOT, 0.0, 0.0, -1, instance, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()


def self_times(spans):
    """Each span's duration minus the time its (non-overlapping) children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    ``_s`` metrics are inclusive times of one function unless marked self;
    counts sum over the calls that did the work (cached calls count none).
    No traced function calls itself, so inclusive times do not overlap.
    """
    own = self_times(spans)
    calls, busy, selft, counts = {}, {}, {}, {}
    mod_busy = dict.fromkeys(MODULES, 0.0)
    mod_self = dict.fromkeys(MODULES, 0.0)
    ancestors = []  # modules of each span's ancestors
    bases_swept = 0
    max_rank = 0
    for i, (name, start, end, parent, _, cnt) in enumerate(spans):
        module = name.split(".")[0]
        anc = ancestors[parent] | {spans[parent][0].split(".")[0]} if parent >= 0 else frozenset()
        ancestors.append(anc)
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + end - start
        selft[name] = selft.get(name, 0.0) + own[i]
        mod_self[module] += own[i]
        if module not in anc:
            mod_busy[module] += end - start
        if name == "union.build_hat" and "checks" in anc:
            bases_swept += 1
        for key, value in (cnt or {}).items():
            if key == "max_rank":
                max_rank = max(max_rank, value)
            else:
                counts[(name, key)] = counts.get((name, key), 0) + value

    def c(name, key):
        return counts.get((name, key), 0)

    def ratio(a, b):
        return a / b if b else 0.0

    b = busy.get
    n = calls.get
    tuples = c("om.chirotope_from_matrix", "tuples")
    coc_total = c("om.cocircuits", "total")
    tested = c("digraph.totally_cyclic_poset", "tested")
    poly_spans = [k for k in selft if k.startswith("poly.")]
    out = {
        "om.chirotope_s": (b("om.chirotope_from_matrix", 0.0), "s"),
        "om.chirotope_calls": (n("om.chirotope_from_matrix", 0), "count"),
        "om.chirotope_tuples": (tuples, "count"),
        "om.basis_ratio": (ratio(c("om.chirotope_from_matrix", "bases"), tuples), "ratio"),
        "om.cocircuits_s": (b("om.cocircuits", 0.0), "s"),
        "om.cocircuits_total": (coc_total, "count"),
        "om.cocircuits_nonneg": (c("om.cocircuits", "nonneg"), "count"),
        "om.cocircuit_use_ratio": (ratio(c("om.cocircuits", "nonneg"), coc_total), "ratio"),
        "om.lattice_s": (selft.get("om.nonneg_face_lattice", 0.0), "s"),
        "om.lattice_elements": (c("om.nonneg_face_lattice", "elements"), "count"),
        "om.lattice_max_rank": (max_rank, "count"),
        "om.column_rank_calls": (n("om.column_rank", 0), "count"),
        "om.column_rank_s": (b("om.column_rank", 0.0), "s"),
        "om.mobius_s": (b("om.mobius_from_bottom", 0.0), "s"),
        "om.mobius_calls": (n("om.mobius_from_bottom", 0), "count"),
        "om.mobius_members": (c("om.mobius_from_bottom", "members"), "count"),
        "om.standardize_s": (b("om.standardize", 0.0), "s"),
        "om.dual_realization_s": (b("om.dual_realization", 0.0), "s"),
        "ratlin.standard_form_s": (b("ratlin.standard_form", 0.0), "s"),
        "digraph.totally_cyclic_poset_s": (selft.get("digraph.totally_cyclic_poset", 0.0), "s"),
        "digraph.subsets_tested": (tested, "count"),
        "digraph.totally_cyclic_subsets": (c("digraph.totally_cyclic_poset", "members"), "count"),
        "digraph.totally_cyclic_ratio": (
            ratio(c("digraph.totally_cyclic_poset", "members"), tested), "ratio"),
        "ratlin.rank_rat_calls": (n("ratlin.rank_rat", 0), "count"),
        "ratlin.rank_rat_s": (b("ratlin.rank_rat", 0.0), "s"),
        "union.minor_calls": (n("union.minor", 0), "count"),
        "union.minor_s": (b("union.minor", 0.0), "s"),
        "ratlin.det_sign_eps_calls": (n("ratlin.det_sign_eps", 0), "count"),
        "ratlin.det_sign_eps_s": (b("ratlin.det_sign_eps", 0.0), "s"),
        "union.build_hat_calls": (n("union.build_hat", 0), "count"),
        "union.build_hat_s": (selft.get("union.build_hat", 0.0), "s"),
        "checks.bases_swept": (bases_swept, "count"),
        "checks.run_checks_s": (selft.get("checks.run_checks", 0.0), "s"),
        "checks.cases": (c("checks.run_checks", "cases"), "count"),
        "poly.assemble_s": (sum(selft[k] for k in poly_spans), "s"),
        "poly.terms": (sum(c(k, "terms") for k in poly_spans), "count"),
        "cli.load_input_s": (b("cli.load_input", 0.0), "s"),
    }
    for module in MODULES:
        out[f"{module}.busy_s"] = (mod_busy[module], "s")
        out[f"{module}.self_s"] = (mod_self[module], "s")
    return out
