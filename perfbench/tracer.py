"""Per-layer tracing of transferlab from outside the library.

``Tracer.install`` replaces each layer module's public functions with a
wrapper that records a span (name, parent span, start, end) and rebinds
the wrapper everywhere the function was imported by name, since modules
such as ``checkers`` and ``cli`` call ``from .x import y`` copies that
would otherwise bypass the wrapper.  Hot methods that would swamp the
trace with spans (``Perm`` composition, membership tests, cap checks) are
counted instead.  ``uninstall`` puts every original back.

Spans stay in memory until the run ends; ``write`` dumps them and
``metrics`` reduces them to the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time
from array import array

# Layers whose public functions get a span, in import order.
SPAN_LAYERS = ("group", "iso", "series", "sylow", "transfer", "checkers", "catalog", "cli")
# Modules that may hold a by-name copy of a wrapped function.
ALL_MODULES = ("caps", "perm") + SPAN_LAYERS

CHECKER_IDS = (
    "aux_gruen_instance", "burnside", "cor_1_11", "cor_1_5", "cor_1_6", "cor_1_9",
    "hall_wielandt", "lemma_3_1", "lemma_3_2", "main_1_3", "main_1_3_weak",
    "prop_3_4", "thm_1_10", "thm_1_8", "thm_1_8_weak", "thm_4_1",
    "thm_4_10_property", "thm_4_2", "thm_4_3", "thm_4_4_janko", "thm_4_5",
    "thm_4_8", "yoshida",
)
# The four most expensive corpus pairs.
COSTLY_PAIRS = ("PSL2_17-p2", "Z3wrZ3-p3", "S6-p2", "Q32-p2")

SELF_TIME_FUNCTIONS = (
    "group.right_transversal", "group.is_maximal", "group.intersection",
    "group.normalizer", "group.centralizer", "group.normal_closure",
    "group.quotient_group", "group.double_coset_reps", "group.core",
    "iso.all_subgroups", "iso.is_isomorphic", "iso.abelian_invariants",
    "series.o_p", "series.o_upper_p", "series.a_p", "series.norm", "series.center",
    "series.z_k",
    "sylow.sylow_subgroup", "sylow.all_sylow_subgroups", "sylow.sylow_intersections",
    "sylow.max_intersection_order", "sylow.tame_intersections_between",
    "sylow.is_weakly_closed",
    "transfer.transfer", "transfer.pretransfer", "transfer.controls_p_transfer",
    "transfer.focal_subgroup", "transfer.lemma23_witness",
)
# Both automorphism searches are reported as one figure.
AUTOMORPHISM_FUNCTIONS = ("iso.automorphism_group", "iso.automorphism_representatives")
COUNTERS = (
    "perm.mul_calls", "perm.inverse_calls", "perm.conjugate_calls",
    "group.contains_calls", "caps.cap_checks", "caps.cap_hits",
)
CHAIN_BUILD = "group.chain_build"


def metric_names() -> list[str]:
    """Every per-layer metric ``Tracer.metrics`` reports, in report order."""
    names = list(COUNTERS)
    names += ["group.elements_enumerated", "group.chain_builds", "group.chain_build_s"]
    names += ["group.right_transversal.calls", "group.intersection.calls", "iso.all_subgroups.calls"]
    names += [f"{f}.self_s" for f in SELF_TIME_FUNCTIONS]
    names += ["iso.automorphism.self_s", "sylow.max_intersection_order.intersections"]
    names += [f"{layer}.self_s" for layer in SPAN_LAYERS]
    names += [f"checkers.{c}.s" for c in CHECKER_IDS]
    names += [f"checkers.pair.{p}.s" for p in COSTLY_PAIRS]
    names += ["catalog.default_corpus.s", "trace.coverage", "trace.overhead"]
    return names


def metric_unit(name: str) -> str:
    if name.startswith("trace."):
        return "ratio"
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def pair_tag(label: str, prime: int) -> str:
    """A metric-safe (group, prime) tag, e.g. PSL(2,17) at 2 -> PSL2_17-p2."""
    safe = label.replace("(", "").replace(")", "").replace(",", "_")
    return f"{safe}-p{prime}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[str] = [""]
        self._tag_ids: dict[str, int] = {"": 0}
        # One entry per span, in start order, so a parent precedes its children.
        self.span_name = array("i")
        self.span_tag = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._counters = {name: itertools.count() for name in COUNTERS}
        self._elements_enumerated = [0]
        self._restore: list[tuple[object, str, object]] = []

    # recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _tag_id(self, tag: str) -> int:
        if tag not in self._tag_ids:
            self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return self._tag_ids[tag]

    def _spanned(self, fn, name_of):
        """Wrap fn so each call records a span; name_of(args) -> (name id, tag id)."""
        stack = self._stack
        names, tags, parents = self.span_name, self.span_tag, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name_id, tag_id = name_of(args)
            idx = len(starts)
            names.append(name_id)
            tags.append(tag_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _named_span(self, fn, name: str):
        ids = (self._name_id(name), 0)
        return self._spanned(fn, lambda args: ids)

    def _checker_span(self, fn):
        """run_checker(checker_id, group, prime, ...): one name per checker,
        tagged with its (group, prime) pair."""

        plain = (self._name_id("checkers.run_checker"), 0)

        def name_of(args):
            if len(args) < 3:
                return plain
            checker_id, group, prime = args[:3]
            return (
                self._name_id(f"checkers.{checker_id}"),
                self._tag_id(pair_tag(group.name or "", prime)),
            )

        return self._spanned(fn, name_of)

    def _counted(self, fn, counter: str):
        tick = self._counters[counter].__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    # install / uninstall -----------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"transferlab.{m}") for m in ALL_MODULES}
        package = importlib.import_module("transferlab")

        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in SPAN_LAYERS:
            mod = mods[layer]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    if (layer, name) == ("checkers", "run_checker"):
                        wrapped = self._checker_span(obj)
                    else:
                        wrapped = self._named_span(obj, f"{layer}.{name}")
                    wrappers[id(obj)] = (obj, wrapped)
        check_cap = mods["caps"].check_cap
        wrappers[id(check_cap)] = (check_cap, self._cap_check(check_cap))
        for mod in [package, *mods.values()]:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

        perm_cls, group_cls = mods["perm"].Perm, mods["group"].PermGroup
        sample = group_cls(1, [])
        hooks = [
            (perm_cls, "__mul__", lambda f: self._counted(f, "perm.mul_calls")),
            (perm_cls, "inverse", lambda f: self._counted(f, "perm.inverse_calls")),
            (perm_cls, "conjugate", lambda f: self._counted(f, "perm.conjugate_calls")),
            (group_cls, "contains", lambda f: self._counted(f, "group.contains_calls")),
        ]
        # These two read the group's caches; without them the metric reads 0.
        if hasattr(sample, "_elements"):
            hooks.append((group_cls, "elements", self._enumeration))
        if hasattr(sample, "_chain") and isinstance(group_cls.__dict__.get("chain"), property):
            hooks.append((group_cls, "chain", self._chain_property))
        for owner, name, make in hooks:
            if name in owner.__dict__:
                self._set(owner, name, make(owner.__dict__[name]))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _cap_check(self, fn):
        checks = self._counters["caps.cap_checks"].__next__
        hits = self._counters["caps.cap_hits"].__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            checks()
            try:
                return fn(*args, **kwargs)
            except Exception:
                hits()
                raise

        return wrapper

    def _enumeration(self, fn):
        """PermGroup.elements: add |G| whenever a group lists its elements."""
        total = self._elements_enumerated

        @functools.wraps(fn)
        def wrapper(group, *args, **kwargs):
            fresh = group._elements is None
            out = fn(group, *args, **kwargs)
            if fresh:
                total[0] += len(out)
            return out

        return wrapper

    def _chain_property(self, prop: property) -> property:
        """PermGroup.chain: a span around the first access, which builds it."""
        build = self._named_span(prop.fget, CHAIN_BUILD)
        cached = prop.fget

        def chain(group):
            return build(group) if group._chain is None else cached(group)

        return property(chain, doc=prop.__doc__)

    # reduction ---------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures for a traced run whose timed part took wall_s.

        Everything in metric_names() except trace.overhead, which needs the
        untraced run.  Reading the counters advances them: call once.
        """
        n = len(self.span_start)
        names, parents, tags = self.span_name, self.span_parent, self.span_tag
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]

        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl_s = [0.0] * len(self.names)
        pair_s: dict[str, float] = {}
        mio = self._name_ids.get("sylow.max_intersection_order", -1)
        inter = self._name_ids.get("group.intersection", -1)
        under_mio = [False] * n
        mio_intersections = 0
        roots_s = 0.0
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            incl_s[nid] += dur[i]
            p = parents[i]
            if p < 0:
                roots_s += dur[i]
            under_mio[i] = nid == mio or (p >= 0 and under_mio[p])
            if nid == inter and p >= 0 and under_mio[p]:
                mio_intersections += 1
            if tags[i]:
                tag = self.tags[tags[i]]
                pair_s[tag] = pair_s.get(tag, 0.0) + dur[i]

        def by(table, name, default=0):
            nid = self._name_ids.get(name)
            return default if nid is None else table[nid]

        out: dict[str, float] = {name: next(c) for name, c in self._counters.items()}
        out["group.elements_enumerated"] = self._elements_enumerated[0]
        out["group.chain_builds"] = by(calls, CHAIN_BUILD)
        out["group.chain_build_s"] = by(incl_s, CHAIN_BUILD, 0.0)
        for f in ("group.right_transversal", "group.intersection", "iso.all_subgroups"):
            out[f"{f}.calls"] = by(calls, f)
        for f in SELF_TIME_FUNCTIONS:
            out[f"{f}.self_s"] = by(self_s, f, 0.0)
        out["iso.automorphism.self_s"] = sum(by(self_s, f, 0.0) for f in AUTOMORPHISM_FUNCTIONS)
        out["sylow.max_intersection_order.intersections"] = mio_intersections
        for layer in SPAN_LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for name, s in zip(self.names, self_s) if name.split(".")[0] == layer
            )
        for c in CHECKER_IDS:
            out[f"checkers.{c}.s"] = by(incl_s, f"checkers.{c}", 0.0)
        for p in COSTLY_PAIRS:
            out[f"checkers.pair.{p}.s"] = pair_s.get(p, 0.0)
        out["catalog.default_corpus.s"] = by(incl_s, "catalog.default_corpus", 0.0)
        out["trace.coverage"] = roots_s / wall_s if wall_s > 0 else 0.0
        return {name: out[name] for name in metric_names() if name != "trace.overhead"}

    def write(self, path: str) -> None:
        """One line per span: id, parent, name, pair tag, start, end (s)."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\ttag\tstart\tend\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.tags[self.span_tag[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\n"
                )
