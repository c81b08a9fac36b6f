"""In-memory call tracing of the gerbelevels modules, from outside the package.

`Tracer.install()` replaces the public functions and methods of every
module with wrappers (including the names sibling modules imported from
one another, such as `levels.kernel_basis`), so the program runs
unchanged but each call leaves a span: (name, start, end, parent span,
item id).  Calls made more than ~10^5 times per pass are only counted
(COUNT_ONLY), which keeps the tracing overhead low; the two named in
TIMED also add their time to the calling span, as an aggregate per
(span, module), so that self time still goes to the module that spent
it.  Spans stay in memory until `spans()` is called at the end of the
pass.

`layer_metrics()` turns spans and counts into the per-layer metrics:
  *_s        wall time inside calls of the named functions (outermost
             calls only, so nested or recursive calls are not counted twice)
  *self_s    self time: span duration minus the time its child spans cover
  *_calls    number of calls
and the few counts and ratios recorded by return hooks.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("intlinalg", "rootdata", "weyl", "levels", "claims", "obstruction",
           "cech", "cli")

# Called 10^5 - 10^6 times in a pass: counted, no span.  Their time stays in
# the self time of the calling span.
COUNT_ONLY = {
    "weyl.WeylGroup.mult", "weyl.WeylGroup.inverse", "intlinalg.matmul",
    "intlinalg.matvec", "intlinalg.vec_add", "intlinalg.vec_sub",
    "intlinalg.vec_scale", "intlinalg.freeze", "intlinalg.identity",
    "intlinalg.transpose", "intlinalg.shape", "intlinalg.xgcd",
    "intlinalg.RatVector.make", "intlinalg.RatVector.from_fractions",
    "intlinalg.RatVector.fractions", "intlinalg.RatVector.int_vector",
    "intlinalg.RatVector.apply", "intlinalg.RatVector.mod1",
    "intlinalg.frac_matvec",
    "rootdata.fracvec", "rootdata.dot", "rootdata.pairing",
    "levels.LevelTensor.bmap", "levels.LevelTensor.value",
    "levels.SharedWeylAction.target_char_action",
    "levels.SharedWeylAction.target_cochar_action",
    "levels.SharedWeylAction.source_char_action",
    "levels.SharedWeylAction.source_cochar_action",
    "cech.CoefficientGroup.reduce", "cech.CoefficientGroup.add",
    "cech.CoefficientGroup.zero", "cech.FiniteGroupTable.mult",
    "cech.FiniteGroupTable.inverse", "cech.FiniteAction.act_on_simplex",
    "cech.Nerve.level", "weyl.act_cochar", "weyl.act_char",
}

# Count-only calls whose time is also aggregated under the calling span.
TIMED = {"weyl.WeylGroup.mult": "weyl", "intlinalg.matmul": "intlinalg"}

# Private functions and dunders that a per-layer metric needs.
EXTRA = {
    "cech._equivariant_matrices", "cech._cech_matrix", "cech._subquotient",
    "cech.FiniteAction.__post_init__", "cech.FiniteGroupTable.__post_init__",
    "levels.SharedWeylAction._reexpress", "weyl._closure",
    "weyl._minimal_generators", "obstruction._coboundary_system",
    "obstruction._verify_witness",
}

COORDS = {f"rootdata.RootDatum.{m}" for m in (
    "char_coords", "cochar_coords", "char_coords_q", "cochar_coords_q",
    "char_ambient", "cochar_ambient", "root_coords", "coroot_coords")}
SOURCE_ACTION = {"levels.SharedWeylAction.source_char_action",
                 "levels.SharedWeylAction.source_cochar_action"}

# metric -> functions; time inside outermost calls
INCLUSIVE = {
    "rootdata.isogeny_s": {"rootdata.classical_isogeny", "rootdata.build_isogeny",
                           "rootdata.identity_isogeny"},
    "rootdata.coords_s": COORDS,
    "weyl.generate_s": {"weyl.generate"},
    "weyl.stabilizer_s": {"weyl.stabilizer"},
    "weyl.verify_closed_s": {"weyl.Subgroup.verify_closed"},
    "levels.invariant_lattice_s": {"levels.invariant_level_lattice"},
    "levels.ev_filter_s": {"levels.ev_filter"},
    "obstruction.trivial_class_s": {"obstruction.is_trivial_class"},
    "obstruction.class_order_s": {"obstruction.class_order"},
    "obstruction.h1_s": {"obstruction.h1_group_lattice"},
    "cech.action_check_s": {"cech.FiniteAction.__post_init__",
                            "cech.FiniteGroupTable.__post_init__"},
    "intlinalg.snf_s": {"intlinalg.snf"},
    "intlinalg.hnf_s": {"intlinalg.hnf"},
    "intlinalg.solve_s": {"intlinalg.solve_z", "intlinalg.lattice_coords"},
    "intlinalg.frac_solve_s": {"intlinalg.frac_solve"},
}
# metric -> functions; summed self time of their spans
SELF = {
    "levels.compare_self_s": {"levels.compare_with_reference",
                              "levels.claimed_lattice", "levels.claim_key_of",
                              "levels.allowable_lattice"},
    "obstruction.cocycle_self_s": {"obstruction.centralizer_cocycle"},
    "obstruction.scan_self_s": {"obstruction.scan_points"},
}
# metric -> functions; number of calls
CALLS = {
    "rootdata.coords_calls": COORDS,
    "weyl.mult_calls": {"weyl.WeylGroup.mult"},
    "levels.source_action_calls": SOURCE_ACTION,
    "intlinalg.snf_calls": {"intlinalg.snf"},
    "intlinalg.hnf_calls": {"intlinalg.hnf"},
    "intlinalg.solve_calls": {"intlinalg.solve_z", "intlinalg.lattice_coords"},
    "intlinalg.frac_solve_calls": {"intlinalg.frac_solve"},
    "intlinalg.matmul_calls": {"intlinalg.matmul"},
}
# module self time; claims is one JSON read and is folded into cli
MODULE_SELF = {
    "rootdata.self_s": ("rootdata",), "weyl.self_s": ("weyl",),
    "levels.self_s": ("levels",), "obstruction.self_s": ("obstruction",),
    "cech.self_s": ("cech",), "intlinalg.self_s": ("intlinalg",),
    "cli.self_s": ("cli", "claims"),
}
HOOK_SPAN = "trace.hook"


def _max_bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix for x in row), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = [HOOK_SPAN]  # name id 0: return hooks
        self.sp_name: list[int] = []
        self.sp_start: list[float] = []
        self.sp_end: list[float] = []
        self.sp_parent: list[int] = []
        self.sp_item: list[int] = []
        self.stack = [-1]
        self.counts: dict[str, list[int]] = {}
        self.item = -1
        self.stats = {"weyl.elements": 0, "obstruction.scan_reps": 0,
                      "obstruction.scan_points": 0, "obstruction.wl_order_max": 0,
                      "cech.complex_cells": 0, "intlinalg.snf_max_cells": 0,
                      "intlinalg.max_entry_bits": 0}
        self.snf_inputs: set[int] = set()
        self.source_pairs: set[tuple] = set()
        self.scan_nid = -1  # name id of obstruction.scan_points
        self.scan_acts = 0  # act_cochar calls made directly by the scan
        self.agg: dict[tuple[int, str], float] = {}
        self._busy = [0]
        self._wrapped: dict[int, object] = {}

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"gerbelevels.{m}") for m in MODULES}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    if not attr.startswith("_") or name in EXTRA:
                        setattr(mod, attr, self._wrap(name, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        # rebind the names each module imported from its siblings
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                w = self._wrapped.get(id(obj))
                if w is not None:
                    setattr(mod, attr, w)
        if "obstruction.scan_points" in self.names:
            self.scan_nid = self.names.index("obstruction.scan_points")

    def _wrap_class(self, short, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            name = f"{short}.{cls.__name__}.{attr}"
            public = not attr.startswith("_") or name in EXTRA
            if isinstance(obj, classmethod) and public:
                setattr(cls, attr, classmethod(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj) and public:
                setattr(cls, attr, self._wrap(name, obj))

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        if name in COUNT_ONLY:
            w = self._counting(name, fn, hook)
        else:
            w = self._spanning(name, fn, hook)
        w.__wrapped__ = fn
        w.__name__ = fn.__name__
        self._wrapped[id(fn)] = w
        return w

    def _counting(self, name, fn, hook):
        cnt = self.counts.setdefault(name, [0])
        if name in TIMED:
            return self._timed(cnt, TIMED[name], fn)
        if hook is None:
            def counted(*a, **k):
                cnt[0] += 1
                return fn(*a, **k)
        else:
            def counted(*a, **k):
                cnt[0] += 1
                hook(self, a, None)
                return fn(*a, **k)
        return counted

    def _timed(self, cnt, module, fn):
        agg, stack, busy, perf = self.agg, self.stack, self._busy, time.perf_counter

        def timed(*a, **k):
            cnt[0] += 1
            if busy[0]:  # nested in another timed call: counted once in time
                return fn(*a, **k)
            busy[0] = 1
            t0 = perf()
            try:
                return fn(*a, **k)
            finally:
                key = (stack[-1], module)
                agg[key] = agg.get(key, 0.0) + perf() - t0
                busy[0] = 0
        return timed

    def _spanning(self, name, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        sp_name, sp_start, sp_end = self.sp_name, self.sp_start, self.sp_end
        sp_parent, sp_item, stack = self.sp_parent, self.sp_item, self.stack
        perf = time.perf_counter

        def spanned(*a, **k):
            idx = len(sp_name)
            sp_name.append(nid)
            sp_parent.append(stack[-1])
            sp_item.append(self.item)
            sp_end.append(0.0)
            stack.append(idx)
            sp_start.append(perf())
            try:
                res = fn(*a, **k)
            finally:
                sp_end[idx] = perf()
                stack.pop()
            if hook is not None:
                self._run_hook(hook, a, res)
            return res
        return spanned

    def _run_hook(self, hook, args, res):
        """Run a return hook inside its own span, so that its time is not
        charged to the caller's self time."""
        idx = len(self.sp_name)
        self.sp_name.append(0)
        self.sp_parent.append(self.stack[-1])
        self.sp_item.append(self.item)
        self.sp_start.append(time.perf_counter())
        self.sp_end.append(0.0)
        hook(self, args, res)
        self.sp_end[idx] = time.perf_counter()

    # -- results ----------------------------------------------------------

    def spans(self) -> dict:
        return {"names": self.names, "name": self.sp_name, "start": self.sp_start,
                "end": self.sp_end, "parent": self.sp_parent, "item": self.sp_item,
                "agg": [[i, m, t] for (i, m), t in self.agg.items()]}

    def summary(self) -> dict:
        """Counts and hook statistics, to be merged with span analysis."""
        stats = dict(self.stats)
        stats["intlinalg.snf_distinct"] = len(self.snf_inputs)
        stats["levels.source_action_distinct"] = len(self.source_pairs)
        return {"counts": {k: v[0] for k, v in self.counts.items()},
                "stats": stats}


# -- return hooks (tracer, positional args, result) -----------------------


def _on_generate(t, a, res):
    t.stats["weyl.elements"] += len(res)


def _on_cocycle(t, a, res):
    t.stats["obstruction.wl_order_max"] = max(t.stats["obstruction.wl_order_max"],
                                              len(res.w_l))


def _on_act_cochar(t, a, res):
    top = t.stack[-1]
    if top >= 0 and t.sp_name[top] == t.scan_nid:
        t.scan_acts += 1


def _on_scan(t, a, res):
    """Points the scan examined: the act_cochar calls it made itself (its
    orbit-representative search, not those of its child spans) over |W|."""
    t.stats["obstruction.scan_reps"] += len(res.rows)
    t.stats["obstruction.scan_points"] += t.scan_acts / len(a[0].group.elements)
    t.scan_acts = 0


def _on_equivariant_matrices(t, a, res):
    t.stats["cech.complex_cells"] += res[1] * res[2]


def _on_cech_matrix(t, a, res):
    if res:
        t.stats["cech.complex_cells"] += len(res) * len(res[0])


def _on_snf(t, a, res):
    m = a[0]
    t.snf_inputs.add(hash(m))
    cells = len(m) * (len(m[0]) if m else 0)
    t.stats["intlinalg.snf_max_cells"] = max(t.stats["intlinalg.snf_max_cells"], cells)
    t.stats["intlinalg.max_entry_bits"] = max(t.stats["intlinalg.max_entry_bits"],
                                              _max_bits(m))


def _on_hnf(t, a, res):
    t.stats["intlinalg.max_entry_bits"] = max(t.stats["intlinalg.max_entry_bits"],
                                              _max_bits(a[0]))


def _on_source_char_action(t, a, res):
    t.source_pairs.add((t.item, "char", id(a[0]), a[1]))


def _on_source_cochar_action(t, a, res):
    t.source_pairs.add((t.item, "cochar", id(a[0]), a[1]))


HOOKS = {
    "weyl.generate": _on_generate,
    "obstruction.centralizer_cocycle": _on_cocycle,
    "obstruction.scan_points": _on_scan,
    "cech._equivariant_matrices": _on_equivariant_matrices,
    "cech._cech_matrix": _on_cech_matrix,
    "intlinalg.snf": _on_snf,
    "intlinalg.hnf": _on_hnf,
    "levels.SharedWeylAction.source_char_action": _on_source_char_action,
    "levels.SharedWeylAction.source_cochar_action": _on_source_cochar_action,
    "weyl.act_cochar": _on_act_cochar,
}


# -- analysis -------------------------------------------------------------


def self_times(spans: dict) -> list[float]:
    """Each span's duration minus the time its child spans cover, and minus
    the aggregated time of TIMED calls made directly under it."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    for i, _module, t in spans["agg"]:
        out[i] -= t
    return out


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: dict, summary: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    names = spans["names"]
    sname, start, end, parent = (spans["name"], spans["start"], spans["end"],
                                 spans["parent"])
    selfs = self_times(spans)
    out = {}
    by_module = module_split(spans)
    by_name_self: dict[str, float] = {}
    by_name_calls: dict[str, int] = {}
    for i, nid in enumerate(sname):
        n = names[nid]
        by_name_self[n] = by_name_self.get(n, 0.0) + selfs[i]
        by_name_calls[n] = by_name_calls.get(n, 0) + 1
    for metric, mods in MODULE_SELF.items():
        out[metric] = sum(by_module.get(m, 0.0) for m in mods)
    for metric, fns in SELF.items():
        out[metric] = sum(by_name_self.get(f, 0.0) for f in fns)
    for metric, fns in INCLUSIVE.items():
        ids = {i for i, n in enumerate(names) if n in fns}
        total = 0.0
        for i, nid in enumerate(sname):
            if nid not in ids:
                continue
            p = parent[i]
            while p >= 0 and sname[p] not in ids:
                p = parent[p]
            if p < 0:
                total += end[i] - start[i]
        out[metric] = total
    counts = summary["counts"]
    for metric, fns in CALLS.items():
        out[metric] = sum(counts.get(f, by_name_calls.get(f, 0)) for f in fns)
    stats = summary["stats"]
    for k in ("weyl.elements", "obstruction.scan_reps", "obstruction.scan_points",
              "obstruction.wl_order_max", "cech.complex_cells",
              "intlinalg.snf_max_cells", "intlinalg.max_entry_bits"):
        out[k] = stats[k]
    calls = out["levels.source_action_calls"]
    out["levels.source_action_hit_ratio"] = (
        1 - stats["levels.source_action_distinct"] / calls if calls else 0.0)
    snfs = out["intlinalg.snf_calls"]
    out["intlinalg.snf_distinct_ratio"] = (
        stats["intlinalg.snf_distinct"] / snfs if snfs else 0.0)
    return out


def module_split(spans: dict) -> dict:
    """Self time per module (the layer table)."""
    names = spans["names"]
    out: dict[str, float] = {}
    for nid, st in zip(spans["name"], self_times(spans)):
        m = _module(names[nid])
        out[m] = out.get(m, 0.0) + st
    for _i, module, t in spans["agg"]:
        out[module] = out.get(module, 0.0) + t
    return out


# The atlas split of ROADMAP item 1: time goes to the innermost enclosing
# stage, so the stages partition the traced time.  Coordinate methods keep
# the rational solves they make.
ATLAS_STAGES = (
    ("coordinate solves", COORDS),
    ("isogeny build", INCLUSIVE["rootdata.isogeny_s"]),
    ("Weyl generation", {"weyl.generate"}),
    ("invariant lattice", {"levels.invariant_level_lattice"}),
    ("evenness filter", {"levels.ev_filter"}),
    ("reference comparison", SELF["levels.compare_self_s"]),
    ("source actions", {"levels.SharedWeylAction._reexpress"}),
    ("command line", {"cli.main"}),
)


def stage_split(spans: dict, stages=ATLAS_STAGES) -> dict:
    names = spans["names"]
    sname, parent = spans["name"], spans["parent"]
    stage_of_name = {}
    for label, fns in stages:
        for i, n in enumerate(names):
            if n in fns and i not in stage_of_name:
                stage_of_name[i] = label
    selfs = self_times(spans)
    stage = [None] * len(sname)
    out = {label: 0.0 for label, _ in stages}
    out["other"] = 0.0
    out["tracing"] = 0.0
    for i, nid in enumerate(sname):
        s = "tracing" if names[nid] == HOOK_SPAN else stage_of_name.get(nid)
        if s is None and parent[i] >= 0:
            s = stage[parent[i]]
        stage[i] = s
        out[s or "other"] += selfs[i]
    for i, _module, t in spans["agg"]:
        out[stage[i] or "other"] += t
    return out
