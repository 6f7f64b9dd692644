"""Spans recorded from outside the icx package, and the per-layer metrics built from them.

The tracer wraps the public functions of the nine icx modules (and the private
helpers one module imports from another) and patches every module binding that
refers to them, so a call made through ``from .x import y`` is seen too.  Classes
are patched in place: their substantive methods are wrapped on the class itself,
which every binding of the class (``oracle.LinearScheme``, ``icx.Matrix``) shares.
Element accessors and field arithmetic stay unwrapped; their cost lands in the
caller's self time.  ``install`` returns a handle whose ``restore`` puts every
original object back.

A span is ``[name, layer, start, end, parent index, job id, note]``.  Spans are
kept in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

from icx.errors import BudgetExceeded

LAYERS = ("galois", "model", "scheme", "alignment", "symmetric", "unicast", "bounds", "oracle", "cli")

# Methods wrapped on the classes; everything else on a class is left alone.
CLASS_METHODS = {
    ("galois", "Matrix"): (
        "zeros", "identity", "from_rows", "from_cols", "__matmul__", "add", "neg", "scale",
        "transpose", "hstack", "hstack_all", "take_cols", "take_rows",
        "rref", "rank", "nullspace", "left_nullspace", "inverse", "column_echelon",
    ),
    ("galois", "Subspace"): ("from_matrix", "contains", "intersect"),
    ("bounds", "BoundCertificate"): ("evaluate", "violated_by"),
    ("scheme", "LinearScheme"): ("__init__",),  # construction checks every matrix
}

ELIM = frozenset(
    f"galois.Matrix.{m}"
    for m in ("rank", "rref", "nullspace", "left_nullspace", "inverse", "column_echelon")
)
SUBSPACE = frozenset(f"galois.Subspace.{m}" for m in ("from_matrix", "contains", "intersect"))
MATMUL = "galois.Matrix.__matmul__"
CHECKS = frozenset(
    ("scheme.verify", "scheme.synthesize_decoders", "scheme.dimension_audit", "scheme._independent_rows")
)
SIMS = frozenset(("scheme.simulate_exhaustive", "scheme.simulate_sampled"))


def _note(name, args, result, exc):
    """Work counts taken at the boundary of a call, or None."""
    if name in ELIM:
        return (args[0].rows, args[0].cols)
    if name in SIMS and result is not None:
        return (result.ok, result.tuples_checked)
    if name in ("oracle.minrank_gf2", "oracle.best_scalar_scheme") and result is not None:
        return (result.value, result.search_space_size)
    if name == "bounds.chain_bounds":
        if isinstance(exc, BudgetExceeded):
            return ("budget", len(exc.partial or ()))
        if result is not None:
            return ("complete", len(result))
    return None


class Tracer:
    """Collects spans while ``job`` is set; calls outside a job are not recorded."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None

    def wrap(self, name, layer, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            result = exc = None
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
                rec[6] = _note(name, args, result, exc)

        traced.__wrapped_by_perfbench__ = fn
        return traced


class Installed:
    """The patches applied by ``install``; ``restore`` undoes them."""

    def __init__(self):
        self.patches = []  # (owner, attribute, original value)

    def set(self, owner, attr, value):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def _modules():
    return {layer: importlib.import_module(f"icx.{layer}") for layer in LAYERS}


def install(tracer: Tracer) -> Installed:
    """Wrap the icx layers for ``tracer``; returns the handle that restores them."""
    mods = _modules()
    by_name = {m.__name__: layer for layer, m in mods.items()}
    everywhere = list(mods.values()) + [importlib.import_module("icx")]

    # Functions to wrap: public ones defined in a layer module, plus private
    # helpers that another module imports by name.
    targets = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ in by_name:
                home = by_name[obj.__module__]
                if not obj.__name__.startswith("_") or home != layer:
                    targets[obj] = f"{home}.{obj.__name__}"
    wrappers = {fn: tracer.wrap(name, name.split(".")[0], fn) for fn, name in targets.items()}

    handle = Installed()
    try:
        for mod in everywhere:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    handle.set(mod, attr, wrappers[obj])
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(mods[layer], cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, staticmethod):
                    handle.set(cls, meth, staticmethod(tracer.wrap(name, layer, raw.__func__)))
                else:
                    handle.set(cls, meth, tracer.wrap(name, layer, raw))
    except BaseException:
        handle.restore()
        raise
    return handle


def check_restored():
    """Problems if any wrapper installed by this module is still bound."""
    problems = []
    mods = _modules()
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            if hasattr(obj, "__wrapped_by_perfbench__"):
                problems.append(f"icx.{layer}.{attr} still wrapped")
    for (layer, cls_name), methods in CLASS_METHODS.items():
        cls = getattr(mods[layer], cls_name)
        for meth in methods:
            raw = cls.__dict__[meth]
            raw = raw.__func__ if isinstance(raw, staticmethod) else raw
            if hasattr(raw, "__wrapped_by_perfbench__"):
                problems.append(f"icx.{layer}.{cls_name}.{meth} still wrapped")
    return problems


# ----------------------------------------------------------------------
# per-layer metrics from one traced pass
# ----------------------------------------------------------------------


class SpanTree:
    def __init__(self, spans):
        self.spans = spans
        self.children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[4] >= 0:
                self.children[s[4]].append(i)
        self.dur = [s[3] - s[2] for s in spans]
        self.self_time = [
            self.dur[i] - sum(self.dur[c] for c in self.children[i]) for i in range(len(spans))
        ]

    def outermost(self, names):
        """Spans named in `names` with no ancestor named in `names`."""
        out = []
        for i, s in enumerate(self.spans):
            if s[0] not in names:
                continue
            p = s[4]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][4]
            if p < 0:
                out.append(i)
        return out

    def inclusive(self, names):
        return sum(self.dur[i] for i in self.outermost(names))

    def subtree_self(self, roots, keep):
        """Self time of spans under `roots` (inclusive) whose layer passes `keep`."""
        total = 0.0
        todo = list(roots)
        while todo:
            i = todo.pop()
            if keep(self.spans[i][1]):
                total += self.self_time[i]
            todo.extend(self.children[i])
        return total

    def problems(self, eps=1e-7):
        out = []
        for i, s in enumerate(self.spans):
            if s[3] < s[2]:
                out.append(f"span {i} ({s[0]}) ends before it starts")
            if self.self_time[i] < -eps:
                out.append(f"span {i} ({s[0]}) has negative self time")
            if s[4] >= 0:
                p = self.spans[s[4]]
                if s[2] < p[2] - eps or s[3] > p[3] + eps:
                    out.append(f"span {i} ({s[0]}) leaves its parent {s[4]}")
        return out


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans, job_times):
    """Per-layer metrics of one traced pass.

    `job_times` maps job id to the wall time the harness measured around the
    job.  Returns (metrics, problems): problems name any span-tree defect or a
    failure of layer self times plus harness self time to add up to the pass's
    traced wall time.
    """
    tree = SpanTree(spans)
    problems = tree.problems()
    wall = sum(job_times.values())
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        layer_self[s[1]] += tree.self_time[i]
    top_by_job = {}
    for i, s in enumerate(spans):
        if s[4] < 0:
            top_by_job[s[5]] = top_by_job.get(s[5], 0.0) + tree.dur[i]
    harness_self = sum(t - top_by_job.get(job, 0.0) for job, t in job_times.items())
    if harness_self < -1e-6:
        problems.append(f"spans cover more than the traced wall time ({harness_self:.6f} s)")
    accounted = sum(layer_self.values()) + harness_self
    if abs(accounted - wall) > 1e-6 * max(1.0, wall):
        problems.append(f"self times add to {accounted:.6f} s, traced wall is {wall:.6f} s")

    def by_name(names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    elim = tree.outermost(ELIM)
    ops = sum(r * c * min(r, c) for r, c in (spans[i][6] for i in elim))
    small = sum(1 for i in elim if spans[i][6][0] * spans[i][6][1] <= 64)
    matmul = by_name({MATMUL})

    sims = by_name(SIMS)
    ex_ok = [i for i in sims if spans[i][0] == "scheme.simulate_exhaustive" and spans[i][6] and spans[i][6][0]]
    sa_ok = [i for i in sims if spans[i][0] == "scheme.simulate_sampled" and spans[i][6] and spans[i][6][0]]
    cex = [i for i in sims if spans[i][6] and not spans[i][6][0]]
    ex_s = sum(tree.dur[i] for i in ex_ok)
    ex_t = sum(spans[i][6][1] for i in ex_ok)
    sa_s = sum(tree.dur[i] for i in sa_ok)
    sa_t = sum(spans[i][6][1] for i in sa_ok)

    minrank = tree.outermost({"oracle.minrank_gf2"})
    scalar = tree.outermost({"oracle.best_scalar_scheme"})
    mr_s = sum(tree.dur[i] for i in minrank)
    sc_s = sum(tree.dur[i] for i in scalar)

    chains = tree.outermost({"bounds.chain_bounds"})
    notes = [spans[i][6] for i in chains if spans[i][6]]
    hits = sum(1 for n in notes if n[0] == "budget")

    metrics = {
        "galois.elim_calls": (len(elim), "count"),
        "galois.elim_self_s": (sum(tree.self_time[i] for i in by_name(ELIM)), "s"),
        "galois.elim_ops_computed": (ops, "count"),
        "galois.elim_small_frac": (small / len(elim) if elim else 0.0, "ratio"),
        "galois.matmul_calls": (len(matmul), "count"),
        "galois.matmul_self_s": (sum(tree.self_time[i] for i in matmul), "s"),
        "galois.subspace_self_s": (sum(tree.self_time[i] for i in by_name(SUBSPACE)), "s"),
        "scheme.verify_s": (tree.inclusive({"scheme.verify"}), "s"),
        "scheme.verify_calls": (len(tree.outermost({"scheme.verify"})), "count"),
        "scheme.synthesize_decoders_s": (tree.inclusive({"scheme.synthesize_decoders"}), "s"),
        "scheme.dimension_audit_s": (tree.inclusive({"scheme.dimension_audit"}), "s"),
        "scheme.checks_self_s": (
            tree.subtree_self(tree.outermost(CHECKS), lambda layer: layer != "galois"), "s"
        ),
        "sim.exhaustive_s": (ex_s, "s"),
        "sim.exhaustive_tuples": (ex_t, "count"),
        "sim.exhaustive_tuples_per_s": (_rate(ex_t, ex_s), "1/s"),
        "sim.sampled_s": (sa_s, "s"),
        "sim.sampled_tuples": (sa_t, "count"),
        "sim.sampled_tuples_per_s": (_rate(sa_t, sa_s), "1/s"),
        "sim.counterexample_s": (sum(tree.dur[i] for i in cex), "s"),
        "sim.self_s": (sum(tree.self_time[i] for i in sims), "s"),
        "oracle.minrank_s": (mr_s, "s"),
        "oracle.minrank_matrices_per_s": (
            _rate(sum(spans[i][6][1] for i in minrank if spans[i][6]), mr_s), "1/s"
        ),
        "oracle.scalar_search_s": (sc_s, "s"),
        "oracle.scalar_assignments_per_s": (
            _rate(sum(spans[i][6][1] for i in scalar if spans[i][6]), sc_s), "1/s"
        ),
        "alignment.partition_s": (tree.inclusive({"alignment.partition"}), "s"),
        "alignment.check_feasibility_s": (tree.inclusive({"alignment.check_feasibility"}), "s"),
        "alignment.build_s": (
            tree.inclusive({"alignment.build_scalar_scheme", "alignment.build_rate_half_vector_scheme"}),
            "s",
        ),
        "bounds.chain_s": (tree.inclusive({"bounds.chain_bounds"}), "s"),
        "bounds.chain_calls": (len(chains), "count"),
        "bounds.chain_budget_hits": (hits, "count"),
        "bounds.chain_complete_frac": ((len(chains) - hits) / len(chains) if chains else 0.0, "ratio"),
        "bounds.chain_certs": (sum(n[1] for n in notes), "count"),
        "bounds.simple_s": (tree.inclusive({"bounds.simple_bounds"}), "s"),
        "bounds.evaluate_s": (
            tree.inclusive({"bounds.BoundCertificate.evaluate", "bounds.BoundCertificate.violated_by"}),
            "s",
        ),
        "unicast.translate_s": (
            tree.inclusive(
                {
                    "unicast.to_unicast",
                    "unicast.scheme_to_unicast",
                    "unicast.scheme_to_groupcast",
                    "unicast.groupcast_rank_chain",
                }
            ),
            "s",
        ),
        "model.gen_s": (
            tree.inclusive(
                {"model.gen_neighboring_antidotes", "model.gen_neighboring_interference", "model.gen_x_network"}
            ),
            "s",
        ),
        "model.parse_s": (
            tree.inclusive({"model.parse_instance", "model.load_instance", "model.instance_from_json"}),
            "s",
        ),
        "model.normalize_s": (tree.inclusive({"model.normalize"}), "s"),
        "symmetric.build_s": (
            tree.inclusive(
                {
                    "symmetric.build_antidote_scheme",
                    "symmetric.build_interference_scheme",
                    "symmetric.build_x_scheme",
                    "symmetric.builtin_example",
                }
            ),
            "s",
        ),
        "harness.self_s": (harness_self, "s"),
    }
    return metrics, problems, {"wall_s": wall, "layer_self_s": layer_self, "spans": len(spans)}


def median_metrics(per_pass):
    """Median of each metric over passes (a count stays a whole number)."""
    out = {}
    for name, (_, unit) in per_pass[0].items():
        median = statistics.median_low if unit in ("count", "bytes") else statistics.median
        out[name] = (median(p[name][0] for p in per_pass), unit)
    return out
