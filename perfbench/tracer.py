"""Per-layer tracing installed from outside the library.

The tracer replaces selected galring functions with timing wrappers, in
every galring module namespace that holds them, and restores the
originals on uninstall.  Nothing under src/ is edited.

Two kinds of wrapper exist:

* span wrappers for the coarse boundaries (operations, oracles, set-up,
  inverse and classification calls): each call records a span
  (id, name, parent span, operation id, start, end), kept in memory and
  written out when the run ends;
* counter wrappers for the inner arithmetic (RingContext.mul_raw,
  add_raw, sub_raw and ambient_ring._mul_raw): each call only bumps a
  call count and a time accumulator, because a span per product would
  mean millions of spans.

Self time is exclusive: a wrapped call's duration minus the time already
attributed to wrapped calls nested inside it.  Code between wrapped
boundaries is charged to the innermost enclosing wrapped call, so an
unwrapped library helper counts toward the layer that called it.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "galois_ring",
    "unit_types",
    "ambient_ring",
    "constacodes",
    "distances",
    "verification",
    "cli",
    "bench",
)

# slots of the shared accumulator list used by the counter wrappers
_ATTRIBUTED, _MUL_N, _MUL_T, _ADD_N, _ADD_T, _SUB_N, _SUB_T, _AMB_N, _AMB_SELF = range(9)

# (module, attribute, span name, layer); the layer is the module that owns
# the function, with fppoly folded into galois_ring.
SPAN_TARGETS = (
    ("galois_ring", "build_ring", "build_ring", "galois_ring"),
    ("galois_ring", "invert", "invert", "galois_ring"),
    ("unit_types", "classify_unit", "classify_unit", "unit_types"),
    ("unit_types", "type1_inverse", "type1_inverse", "unit_types"),
    ("unit_types", "type0_inverse", "type0_inverse", "unit_types"),
    ("ambient_ring", "verify_chain_structure", "verify_chain_structure", "ambient_ring"),
    ("ambient_ring", "ideal_raw", "ideal_raw", "ambient_ring"),
    ("ambient_ring", "nilpotency_index", "nilpotency_index", "ambient_ring"),
    ("constacodes", "build_code", "build_code", "constacodes"),
    ("constacodes", "enumerate_codewords", "enumerate_codewords", "constacodes"),
    ("constacodes", "brute_force_dual", "brute_force_dual", "constacodes"),
    ("constacodes", "dual_code", "dual_code", "constacodes"),
    ("constacodes", "dual_spot_check", "dual_spot_check", "constacodes"),
    ("constacodes", "is_self_orthogonal", "is_self_orthogonal", "constacodes"),
    ("constacodes", "self_dual_codes", "self_dual_codes", "constacodes"),
    ("distances", "brute_force_min_weight", "brute_force_min_weight", "distances"),
    ("distances", "distance_table", "distance_table", "distances"),
    ("verification", "run_sweep", "run_sweep", "verification"),
    ("cli", "main", "cli_main", "cli"),
)


class Tracer:
    """Spans and counters for one traced run, collected per round."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[tuple[int, str]] = []
        self._acc = [0.0] * 9
        self.op_id: int | None = None
        self._patches: list = []
        self.reset_round()

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap the targets in every loaded galring module namespace."""
        mods = [m for n, m in sys.modules.items() if n == "galring" or n.startswith("galring.")]
        ctx_cls = sys.modules["galring.galois_ring"].RingContext
        for attr, n_slot in (("mul_raw", _MUL_N), ("add_raw", _ADD_N), ("sub_raw", _SUB_N)):
            orig = ctx_cls.__dict__[attr]
            self._patches.append((ctx_cls, attr, orig))
            setattr(ctx_cls, attr, self._leaf(orig, n_slot))
        amb = sys.modules["galring.ambient_ring"]
        self._replace_everywhere(mods, amb._mul_raw, self._ambient_mul(amb._mul_raw))
        for mod_name, attr, name, layer in SPAN_TARGETS:
            orig = getattr(sys.modules[f"galring.{mod_name}"], attr)
            hook = _HOOKS.get(name)
            self._replace_everywhere(mods, orig, self._span(orig, name, layer, hook))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _replace_everywhere(self, mods, orig, wrapper) -> None:
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    # -- wrappers -----------------------------------------------------

    def _leaf(self, orig, n_slot):
        acc = self._acc
        t_slot = n_slot + 1

        def leaf(ctx, x, y):
            t = perf_counter()
            r = orig(ctx, x, y)
            d = perf_counter() - t
            acc[_ATTRIBUTED] += d
            acc[n_slot] += 1
            acc[t_slot] += d
            return r

        return leaf

    def _ambient_mul(self, orig):
        acc = self._acc

        def _mul_raw(params, f, g):
            t = perf_counter()
            before = acc[_ATTRIBUTED]
            r = orig(params, f, g)
            own = perf_counter() - t - (acc[_ATTRIBUTED] - before)
            acc[_ATTRIBUTED] += own
            acc[_AMB_N] += 1
            acc[_AMB_SELF] += own
            return r

        return _mul_raw

    def _span(self, orig, name, layer, hook=None):
        tracer = self
        acc = self._acc

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else (None, None)
            sid = len(tracer.spans)
            tracer.spans.append(None)
            stack.append((sid, name))
            before = acc[_ATTRIBUTED]
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                own = end - start - (acc[_ATTRIBUTED] - before)
                acc[_ATTRIBUTED] += own
                tracer.layer_self[layer] += own
                tracer.calls[name] += 1
                tracer.incl[name] += end - start
                tracer.spans[sid] = (sid, name, parent[0], tracer.op_id, start, end)
            if hook is not None:
                hook(tracer, args, result, parent[1])
            return result

        return wrapper

    # -- rounds -------------------------------------------------------

    def operation(self, op_id: int, fn):
        """Run fn as one operation span (layer bench)."""
        self.op_id = op_id
        wrapped = self._span(fn, "operation", "bench")
        try:
            return wrapped()
        finally:
            self.op_id = None

    def reset_round(self) -> None:
        for i in range(len(self._acc)):
            self._acc[i] = 0.0
        self.layer_self: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.incl: dict[str, float] = defaultdict(float)
        self.work: Counter = Counter()

    def round_metrics(self) -> dict[str, float]:
        """Counts and times of the round since the last reset."""
        a = self._acc
        layer_self = dict(self.layer_self)
        layer_self["galois_ring"] = layer_self.get("galois_ring", 0.0) + a[_MUL_T] + a[_ADD_T] + a[_SUB_T]
        layer_self["ambient_ring"] = layer_self.get("ambient_ring", 0.0) + a[_AMB_SELF]
        w = self.work
        out = {
            "galois_ring.mul_raw.calls": int(a[_MUL_N]),
            "galois_ring.add_raw.calls": int(a[_ADD_N]),
            "ambient_ring.mul.calls": int(a[_AMB_N]),
            "ambient_ring.mul.self_s": a[_AMB_SELF],
            "ambient_ring.ideal_raw.calls": self.calls["ideal_raw"],
            "ambient_ring.elements_scanned": w["elements_scanned"],
            "ambient_ring.ideal_yield": _ratio(w["ideals_distinct"], w["ideals_in_survey"]),
            "ambient_ring.verify_chain_structure.s": self.incl["verify_chain_structure"],
            "constacodes.brute_force_dual.s": self.incl["brute_force_dual"],
            "constacodes.dual_words_scanned": w["dual_words_scanned"],
            "constacodes.dual_yield": _ratio(w["dual_words_found"], w["dual_words_scanned"]),
            "constacodes.enumerate_codewords.calls": self.calls["enumerate_codewords"],
            "constacodes.enumerate_codewords.s": self.incl["enumerate_codewords"],
            "constacodes.dual_spot_check.s": self.incl["dual_spot_check"],
            "distances.brute_force_min_weight.s": self.incl["brute_force_min_weight"],
            "distances.words_weighed": w["words_weighed"],
            "unit_types.classify_unit.calls": self.calls["classify_unit"],
            "unit_types.classify_unit.s": self.incl["classify_unit"],
            "unit_types.inverse.s": self.incl["type1_inverse"] + self.incl["type0_inverse"],
            "verification.run_sweep.self_s": layer_self.get("verification", 0.0),
            "galois_ring.build_ring.s": self.incl["build_ring"],
        }
        for layer in LAYERS:
            if layer != "verification":  # its only wrapped entry is run_sweep
                out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- hooks: work counts read from arguments and results ------------------


def _hook_ideal_raw(tracer, args, result, parent):
    params = args[0]
    tracer.work["elements_scanned"] += params.size
    if parent == "verify_chain_structure":
        tracer.work["ideals_in_survey"] += 1


def _hook_chain(tracer, args, result, parent):
    tracer.work["ideals_distinct"] += result.ideal_count


def _hook_dual(tracer, args, result, parent):
    tracer.work["dual_words_scanned"] += args[0].ambient.size
    tracer.work["dual_words_found"] += len(result)


def _hook_enumerate(tracer, args, result, parent):
    if parent == "brute_force_min_weight":
        tracer.work["words_weighed"] += len(result)


_HOOKS = {
    "ideal_raw": _hook_ideal_raw,
    "verify_chain_structure": _hook_chain,
    "brute_force_dual": _hook_dual,
    "enumerate_codewords": _hook_enumerate,
}


def median_metrics(rounds: list[dict]) -> dict[str, float]:
    """Counts from the first round, times as the median over rounds."""
    out = {}
    for key in rounds[0]:
        values = [r[key] for r in rounds]
        out[key] = values[0] if isinstance(values[0], int) else statistics.median(values)
    return out
