"""Outside-in layer tracing: spans recorded around the program's functions.

The program is not edited. `Tracer.install` replaces each traced function by
a wrapper in every `ris_select` module namespace that refers to it (so calls
through `from .x import f` names are seen too), and `uninstall` puts the
originals back. Spans stay in memory until the run ends.

Only coarse entry points are wrapped. The scalar rate curves that
`find_thresholds` calls hundreds of times per cell stay unwrapped: their
cost is part of that function's self time, and wrapping them would cost more
than they do.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# Traced functions per layer (module of the ris_select package).
LAYERS = {
    "scenario": ("load_scenario", "validate_approximation_regime"),
    "channel": ("link_budget", "prepare_sampler", "rng_for_seed",
                "zone_gain_statistics"),
    "capacity": ("allocate_power", "closed_form_rate", "upper_bound",
                 "monte_carlo_capacity"),
    "selection": ("decide_type", "find_thresholds", "brute_force_optimal",
                  "asymptotic_checks"),
    "cli": ("main",),
}
# Spans that are not module functions: every fading law is `channel.fading`
# and the per-draw closure built by prepare_sampler is `channel.draw`.
FADING = "channel.fading"
DRAW = "channel.draw"
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns) \
    + (FADING, DRAW)


class Tracer:
    """Span recorder.

    A span is (id, parent id, name, start ns, end ns, cycle). Set `cycle`
    before each pass over a workload so spans can be grouped by it.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self.cycle = None
        self._stack = []
        self._patches = []

    def wrap(self, name: str, fn, post=None):
        """Return `fn` recording a span; `post(result, args)` adds counts."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.errors"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end, self.cycle)
            if post is not None:
                post(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_fading(self, result, args):
        self.counts[f"{FADING}.bytes"] += result.nbytes

    def _wrap_draw(self, draw, args):
        cfg = args[0]
        element_count = cfg.panel.element_count

        def count(result, _args):
            # complex multiply-add per element of the (S, K_t, M N) x (M N, 1)
            # matmul, then the real per-user scaling of each entry
            self.counts[f"{DRAW}.flops"] += result.size * (8 * element_count + 2)

        return self.wrap(DRAW, draw, count)

    def install(self):
        """Swap every traced function for its wrapper across the package."""
        from ris_select.channel import FADING_LAWS, prepare_sampler

        replacements = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"ris_select.{layer}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self.wrap(f"{layer}.{fn_name}", original)
                if original is prepare_sampler:
                    wrapper = self._tracing_draws(wrapper)
                replacements[id(original)] = (original, wrapper)
        for law in FADING_LAWS.values():
            replacements[id(law)] = (law, self.wrap(FADING, law, self._count_fading))

        namespaces = [vars(m) for name, m in list(sys.modules.items())
                      if name == "ris_select" or name.startswith("ris_select.")]
        for namespace in namespaces + [FADING_LAWS]:
            for key, value in list(namespace.items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((namespace, key, value))
                    namespace[key] = hit[1]

    def _tracing_draws(self, traced_prepare):
        """prepare_sampler wrapper whose returned draw closure is traced too."""
        def prepare(*args, **kwargs):
            return self._wrap_draw(traced_prepare(*args, **kwargs), args)

        return prepare

    def uninstall(self):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, cycle in self.spans:
                fh.write(json.dumps({"run": self.run_id, "cycle": cycle, "id": sid,
                                     "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")

    def self_times_ns(self) -> dict:
        """Per cycle, per span name: total duration minus the time of direct
        children."""
        own = {}
        for sid, parent, name, start, end, cycle in self.spans:
            counter = own.setdefault(cycle, Counter())
            counter[name] += end - start
            if parent is not None:
                counter[self.spans[parent][2]] -= end - start
        return own

    def calls(self) -> Counter:
        return Counter(span[2] for span in self.spans)
