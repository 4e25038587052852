"""Outside-in tracer for the ``vacpol`` layers.

The layers are the package's modules.  ``install`` replaces every public
function of a layer with a timing wrapper at *every* module binding, because
the package imports names with ``from .x import y`` (``semitransparent``
binds ``reflecting``'s functions, ``cli`` binds ``heatkernel``'s, and
``validation.SUITES`` holds its check functions in a dict).  Nothing in
``src/`` is edited; ``uninstall`` restores every binding.

Times are per-thread CPU time (``time.thread_time``): ``vacpol profile``
evaluates rows on a thread pool, and wall time there would charge each row
for the interpreter lock it waits on, and charge ``cmd_profile`` for the
rows it waits for.  Each thread keeps its own span stack and totals, merged
when the run ends.  A span's self time is its time minus that of the
wrapped calls it made in the same thread.

Calibration slices (pace.py) that interrupt a span are taken out of its
time: ``exclude`` returns the seconds they have taken so far.

Spans and the ``(value, err_estimate)`` pairs that ``quadrature`` returns
are held in memory, up to a cap, and written out by ``dump``.
"""

import functools
import itertools
import json
import threading
import time
import types

LAYERS = ("cli", "reflecting", "semitransparent", "core", "quadrature",
          "specialfns", "heatkernel", "validation")
_BESSEL = ("bessel_k_weighted", "bessel_k_weighted_scaled")
_QUAD = ("integrate_semi_infinite", "integrate_finite")
# per-thread caps on the spans and quadrature pairs held for ``dump``
MAX_SPANS = 200_000
MAX_QUAD_PAIRS = 100_000


def bessel_order_class(nu):
    """``bessel_half_int`` for orders the closed form serves, else ``bessel_general``."""
    two_nu = 2.0 * abs(nu)
    return "bessel_half_int" if two_nu == int(two_nu) and int(two_nu) % 2 == 1 else "bessel_general"


class _ThreadState:
    def __init__(self):
        self.stack = []  # frames [child_time, span_id]
        self.depth = dict.fromkeys(LAYERS, 0)
        self.key_depth = {}
        self.stats = {}  # key -> [calls, busy_s, self_s, failed]
        self.layer_busy = dict.fromkeys(LAYERS, 0.0)
        self.evals = 0
        self.err_rel_max = 0.0
        self.spans = []
        self.dropped_spans = 0
        self.quad_pairs = []


class Tracer:
    def __init__(self, exclude):
        self.exclude = exclude
        self._local = threading.local()
        self._states = []
        self._main = None
        self._ids = itertools.count(1)
        self._patched = []
        self._wrappers = {}
        self._wrapper_ids = set()

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            self._states.append(st)  # list.append is atomic under the GIL
        return st

    # -- wrapping ----------------------------------------------------------

    def _wrapper_for(self, fn, layer):
        if fn in self._wrappers:
            return self._wrappers[fn]
        key = f"{layer}.{fn.__name__}"
        is_bessel = layer == "specialfns" and fn.__name__ in _BESSEL
        is_quad = layer == "quadrature" and fn.__name__ in _QUAD
        tracer = self
        clock = time.thread_time
        wall = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            outer = st.depth[layer] == 0
            outer_key = st.key_depth.get(key, 0) == 0
            keys = (key, "specialfns." + bessel_order_class(args[0])) if is_bessel and outer else (key,)
            evals = None
            if is_quad:
                evals = [0]
                f = args[0]

                def counted(x):
                    evals[0] += 1
                    return f(x)

                args = (counted,) + args[1:]
            span_id = next(tracer._ids)
            if st.stack:
                parent = st.stack[-1][1]
            else:  # a pool worker's root span: caused by the main thread's open span
                main = tracer._main
                parent = main.stack[-1][1] if main is not None and main.stack else 0
            frame = [0.0, span_id]
            st.stack.append(frame)
            st.depth[layer] += 1
            st.key_depth[key] = st.key_depth.get(key, 0) + 1
            start = wall()
            x0 = tracer.exclude()
            t0 = clock()
            failed = 0
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = 1
                raise
            finally:
                dt = clock() - t0 - (tracer.exclude() - x0)
                st.depth[layer] -= 1
                st.key_depth[key] -= 1
                st.stack.pop()
                if st.stack:
                    st.stack[-1][0] += dt
                for k in keys:
                    rec = st.stats.get(k)
                    if rec is None:
                        rec = st.stats[k] = [0, 0.0, 0.0, 0]
                    rec[0] += 1
                    rec[1] += dt if outer_key else 0.0  # nested quadrature re-enters
                    rec[2] += dt - frame[0]
                    rec[3] += failed
                if outer:
                    st.layer_busy[layer] += dt
                if evals is not None:
                    st.evals += evals[0]
                if len(st.spans) < MAX_SPANS:
                    st.spans.append((span_id, parent, key, start, dt, failed, evals and evals[0]))
                else:
                    st.dropped_spans += 1
            if evals is not None:
                value, err = result
                if value != 0.0:
                    st.err_rel_max = max(st.err_rel_max, err / abs(value))
                if len(st.quad_pairs) < MAX_QUAD_PAIRS:
                    st.quad_pairs.append((span_id, value, err))
            return result

        self._wrappers[fn] = wrapper
        self._wrapper_ids.add(id(wrapper))
        return wrapper

    def _patch(self, namespace, name, value, setter):
        layer = getattr(value, "__module__", "").rpartition(".")[2]
        if (isinstance(value, types.FunctionType) and id(value) not in self._wrapper_ids
                and not name.startswith("_")
                and value.__module__.startswith("vacpol.") and layer in LAYERS):
            self._patched.append((setter, name, value))
            setter(name, self._wrapper_for(value, layer))

    def install(self, modules):
        """Wrap the public functions bound in ``modules`` (the loaded vacpol modules)."""
        self._main = self._state()
        for module in modules:
            for name, value in list(vars(module).items()):
                self._patch(module, name, value, functools.partial(setattr, module))
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(k, str):
                            self._patch(value, k, v, value.__setitem__)

    def uninstall(self):
        for setter, name, original in reversed(self._patched):
            setter(name, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def totals(self):
        stats, layer_busy = {}, dict.fromkeys(LAYERS, 0.0)
        evals, err_rel_max = 0, 0.0
        for st in self._states:
            for k, rec in st.stats.items():
                acc = stats.setdefault(k, [0, 0.0, 0.0, 0])
                for i, v in enumerate(rec):
                    acc[i] += v
            for layer, v in st.layer_busy.items():
                layer_busy[layer] += v
            evals += st.evals
            err_rel_max = max(err_rel_max, st.err_rel_max)
        return stats, layer_busy, evals, err_rel_max

    def metrics(self):
        """Every per-layer figure by name: ``<layer>.<function>.<calls|busy_s|self_s|failed>``,
        the layer roll-ups ``<layer>.<...>`` and the quadrature counters."""
        stats, layer_busy, evals, err_rel_max = self.totals()
        out = {}
        for key, (calls, busy, self_s, failed) in stats.items():
            out.update({f"{key}.calls": calls, f"{key}.busy_s": busy,
                        f"{key}.self_s": self_s, f"{key}.failed": failed})
        for layer in LAYERS:
            recs = [rec for k, rec in stats.items() if k.split(".")[0] == layer
                    and k.split(".")[1] not in ("bessel_half_int", "bessel_general")]
            out[f"{layer}.calls"] = sum(r[0] for r in recs)
            out[f"{layer}.busy_s"] = layer_busy[layer]
            out[f"{layer}.self_s"] = sum(r[2] for r in recs)
            out[f"{layer}.failed"] = sum(r[3] for r in recs)
        quad_calls = out["quadrature.calls"]
        out["quadrature.evals"] = evals
        out["quadrature.evals_per_call"] = evals / quad_calls if quad_calls else 0.0
        out["quadrature.err_est_rel_max"] = err_rel_max
        return out

    def dump(self, path, extra):
        spans = [s for st in self._states for s in st.spans]
        pairs = [p for st in self._states for p in st.quad_pairs]
        payload = dict(extra, dropped_spans=sum(st.dropped_spans for st in self._states),
                       span_fields=["id", "parent", "function", "wall_start", "cpu_s", "failed", "evals"],
                       spans=sorted(spans), quad_pair_fields=["span", "value", "err_estimate"],
                       quad_pairs=sorted(pairs))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
