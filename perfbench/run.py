"""vacpol benchmark: four closed-loop workloads over the public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ``vacpol`` from ``src/``.  One
client issues each call when the previous one returns, as a script waiting
on each result does.  A run repeats whole cycles of its workload (see
``workloads.py``) until ``--seconds`` of calls have been timed, then checks
every output against ``refs/<workload>.json``; the checks are not timed.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the same cycles untraced and then traced, and prints the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object; the lines before it restate the figures for a
reader, with the drawn input mix and the machine.  A JSON record of the run,
and in a traced run the spans, go to ``perfbench/out/``.
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from pace import CAL_ITERS, CAL_NOMINAL_S, Pace, slice_source  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 7
PROBE_SLICES = 3
MIN_P90_SAMPLES = 100
PLANE_RTOL = 1e-8
RENORM_RTOL = 1e-6
KERNEL_RTOL = 1e-7
# semitransparent kernel references are scipy integrals over scattering
# states, which resolve values only down to about 1e-14 of the Gaussian peak
# 1/sqrt(4 pi tau); below this share of the peak those values are compared
# at KERNEL_RTOL of the floor.  The mpmath references of reflecting faces are
# compared relatively throughout.
KERNEL_FLOOR = 1e-4
X_RTOL = 1e-12

# Set-up is measured in fresh interpreters, one after another, before the
# timed run: importing vacpol.cli (numpy and scipy included) plus one small
# first call through the workload's entry point.  Each probe scales its
# figure by calibration slices (pace.py) timed just before and just after
# it; the slice code is pasted in, so the probe imports nothing that the
# set-up would not.
PROBE = """
import math, sys, time
CAL_ITERS = {iters}
{slice_code}
calibration_slice()
before = [calibration_slice() for _ in range({slices})]
t0 = time.perf_counter()
import contextlib, io
sys.path.insert(0, sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    import vacpol.cli as cli
    {warmup}
setup = time.perf_counter() - t0
after = [calibration_slice() for _ in range({slices})]
print(setup, {nominal} * {slices} * 2 / (sum(before) + sum(after)))
"""
WARMUP = {
    "profile": "cli.main(['profile', '--points=2', '--output=json'])",
    "renormalize": ("from vacpol import core, heatkernel, reflecting; reflecting.renormalize_at_zero("
                    "core.FieldConfig(2, 1.0), heatkernel.ReflectingBC.robin(2.0), 0.5)"),
    "validate": "cli.main(['validate', '--suite=quadrature', '--output=json'])",
    "heat-kernel": "cli.main(['heat-kernel', '--geometry=semitransparent', '--gamma=1.0', '--output=json'])",
}
# workloads whose ops run a thread pool, paced with pool slices (pace.py)
POOLED_WORKLOADS = ("profile",)
UNIT_NAMES = {"profile": "profile rows", "renormalize": "renormalized values",
              "validate": "validation checks", "heat-kernel": "kernel values"}


class StdoutSink:
    """Stands in for ``sys.stdout`` while ``vacpol.cli`` is imported.

    ``cli._emit_rows`` binds ``sys.stdout`` as a default argument at import
    time, so ``contextlib.redirect_stdout`` never reaches it; importing under
    this sink makes those writes land in ``target``, which each op sets."""

    target = None

    def write(self, text):
        return self.target.write(text)

    def flush(self):
        pass


def machine_record():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "platform": platform.platform()}


def measure_setup(workload):
    """Median over the probes of set-up seconds, scaled as in pace.py; and
    the unscaled samples."""
    code = PROBE.format(iters=CAL_ITERS, slice_code=slice_source(), slices=PROBE_SLICES,
                        warmup=WARMUP[workload], nominal=CAL_NOMINAL_S)
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", code, SRC], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, factor = map(float, done.stdout.split())
        raw.append(seconds)
        scaled.append(seconds * factor)
    return statistics.median(scaled), raw


class Client:
    """Issues ops through the public entry points and checks their outputs."""

    def __init__(self, workload, refs):
        self.workload = workload
        self.refs = refs
        self.sink = StdoutSink()
        with contextlib.redirect_stdout(self.sink):
            self.cli = importlib.import_module("vacpol.cli")
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if name == "vacpol" or name.startswith("vacpol.")]
        from vacpol import core, heatkernel, reflecting, semitransparent

        self.core = core
        self.geometry = {"reflecting": reflecting, "semitransparent": semitransparent}
        self.bcs = {name: wl.make_bc(name, heatkernel) for name in wl.WALLS}

    # -- ops -----------------------------------------------------------------

    def call(self, case, pace):
        """Run one op; returns (seconds, raw result).  The seconds leave out
        calibration slices that ``pace`` ran during the op."""
        if self.workload == "renormalize":
            return self._renormalize(case, pace)
        buf, err = io.StringIO(), io.StringIO()
        self.sink.target = buf
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            spent, t0 = pace.spent, time.perf_counter()
            try:
                rc = self.cli.main(list(case["argv"]))
            except Exception as exc:  # any escape from main is a failed op, not a crash of the run
                rc = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0 - (pace.spent - spent)
        return dt, (rc, buf.getvalue(), err.getvalue())

    def _renormalize(self, case, pace):
        mod = self.geometry[wl.WALLS[case["wall"]][0]]
        cfg = self.core.FieldConfig(case["d"], wl.MASS)
        bc = self.bcs[case["wall"]]
        spent, t0 = pace.spent, time.perf_counter()
        try:
            value = mod.renormalize_at_zero(cfg, bc, case["x1"])
        except Exception as exc:  # counted as a failed op, as a user's script would see it
            value = exc
        return time.perf_counter() - t0 - (pace.spent - spent), value

    # -- checks --------------------------------------------------------------

    def check(self, case, raw):
        """Returns (result units, outcome) with outcome "ok", "failed" (raised
        or non-zero exit) or "wrong" (a value outside its reference tolerance)."""
        ref = self.refs.get(case["id"])
        if ref is None:
            raise SystemExit(f"no reference for {case['id']}; rerun make_refs.py")
        return getattr(self, "_check_" + self.workload.replace("-", "_"))(case, raw, ref)

    @staticmethod
    def _payload(raw):
        rc, out, _ = raw
        if rc != 0:
            return None
        return json.loads(out.strip().splitlines()[-1])

    def _check_profile(self, case, raw, ref):
        payload = self._payload(raw)
        if payload is None:
            return 0, "failed"
        import numpy

        xs = wl.grid_xs(*case["grid"], numpy)
        rows = payload["rows"]
        if len(rows) != len(xs):
            return 0, "wrong"
        free_ref = ref["free"]
        for row, x, plane_ref in zip(rows, xs, ref["plane"]):
            ok = (close(row["x1"], x, X_RTOL) and close(row["free"], free_ref, PLANE_RTOL)
                  and close(row["plane"], plane_ref, PLANE_RTOL)
                  and close(row["total"], free_ref + plane_ref, PLANE_RTOL))
            for asym, dev in (("asympt_small", "rel_dev_small"), ("asympt_large", "rel_dev_large")):
                if row[asym]:  # asymptotic laws are checked for consistency with their deviations
                    want = abs(row["plane"] / row[asym] - 1.0)
                    ok = ok and abs(row[dev] - want) <= 1e-12 * max(1.0, want)
            if not ok:
                return 0, "wrong"
        return len(rows), "ok"

    def _check_renormalize(self, case, value, ref):
        if isinstance(value, Exception):
            return 0, "failed"
        ok = (close(value.free_term, ref["free"], RENORM_RTOL) and close(value.plane_term, ref["plane"], RENORM_RTOL)
              and close(value.total, ref["free"] + ref["plane"], RENORM_RTOL))
        return (1, "ok") if ok else (0, "wrong")

    def _check_validate(self, case, raw, ref):
        payload = self._payload(raw)
        if payload is None:
            return 0, "failed"
        expected = ref["checks"]
        if [r["name"] for r in payload] != [c["name"] for c in expected]:
            return 0, "wrong"
        for got, want in zip(payload, expected):
            if not (got["passed"] and got["tolerance"] == want["tolerance"]
                    and got["deviation"] is not None and got["deviation"] <= got["tolerance"]):
                return 0, "wrong"
        return len(payload), "ok"

    def _check_heat_kernel(self, case, raw, ref):
        payload = self._payload(raw)
        if payload is None:
            return 0, "failed"
        points = [(t, x, y) for t in case["taus"] for x in case["xs"] for y in case["ys"]]
        scattering = wl.WALLS[case["wall"]][0] == "semitransparent"
        rows = payload["rows"]
        if len(rows) != len(points):
            return 0, "wrong"
        for row, (tau, x, y), want in zip(rows, points, ref["values"]):
            got = complex(row["re"], row["im"]) if "re" in row else row["value"]
            want = complex(*want) if isinstance(want, list) else want
            floor = KERNEL_FLOOR / math.sqrt(4.0 * math.pi * tau) if scattering else 0.0
            if (row["tau"], row["x1"], row["y1"]) != (tau, x, y) \
                    or abs(got - want) > KERNEL_RTOL * max(abs(want), floor):
                return 0, "wrong"
        return len(rows), "ok"


def layer_metric(found, name):
    """A traced figure; 0 for a public function the workload never called.
    A name whose function is no longer public in its module stops the run,
    so that a rename does not read as a drop to 0."""
    if name in found:
        return found[name]
    layer, _, rest = name.partition(".")
    function = rest.rpartition(".")[0]
    if function in ("bessel_half_int", "bessel_general"):  # order classes of the wrapped Bessel calls
        function = "bessel_k_weighted"
    module = sys.modules.get(f"vacpol.{layer}")
    value = getattr(module, function, None) if function and not function.startswith("_") else None
    if not callable(value):
        raise SystemExit(f"run.py: per-layer metric {name}: vacpol.{layer} has no public function "
                         f"{function or '?'}; correct the per_layer list in BENCHMARK.json")
    return 0


def close(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


def run_cycles(client, cycles, tally, pace, seconds=None):
    """Run whole cycles from ``cycles`` until their ops have taken ``seconds``
    (all of them if ``seconds`` is None), sampling the machine's speed
    (pace.py) meanwhile, and check each cycle's outputs after it.  Returns
    the cycles run and the unscaled seconds their ops took."""
    done, timed = [], 0.0
    for cycle in cycles:
        if done and seconds is not None and timed >= seconds:
            break
        results = []
        with pace:
            for case in cycle:
                start = time.perf_counter()
                dt, raw = client.call(case, pace)
                results.append((start + dt / 2.0, dt, raw))
                pace.between_ops()
        tally.cycle_s.append(sum(dt for _, dt, _ in results))
        timed += tally.cycle_s[-1]
        done.append(cycle)
        for case, (when, dt, raw) in zip(cycle, results):
            tally.add(case, when, dt, *client.check(case, raw))
    return done, timed


class Tally:
    def __init__(self):
        self.latencies, self.units, self.failed, self.wrong = [], 0, 0, []
        self.cases, self.when, self.cycle_s = [], [], []

    def add(self, case, when, dt, units, outcome):
        self.cases.append(case)
        self.when.append(when)
        self.latencies.append(dt)
        self.units += units
        if outcome != "ok":
            self.failed += 1
        if outcome == "wrong":
            self.wrong.append(case["id"])

    def shares(self):
        n = len(self.cases)
        with_d = [c for c in self.cases if "d" in c]
        sized = [c for c in self.cases if "grid" in c]
        out = {
            "odd_d": sum(c["d"] % 2 for c in with_d) / len(with_d) if with_d else None,
            "bypass_quadrature": sum(c["bypass"] for c in self.cases) / n,
            "near_wall": sum(c["near_wall"] for c in self.cases) / n,
        }
        if sized:
            out["grid_200_rows"] = sum(c["rows"] == 200 for c in sized) / len(sized)
        return out


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def load_json(*parts):
    path = os.path.join(*parts)
    if not os.path.isfile(path):
        raise SystemExit(f"run.py: missing {os.path.relpath(path, ROOT)}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description="vacpol closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(wl.CYCLES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vacpol", "__init__.py")):
        raise SystemExit("run.py: src/vacpol not found; run from a vacpol checkout")
    spec = load_json(ROOT, "BENCHMARK.json")
    refs = load_json(HERE, "refs", f"{args.workload}.json")
    warnings.simplefilter("ignore")
    machine = machine_record()

    setup_s, setup_samples = measure_setup(args.workload)
    sys.path.insert(0, SRC)
    client = Client(args.workload, refs)
    cycles = wl.CYCLES[args.workload](args.seed)
    tally = Tally()

    pooled = args.workload in POOLED_WORKLOADS
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "setup_samples_s": setup_samples}
    if args.trace:
        plain_pace, traced_pace = Pace(pooled), Pace(pooled)
        ran, plain_s = run_cycles(client, cycles, tally, plain_pace, args.seconds / 2.0)
        tracer = Tracer(exclude=lambda: traced_pace.spent)
        tracer.install(client.modules)
        try:
            _, traced_s = run_cycles(client, ran, tally, traced_pace)
        finally:
            tracer.uninstall()
        plain_s *= plain_pace.factor()
        traced_s *= traced_pace.factor()
        found = tracer.metrics()
        found["tracer.overhead_s"] = traced_s - plain_s
        found["tracer.overhead_share"] = (traced_s - plain_s) / plain_s
        metrics = {m["name"]: {"value": layer_metric(found, m["name"]), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        record["untraced_scaled_s"], record["traced_scaled_s"] = plain_s, traced_s
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.dump(os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed, "machine": machine})
    else:
        pace = Pace(pooled)
        ran, timed = run_cycles(client, cycles, tally, pace, args.seconds)
        scaled = [dt * pace.factor(when) for when, dt in zip(tally.when, tally.latencies)]
        lat_ms = sorted(1e3 * t for t in scaled)
        found = {
            "setup_s": setup_s,
            "throughput_per_s": tally.units / sum(scaled),
            "latency_ms_p50": statistics.median(lat_ms),
            "success_share": 1.0 - tally.failed / len(lat_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": found[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        record.update(timed_s=timed, pace_factor=sum(scaled) / timed, calibration_slices_s=pace.slices,
                      unscaled={"throughput_per_s": tally.units / timed,
                                "latency_ms_p50": 1e3 * statistics.median(tally.latencies)})
        record["latency_ms_p90"] = percentile(lat_ms, 90) if len(lat_ms) >= MIN_P90_SAMPLES else None
        record["slowest_ops_ms"] = sorted(((1e3 * t, c["id"]) for t, c in zip(scaled, tally.cases)), reverse=True)[:5]

    attempted = len(tally.latencies)
    record.update(cycles=len(ran), cycle_s=tally.cycle_s, ops=attempted, failed=tally.failed, wrong=tally.wrong,
                  failed_share=tally.failed / attempted, shares=tally.shares(), metrics=metrics)
    report(record)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not tally.wrong, "attempted": attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def report(rec):
    m = rec["machine"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"cycles {rec['cycles']}  ops {rec['ops']}")
    print(f"machine  nproc={m['nproc']}  cpu={m['cpu']!r}  python={m['python']}  "
          f"numpy={m['numpy']}  scipy={m['scipy']}")
    print("drawn    " + "  ".join(f"{k}={v:.3f}" for k, v in rec["shares"].items() if v is not None))
    print(f"failed_share {rec['failed_share']:.4f} ({rec['failed']}/{rec['ops']} ops; "
          f"{len(rec['wrong'])} outside reference tolerance)")
    for name, m in rec["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if not rec["trace"]:
        p90 = rec["latency_ms_p90"]
        print(f"{'latency_ms_p90':48s} " + (f"{p90:.6g} ms (n={rec['ops']})" if p90 is not None
                                             else f"not reported (n={rec['ops']} < {MIN_P90_SAMPLES})"))
        print(f"units: {UNIT_NAMES[rec['workload']]}; latency samples n={rec['ops']}")


if __name__ == "__main__":
    sys.exit(main())
