"""Golden-grid gate: the public observables and heat kernels of both wall
families, pinned.

``golden_grid.json`` holds the values the library returned on a fixed grid
of walls, dimensions and signed distances, together with the commit of the
latest (re-)pin.  Any refactor of the closed forms must reproduce them to
1e-13 relative (exactly where the pinned value is 0), and must raise the
same error type wherever the pinned run raised.  The one exception is
``renormalize_at_zero``: a point where the pinned run failed its
consistency check may now succeed, so those points are not compared.

Re-pin the file (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py

which prints every key that this gate rejects (old value, new value,
relative change) and replaces only those values, so that each re-pin can be
reviewed and every other value keeps the pin it had.
"""

import itertools
import json
import math
import pathlib
import subprocess

import pytest

from vacpol import reflecting as rf
from vacpol import semitransparent as st
from vacpol.core import FieldConfig
from vacpol.errors import VacpolError
from vacpol.heatkernel import (
    DIRICHLET,
    HeatQuery,
    ReflectingBC,
    SemitransparentBC,
    reflecting_kernel,
    semitransparent_kernel,
)

GOLDEN = pathlib.Path(__file__).with_name("golden_grid.json")
RTOL = 1e-13


def _phase(theta):
    return complex(math.cos(theta), math.sin(theta))


# the benchmark's walls, two reflecting walls with unlike faces, a skew
# delta-family matrix (alpha != sigma) and the free wall
WALLS = {
    "neumann": (rf, ReflectingBC.neumann()),
    "dirichlet": (rf, ReflectingBC.dirichlet()),
    "robin_m0.4": (rf, ReflectingBC.robin(-0.4)),
    "robin_2": (rf, ReflectingBC.robin(2.0)),
    "robin_10": (rf, ReflectingBC.robin(10.0)),
    "robin_pm": (rf, ReflectingBC(1.5, -0.4)),
    "dirichlet_robin": (rf, ReflectingBC(DIRICHLET, 2.0)),
    "delta_plus": (st, SemitransparentBC(1.0, 0.0, 1.5, 1.0, _phase(1.1))),
    "delta_minus": (st, SemitransparentBC.delta(-0.5)),
    "delta_prime": (st, SemitransparentBC(1.0, 1.0, 0.0, 1.0, _phase(-0.9))),
    "general": (st, SemitransparentBC(2.0, 1.0, 1.0, 1.0, _phase(0.6))),
    "skew_delta": (st, SemitransparentBC(2.0, 0.0, 1.0, 0.5)),
    "free": (st, SemitransparentBC.free()),
}
DIMS = tuple(range(1, 12))
XS = (-5.0, -1.4, -0.3, -0.05, 0.05, 0.3, 1.4, 5.0)
US = (-0.5, 0.5)
# a few proper-time oracle points per family: (wall, d, x1)
ORACLE_POINTS = (
    ("robin_2", 2, 0.3), ("robin_m0.4", 5, -1.4), ("dirichlet_robin", 3, -0.3),
    ("delta_plus", 2, 0.3), ("delta_minus", 5, -1.4), ("skew_delta", 3, -0.3),
    ("delta_prime", 2, 0.3), ("general", 5, -1.4), ("general", 3, -0.3),
)
# heat kernels: same-side and cross-wall pairs, massless (where positivity
# allows) and massive
KERNEL_TAUS = (0.01, 0.3, 3.0)
KERNEL_XS = (-3.0, -0.7, -0.05, 0.05, 0.7, 3.0)
KERNEL_MASSES = (0.0, 1.6)


def _outcome(fn, *args):
    """A float, a dict of floats and strings, or ``{"error": <type name>}``."""
    try:
        return fn(*args)
    except VacpolError as exc:
        return {"error": type(exc).__name__}


def _renormalized(mod, cfg, bc, x1):
    value = mod.renormalize_at_zero(cfg, bc, x1)
    return {"free": value.free_term, "plane": value.plane_term, "branch": value.branch}


def _massless(mod, cfg, bc, x1):
    value = mod.massless_value(cfg, bc, x1)
    return {"plane": value.plane_term, "branch": value.branch}


def _kernel(bc, tau, x1, y1, m):
    kernel = reflecting_kernel if isinstance(bc, ReflectingBC) else semitransparent_kernel
    value = kernel(HeatQuery(tau, x1, y1), bc, m)
    return {"re": value.real, "im": value.imag}


def _cases(quantity):
    """Yield ``(key, function, args)`` for every grid point of one quantity."""
    if quantity == "kernel":
        for name, (_, bc) in WALLS.items():
            grid = itertools.product(KERNEL_TAUS, KERNEL_XS, KERNEL_XS, KERNEL_MASSES)
            for tau, x1, y1, m in grid:
                yield (f"kernel/{name}/tau{tau!r}/x{x1!r}/y{y1!r}/m{m!r}",
                       _kernel, (bc, tau, x1, y1, m))
        return
    if quantity == "oracle":
        for name, d, x1 in ORACLE_POINTS:
            mod, bc = WALLS[name]
            cfg, u = FieldConfig(d, 1.0), d - 1 + 1.5
            yield f"oracle/plane/{name}/d{d}/x{x1!r}", mod.plane_term_oracle, (cfg, bc, x1)
            yield (f"oracle/regularized/{name}/d{d}/x{x1!r}/u{u!r}",
                   mod.regularized_polarization_oracle, (cfg, bc, x1, u))
        return
    for name, (mod, bc) in WALLS.items():
        for d in DIMS:
            cfg = FieldConfig(d, 1.0)
            for x1 in XS:
                key = f"{quantity}/{name}/d{d}/x{x1!r}"
                if quantity == "plane_term":
                    yield key, mod.plane_term, (cfg, bc, x1)
                elif quantity == "regularized":
                    for u in US:
                        yield f"{key}/u{u!r}", mod.regularized_polarization, (cfg, bc, x1, u)
                elif quantity == "small_x":
                    yield key, mod.small_x_asymptotic, (cfg, bc, x1)
                elif quantity == "large_x":
                    yield key, mod.large_x_asymptotic, (cfg, bc, x1)
                elif quantity == "renormalize":
                    yield key, _renormalized, (mod, cfg, bc, x1)
                elif quantity == "massless":
                    yield key, _massless, (mod, FieldConfig(d, 0.0), bc, x1)


QUANTITIES = ("plane_term", "regularized", "small_x", "large_x", "renormalize", "massless",
              "oracle", "kernel")


def compute(quantity):
    return {key: _outcome(fn, *args) for key, fn, args in _cases(quantity)}


def _mismatch(pinned, got):
    """Description of the first disagreement, or ``None``."""
    if isinstance(pinned, dict):
        if not isinstance(got, dict) or set(got) != set(pinned):
            return f"pinned {pinned!r}, got {got!r}"
        for field in pinned:
            bad = _mismatch(pinned[field], got[field])
            if bad:
                return f"{field}: {bad}"
        return None
    if isinstance(pinned, str):
        return None if got == pinned else f"pinned {pinned!r}, got {got!r}"
    if not isinstance(got, float):
        return f"pinned {pinned!r}, got {got!r}"
    if pinned == 0.0:
        return None if got == 0.0 else f"pinned exact 0, got {got!r}"
    rel = abs(got - pinned) / abs(pinned)
    return None if rel <= RTOL else f"pinned {pinned!r}, got {got!r} (rel {rel:.2e})"


def _differences(pinned, got):
    """``{key: description}`` of every pinned outcome that ``got`` fails to reproduce."""
    found = {}
    for key, value in pinned.items():
        if key.startswith("renormalize/") and value == {"error": "NumericalFailureError"}:
            continue  # a pinned consistency failure may now succeed
        bad = _mismatch(value, got[key])
        if bad:
            found[key] = bad
    return found


@pytest.fixture(scope="module")
def pinned():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["values"]


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_golden_grid(pinned, quantity):
    got = compute(quantity)
    expected = {k: v for k, v in pinned.items() if k.split("/")[0] == quantity}
    assert set(got) == set(expected)
    failures = [f"{key}: {bad}" for key, bad in _differences(expected, got).items()]
    assert not failures, f"{len(failures)} of {len(expected)} differ:\n" + "\n".join(failures[:20])


if __name__ == "__main__":
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            cwd=GOLDEN.parent, check=True).stdout.strip()
    values = {}
    for quantity in QUANTITIES:
        values.update(compute(quantity))
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))["values"] if GOLDEN.exists() else {}
    moved = _differences({key: value for key, value in old.items() if key in values}, values)
    for key, bad in sorted(moved.items()):
        print(f"{key}: {bad}")
    print(f"{len(moved)} of {len(values)} pinned values re-pinned (differ by more than {RTOL:g})")
    values = {key: old[key] if key in old and key not in moved else value
              for key, value in values.items()}
    payload = {"commit": commit, "rtol": RTOL, "values": values}
    GOLDEN.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(values)} values from {commit} to {GOLDEN}")
