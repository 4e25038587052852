"""Input pools of the four benchmark workloads and their per-seed draws.

Every input a run can issue belongs to a fixed pool, so that each one has a
stored reference (``refs/<workload>.json``, written by ``make_refs.py``).
A run is a sequence of *cycles*.  A cycle holds one op per stratum of its
workload, so every cycle has the same composition and the same cost at a
given commit; the seed picks which pool member fills each stratum, the
sign or jitter of coordinates, and the order of ops inside the cycle.

A case is a plain dict; ``case["id"]`` keys its reference.
"""

import collections
import itertools
import math
import random

MASS = 1.0
ODD_D = (1, 3, 5, 7, 9, 11)
EVEN_D = (2, 4, 6, 8, 10)

# name -> (geometry, coupling parameters).  A Dirichlet face is math.inf;
# "omega" is the phase of the transfer matrix, which only cross-wall kernel
# values see.
WALLS = {
    "neumann": ("reflecting", {"b_plus": 0.0, "b_minus": 0.0}),
    "dirichlet": ("reflecting", {"b_plus": math.inf, "b_minus": math.inf}),
    "robin_m0.4": ("reflecting", {"b_plus": -0.4 * MASS, "b_minus": -0.4 * MASS}),
    "robin_2": ("reflecting", {"b_plus": 2.0, "b_minus": 2.0}),
    "robin_10": ("reflecting", {"b_plus": 10.0, "b_minus": 10.0}),
    "delta_plus": ("semitransparent", {"alpha": 1.0, "beta": 0.0, "gamma": 1.5, "sigma": 1.0,
                                       "omega": 1.1}),
    "delta_minus": ("semitransparent", {"alpha": 1.0, "beta": 0.0, "gamma": -0.5, "sigma": 1.0}),
    "delta_prime": ("semitransparent", {"alpha": 1.0, "beta": 1.0, "gamma": 0.0, "sigma": 1.0,
                                        "omega": -0.9}),
    # unit-determinant transfer matrix with beta != 0, alpha != sigma and a
    # complex phase; Lambda_minus > 0, so it has no bound state
    "general": ("semitransparent", {"alpha": 2.0, "beta": 1.0, "gamma": 1.0, "sigma": 1.0,
                                    "omega": 0.6}),
    # faces that differ in sign and kind, for the heat-kernel tables
    "robin_pm": ("reflecting", {"b_plus": 1.5, "b_minus": -0.4}),
    "dirichlet_robin": ("reflecting", {"b_plus": math.inf, "b_minus": 2.0}),
}

# walls whose plane term is a closed form with no coupling integral
CLOSED_FORM_WALLS = ("neumann", "dirichlet")

PROFILE_WALLS = ("neumann", "dirichlet", "robin_m0.4", "robin_2", "robin_10",
                 "delta_plus", "delta_minus", "delta_prime", "general")
MASSLESS_WALLS = ("robin_2", "delta_plus")
# (points per side, x_min, x_max); --sides both doubles the rows
PROFILE_GRIDS = {
    10: ((5, 0.02, 3.0), (5, 0.05, 5.0), (5, 0.1, 2.0)),
    200: ((100, 0.02, 4.0),),
}
# ops per (wall, parity) stratum and cycle: three small grids for each large
# one, so that the median op is a 10-row grid, where per-call cost shows
PROFILE_OPS = {10: 3, 200: 1}
# near-wall slice down to m|x1| = 1e-8: the same four ops in every cycle
NEAR_WALL_GRID = (5, 1e-8, 1e-2)
NEAR_WALL_OPS = (("robin_2", 2), ("robin_2", 3), ("delta_plus", 1), ("delta_prime", 4))

RENORM_WALLS = ("neumann", "dirichlet", "robin_m0.4", "robin_2", "robin_10",
                "delta_plus", "delta_minus", "delta_prime", "general")
# |x1| buckets; the nearest bucket is exact so that the d = 9, 11 consistency
# failures at |x1| = 0.05 fall in every cycle alike
RENORM_X = ((0.05,), (0.15, 0.2, 0.3), (0.7, 1.0, 1.4), (3.0, 4.0, 5.0))

KERNEL_WALLS = ("robin_pm", "dirichlet_robin", "delta_plus", "delta_prime", "general")
KERNEL_MASS = 0.5
KERNEL_CASES_PER_WALL = 80
KERNEL_SLOTS_PER_CYCLE = 8


def wall_args(name):
    """CLI flags of a wall, in ``--flag=value`` form (values may be negative)."""
    geometry, p = WALLS[name]
    args = [f"--geometry={geometry}"]
    if geometry == "reflecting":
        for key in ("b_plus", "b_minus"):
            value = "dirichlet" if math.isinf(p[key]) else repr(p[key])
            args.append(f"--{key.replace('_', '-')}={value}")
    else:
        for key in ("alpha", "beta", "gamma", "sigma"):
            args.append(f"--{key}={p[key]!r}")
        phase = p.get("omega", 0.0)
        args += [f"--omega-re={math.cos(phase)!r}", f"--omega-im={math.sin(phase)!r}"]
    return args


def make_bc(name, heatkernel):
    """Boundary-condition object of a wall, built from the public types."""
    geometry, p = WALLS[name]
    if geometry == "reflecting":
        return heatkernel.ReflectingBC(p["b_plus"], p["b_minus"])
    omega = complex(math.cos(p.get("omega", 0.0)), math.sin(p.get("omega", 0.0)))
    return heatkernel.SemitransparentBC(p["alpha"], p["beta"], p["gamma"], p["sigma"], omega)


def grid_xs(points, x_min, x_max, np):
    """The rows ``vacpol profile --spacing log --sides both`` tabulates, ascending."""
    base = [float(x) for x in np.geomspace(x_min, x_max, points)]
    return sorted(base + [-x for x in base])


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def _profile_case(wall, d, mass, grid):
    points, x_min, x_max = grid
    argv = ["profile", *wall_args(wall), f"--d={d}", f"--m={mass!r}",
            f"--x-min={x_min!r}", f"--x-max={x_max!r}", f"--points={points}",
            "--spacing=log", "--sides=both", "--output=json"]
    return {
        "id": f"profile/{wall}/m{mass:g}/d{d}/{points}x{x_min:g}-{x_max:g}",
        "argv": argv, "wall": wall, "d": d, "mass": mass, "grid": grid,
        "rows": 2 * points,
        "bypass": mass == 0.0 or wall in CLOSED_FORM_WALLS,
        "near_wall": x_min < 1e-6,
    }


def profile_pool():
    """Every profile op any seed can draw."""
    cases = []
    walls = [(w, MASS) for w in PROFILE_WALLS] + [(w, 0.0) for w in MASSLESS_WALLS]
    for wall, mass in walls:
        for d in ODD_D + EVEN_D:
            for grids in PROFILE_GRIDS.values():
                cases.extend(_profile_case(wall, d, mass, g) for g in grids)
    for wall, d in NEAR_WALL_OPS:
        cases.append(_profile_case(wall, d, MASS, NEAR_WALL_GRID))
    return cases


def profile_cycles(seed):
    """Endless cycles of 92 ops: every (wall, parity, grid size) stratum
    ``PROFILE_OPS[size]`` times, plus the near-wall slice.  Within a cycle
    the odd (even) orders rotate over the ops of each grid size, so every
    cycle gives each order the same share of small and of large grids.  The
    rotation is the same for every seed, so that cycle ``j`` costs the same
    whatever the seed; the seed draws the small grids' ranges and the order."""
    rng = random.Random(seed)
    walls = [(w, MASS) for w in PROFILE_WALLS] + [(w, 0.0) for w in MASSLESS_WALLS]
    strata = [(w, m, ds, size) for w, m in walls for ds in (ODD_D, EVEN_D)
              for size, count in PROFILE_OPS.items() for _ in range(count)]
    for j in itertools.count():
        ops, seen = [], collections.Counter()
        for wall, mass, ds, size in strata:
            k = seen[ds, size]
            seen[ds, size] += 1
            d = ds[(k + j) % len(ds)]
            ops.append(_profile_case(wall, d, mass, rng.choice(PROFILE_GRIDS[size])))
        ops.extend(_profile_case(w, d, MASS, NEAR_WALL_GRID) for w, d in NEAR_WALL_OPS)
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------------------
# renormalize
# ---------------------------------------------------------------------------

def _renorm_case(wall, d, x1):
    return {"id": f"renormalize/{wall}/d{d}/x{x1!r}", "wall": wall, "d": d, "x1": x1,
            "bypass": wall in CLOSED_FORM_WALLS, "near_wall": abs(x1) <= 0.05}


def renormalize_pool():
    return [_renorm_case(w, d, s * x)
            for w in RENORM_WALLS for d in ODD_D + EVEN_D
            for bucket in RENORM_X for x in bucket for s in (1.0, -1.0)]


def renormalize_cycles(seed):
    """Endless cycles of 396 ops: every (wall, d, |x1| bucket) once, with the
    seed drawing the sign and the member of each bucket."""
    rng = random.Random(seed)
    while True:
        ops = [_renorm_case(w, d, rng.choice((1.0, -1.0)) * rng.choice(bucket))
               for w in RENORM_WALLS for d in ODD_D + EVEN_D for bucket in RENORM_X]
        rng.shuffle(ops)
        yield ops


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

VALIDATE_ARGV = ["validate", "--suite=all", "--output=json"]


def validate_cycles(seed):
    """One full ``vacpol validate --suite all`` pass per cycle; the suite has
    no inputs, so the seed changes nothing."""
    del seed
    return itertools.repeat([{"id": "validate/all", "argv": VALIDATE_ARGV,
                              "bypass": False, "near_wall": False}])


# ---------------------------------------------------------------------------
# heat-kernel
# ---------------------------------------------------------------------------

def _kernel_case(wall, k, taus, xs, ys):
    def flag(name, values):
        return f"--{name}=" + ",".join(repr(v) for v in values)

    argv = ["heat-kernel", *wall_args(wall), f"--m={KERNEL_MASS!r}",
            flag("tau", taus), flag("x", xs), flag("y", ys), "--output=json"]
    return {"id": f"heat-kernel/{wall}/{k}", "argv": argv, "wall": wall,
            "taus": taus, "xs": xs, "ys": ys, "rows": len(taus) * len(xs) * len(ys),
            "bypass": WALLS[wall][0] == "reflecting", "near_wall": False}


def heat_kernel_pool():
    """80 tables per wall: 4 proper times log-uniform in [1e-2, 3] and three
    signed points each for x and y, so both same-side and cross-wall pairs
    occur.  36 values a table keep the CLI's per-call cost a minority of the
    op.  Drawn once from a fixed generator: the pool is part of the
    benchmark, not of a run."""
    rng = random.Random(20210325)
    cases = []
    for wall in KERNEL_WALLS:
        for k in range(KERNEL_CASES_PER_WALL):
            taus = tuple(sorted(round(10 ** rng.uniform(-2.0, math.log10(3.0)), 6) for _ in range(4)))
            xs = tuple(round(rng.choice((1, -1)) * rng.uniform(0.1, 2.0), 4) for _ in range(3))
            ys = tuple(round(rng.choice((1, -1)) * rng.uniform(0.1, 2.0), 4) for _ in range(3))
            cases.append(_kernel_case(wall, k, taus, xs, ys))
    return cases


def heat_kernel_cycles(seed):
    """Endless cycles of 40 tables: eight per wall, taken in a seeded order
    from that wall's 80 pool members."""
    rng = random.Random(seed)
    by_wall = {}
    for case in heat_kernel_pool():
        by_wall.setdefault(case["wall"], []).append(case)
    for members in by_wall.values():
        rng.shuffle(members)
    for j in itertools.count():
        ops = []
        for members in by_wall.values():
            for slot in range(KERNEL_SLOTS_PER_CYCLE):
                ops.append(members[(j * KERNEL_SLOTS_PER_CYCLE + slot) % len(members)])
        rng.shuffle(ops)
        yield ops


CYCLES = {
    "profile": profile_cycles,
    "renormalize": renormalize_cycles,
    "validate": validate_cycles,
    "heat-kernel": heat_kernel_cycles,
}

POOLS = {
    "profile": profile_pool,
    "renormalize": renormalize_pool,
    "heat-kernel": heat_kernel_pool,
}
