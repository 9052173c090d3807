"""Seeded fixture generator for the four benchmark workloads.

``build(workload, seed, workdir)`` writes every input file a workload needs
(system, h/u and moment CSV/JSON files, coefficient sequences, groups) into
``workdir`` and returns the request list: one dict per CLI call with its
argv, the kind of check to apply to its output, and the reference data
that check needs.  Only numpy and the standard library are used, so the
program under test sees nothing but the generated files.

Costs are kept stable across seeds on purpose: the seed moves coefficient
values and term positions, never the shapes that set how much work a
request does (grid budgets, box sizes, fill counts, degrees, windows).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("verdict", "bracket", "filter", "transform")

TOL = 1e-9

# Passes over a workload's request list per 15 s of --seconds; a run makes
# max(1, round(PASSES_PER_15S * seconds / 15)) of them.  The count depends
# only on --seconds, so parent and child commits do the same work.  One pass
# takes about 11 s (verdict), 27 s (bracket), 7 s (filter) and 1.5 s
# (transform) on the 2-vCPU Xeon the benchmark was defined on.  wall_s takes
# each request at its best pass, so a workload of long requests on a noisy
# host needs several passes: filter gets five, and all four workloads at
# --seconds 15 still fit the run budget.
PASSES_PER_15S = {"verdict": 2, "bracket": 1, "filter": 5, "transform": 5}


# -- file writers -----------------------------------------------------------

def _write_csv(path: str, entries: dict, p: int) -> None:
    """entries maps (n, k1..kp) -> complex; rows sorted lexicographically."""
    header = ["n"] + [f"k{a + 1}" for a in range(p)] + ["re", "im"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for key in sorted(entries):
            v = complex(entries[key])
            fh.write(",".join(str(int(x)) for x in key)
                     + f",{v.real!r},{v.imag!r}\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _pairs(values) -> list:
    return [[float(complex(z).real), float(complex(z).imag)] for z in values]


# -- systems ----------------------------------------------------------------

def _symbol_grid_max(entries: dict, sizes: tuple) -> float:
    arr = np.zeros(sizes, complex)
    for key, v in entries.items():
        arr[tuple(k % s for k, s in zip(key, sizes))] += v
    return float(np.abs(np.fft.ifftn(arr, norm="forward")).max())


def _system(rng, p: int, slice_terms: tuple, width: int, sup_target=None) -> dict:
    """Scale-causal system: slice n gets slice_terms[n] distinct terms at
    exponents in [0, width)^p.  A slice with two or more terms spans the
    whole box, so support boxes, analysis windows and convolution sizes
    (and with them the cost of a request) do not depend on the seed.  With
    sup_target the coefficients are scaled so the (p+1)-variable symbol's
    max on a fine grid equals it."""
    entries = {}
    for n, count in enumerate(slice_terms):
        keys = {(0,) * p, (width - 1,) * p} if count >= 2 else set()
        while len(keys) < count:
            keys.add(tuple(int(k) for k in rng.integers(0, width, p)))
        for k in sorted(keys):
            entries[(n,) + k] = complex(rng.standard_normal(), rng.standard_normal())
    if sup_target is not None:
        sizes = (128 if p == 1 else 64,) * (p + 1)
        scale = sup_target / _symbol_grid_max(entries, sizes)
        entries = {k: v * scale for k, v in entries.items()}
    return entries


def _system_ref(entries: dict, p: int) -> dict:
    return {"p": p, "terms": [[list(k), [v.real, v.imag]] for k, v in sorted(entries.items())]}


# -- moment sequences -------------------------------------------------------

def _density_moments(rng, order: int, bandwidth: int, amplitude: float,
                     t0: float = 1.0) -> list:
    """Moments t_0..t_order of the trigonometric density
    f(theta) = t_0 + 2 Re sum_{n=1}^{bandwidth} t_n e^{i n theta}."""
    t = np.zeros(order + 1, complex)
    t[0] = t0
    raw = rng.standard_normal(bandwidth) + 1j * rng.standard_normal(bandwidth)
    t[1:bandwidth + 1] = amplitude * raw / np.abs(raw).sum()
    return list(t)


def _density_range(t: list) -> tuple:
    """(min, max) of the density on a grid fine enough for its bandwidth."""
    m = 1 << 16
    coef = np.zeros(m, complex)
    coef[:len(t)] = t
    vals = 2.0 * np.real(np.fft.ifft(coef, norm="forward")) - t[0].real
    return float(vals.min()), float(vals.max())


# -- groups -----------------------------------------------------------------

def scale_shift(alpha: float, theta: float) -> dict:
    """SU(1,1) pair of the half-plane map s -> alpha s (zooming for alpha < 1)."""
    scale = 2.0 * math.sqrt(alpha) * math.cos(theta)
    a = (complex(math.cos(theta), math.sin(theta))
         + alpha * complex(math.cos(theta), -math.sin(theta))) / scale
    b = (1.0 - alpha) / scale
    return {"a": [a.real, a.imag], "b": [b, 0.0]}


# -- workloads --------------------------------------------------------------

def _merge_evenly(a: list, b: list) -> list:
    """Both lists in order, each spread evenly over the result."""
    keyed = [((i + 0.5) / len(a), 0, x) for i, x in enumerate(a)]
    keyed += [((j + 0.5) / len(b), 1, x) for j, x in enumerate(b)]
    return [x for _, _, x in sorted(keyed, key=lambda k: k[:2])]


def _analyze(path, prop, ref):
    return {"kind": "analyze", "argv": ["analyze", "--property", prop, "--system", path],
            "check": {"type": f"analyze_{prop}", "tol": TOL, **ref}}


def _verdict(rng, wd):
    # (name, p, terms per slice, width, sup target): well below 1, near 1 on
    # both sides, and above 1.  Widths and T stay <= 4, so every passing sweep
    # runs the same grids up to the 2^24-point budget whatever the seed.
    specs = [
        ("below_p1", 1, (2, 2, 1), 4, float(rng.uniform(0.2, 0.6))),
        ("near_below_p2", 2, (2, 2), 3, 0.95),
        ("near_above_p1", 1, (2, 1, 1, 2), 3, 1.05),
        ("above_p2", 2, (2, 1, 2), 4, float(rng.uniform(1.3, 2.0))),
    ]
    # A screening batch: twenty more systems well above 1, each decided on a
    # small grid plus the Gram check.  They are most of the requests, so the
    # per-request median and tail measure a quick verdict.
    specs += [(f"screen_{i}", 1 + i % 2, ((2, 1, 2), (2, 2))[i % 2], 3,
               float(rng.uniform(1.3, 2.0))) for i in range(20)]
    slow, quick, other = [], [], []
    for name, p, terms, width, target in specs:
        entries = _system(rng, p, terms, width, target)
        path = os.path.join(wd, f"sys_{name}.csv")
        _write_csv(path, entries, p)
        ref = _system_ref(entries, p)
        (slow if target < 1 else quick).append(_analyze(path, "dissipative", ref))
        if not name.startswith("screen"):
            quick.append(_analyze(path, "l1l2", ref))
    other.append({"kind": "verify",
                  "argv": ["verify", "--property", "dissipative",
                           "--system", os.path.join(wd, "sys_above_p2.csv"),
                           "--trials", "4", "--seed", str(int(rng.integers(0, 1000)))],
                  "check": {"type": "verify"}})

    moments = {
        "lebesgue": [1.0 + 0j] + [0j] * 256,
        "density": _density_moments(rng, 300, 24, 0.4),
        "signed": _density_moments(rng, 200, 16, 1.5),
    }
    for name, t in moments.items():
        path = os.path.join(wd, f"moments_{name}.json")
        _write_json(path, {"t": _pairs(t)})
        fmin, fmax = _density_range(t)
        other.append({"kind": "moments-check",
                      "argv": ["moments-check", "--moments", path],
                      "check": {"type": "moments_check", "t": _pairs(t),
                                "fmin": fmin, "fmax": fmax, "tol": TOL}})
        if name == "signed":
            continue
        for _ in range(2):
            a = float(rng.uniform(-math.pi, math.pi))
            b = a + float(rng.uniform(0.3, 5.0))
            r = float(rng.uniform(0.8, 0.95))
            other.append({"kind": "stieltjes",
                          "argv": ["stieltjes", "--moments", path, "--a", repr(a),
                                   "--b", repr(b), "--r", repr(r)],
                          "check": {"type": "stieltjes", "t": _pairs(t), "a": a,
                                    "b": b, "r": r, "quad_points": 4096}})
    # Kinds are spread evenly through the pass, so the quick requests sample
    # all of it rather than one stretch of machine speed.
    return _merge_evenly(_merge_evenly(quick, other), slow)


def _bracket(rng, wd):
    reqs = []
    # Three p=1 systems of one shape, the p=2 system between them.
    specs = [("p1_a", 1, (2, 2, 2), 4), ("p1_b", 1, (2, 2, 2), 4),
             ("p2", 2, (3, 2), 3), ("p1_c", 1, (2, 2, 2), 4)]
    paths = {}
    for name, p, terms, width in specs:
        entries = _system(rng, p, terms, width, float(rng.uniform(0.5, 1.5)))
        path = os.path.join(wd, f"sys_{name}.csv")
        _write_csv(path, entries, p)
        paths[name] = path
        reqs.append(_analyze(path, "bibo", _system_ref(entries, p)))
    reqs.insert(3, {"kind": "verify",
                    "argv": ["verify", "--property", "bibo", "--system", paths["p1_a"],
                             "--trials", "4", "--seed", str(int(rng.integers(0, 1000)))],
                    "check": {"type": "verify"}})
    return reqs


def _sparse_dense(rng, shape: tuple, fill: float) -> dict:
    """Exactly round(fill * size) nonzeros at seeded positions of the box."""
    size = math.prod(shape)
    count = max(1, int(round(fill * size)))
    flat = rng.choice(size, count, replace=False) if count < size else np.arange(size)
    vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return {tuple(int(x) for x in np.unravel_index(int(i), shape)): complex(v)
            for i, v in zip(np.sort(flat), vals)}


def _filter(rng, wd):
    reqs = []
    # (name, p, box shape (T, widths...), fill).  The small pairs stay under
    # the brute-force oracle's work guard; the rest are checked against a
    # dense numpy convolution.
    specs = [("dense_p1", 1, (48, 24), 1.0), ("sparse_p1", 1, (96, 128), 0.05),
             ("dense_p2", 2, (12, 8, 8), 1.0), ("sparse_p2", 2, (24, 24, 24), 0.05),
             ("small_p1", 1, (6, 6), 0.5), ("small_p2", 2, (4, 4, 4), 0.5)]
    for name, p, shape, fill in specs:
        hp = os.path.join(wd, f"h_{name}.csv")
        up = os.path.join(wd, f"u_{name}.csv")
        yp = os.path.join(wd, f"y_{name}.csv")
        _write_csv(hp, _sparse_dense(rng, shape, fill), p)
        _write_csv(up, _sparse_dense(rng, shape, fill), p)
        reqs.append({"kind": "filter", "argv": ["filter", "--h", hp, "--u", up, "--out", yp],
                     "out": yp, "check": {"type": "filter", "h": hp, "u": up, "p": p,
                                          "oracle": name.startswith("small")}})
        t_out = 2 * shape[0] - 1
        n = int(rng.integers(0, t_out))
        grid = ",".join(str(1 << (2 * w - 2).bit_length()) for w in shape[1:])
        reqs.append({"kind": "spectrum",
                     "argv": ["spectrum", "--signal", yp, "--n", str(n), "--grid", grid],
                     "check": {"type": "spectrum", "signal": yp, "n": n}})
        z = complex(*(rng.uniform(-0.6, 0.6, 2)))
        zs = [complex(*(rng.uniform(-0.6, 0.6, 2))) for _ in range(p)]
        reqs.append({"kind": "gtf-eval",
                     "argv": ["gtf-eval", "--system", yp, "--z", json.dumps(_pairs([z])[0]),
                              "--zs", json.dumps(_pairs(zs))],
                     "check": {"type": "gtf", "signal": yp, "z": _pairs([z])[0],
                               "zs": _pairs(zs)}})
    return reqs


def _transform(rng, wd):
    reqs = []
    groups = {"g06": [scale_shift(0.6, 0.2)], "g08": [scale_shift(0.8, 0.2)],
              "g2": [scale_shift(0.6, 0.2), scale_shift(0.8, 0.2)]}
    for name, gens in groups.items():
        _write_json(os.path.join(wd, f"group_{name}.json"),
                    {"p": len(gens), "generators": gens})
    # (group, degree, window).  g06/deg 63 over scales 0..11 exceeds the
    # max_len truncation budget at scale 11 (exit 3).  The other windows stop
    # short of it (longest certified length about 41k of 65,536), and the
    # degree-255 windows stop three or more scales short of the depth where
    # _certified_length raises an OverflowError today.
    specs = [("g06", 15, [[k] for k in range(13)]),
             ("g06", 63, [[k] for k in range(12)]),
             ("g08", 127, [[k] for k in range(0, 19, 3)]),
             ("g08", 255, [[k] for k in range(0, 13, 2)]),
             ("g06", 255, [[k] for k in range(5)]),
             ("g2", 31, [[0, 0], [1, 1], [2, 3], [4, 4], [5, 6], [7, 7]]),
             ("g2", 63, [[0, 0], [2, 1], [3, 4], [6, 5]])]
    time_len = 256
    for i, (gname, degree, window) in enumerate(specs):
        f = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        f /= np.linalg.norm(f)
        sp = os.path.join(wd, f"coeffs_{i}.json")
        _write_json(sp, {"coeffs": _pairs(f), "tail_bound": 0.0})
        op = os.path.join(wd, f"grid_{i}.json")
        reqs.append({"kind": "scale-transform",
                     "argv": ["scale-transform", "--signal", sp,
                              "--group", os.path.join(wd, f"group_{gname}.json"),
                              "--window", json.dumps(window), "--time-len", str(time_len),
                              "--tol", repr(TOL), "--out", op],
                     "out": op,
                     "check": {"type": "transform", "coeffs": _pairs(f),
                               "generators": groups[gname], "window": window,
                               "time_len": time_len, "tol": TOL}})
    return reqs


_REQUEST_LISTS = {"verdict": _verdict, "bracket": _bracket, "filter": _filter,
             "transform": _transform}


def build(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's input files for this seed and return its requests.

    Every request without an explicit ``--out`` gets one in ``workdir``, so
    the CLI never writes to stdout and every report can be checked.
    """
    rng = np.random.default_rng([WORKLOADS.index(workload), int(seed)])
    os.makedirs(workdir, exist_ok=True)
    reqs = _REQUEST_LISTS[workload](rng, workdir)
    for i, req in enumerate(reqs):
        req["id"] = i
        if "out" not in req:
            req["out"] = os.path.join(workdir, f"out_{i}.json")
            req["argv"] = req["argv"] + ["--out", req["out"]]
        req["decision"] = req["kind"] in ("analyze", "moments-check", "scale-transform")
    return reqs
