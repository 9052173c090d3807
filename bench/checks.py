"""Independent output checks, run after the timed region.

Each check reads the request's output file (and its inputs) with numpy and
the standard library, recomputes what it can by a different route, and
returns a list of failure messages (empty when the output is right).  The
only code of the program used here is ``brute_force_double_convolve``,
which is the package's own literal oracle.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

EPS = np.finfo(float).eps
EXIT_FOR_VERDICT = {"pass": 0, "fail": 1, "inconclusive": 3}


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def read_csv_entries(path: str) -> dict:
    """{(n, k1..kp): value} from a signal CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        p = len(header) - 3
        entries = {}
        for row in reader:
            key = tuple(int(x) for x in row[:p + 1])
            entries[key] = entries.get(key, 0j) + complex(float(row[-2]), float(row[-1]))
    return entries


def _dense(entries: dict, ndim: int) -> tuple[np.ndarray, tuple]:
    keys = np.array(list(entries), dtype=int).reshape(-1, ndim)
    lo = keys.min(axis=0) if len(keys) else np.zeros(ndim, int)
    hi = keys.max(axis=0) if len(keys) else np.zeros(ndim, int)
    arr = np.zeros(tuple(hi - lo + 1), complex)
    for key, v in entries.items():
        arr[tuple(np.array(key) - lo)] += v
    return arr, tuple(int(x) for x in lo)


def _symbol(terms, angles: np.ndarray) -> np.ndarray:
    """sum_e c_e exp(+i e.theta) at the rows of angles (shape (m, d))."""
    exps = np.array([e for e, _ in terms], float)
    coefs = np.array([_c(v) for _, v in terms])
    return np.exp(1j * angles @ exps.T) @ coefs


def _offset_grid_max(terms, dims: int, size: int, offset: float) -> float:
    """max |symbol| on the grid 2 pi (j + offset) / size on every axis: the
    phase-shifted coefficients through one inverse FFT (size >= width)."""
    arr = np.zeros((size,) * dims, complex)
    for e, v in terms:
        arr[tuple(k % size for k in e)] += _c(v) * np.exp(2j * math.pi * offset * sum(e) / size)
    return float(np.abs(np.fft.ifftn(arr, norm="forward")).max())


def _check_bracket(bracket: dict, terms, dims: int, size: int, offset: float,
                   label: str) -> list:
    errs = []
    lower, upper = bracket["lower"], bracket["upper"]
    if not lower <= upper:
        errs.append(f"{label}: lower {lower!r} > upper {upper!r}")
    if len(terms) > 1:
        grid_max = _offset_grid_max(terms, dims, size, offset)
        if grid_max > upper * (1 + 1e-12):
            errs.append(f"{label}: offset-grid max {grid_max!r} exceeds upper {upper!r}")
        angles = bracket["witness_angles"]
        at_witness = abs(complex(_symbol(terms, np.array([angles]))[0]))
        if abs(at_witness - lower) > 1e-12 * max(1.0, lower):
            errs.append(f"{label}: |symbol(witness)| {at_witness!r} != lower {lower!r}")
    return errs


def check_analyze_dissipative(req, code, stderr) -> list:
    chk = req["check"]
    doc = _load(req["out"])
    terms = chk["terms"]
    tol = chk["tol"]
    br = doc["sup_bracket"]
    size = 1024 if chk["p"] == 1 else 64
    errs = _check_bracket(br, terms, chk["p"] + 1, size, 0.3183, "sup_bracket")
    verdict = doc["verdict"]
    if br["lower"] > 1 + tol:
        expect = "fail"
    elif br["certified"] and br["upper"] <= 1 + tol:
        expect = "pass"
    else:
        expect = "inconclusive"
    if verdict != expect:
        errs.append(f"verdict {verdict} but bracket implies {expect}")
    if code != EXIT_FOR_VERDICT.get(verdict):
        errs.append(f"exit {code} does not match verdict {verdict}")
    if doc["details"].get("gram_bug"):
        errs.append("Gram check contradicts the pass verdict")
    return errs


def check_analyze_l1l2(req, code, stderr) -> list:
    doc = _load(req["out"])
    gain = math.sqrt(sum(abs(_c(v)) ** 2 for _, v in req["check"]["terms"]))
    errs = []
    if abs(doc["gain"] - gain) > 1e-12 * max(1.0, gain):
        errs.append(f"gain {doc['gain']!r} != coefficient l2 norm {gain!r}")
    if doc["verdict"] != "pass" or code != 0:
        errs.append(f"l1l2 verdict {doc['verdict']} exit {code}")
    return errs


def _slices(terms, p: int) -> dict:
    out: dict = {}
    for e, v in terms:
        out.setdefault(e[0], []).append((e[1:], v))
    return out


def _adjoint_norm(slice_terms, v_entries: dict, p: int) -> float:
    """|| conj-reflected h_n convolved with v ||_2, by shifted dense adds."""
    v_arr, v_lo = _dense(v_entries, p)
    hk = [tuple(-x for x in k) for k, _ in slice_terms]
    lo = np.min(np.array(hk), axis=0)
    hi = np.max(np.array(hk), axis=0)
    out = np.zeros(tuple(np.array(v_arr.shape) + hi - lo), complex)
    for (k, val), shift in zip(slice_terms, hk):
        off = tuple(int(s - l) for s, l in zip(shift, lo))
        region = tuple(slice(o, o + n) for o, n in zip(off, v_arr.shape))
        out[region] += np.conj(_c(val)) * v_arr
    return float(np.linalg.norm(out))


def check_analyze_bibo(req, code, stderr) -> list:
    chk = req["check"]
    doc = _load(req["out"])
    p = chk["p"]
    slices = _slices(chk["terms"], p)
    errs = []
    brackets = doc["details"]["slice_brackets"]
    size = 1 << 14 if p == 1 else 512
    for n, br in enumerate(brackets):
        errs += _check_bracket(br, slices.get(n, []), p, size, 0.2718, f"slice {n}")
    upper = sum(br["upper"] for br in brackets)
    if abs(doc["sufficient_upper"] - upper) > 1e-12 * max(1.0, upper):
        errs.append("sufficient_upper is not the sum of slice uppers")
    v = {tuple(e["k"]): _c(e["value"]) for e in doc["witnesses"]["maximizer"]}
    vnorm = math.sqrt(sum(abs(x) ** 2 for x in v.values()))
    if abs(vnorm - 1.0) > 1e-12:
        errs.append(f"maximizer norm {vnorm!r} != 1")
    derived = sum(_adjoint_norm(slices[n], v, p) for n in sorted(slices))
    lower = doc["necessary_lower"]
    if derived > upper * (1 + 1e-9):
        errs.append(f"maximizer value {derived!r} exceeds sufficient_upper {upper!r}")
    if abs(min(derived, upper) - lower) > 1e-9 * max(1.0, lower):
        errs.append(f"necessary_lower {lower!r} != value at maximizer {derived!r}")
    certified = all(br["certified"] for br in brackets)
    verdict = doc["verdict"]
    if verdict != ("pass" if certified else "inconclusive"):
        errs.append(f"verdict {verdict} with certified={certified}")
    if code != EXIT_FOR_VERDICT.get(verdict):
        errs.append(f"exit {code} does not match verdict {verdict}")
    return errs


def check_verify(req, code, stderr) -> list:
    doc = _load(req["out"])
    errs = []
    if not doc["ok"] or doc["max_ratio"] > 1 + 1e-9:
        errs.append(f"Monte-Carlo ratio {doc['max_ratio']!r} exceeds the certified bound")
    if code != 0:
        errs.append(f"exit {code} for an ok replay")
    return errs


def check_moments(req, code, stderr) -> list:
    """Grenander-Szego: the Toeplitz eigenvalues of a density f lie in
    [min f, max f]; numpy's eigvalsh of an index-built matrix is the
    reference for the value itself."""
    chk = req["check"]
    doc = _load(req["out"])
    t = np.array([_c(z) for z in chk["t"]])
    idx = np.arange(len(t))
    diff = idx[:, None] - idx[None, :]
    mat = np.where(diff >= 0, t[np.abs(diff)], np.conj(t[np.abs(diff)]))
    ref = float(np.linalg.eigvalsh(mat)[0])
    got = doc["min_eigenvalue"]
    slack = 1e-9 * max(1.0, abs(chk["fmax"]))
    errs = []
    if not chk["fmin"] - slack <= got <= chk["fmax"] + slack:
        errs.append(f"min eigenvalue {got!r} outside density range "
                    f"[{chk['fmin']!r}, {chk['fmax']!r}]")
    if abs(got - ref) > 1e-10 * len(t) * max(1.0, abs(chk["fmax"])):
        errs.append(f"min eigenvalue {got!r} != reference {ref!r}")
    expect_psd = ref >= -chk["tol"]
    if doc["is_psd"] != expect_psd or doc["order"] != len(t):
        errs.append(f"is_psd {doc['is_psd']} order {doc['order']}")
    if code != (0 if doc["is_psd"] else 1):
        errs.append(f"exit {code} does not match is_psd")
    return errs


def check_stieltjes(req, code, stderr) -> list:
    """Closed form (1/2pi) int_a^b P_r f; tolerance is the composite
    Simpson error bound (b-a) h^4 max|g''''| / 180 for the integrand g."""
    chk = req["check"]
    doc = _load(req["out"])
    t = [_c(z) for z in chk["t"]]
    a, b, r = chk["a"], chk["b"], chk["r"]
    exact = t[0].real * (b - a)
    fourth = 0.0
    for n in range(1, len(t)):
        if t[n] == 0:
            continue
        rn = r ** n
        exact += 2.0 * (t[n] * rn * (np.exp(1j * n * b) - np.exp(1j * n * a)) / (1j * n)).real
        fourth += 2.0 * abs(t[n]) * rn * n ** 4
    exact /= 2.0 * math.pi
    panels = chk["quad_points"] + chk["quad_points"] % 2
    h = (b - a) / panels
    bound = (b - a) * h ** 4 * fourth / 180.0 / (2.0 * math.pi) + 1e-13
    errs = []
    if abs(doc["mass"] - exact) > bound:
        errs.append(f"mass {doc['mass']!r} != closed form {exact!r} (bound {bound:.2e})")
    if code != 0:
        errs.append(f"exit {code}")
    return errs


def _conv_reference(h: dict, u: dict, ndim: int):
    """Dense double convolution of h and u by shifted adds: the value, the
    count of products per entry and the convolution of the moduli."""
    u_arr, u_lo = _dense(u, ndim)
    h_keys = np.array(list(h), int).reshape(-1, ndim)
    h_lo = h_keys.min(axis=0)
    h_hi = h_keys.max(axis=0)
    shape = tuple(np.array(u_arr.shape) + h_hi - h_lo)
    val = np.zeros(shape, complex)
    cnt = np.zeros(shape, np.int64)
    mag = np.zeros(shape)
    u_nz = u_arr != 0
    u_abs = np.abs(u_arr)
    for key, hv in h.items():
        off = np.array(key) - h_lo
        region = tuple(slice(int(o), int(o) + n) for o, n in zip(off, u_arr.shape))
        val[region] += hv * u_arr
        cnt[region] += u_nz
        mag[region] += abs(hv) * u_abs
    origin = tuple(int(x) for x in h_lo + np.array(u_lo))
    return val, cnt, mag, origin


def check_filter(req, code, stderr) -> list:
    chk = req["check"]
    p = chk["p"]
    h = read_csv_entries(chk["h"])
    u = read_csv_entries(chk["u"])
    y = read_csv_entries(req["out"])
    val, cnt, mag, origin = _conv_reference(h, u, p + 1)
    tol = 4.0 * (cnt + 2) * EPS * mag
    errs = []
    stored = np.zeros(val.shape, bool)
    for key, v in y.items():
        pos = tuple(k - o for k, o in zip(key, origin))
        if any(x < 0 or x >= n for x, n in zip(pos, val.shape)) or cnt[pos] == 0:
            errs.append(f"entry {key} outside the exact product support")
            continue
        stored[pos] = True
        if abs(v - val[pos]) > tol[pos]:
            errs.append(f"entry {key}: {v!r} != reference {val[pos]!r}")
    missing = (cnt > 0) & ~stored & (np.abs(val) > tol)
    if missing.any():
        errs.append(f"{int(missing.sum())} nonzero product-support entries missing")
    if chk["oracle"]:
        from scalekit.convolve import brute_force_double_convolve
        from scalekit.io import read_time_signal

        ref = brute_force_double_convolve(read_time_signal(chk["h"]), read_time_signal(chk["u"]))
        for n, idx, v in ref.items():
            pos = tuple(k - o for k, o in zip((n,) + idx, origin))
            if abs(y.get((n,) + idx, 0j) - v) > tol[pos]:
                errs.append(f"entry {(n,) + idx} differs from the brute-force oracle")
        oracle_keys = {(n,) + idx for n, idx, _ in ref.items()}
        if not set(y) <= oracle_keys:
            errs.append("stored entries outside the oracle's support")
    if code != 0:
        errs.append(f"exit {code}")
    return errs[:5]


def check_spectrum(req, code, stderr) -> list:
    """Plancherel: the grid mean of |value|^2 equals the slice energy."""
    chk = req["check"]
    doc = _load(req["out"])
    y = read_csv_entries(chk["signal"])
    energy = sum(abs(v) ** 2 for key, v in y.items() if key[0] == chk["n"])
    vals = np.array([_c(z) for z in doc["values"]])
    mean_sq = float(np.mean(np.abs(vals) ** 2))
    errs = []
    if abs(mean_sq - energy) > 1e-10 * max(energy, 1e-300):
        errs.append(f"Plancherel: grid mean {mean_sq!r} != slice energy {energy!r}")
    if code != 0:
        errs.append(f"exit {code}")
    return errs


def check_gtf(req, code, stderr) -> list:
    chk = req["check"]
    doc = _load(req["out"])
    y = read_csv_entries(chk["signal"])
    z = _c(chk["z"])
    zs = [_c(w) for w in chk["zs"]]
    total = 0j
    scale = 0.0
    for key, v in y.items():
        term = v * z ** key[0]
        mod = abs(v) * abs(z) ** key[0]
        for w, k in zip(zs, key[1:]):
            term *= w ** k
            mod *= abs(w) ** k
        total += term
        scale += mod
    got = _c(doc["value"])
    errs = []
    if abs(got - total) > 1e-12 * max(scale, 1e-300) * max(1, len(y)) ** 0.5:
        errs.append(f"gtf value {got!r} != direct sum {total!r}")
    if code != 0:
        errs.append(f"exit {code}")
    return errs


def _su_normalize(a: complex, b: complex) -> tuple:
    if a.real < -1e-12 or (abs(a.real) <= 1e-12 and a.imag < 0.0):
        return -a, -b
    return a, b


def _oriented(gen: dict) -> np.ndarray:
    """Generator matrix whose attracting fixed point is the
    lexicographically larger of the pair (the group's zooming convention)."""
    a, b = _c(gen["a"]), _c(gen["b"])
    roots = np.roots([np.conj(b), np.conj(a) - a, -b])
    # |phi'(xi)| = 1 / |b* xi + a*|^2, so the attracting point has the larger |b* xi + a*|
    attracting, other = sorted(roots, key=lambda xi: -abs(np.conj(b) * xi + np.conj(a)))
    if abs(attracting.real - other.real) <= 1e-9:
        larger = other.imag > attracting.imag
    else:
        larger = other.real > attracting.real
    if larger:
        a, b = np.conj(a), -b
    return np.array([[a, b], [np.conj(b), np.conj(a)]], complex)


def _element(gens: list, idx: list) -> tuple:
    mat = np.eye(2, dtype=complex)
    for g, k in zip(gens, idx):
        m = _oriented(g)
        if k < 0:
            m = np.linalg.inv(m)
        mat = mat @ np.linalg.matrix_power(m, abs(int(k)))
    return _su_normalize(complex(mat[0, 0]), complex(mat[0, 1]))


_TRUNC_RE = re.compile(r"truncation not converged: certified bound (\S+) at length")


def check_transform(req, code, stderr) -> list:
    """Each column against direct evaluation of (1/(b* z + a*)) f(phi(z)) on
    |z| = 1/2.  Allowed error: the certified tail tol / sqrt(1 - r^2), the
    Cauchy tail of the rows cut at time_len (with M(1) <= sum|f| (|a|+|b|)),
    and roundoff of the Horner steps."""
    chk = req["check"]
    errs = []
    if code == 3:
        m = _TRUNC_RE.search(stderr)
        if not m or not float(m.group(1)) > chk["tol"]:
            errs.append(f"exit 3 without a truncation certificate: {stderr.strip()!r}")
        return errs
    if code != 0:
        return [f"exit {code}: {stderr.strip()!r}"]
    doc = _load(req["out"])
    shape = tuple(doc["shape"])
    data = np.array([_c(z) for z in doc["data"]]).reshape(shape)
    origin = doc["origin"]
    f = np.array([_c(z) for z in chk["coeffs"]])
    abs_f = float(np.abs(f).sum())
    n_rows = chk["time_len"]
    r = 0.5
    zs = r * np.exp(2j * math.pi * np.arange(8) / 8)
    powers = zs[:, None] ** np.arange(n_rows)[None, :]
    for idx in chk["window"]:
        a, b = _element(chk["generators"], idx)
        col = data[(slice(None),) + tuple(k - o for k, o in zip(idx, origin))]
        den = np.conj(b) * zs + np.conj(a)
        direct = np.polynomial.polynomial.polyval((a * zs + b) / den, f) / den
        head = powers @ col
        m1 = abs_f * (abs(a) + abs(b))
        allowed = (chk["tol"] / math.sqrt(1 - r * r) + m1 * r ** n_rows / (1 - r)
                   + 64 * EPS * len(f) * m1)
        worst = float(np.abs(head - direct).max())
        if worst > allowed:
            errs.append(f"column {idx}: error {worst:.3e} > allowed {allowed:.3e}")
    return errs


CHECKS = {
    "analyze_dissipative": check_analyze_dissipative,
    "analyze_l1l2": check_analyze_l1l2,
    "analyze_bibo": check_analyze_bibo,
    "verify": check_verify,
    "moments_check": check_moments,
    "stieltjes": check_stieltjes,
    "filter": check_filter,
    "spectrum": check_spectrum,
    "gtf": check_gtf,
    "transform": check_transform,
}


def check(req: dict, code, stderr: str) -> list:
    """Failure messages for one request (empty list when correct)."""
    if code is None or code == 2:
        return [f"exit {code}: {stderr.strip()[-300:]!r}"]
    try:
        return CHECKS[req["check"]["type"]](req, code, stderr)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"check could not read the output: {exc!r}"]
