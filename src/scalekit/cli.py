"""Batch command line front-end.

Subcommands load signals and systems from JSON/CSV, run transforms and
analyzers, and emit deterministic JSON reports (fixed field order, floats
with 17 significant digits).  Exit codes: 0 success/pass, 1 property fail
with witness, 2 usage or parse error, 3 uncertified (budget exceeded).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as skio
from ._jsonfmt import dumps
from .hardy import TruncationError, scale_transform
from .convolve import brute_force_double_convolve, double_convolve
from .moments import stieltjes_invert, toeplitz_psd_check
from .signals import as_index
from .spectral import generalized_transfer, scale_fourier
from .stability import bibo_analysis, dissipativity_check, empirical_verify, l1l2_gain

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNCERTIFIED = 3


def _load_json_arg(text: str):
    """Inline JSON if the argument looks like JSON, else a file path."""
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        return json.loads(stripped)
    with open(text) as fh:
        return json.load(fh)


def _emit(doc: dict, out: str | None) -> None:
    payload = dumps(doc) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_scale_transform(args) -> int:
    coeffs = skio.coeffseq_from_dict(_load_json_arg(args.signal))
    group = skio.group_from_dict(_load_json_arg(args.group))
    window = [as_index(idx, group.p) for idx in _load_json_arg(args.window)]
    result = scale_transform(group, coeffs, window, args.time_len, args.tol)
    if args.out:
        skio.write_time_signal(result, args.out)
    else:
        _emit(skio.signal_to_dict(result), None)
    return EXIT_OK


def _cmd_filter(args, engine) -> int:
    h = skio.read_time_signal(args.h)
    u = skio.read_time_signal(args.u)
    y = engine(h, u)
    if args.out:
        skio.write_time_signal(y, args.out)
    else:
        skio.write_signal_csv(y, sys.stdout)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    sig = skio.read_time_signal(args.signal)
    grid_sizes = [int(s) for s in args.grid.split(",")]
    grid = scale_fourier(sig.slice(args.n), grid_sizes)
    if (args.out or "").endswith(".csv"):
        with open(args.out, "w", newline="") as fh:
            skio.write_spectrum_csv(grid, fh)
    else:
        _emit(skio.spectrum_to_dict(grid), args.out)
    return EXIT_OK


def _cmd_gtf_eval(args) -> int:
    h = skio.read_time_signal(args.system)
    z = skio.unpair(json.loads(args.z))
    zs = [skio.unpair(w) for w in json.loads(args.zs)] if args.zs else []
    value = generalized_transfer(h, z, zs)
    _emit(skio.to_dict({"z": z, "zs": zs, "value": value}), args.out)
    return EXIT_OK


def _cmd_moments_check(args) -> int:
    ms = skio.moments_from_dict(_load_json_arg(args.moments))
    report = toeplitz_psd_check(ms, tol=args.tol)
    _emit(report._asdict(), args.out)
    return EXIT_OK if report.is_psd else EXIT_FAIL


def _cmd_stieltjes(args) -> int:
    ms = skio.moments_from_dict(_load_json_arg(args.moments))
    mass = stieltjes_invert(ms, args.a, args.b, args.r)
    _emit({"a": args.a, "b": args.b, "r": args.r, "mass": mass}, args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    h = skio.read_time_signal(args.system)
    prop = args.property
    if prop == "bibo":
        report = bibo_analysis(h, tol=args.tol)
    elif prop == "dissipative":
        report = dissipativity_check(h, tol=args.tol)
    else:
        report = l1l2_gain(h)
    doc = skio.report_to_dict(report)
    doc["tol"] = args.tol
    _emit(doc, args.out)
    if report.details.get("gram_bug"):
        print(f"warning: the Gram kernel contradicts the pass: minimum eigenvalue "
              f"{report.details['gram_min_eigenvalue']!r} < -tol", file=sys.stderr)
    return {"pass": EXIT_OK, "fail": EXIT_FAIL}.get(report.verdict, EXIT_UNCERTIFIED)


def _cmd_verify(args) -> int:
    h = skio.read_time_signal(args.system)
    report = empirical_verify(h, args.property, args.trials, args.seed)
    _emit(skio.empirical_to_dict(report), args.out)
    return EXIT_OK if report.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalekit",
        description="Multi-scale discrete-time system toolbox (batch only).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("scale-transform",
                        help="observe a coefficient sequence through group scales")
    sp.add_argument("--signal", required=True, help="CoeffSeq JSON (inline or path)")
    sp.add_argument("--group", required=True, help="group JSON (inline or path)")
    sp.add_argument("--window", required=True,
                    help="JSON list of exponent vectors (inline or path)")
    sp.add_argument("--time-len", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.set_defaults(func=_cmd_scale_transform)

    for name, engine, help_text in (
        ("filter", lambda h, u: double_convolve(h, u),
         "double convolution of an impulse response with an input"),
        ("oracle", lambda h, u: brute_force_double_convolve(h, u),
         "brute-force reference double convolution"),
    ):
        fp = sub.add_parser(name, help=help_text)
        fp.add_argument("--h", required=True, help="impulse response (.csv/.json)")
        fp.add_argument("--u", required=True, help="input signal (.csv/.json)")
        fp.set_defaults(func=lambda a, e=engine: _cmd_filter(a, e))

    gp = sub.add_parser("spectrum", help="torus transform of one time slice")
    gp.add_argument("--signal", required=True)
    gp.add_argument("--n", type=int, default=0, help="time slice index")
    gp.add_argument("--grid", required=True, help="comma-separated grid sizes")
    gp.set_defaults(func=_cmd_spectrum)

    tp = sub.add_parser("gtf-eval", help="evaluate the generalized transfer function")
    tp.add_argument("--system", required=True)
    tp.add_argument("--z", required=True, help="[re, im] JSON pair")
    tp.add_argument("--zs", default="", help="JSON list of [re, im] pairs")
    tp.set_defaults(func=_cmd_gtf_eval)

    mp = sub.add_parser("moments-check", help="Toeplitz positivity of moments")
    mp.add_argument("--moments", required=True, help='{"t": [[re,im], ...]} or path')
    mp.add_argument("--tol", type=float, default=1e-9)
    mp.set_defaults(func=_cmd_moments_check)

    ip = sub.add_parser("stieltjes", help="interval mass from boundary inversion")
    ip.add_argument("--moments", required=True)
    ip.add_argument("--a", type=float, required=True)
    ip.add_argument("--b", type=float, required=True)
    ip.add_argument("--r", type=float, required=True)
    ip.set_defaults(func=_cmd_stieltjes)

    ap = sub.add_parser("analyze", help="run a certified stability analyzer")
    ap.add_argument("--property", required=True,
                    choices=["bibo", "dissipative", "l1l2"])
    ap.add_argument("--system", required=True)
    ap.add_argument("--tol", type=float, default=1e-9,
                    help="bibo: relative width at which each slice norm bracket stops "
                         "refining, roundoff included (exit 3 if the SCALEKIT_MAX_GRID work "
                         "budget runs out first); dissipative: slack in the threshold "
                         "sup <= 1 + tol")
    ap.set_defaults(func=_cmd_analyze)

    vp = sub.add_parser("verify", help="Monte-Carlo check of an analyzer bound")
    vp.add_argument("--property", required=True,
                    choices=["bibo", "dissipative", "l1l2"])
    vp.add_argument("--system", required=True)
    vp.add_argument("--trials", type=int, default=50)
    vp.add_argument("--seed", type=int, default=0)
    vp.set_defaults(func=_cmd_verify)

    for command in sub.choices.values():
        command.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except TruncationError as exc:
        print(f"uncertified: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except (ValueError, TypeError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
