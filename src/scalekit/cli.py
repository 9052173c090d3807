"""Batch command line front-end.

Subcommands load signals and systems from JSON/CSV, run transforms and
analyzers, and emit deterministic JSON reports (fixed field order, floats
with 17 significant digits).  Exit codes: 0 success/pass, 1 property fail
with witness, 2 usage or parse error, 3 uncertified (budget exceeded).

COMMANDS is the one table of subcommands: name -> help, handler and
argument specs.  build_parser makes the parser of all of them once per
process, on main's first call: parsing leaves it unchanged, and argparse
formats help and errors only when it prints them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import io as skio
from .hardy import TruncationError, scale_transform
from .convolve import brute_force_double_convolve, double_convolve
from .moments import stieltjes_invert, toeplitz_psd_check
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


def _cmd_scale_transform(args) -> int:
    coeffs = skio.coeffseq_from_dict(_load_json_arg(args.signal))
    group = skio.group_from_dict(_load_json_arg(args.group))
    window = _load_json_arg(args.window)
    result = scale_transform(group, coeffs, window, args.time_len, args.tol)
    if args.out:
        skio.write_time_signal(result, args.out)
    else:
        skio.write_json(skio.signal_to_dict(result), None)
    return EXIT_OK


def _cmd_filter(args) -> int:
    h = skio.read_time_signal(args.h)
    u = skio.read_time_signal(args.u)
    engine = brute_force_double_convolve if args.command == "oracle" else double_convolve
    y = engine(h, u)
    if args.out:
        skio.write_time_signal(y, args.out)
    else:
        skio.write_signal_csv(y, sys.stdout)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be a time index >= 0, got {args.n}")
    sig = skio.read_time_signal(args.signal)
    grid_sizes = [int(s) for s in args.grid.split(",")]
    grid = scale_fourier(sig.slice(args.n), grid_sizes)
    if (args.out or "").endswith(".csv"):
        with open(args.out, "w", newline="") as fh:
            skio.write_spectrum_csv(grid, fh)
    else:
        skio.write_json(skio.spectrum_to_dict(grid), args.out)
    return EXIT_OK


def _cmd_gtf_eval(args) -> int:
    h = skio.read_time_signal(args.system)
    z = skio.unpair(json.loads(args.z))
    zs = [skio.unpair(w) for w in json.loads(args.zs)] if args.zs else []
    value = generalized_transfer(h, z, zs)
    skio.write_json(skio.to_dict({"z": z, "zs": zs, "value": value}), args.out)
    return EXIT_OK


def _cmd_moments_check(args) -> int:
    ms = skio.moments_from_dict(_load_json_arg(args.moments))
    report = toeplitz_psd_check(ms, tol=args.tol)
    skio.write_json(report._asdict(), args.out)
    return EXIT_OK if report.is_psd else EXIT_FAIL


def _cmd_stieltjes(args) -> int:
    ms = skio.moments_from_dict(_load_json_arg(args.moments))
    mass = stieltjes_invert(ms, args.a, args.b, args.r)
    skio.write_json({"a": args.a, "b": args.b, "r": args.r, "mass": mass}, args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    h = skio.read_time_signal(args.system)
    if not 0.0 <= args.tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {args.tol!r}")
    prop = args.property
    if prop == "bibo":
        report = bibo_analysis(h, tol=args.tol)
    elif prop == "dissipative":
        report = dissipativity_check(h, tol=args.tol)
    else:
        report = l1l2_gain(h)
    doc = skio.report_to_dict(report)
    doc["tol"] = args.tol
    skio.write_json(doc, args.out)
    if report.details.get("gram_bug"):
        print(f"warning: the Gram kernel contradicts the pass: minimum eigenvalue "
              f"{report.details['gram_min_eigenvalue']!r} < -tol", file=sys.stderr)
    return {"pass": EXIT_OK, "fail": EXIT_FAIL}.get(report.verdict, EXIT_UNCERTIFIED)


def _cmd_verify(args) -> int:
    h = skio.read_time_signal(args.system)
    report = empirical_verify(h, args.property, args.trials, args.seed)
    skio.write_json(skio.empirical_to_dict(report), args.out)
    return EXIT_OK if report.ok else EXIT_FAIL


_FILTER_ARGS = (("--h", dict(required=True, help="impulse response (.csv/.json)")),
                ("--u", dict(required=True, help="input signal (.csv/.json)")))
_PROPERTY = ("--property", dict(required=True, choices=["bibo", "dissipative", "l1l2"]))

# name -> (help, handler, argument specs); --out is added to every command
COMMANDS = {
    "scale-transform": (
        "observe a coefficient sequence through group scales", _cmd_scale_transform, (
            ("--signal", dict(required=True, help="CoeffSeq JSON (inline or path)")),
            ("--group", dict(required=True, help="group JSON (inline or path)")),
            ("--window", dict(required=True,
                              help="JSON list of exponent vectors (inline or path)")),
            ("--time-len", dict(type=int, required=True)),
            ("--tol", dict(type=float, default=1e-9)))),
    "filter": ("double convolution of an impulse response with an input", _cmd_filter,
               _FILTER_ARGS),
    "oracle": ("brute-force reference double convolution", _cmd_filter, _FILTER_ARGS),
    "spectrum": ("torus transform of one time slice", _cmd_spectrum, (
        ("--signal", dict(required=True)),
        ("--n", dict(type=int, default=0, help="time slice index")),
        ("--grid", dict(required=True, help="comma-separated grid sizes")))),
    "gtf-eval": ("evaluate the generalized transfer function", _cmd_gtf_eval, (
        ("--system", dict(required=True)),
        ("--z", dict(required=True, help="[re, im] JSON pair")),
        ("--zs", dict(default="", help="JSON list of [re, im] pairs")))),
    "moments-check": ("Toeplitz positivity of moments", _cmd_moments_check, (
        ("--moments", dict(required=True, help='{"t": [[re,im], ...]} or path')),
        ("--tol", dict(type=float, default=1e-9,
                       help="is_psd holds when the smallest eigenvalue of the Toeplitz matrix "
                            "of t 2^-E is >= -tol, 2^E the power of two at or below the "
                            "largest real or imaginary part: tol is relative to 2^E")))),
    "stieltjes": ("interval mass from boundary inversion", _cmd_stieltjes, (
        ("--moments", dict(required=True)),
        ("--a", dict(type=float, required=True)),
        ("--b", dict(type=float, required=True)),
        ("--r", dict(type=float, required=True)))),
    "analyze": ("run a certified stability analyzer", _cmd_analyze, (
        _PROPERTY,
        ("--system", dict(required=True)),
        ("--tol", dict(type=float, default=1e-9,
                       help="bibo: relative width at which each slice norm bracket stops "
                            "refining, roundoff included (exit 3 if the fixed work "
                            "budget of 2^24 units runs out first); dissipative: slack in the "
                            "threshold sup <= 1 + tol")))),
    "verify": ("Monte-Carlo check of an analyzer bound", _cmd_verify, (
        _PROPERTY,
        ("--system", dict(required=True)),
        ("--trials", dict(type=int, default=50)),
        ("--seed", dict(type=int, default=0)))),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command in COMMANDS, built once per process."""
    parser = argparse.ArgumentParser(
        prog="scalekit",
        description="Multi-scale discrete-time system toolbox (batch only).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, specs) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in specs:
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--out")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except TruncationError as exc:
        print(f"uncertified: {exc}", file=sys.stderr)
        return EXIT_UNCERTIFIED
    except (ValueError, TypeError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
