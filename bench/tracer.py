"""In-memory span tracer for the traced benchmark run.

Wraps public functions of the scalekit modules from the outside: every
module namespace that binds a wrapped function gets the wrapper (``from
.convolve import group_convolve`` binds at import), plus
``ScaleSignal.__init__``, ``ScaleGroup.element`` and counting-only
wrappers on the ``numpy.fft`` entry points.  Spans are
``[name, start, end, parent, request]`` rows kept in a list; per-layer
metrics are self times (span duration minus the time its child spans
cover) and counters gathered at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import numpy as np

# span name -> (module, attribute) of each wrapped public function
SPANS = {
    "jsonfmt.dumps": [("scalekit._jsonfmt", "dumps")],
    "io.read": [("scalekit.io", n) for n in (
        "read_time_signal", "read_signal_csv", "signal_from_dict",
        "coeffseq_from_dict", "group_from_dict", "moments_from_dict")],
    "io.write": [("scalekit.io", n) for n in (
        "write_time_signal", "write_signal_csv", "signal_to_dict",
        "spectrum_to_dict", "write_spectrum_csv", "report_to_dict",
        "empirical_to_dict")],
    "convolve.group_convolve": [("scalekit.convolve", "group_convolve")],
    "convolve.double_convolve": [("scalekit.convolve", "double_convolve")],
    "stability.mult_operator_norm": [("scalekit.stability", "mult_operator_norm")],
    "stability.bibo_analysis": [("scalekit.stability", "bibo_analysis")],
    "stability.dissipativity_check": [("scalekit.stability", "dissipativity_check")],
    "stability.empirical_verify": [("scalekit.stability", "empirical_verify")],
    "stability.l1l2_gain": [("scalekit.stability", "l1l2_gain")],
    "spectral.generalized_transfer": [("scalekit.spectral", "generalized_transfer")],
    "spectral.scale_fourier": [("scalekit.spectral", "scale_fourier")],
    "hardy.transform_coeffs": [("scalekit.hardy", "transform_coeffs")],
    "hardy.scale_transform": [("scalekit.hardy", "scale_transform")],
    "moments.toeplitz_psd_check": [("scalekit.moments", "toeplitz_psd_check")],
    "moments.stieltjes_invert": [("scalekit.moments", "stieltjes_invert")],
}

FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                    "rfft", "irfft", "rfftn", "irfftn")

# metric name -> span name whose summed self time it reports
SELF_TIME_METRICS = {
    "jsonfmt.dumps_s": "jsonfmt.dumps",
    "io.read_s": "io.read",
    "io.write_s": "io.write",
    "signals.construct_s": "signals.construct",
    "convolve.group_convolve_s": "convolve.group_convolve",
    "convolve.double_convolve_s": "convolve.double_convolve",
    "stability.mult_operator_norm_s": "stability.mult_operator_norm",
    "stability.dissipativity_check_self_s": "stability.dissipativity_check",
    "stability.empirical_verify_self_s": "stability.empirical_verify",
    "stability.bibo_analysis_self_s": "stability.bibo_analysis",
    "spectral.generalized_transfer_s": "spectral.generalized_transfer",
    "spectral.scale_fourier_s": "spectral.scale_fourier",
    "hardy.transform_coeffs_s": "hardy.transform_coeffs",
    "hardy.scale_transform_self_s": "hardy.scale_transform",
    "moments.toeplitz_psd_check_s": "moments.toeplitz_psd_check",
    "moments.stieltjes_invert_s": "moments.stieltjes_invert",
    "group.element_s": "group.element",
}

COUNT_METRICS = (
    "jsonfmt.bytes", "io.rows_written",
    "signals.construct_calls", "signals.construct_entries",
    "convolve.group_convolve_calls", "convolve.group_convolve_products",
    "convolve.double_convolve_products", "convolve.out_entries",
    "stability.fft_calls", "stability.fft_points", "stability.fft_bytes_computed",
    "stability.grid_points_final", "stability.brackets_total",
    "stability.brackets_uncertified",
    "spectral.generalized_transfer_calls",
    "hardy.transform_coeffs_calls", "hardy.out_len", "hardy.truncation_errors",
    "group.element_calls",
)


def _useful_len(coeffs: np.ndarray, tol: float) -> int:
    """Smallest length whose l2 tail in the returned coefficients is <= tol."""
    tails = np.sqrt(np.cumsum(np.abs(coeffs[::-1]) ** 2))[::-1]
    return int(np.count_nonzero(tails > tol))


class Tracer:
    """Collects spans and counters while installed; single-threaded."""

    def __init__(self):
        self.spans: list = []
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.request = None
        self._stack: list = []
        self._stability_depth = 0
        self._useful = 0
        self._undo: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, on_return=None, on_raise=None):
        spans, stack = self.spans, self._stack
        in_stability = name.startswith("stability.")
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            if in_stability:
                self._stability_depth += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if in_stability:
                    self._stability_depth -= 1
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if self._stability_depth:
                points = int(np.size(a))
                self.counts["stability.fft_calls"] += 1
                self.counts["stability.fft_points"] += points
                self.counts["stability.fft_bytes_computed"] += 16 * points
            return fn(a, *args, **kwargs)

        return wrapper

    def _hooks(self) -> dict:
        """(on_return, on_raise) per span name, or per module.attr where
        one function of a span needs its own counter."""
        c = self.counts

        def add_bracket(b):
            c["stability.brackets_total"] += 1
            c["stability.brackets_uncertified"] += 0 if b.certified else 1
            c["stability.grid_points_final"] += math.prod(b.grid_sizes) if b.grid_sizes else 0

        def on_dumps(args, kwargs, result):
            c["jsonfmt.bytes"] += len(result)

        def on_write_csv(args, kwargs, result):
            c["io.rows_written"] += sum(len(s) for s in args[0].slices)

        def on_group_convolve(args, kwargs, result):
            c["convolve.group_convolve_calls"] += 1
            c["convolve.group_convolve_products"] += len(args[0]) * len(args[1])

        def on_double_convolve(args, kwargs, result):
            h, u = args[0], args[1]
            c["convolve.double_convolve_products"] += (
                sum(len(s) for s in h.slices) * sum(len(s) for s in u.slices))
            c["convolve.out_entries"] += sum(len(s) for s in result.slices)

        def on_transform(args, kwargs, result):
            tol = args[2] if len(args) > 2 else kwargs["tol"]
            c["hardy.transform_coeffs_calls"] += 1
            c["hardy.out_len"] += len(result)
            self._useful += _useful_len(result.coeffs, tol)

        def on_transform_raise(exc):
            c["hardy.transform_coeffs_calls"] += 1
            if type(exc).__name__ == "TruncationError":
                c["hardy.truncation_errors"] += 1

        def on_generalized_transfer(args, kwargs, result):
            c["spectral.generalized_transfer_calls"] += 1

        return {
            "jsonfmt.dumps": (on_dumps, None),
            "io.write_signal_csv": (on_write_csv, None),
            "convolve.group_convolve": (on_group_convolve, None),
            "convolve.double_convolve": (on_double_convolve, None),
            "stability.mult_operator_norm": (lambda a, k, r: add_bracket(r), None),
            "stability.dissipativity_check": (lambda a, k, r: add_bracket(r.sup_bracket), None),
            "spectral.generalized_transfer": (on_generalized_transfer, None),
            "hardy.transform_coeffs": (on_transform, on_transform_raise),
        }

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target in every loaded scalekit module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "scalekit" or n.startswith("scalekit.")) and m is not None]
        hooks = self._hooks()
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                orig = getattr(sys.modules[mod_name], attr)
                key = f"{name.split('.')[0]}.{attr}"
                on_return, on_raise = hooks.get(key, hooks.get(name, (None, None)))
                wrapper = self._wrap(name, orig, on_return, on_raise)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, bound, wrapper)

        signals = sys.modules["scalekit.signals"]
        counts = self.counts

        def on_construct(args, kwargs, result):
            counts["signals.construct_calls"] += 1
            counts["signals.construct_entries"] += len(args[0])

        sig_cls = signals.ScaleSignal
        self._patch(sig_cls, "__init__",
                    self._wrap("signals.construct", sig_cls.__init__, on_construct))

        def on_element(args, kwargs, result):
            counts["group.element_calls"] += 1

        group_cls = sys.modules["scalekit.group"].ScaleGroup
        self._patch(group_cls, "element",
                    self._wrap("group.element", group_cls.element, on_element))

        for attr in FFT_ENTRY_POINTS:
            self._patch(np.fft, attr, self._count_fft(getattr(np.fft, attr)))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def layer_metrics(self) -> dict:
        """Every per-layer metric; layers a workload never calls read 0."""
        selfs = self.self_times()
        metrics = {m: selfs.get(span, 0.0) for m, span in SELF_TIME_METRICS.items()}
        metrics.update(self.counts)
        out_len = self.counts["hardy.out_len"]
        metrics["hardy.useful_len_frac"] = self._useful / out_len if out_len else 1.0
        return metrics

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
