"""
Filtering in time and scale at once
===================================

A multi-scale filter convolves in two directions simultaneously: causally
over the time index and group-wise over the scale exponents.  The engine
has a direct reference path, an FFT-accelerated path, and a literal
quadruple-loop oracle; all three must agree.
"""

import numpy as np

from scalekit import (
    ScaleSignal,
    ScaleTimeSignal,
    brute_force_double_convolve,
    double_convolve,
)

rng = np.random.default_rng(2)


def random_signal(time_len, width, terms):
    slices = []
    for _ in range(time_len):
        entries = {
            (int(k),): complex(*rng.standard_normal(2))
            for k in rng.integers(-width, width + 1, terms)
        }
        slices.append(ScaleSignal(entries, arity=1))
    return ScaleTimeSignal(slices, arity=1)


h = random_signal(3, 2, 3)
u = random_signal(5, 2, 3)

y_direct = double_convolve(h, u)
y_fft = double_convolve(h, u, method="fft")
y_oracle = brute_force_double_convolve(h, u)

print("output time length:", y_direct.time_len)
print("direct vs oracle:", y_direct.distance(y_oracle))
print("fft    vs direct:", y_fft.distance(y_direct))

# Time causality: the output up to time n ignores later inputs.
bumped = list(u.slices)
bumped[4] = ScaleSignal({(0,): 1e6}, arity=1)
y_bumped = double_convolve(h, ScaleTimeSignal(bumped, arity=1))
drift = max(y_direct.slice(n).distance(y_bumped.slice(n)) for n in range(4))
print("change in y_0..y_3 after editing u_4:", drift)

# Scale causality is a property of the signals, not a mode: a scale-causal
# filter maps cone-supported inputs to cone-supported outputs.
h_cone = h.scale_causal_projection()
u_cone = u.scale_causal_projection()
y_cone = double_convolve(h_cone, u_cone)
print("cone-supported operands give a cone-supported output:", y_cone.is_cone_supported())
