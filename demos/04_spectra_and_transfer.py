"""
Spectra on the torus and transfer functions
===========================================

The scale lattice has a compact dual: the torus.  Sampling characters on a
uniform grid gives a Fourier transform with a Plancherel identity, and the
filter relation becomes a pointwise product there.  Relabeling lattice
coefficients as Laurent monomials gives the polynomial (Hermite-transform)
picture and the generalized transfer function in p+1 complex variables.
"""

import numpy as np

from scalekit import (
    ScaleSignal,
    ScaleTimeSignal,
    double_convolve,
    generalized_transfer,
    group_convolve,
    hermite_transform,
    scale_fourier,
    transfer_grid,
)

rng = np.random.default_rng(3)

x = ScaleSignal({(-1,): 0.5j, (0,): 1.0, (2,): -0.25}, arity=1)
grid = scale_fourier(x, [16])
print("signal energy:", x.l2_norm() ** 2)
print("grid mean |x^|^2:", grid.mean_square())

# Convolution becomes a product of transforms.
h = ScaleTimeSignal([ScaleSignal({(0,): 1.0, (1,): 0.5}, arity=1)], arity=1)
u = ScaleTimeSignal([x], arity=1)
y = double_convolve(h, u)
z = 0.3 + 0.2j
lhs = transfer_grid(y, z, [16]).values
rhs = transfer_grid(h, z, [16]).values * transfer_grid(u, z, [16]).values
print("pointwise product identity residual:", np.abs(lhs - rhs).max())

# Polynomial picture: convolution on the lattice = product of polynomials.
# The Hermite transform evaluates the coefficients as a Laurent polynomial;
# on as many torus points as the product is wide, values determine it.
f = ScaleSignal({(0,): 1.0, (1,): 2.0}, arity=1)
g = ScaleSignal({(0,): -1.0, (2,): 1.0}, arity=1)
fg = group_convolve(f, g)
points = np.exp(2j * np.pi * np.arange(fg.array.shape[0]) / fg.array.shape[0])[:, None]
conv_vals = hermite_transform(fg, points)
prod_vals = hermite_transform(f, points) * hermite_transform(g, points)
print("polynomial multiplicativity residual:", np.abs(conv_vals - prod_vals).max())
print("f(z) at z = 0.5:", hermite_transform(f, [[0.5]])[0], "(expect 2)")

# The generalized transfer function evaluates anywhere in the polydisc for
# cone-supported systems.
h2 = ScaleTimeSignal(
    [ScaleSignal({(1,): 1.0}, arity=1), ScaleSignal({(0,): 1.0}, arity=1)],
    arity=1,
)
print("two-term system at (z, z1) = (0.2, 0.3):",
      generalized_transfer(h2, 0.2, [0.3]), "(expect 0.5)")
