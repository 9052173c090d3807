"""
Trigonometric moments and circle measures
=========================================

A Hermitian sequence is the moment list of a positive circle measure
exactly when all its Toeplitz matrices are positive semidefinite.  The
associated disc function with positive real part recovers interval masses
through a boundary limit, integrated in closed form.
"""

import math

import numpy as np

from scalekit import MomentSequence, herglotz_eval, stieltjes_invert, toeplitz_psd_check

# A valid and an invalid moment sequence.
good = MomentSequence((1.0, 0.5))
bad = MomentSequence((1.0, 0.8, 0.0))
print("t = (1, 0.5): ", toeplitz_psd_check(good))
print("t = (1, 0.8, 0):", toeplitz_psd_check(bad))

# All-ones moments encode the unit point mass at angle zero; the disc
# function is the Cayley transform (1+z)/(1-z).
point_mass = MomentSequence(tuple([1.0] * 2000))
print("\nPhi(0.5) for the point mass:", herglotz_eval(point_mass, 0.5).value)

# Interval masses through the boundary limit: almost all of the mass sits
# in a small arc around zero, almost none elsewhere.
near = stieltjes_invert(point_mass, -0.1, 0.1, r=0.999)
far = stieltjes_invert(point_mass, 1.0, 2.0, r=0.999)
print("mass in (-0.1, 0.1):", near)
print("mass in (1, 2):    ", far)

# Normalized Lebesgue measure has moments (1, 0, 0, ...): every arc gets
# its length over 2 pi, and the full circle returns t_0.
lebesgue = MomentSequence((1.0, 0.0, 0.0))
print("\nLebesgue mass of (1, 2):", stieltjes_invert(lebesgue, 1, 2, 0.9),
      "=", (2 - 1) / (2 * math.pi))

# Moments of any nonnegative grid density pass the positivity check.
theta = 2 * math.pi * np.arange(128) / 128
density = np.abs(1 + 0.7 * np.exp(1j * theta)) ** 2
ms = MomentSequence(
    tuple(np.mean(density * np.exp(-1j * n * theta)) for n in range(8))
)
print("\ndensity moments PSD:", toeplitz_psd_check(ms).is_psd)
print("full-circle mass vs t_0:",
      stieltjes_invert(ms, 0.0, 2 * math.pi, 0.9), "vs", ms.t[0].real)
