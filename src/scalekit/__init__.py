"""scalekit: discrete-time multi-scale linear systems.

Disc automorphisms acting on Taylor coefficients, commuting scale groups,
double time-and-scale convolution filters, torus spectra and Hermite
transforms, trigonometric moment certification, and certified stability
analysis (BIBO, dissipative, l1-l2).
"""

from .moebius import HyperbolicData, MapClass, SuMatrix, make_scale_shift
from .group import ScaleGroup, make_group
from .signals import (
    ScaleSignal,
    ScaleTimeSignal,
    as_index,
    in_causal_cone,
    support_bound,
)
from .hardy import CoeffSeq, TruncationError, scale_transform, transform_coeffs
from .convolve import (
    brute_force_double_convolve,
    double_convolve,
    group_convolve,
)
from .spectral import (
    SpectrumGrid,
    generalized_transfer,
    haar_moment,
    hermite_transform,
    scale_fourier,
    scale_fourier_inverse,
    transfer_grid,
)
from .moments import (
    HerglotzValue,
    MomentSequence,
    PsdReport,
    herglotz_eval,
    stieltjes_invert,
    toeplitz_psd_check,
)
from .stability import (
    EmpiricalReport,
    OperatorNormBracket,
    StabilityReport,
    adversarial_input,
    bibo_analysis,
    dissipativity_check,
    empirical_verify,
    l1l2_gain,
    mult_operator_norm,
    resonant_input,
)

__version__ = "0.1.0"

__all__ = [
    "HyperbolicData", "MapClass", "SuMatrix", "make_scale_shift",
    "ScaleGroup", "make_group",
    "ScaleSignal", "ScaleTimeSignal", "as_index", "in_causal_cone",
    "support_bound",
    "CoeffSeq", "TruncationError", "scale_transform", "transform_coeffs",
    "brute_force_double_convolve", "double_convolve", "group_convolve",
    "SpectrumGrid", "generalized_transfer", "haar_moment",
    "hermite_transform", "scale_fourier", "scale_fourier_inverse",
    "transfer_grid",
    "HerglotzValue", "MomentSequence", "PsdReport", "herglotz_eval",
    "stieltjes_invert", "toeplitz_psd_check",
    "EmpiricalReport", "OperatorNormBracket", "StabilityReport",
    "adversarial_input", "bibo_analysis", "dissipativity_check",
    "empirical_verify", "l1l2_gain", "mult_operator_norm", "resonant_input",
    "__version__",
]
