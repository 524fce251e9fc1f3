import numpy as np

from hho.analysis import smooth_sine_case

_SINE = smooth_sine_case()
sine = _SINE.u
sine_grad = _SINE.grad_u
sine_f0 = _SINE.load.f0


def hat_profile(x):
    return (1.0 - np.abs(2.0 * x[..., 0] - 1.0)) * (
        1.0 - np.abs(2.0 * x[..., 1] - 1.0)
    )
