"""Block-fading channel realizations and additive noise."""

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ConfigurationError, UsageError

FADING_MODELS = ("unit-mag", "rayleigh")


@dataclass(frozen=True)
class ChannelRealization:
    """Gains for one coherence block, constant across all its phases.

    hSR[s, r] is the source s -> relay r gain, hRD[r] the relay r ->
    destination gain.
    """

    hSR: np.ndarray     # (N, M)
    hRD: np.ndarray     # (M,)
    rho: float
    sigma2: float

    def __post_init__(self):
        self.hSR.setflags(write=False)
        self.hRD.setflags(write=False)

    @property
    def N(self) -> int:
        return self.hSR.shape[0]

    @property
    def M(self) -> int:
        return self.hSR.shape[1]


def _gain_methods(model: str) -> tuple:
    """The Generator methods whose variates _gains forms a model's gains from, in draw order."""
    if model == "rayleigh":
        return (np.random.Generator.standard_normal,) * 2
    if model == "unit-mag":
        return (np.random.Generator.random,)
    raise ConfigurationError(f"unknown fading model {model!r}; valid: {', '.join(FADING_MODELS)}")


def _gains(model: str, variates) -> np.ndarray:
    """Fading gains from the variates of _gain_methods(model), in its order, C-contiguous.

    A unit-mag gain e^{j 2 pi u} is written as cos and sin into the parts of
    one complex array: the values of np.exp(2j * np.pi * u), bit for bit,
    without its complex temporaries.  The variates may be strided views.
    """
    if model == "rayleigh":
        re, im = variates
        return np.divide(re + 1j * im, np.sqrt(2.0), order="C")
    theta = 2 * np.pi * variates[0]
    h = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=h.real)
    np.sin(theta, out=h.imag)
    return h


def _complex_noise(sigma2: float, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """CN(0, sigma2) samples sqrt(sigma2/2) (re + j im) from standard normal variates; sigma2 >= 0.

    Each part is scaled straight into the complex result: the values of the
    complex product without its temporaries, save that a zero keeps its
    variate's sign (at sigma2 = 0 every sample is such a signed zero).
    """
    w = np.empty(re.shape, dtype=complex)
    scale = sqrt(sigma2 / 2.0)
    np.multiply(re, scale, out=w.real)
    np.multiply(im, scale, out=w.imag)
    return w


def _draw_gains(model: str, rng: np.random.Generator, shape) -> np.ndarray:
    """Fading gains of the given shape, drawn from rng."""
    return _gains(model, [method(rng, size=shape) for method in _gain_methods(model)])


def draw_channel(model: str, N: int, M: int, rho: float, rng: np.random.Generator,
                 sigma2: float = 1.0) -> ChannelRealization:
    """One coherence block's gains: i.i.d. CN(0,1) (rayleigh) or e^{j theta} (unit-mag)."""
    if N < 1 or M < 1:
        raise UsageError("N and M must be >= 1")
    if rho <= 0:
        raise UsageError("rho must be positive")
    return ChannelRealization(
        hSR=_draw_gains(model, rng, (N, M)),
        hRD=_draw_gains(model, rng, (M,)),
        rho=float(rho),
        sigma2=float(sigma2),
    )


def awgn(length, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, sigma2) samples, variance sigma2/2 per real dimension.

    `length` may be an int or a shape tuple.
    """
    if sigma2 < 0:
        raise UsageError("sigma2 must be nonnegative")
    if sigma2 == 0:
        return np.zeros(length, dtype=complex)
    return _complex_noise(sigma2, rng.standard_normal(length), rng.standard_normal(length))
