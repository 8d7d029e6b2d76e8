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


def _unit_mag_variates(words) -> np.ndarray:
    """The variates _gains forms unit-mag gains from, one per raw 64-bit word w: k = w >> 11.

    k is the top 53 bits of w, and Generator.random draws u = k 2^-53 from w.
    """
    return words >> 11


def _gains(model: str, variates) -> np.ndarray:
    """Fading gains from a model's variates, C-contiguous.

    rayleigh takes two standard normal variates (re, im), unit-mag one
    integer k < 2^53 (_unit_mag_variates), as a uint64 or any array holding
    it exactly, for the u = k 2^-53 Generator.random would draw.  A unit-mag
    gain e^{j 2 pi u} is np.exp of one complex array holding
    +0 + j (2 pi 2^-53) k, taken in place.  2^-53 is a power of two and
    2 pi k 2^-53 stays a normal float, so scaling by it commutes with the
    rounding: (2 pi 2^-53) k is 2 pi u bit for bit, the argument
    np.exp(2j * np.pi * u) forms, and the gains are its values without its
    complex temporaries.  The complex exp takes each cosine and sine in one
    call, which costs less than np.cos and np.sin apart.  The variates may
    be strided views.
    """
    if model == "rayleigh":
        re, im = variates
        return np.divide(re + 1j * im, np.sqrt(2.0), order="C")
    if model != "unit-mag":
        raise ConfigurationError(f"unknown fading model {model!r}; valid: {', '.join(FADING_MODELS)}")
    h = np.zeros(variates[0].shape, dtype=complex)
    np.multiply(2 * np.pi * 2.0**-53, variates[0], out=h.imag)
    return np.exp(h, out=h)


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
    """Fading gains of the given shape, drawn from rng as Generator.random or standard_normal would.

    A unit-mag gain takes the raw word rng.random would turn into u
    (_unit_mag_variates); a rayleigh gain takes every real part, then every
    imaginary part.
    """
    if model == "unit-mag":
        return _gains(model, [_unit_mag_variates(rng.bit_generator.random_raw(shape))])
    return _gains(model, [rng.standard_normal(shape), rng.standard_normal(shape)])


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

    `length` may be an int or a shape tuple.  At sigma2 = 0 the samples are
    drawn and scaled to signed zeros, so the generator moves as at any sigma2.
    """
    if sigma2 < 0:
        raise UsageError("sigma2 must be nonnegative")
    return _complex_noise(sigma2, rng.standard_normal(length), rng.standard_normal(length))
