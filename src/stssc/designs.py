"""Orthogonal space-time block code catalog.

Each code is stored in linear-dispersion form: the codeword for a symbol
vector x of length K is

    G(x) = sum_t (A_t * x[t] + B_t * conj(x[t]))

with fixed T x M dispersion matrices A_t, B_t (one column per relay).
Every shipped design satisfies G(x)^H G(x) = ||x||^2 I_M, which is what
makes the closed-form symbol-decoupled decoding work.

Every design is also a signed permutation: each relay's column carries
each symbol exactly once, as +-x[t] or +-x[t]*, in its own slot (Alamouti,
IEEE JSAC 1998; Tarokh, Jafarkhani & Calderbank, IEEE Trans. IT 1999).
The per-(relay, symbol) tables slot, sign and conjugated record that
placement, so the batched chain can encode and matched-filter with index
gathers instead of dispersion products.

Catalog:
  alamouti  T=2 M=2 K=2   complex symbols
  c34       T=4 M=3 K=3   rate-3/4 complex design for three relays
  c44       T=4 M=4 K=4   full-rate real design (BPSK/PAM only)

The c34 representative is the first three columns of the classic rate-3/4
design for four antennas:

    [  x1    x2    x3  ]
    [ -x2*   x1*   0   ]
    [ -x3*   0     x1* ]
    [  0    -x3*   x2* ]

The c44 representative is the quaternionic real design:

    [  x1   x2   x3   x4 ]
    [ -x2   x1  -x4   x3 ]
    [ -x3   x4   x1  -x2 ]
    [ -x4  -x3   x2   x1 ]
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError

DESIGN_NAMES = ("alamouti", "c34", "c44")


@dataclass(frozen=True)
class OrthogonalDesign:
    """An orthogonal space-time block code in linear-dispersion form.

    A and B are stored as (K, T, M) arrays; A[t] disperses symbol t and
    B[t] disperses its conjugate.  d[t] = trace(A_t^H A_t + B_t^H B_t).
    slot, sign and conjugated are (M, K) tables: relay r sends symbol t in
    slot[r, t] as sign[r, t] * x[t], conjugated where conjugated[r, t].
    column_weights() is computed once, when the design is built.
    Instances are immutable and safe to share across workers.
    """

    name: str
    T: int
    M: int
    K: int
    A: np.ndarray
    B: np.ndarray
    d: np.ndarray
    real_only: bool
    slot: np.ndarray
    sign: np.ndarray
    conjugated: np.ndarray

    @property
    def rate(self) -> float:
        return self.K / self.T

    def __post_init__(self):
        weights = (np.sum(np.abs(self.A) ** 2, axis=1) + np.sum(np.abs(self.B) ** 2, axis=1)).real
        object.__setattr__(self, "_column_weights", weights)
        for table in (self.A, self.B, self.d, self.slot, self.sign, self.conjugated, weights):
            table.setflags(write=False)

    def column_weights(self) -> np.ndarray:
        """Per-(symbol, relay) dispersion energy ||a_{t,r}||^2 + ||b_{t,r}||^2, shape (K, M)."""
        return self._column_weights


def _alamouti() -> OrthogonalDesign:
    T, M, K = 2, 2, 2
    A = np.zeros((K, T, M), dtype=complex)
    B = np.zeros((K, T, M), dtype=complex)
    # G(x) = [[x1, x2], [-x2*, x1*]]
    A[0, 0, 0] = 1
    B[0, 1, 1] = 1
    A[1, 0, 1] = 1
    B[1, 1, 0] = -1
    return _finish("alamouti", T, M, K, A, B, real_only=False)


def _c34() -> OrthogonalDesign:
    T, M, K = 4, 3, 3
    A = np.zeros((K, T, M), dtype=complex)
    B = np.zeros((K, T, M), dtype=complex)
    # column 0: (x1, -x2*, -x3*, 0)
    A[0, 0, 0] = 1
    B[1, 1, 0] = -1
    B[2, 2, 0] = -1
    # column 1: (x2, x1*, 0, -x3*)
    A[1, 0, 1] = 1
    B[0, 1, 1] = 1
    B[2, 3, 1] = -1
    # column 2: (x3, 0, x1*, x2*)
    A[2, 0, 2] = 1
    B[0, 2, 2] = 1
    B[1, 3, 2] = 1
    return _finish("c34", T, M, K, A, B, real_only=False)


def _c44() -> OrthogonalDesign:
    T, M, K = 4, 4, 4
    A = np.zeros((K, T, M), dtype=complex)
    B = np.zeros((K, T, M), dtype=complex)
    # G rows (tau) x columns (r), entry = sign * x_{t+1}
    placement = {
        # tau, r, t, sign
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, -1), (1, 1): (0, 1), (1, 2): (3, -1), (1, 3): (2, 1),
        (2, 0): (2, -1), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, -1),
        (3, 0): (3, -1), (3, 1): (2, -1), (3, 2): (1, 1), (3, 3): (0, 1),
    }
    for (tau, r), (t, sign) in placement.items():
        A[t, tau, r] = sign
    return _finish("c44", T, M, K, A, B, real_only=True)


def _finish(name, T, M, K, A, B, real_only) -> OrthogonalDesign:
    d = (np.einsum("tij,tij->t", A.conj(), A) + np.einsum("tij,tij->t", B.conj(), B)).real
    slot, sign, conjugated = _signed_permutation(name, A, B)
    return OrthogonalDesign(name=name, T=T, M=M, K=K, A=A, B=B, d=d, real_only=real_only,
                            slot=slot, sign=sign, conjugated=conjugated)


def _signed_permutation(name, A, B):
    """(M, K) slot, sign and conjugated tables of a signed-permutation design.

    Raises ConfigurationError unless every (symbol, relay) pair has exactly
    one nonzero entry over A and B, that entry is +-1, and no two symbols
    share a slot of one relay.
    """
    K, _, M = A.shape
    AB = np.stack([A, B])                                           # (2, K, T, M)
    nonzero = AB != 0
    if not (np.all(nonzero.sum(axis=(0, 2)) == 1) and np.all(np.isin(AB[nonzero], (1, -1)))):
        raise ConfigurationError(
            f"design {name!r} is not a signed permutation: each (symbol, relay) "
            "needs exactly one +-1 entry in A or B"
        )
    part, t, tau, r = np.nonzero(nonzero)
    slot = np.empty((M, K), dtype=np.int64)
    sign = np.empty((M, K))
    conjugated = np.empty((M, K), dtype=bool)
    slot[r, t] = tau
    sign[r, t] = AB[part, t, tau, r].real
    conjugated[r, t] = part == 1
    if any(len(set(row)) < K for row in slot):
        raise ConfigurationError(f"design {name!r} places two symbols in one slot of a relay")
    return slot, sign, conjugated


_BUILDERS = {"alamouti": _alamouti, "c34": _c34, "c44": _c44}


def build_design(name: str) -> OrthogonalDesign:
    """Return the catalog design with the given name.

    Raises ConfigurationError for unknown names, listing the valid set.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown code {name!r}; valid codes: {', '.join(DESIGN_NAMES)}"
        ) from None
    return builder()


def codeword(design: OrthogonalDesign, x) -> np.ndarray:
    """Codeword matrix G(x) = sum_t (A_t x[t] + B_t x[t]*), shape (T, M)."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (design.K,):
        raise UsageError(f"symbol vector must have length {design.K}, got shape {x.shape}")
    if design.real_only and np.any(np.abs(x.imag) > 0):
        raise UsageError(f"design {design.name!r} is valid for real symbols only")
    return np.tensordot(x, design.A, axes=(0, 0)) + np.tensordot(x.conj(), design.B, axes=(0, 0))


def verify_orthogonality(design: OrthogonalDesign, trials: int, seed: int,
                         complex_trials: bool | None = None) -> float:
    """Max relative deviation of G(x)^H G(x) from ||x||^2 I over random draws."""
    if trials < 1:
        raise UsageError("trials must be >= 1")
    if complex_trials is None:
        complex_trials = not design.real_only
    if complex_trials and design.real_only:
        raise UsageError(f"design {design.name!r} is real-only; complex trials rejected")
    rng = np.random.default_rng(seed)
    worst = 0.0
    eye = np.eye(design.M)
    for _ in range(trials):
        x = rng.normal(size=design.K)
        if complex_trials:
            x = x + 1j * rng.normal(size=design.K)
        G = codeword(design, x)
        nrm = float(np.sum(np.abs(x) ** 2))
        dev = np.max(np.abs(G.conj().T @ G - nrm * eye)) / nrm
        worst = max(worst, float(dev))
    return worst


def format_design(design: OrthogonalDesign) -> str:
    """Exact text rendering of the dispersion matrices for audit."""

    def fmt(z: complex) -> str:
        re, im = z.real, z.imag
        if im == 0:
            return f"{re:+g}" if re else "0"
        if re == 0:
            return f"{im:+g}j"
        return f"{re:+g}{im:+g}j"

    lines = [
        f"{design.name}: T={design.T} M={design.M} K={design.K} "
        f"rate={design.K}/{design.T} real_only={design.real_only}",
        "d = [" + ", ".join(f"{w:g}" for w in design.d) + "]",
    ]
    for t in range(design.K):
        for label, mat in (("A", design.A[t]), ("B", design.B[t])):
            lines.append(f"{label}_{t + 1} =")
            for row in mat:
                lines.append("  [" + "  ".join(fmt(z) for z in row) + "]")
    return "\n".join(lines)
