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

_CATALOG writes each code as its codeword matrix G(x), one string per
slot; A, B and the slot/sign/conjugated tables are all read from it.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, UsageError

# name -> (codeword rows, real_only).  A cell is 0 or a signed symbol number,
# conjugated when starred: "-2*" in row tau, column r means relay r sends
# -conj(x2) in slot tau.  c34 is the first three columns of the classic
# rate-3/4 four-antenna design; c44 is the quaternionic real design.
_CATALOG = {
    "alamouti": (("+1 +2",
                  "-2* +1*"), False),
    "c34": (("+1 +2 +3",
             "-2* +1* 0",
             "-3* 0 +1*",
             "0 -3* +2*"), False),
    "c44": (("+1 +2 +3 +4",
             "-2 +1 -4 +3",
             "-3 +4 +1 -2",
             "-4 -3 +2 +1"), True),
}
DESIGN_NAMES = tuple(_CATALOG)


@dataclass(frozen=True)
class OrthogonalDesign:
    """An orthogonal space-time block code in linear-dispersion form.

    A and B are stored as (K, T, M) arrays; A[t] disperses symbol t and
    B[t] disperses its conjugate.  d[t] = trace(A_t^H A_t + B_t^H B_t).
    slot, sign and conjugated are (M, K) tables: relay r sends symbol t in
    slot[r, t] as sign[r, t] * x[t], conjugated where conjugated[r, t].
    column_weights() and slot_rows() are computed once, when the design is built.
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

    def __post_init__(self):
        weights = (np.sum(np.abs(self.A) ** 2, axis=1) + np.sum(np.abs(self.B) ** 2, axis=1)).real
        rows = np.arange(self.M)[:, None] * self.T + self.slot
        object.__setattr__(self, "_column_weights", weights)
        object.__setattr__(self, "_slot_rows", rows)
        for table in (self.A, self.B, self.d, self.slot, self.sign, self.conjugated, weights, rows):
            table.setflags(write=False)

    def column_weights(self) -> np.ndarray:
        """Per-(symbol, relay) dispersion energy ||a_{t,r}||^2 + ||b_{t,r}||^2, shape (K, M)."""
        return self._column_weights

    def slot_rows(self) -> np.ndarray:
        """(M, K) rows r T + slot[r, t]: relay r's slot of symbol t in relay-major (M T, ...) data."""
        return self._slot_rows


def _build(name: str, rows, real_only: bool) -> OrthogonalDesign:
    """Read a codeword table cell by cell into A, B and the slot/sign/conjugated tables.

    Raises ConfigurationError unless every relay's column carries every
    symbol exactly once.
    """
    T, M = len(rows), len(rows[0].split())
    K = max(int(cell.strip("+-*")) for row in rows for cell in row.split())
    A = np.zeros((K, T, M), dtype=complex)
    B = np.zeros((K, T, M), dtype=complex)
    slot = np.full((M, K), -1, dtype=np.int64)
    sign = np.empty((M, K))
    conjugated = np.empty((M, K), dtype=bool)
    for tau, row in enumerate(rows):
        for r, cell in enumerate(row.split()):
            if cell == "0":
                continue
            t = int(cell.strip("+-*")) - 1
            if slot[r, t] >= 0:
                raise ConfigurationError(f"design {name!r} has x{t + 1} twice on relay {r + 1}")
            slot[r, t], sign[r, t], conjugated[r, t] = tau, float(cell[0] + "1"), cell[-1] == "*"
            (B if conjugated[r, t] else A)[t, tau, r] = sign[r, t]
    if np.any(slot < 0):
        r, t = np.argwhere(slot < 0)[0]
        raise ConfigurationError(f"design {name!r} lacks x{t + 1} on relay {r + 1}")
    d = (np.einsum("tij,tij->t", A.conj(), A) + np.einsum("tij,tij->t", B.conj(), B)).real
    return OrthogonalDesign(name=name, T=T, M=M, K=K, A=A, B=B, d=d, real_only=real_only,
                            slot=slot, sign=sign, conjugated=conjugated)


@lru_cache(maxsize=None)
def build_design(name: str) -> OrthogonalDesign:
    """Return the catalog design with the given name.

    Designs are immutable, so each is built once per process and the same
    object is returned on every later call.  Raises ConfigurationError for
    unknown names, listing the valid set.
    """
    try:
        rows, real_only = _CATALOG[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown code {name!r}; valid codes: {', '.join(DESIGN_NAMES)}"
        ) from None
    return _build(name, rows, real_only)


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
