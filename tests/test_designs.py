import numpy as np
import pytest

from stssc.batch import relay_encode
from stssc.designs import (
    DESIGN_NAMES,
    _build,
    build_design,
    codeword,
    format_design,
    verify_orthogonality,
)
from stssc.errors import ConfigurationError, UsageError


def test_catalog_dimensions():
    expected = {"alamouti": (2, 2, 2), "c34": (4, 3, 3), "c44": (4, 4, 4)}
    for name in DESIGN_NAMES:
        d = build_design(name)
        assert (d.T, d.M, d.K) == expected[name]
        assert d.A.shape == (d.K, d.T, d.M)
        assert d.B.shape == (d.K, d.T, d.M)


def test_unknown_design_rejected():
    # the memo holds only built designs, so every call raises again
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="nosuch"):
            build_design("nosuch")


def test_build_design_returns_one_object_per_name():
    for name in DESIGN_NAMES:
        assert build_design(name) is build_design(name)


def test_alamouti_codeword_basis_vectors():
    d = build_design("alamouti")
    np.testing.assert_allclose(codeword(d, [1, 0]), [[1, 0], [0, 1]])
    np.testing.assert_allclose(codeword(d, [0, 1]), [[0, 1], [-1, 0]])


def test_alamouti_codeword_complex():
    d = build_design("alamouti")
    G = codeword(d, [1, 1j])
    np.testing.assert_allclose(G, [[1, 1j], [1j, 1]])
    np.testing.assert_allclose(G.conj().T @ G, 2 * np.eye(2), atol=1e-14)


def test_c34_codeword_matches_closed_form():
    d = build_design("c34")
    rng = np.random.default_rng(0)
    x1, x2, x3 = rng.normal(size=3) + 1j * rng.normal(size=3)
    expected = np.array([
        [x1, x2, x3],
        [-np.conj(x2), np.conj(x1), 0],
        [-np.conj(x3), 0, np.conj(x1)],
        [0, -np.conj(x3), np.conj(x2)],
    ])
    np.testing.assert_allclose(codeword(d, [x1, x2, x3]), expected, atol=1e-14)


def test_c44_codeword_matches_closed_form():
    d = build_design("c44")
    x1, x2, x3, x4 = 0.3, -1.2, 0.7, 2.0
    expected = np.array([
        [x1, x2, x3, x4],
        [-x2, x1, -x4, x3],
        [-x3, x4, x1, -x2],
        [-x4, -x3, x2, x1],
    ])
    np.testing.assert_allclose(codeword(d, [x1, x2, x3, x4]), expected, atol=1e-14)


def test_codeword_rejects_bad_inputs():
    d = build_design("alamouti")
    with pytest.raises(UsageError):
        codeword(d, [1, 2, 3])
    with pytest.raises(UsageError):
        codeword(build_design("c44"), [1j, 0, 0, 0])


def test_relay_columns_alamouti():
    # relay r's dispersion columns, (K, T) each: a[t] is column r of A_t
    d = build_design("alamouti")
    np.testing.assert_allclose(d.A[:, :, 0], [[1, 0], [0, 0]])
    np.testing.assert_allclose(d.B[:, :, 0], [[0, 0], [0, -1]])
    np.testing.assert_allclose(d.A[:, :, 1], [[0, 0], [1, 0]])
    np.testing.assert_allclose(d.B[:, :, 1], [[0, 1], [0, 0]])


def test_c34_column_energy_balanced():
    # every relay's dispersion columns carry the same total energy
    d = build_design("c34")
    energies = [
        np.sum(np.abs(d.A[:, :, r]) ** 2) + np.sum(np.abs(d.B[:, :, r]) ** 2)
        for r in range(d.M)
    ]
    np.testing.assert_allclose(energies, energies[0])


def test_orthogonality_all_designs():
    for name in DESIGN_NAMES:
        d = build_design(name)
        assert verify_orthogonality(d, trials=1000, seed=1) < 1e-12


def test_orthogonality_rejects_complex_on_real_design():
    d = build_design("c44")
    with pytest.raises(UsageError):
        verify_orthogonality(d, trials=10, seed=0, complex_trials=True)


def test_symbol_energy_traces():
    # d[t] = trace(A_t^H A_t + B_t^H B_t); 2 for Alamouti, 3 for c34, 4 for c44
    np.testing.assert_allclose(build_design("alamouti").d, [2, 2])
    np.testing.assert_allclose(build_design("c34").d, [3, 3, 3])
    np.testing.assert_allclose(build_design("c44").d, [4, 4, 4, 4])


def test_column_weights():
    for name in DESIGN_NAMES:
        d = build_design(name)
        c = d.column_weights()
        assert c.shape == (d.K, d.M)
        np.testing.assert_allclose(c.sum(axis=1), d.d)


def test_design_arrays_immutable():
    d = build_design("alamouti")
    with pytest.raises(ValueError):
        d.A[0, 0, 0] = 5


# format_design's text for every catalog code, pinned in full: which of A or
# B holds an entry, its sign and its slot all decide the decoder's statistics
FORMATTED = {
    "alamouti": """\
alamouti: T=2 M=2 K=2 rate=2/2 real_only=False
d = [2, 2]
A_1 =
  [+1  0]
  [0  0]
B_1 =
  [0  0]
  [0  +1]
A_2 =
  [0  +1]
  [0  0]
B_2 =
  [0  0]
  [-1  0]""",
    "c34": """\
c34: T=4 M=3 K=3 rate=3/4 real_only=False
d = [3, 3, 3]
A_1 =
  [+1  0  0]
  [0  0  0]
  [0  0  0]
  [0  0  0]
B_1 =
  [0  0  0]
  [0  +1  0]
  [0  0  +1]
  [0  0  0]
A_2 =
  [0  +1  0]
  [0  0  0]
  [0  0  0]
  [0  0  0]
B_2 =
  [0  0  0]
  [-1  0  0]
  [0  0  0]
  [0  0  +1]
A_3 =
  [0  0  +1]
  [0  0  0]
  [0  0  0]
  [0  0  0]
B_3 =
  [0  0  0]
  [0  0  0]
  [-1  0  0]
  [0  -1  0]""",
    "c44": """\
c44: T=4 M=4 K=4 rate=4/4 real_only=True
d = [4, 4, 4, 4]
A_1 =
  [+1  0  0  0]
  [0  +1  0  0]
  [0  0  +1  0]
  [0  0  0  +1]
B_1 =
  [0  0  0  0]
  [0  0  0  0]
  [0  0  0  0]
  [0  0  0  0]
A_2 =
  [0  +1  0  0]
  [-1  0  0  0]
  [0  0  0  -1]
  [0  0  +1  0]
B_2 =
  [0  0  0  0]
  [0  0  0  0]
  [0  0  0  0]
  [0  0  0  0]
A_3 =
  [0  0  +1  0]
  [0  0  0  +1]
  [-1  0  0  0]
  [0  -1  0  0]
B_3 =
  [0  0  0  0]
  [0  0  0  0]
  [0  0  0  0]
  [0  0  0  0]
A_4 =
  [0  0  0  +1]
  [0  0  -1  0]
  [0  +1  0  0]
  [-1  0  0  0]
B_4 =
  [0  0  0  0]
  [0  0  0  0]
  [0  0  0  0]
  [0  0  0  0]""",
}


def test_format_design_is_exact_text():
    assert set(FORMATTED) == set(DESIGN_NAMES)
    for name, text in FORMATTED.items():
        assert format_design(build_design(name)) == text


@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_signed_permutation_tables_rebuild_dispersion(name):
    # one +-1 entry per (symbol, relay): the tables alone rebuild A and B
    d = build_design(name)
    assert d.slot.shape == d.sign.shape == d.conjugated.shape == (d.M, d.K)
    assert set(np.unique(d.sign)) <= {-1.0, 1.0}
    A = np.zeros_like(d.A)
    B = np.zeros_like(d.B)
    for r in range(d.M):
        for t in range(d.K):
            target = B if d.conjugated[r, t] else A
            target[t, d.slot[r, t], r] = d.sign[r, t]
    np.testing.assert_array_equal(A, d.A)
    np.testing.assert_array_equal(B, d.B)
    for r in range(d.M):
        assert len(set(d.slot[r])) == d.K


@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_relay_encode_equals_codeword_bit_for_bit(name):
    d = build_design(name)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, d.K))
    if not d.real_only:
        x = x + 1j * rng.normal(size=(50, d.K))
    q = np.repeat(x[:, None, :], d.M, axis=1)                      # every relay holds x
    z = relay_encode(d, q)                                          # (B, M, T)
    expected = np.stack([codeword(d, row).T for row in x])
    np.testing.assert_array_equal(z, expected)


def test_non_signed_permutation_rejected():
    # a codeword table cannot write an entry other than +-1 or two symbols in
    # one slot of a relay; what it can get wrong is a relay column's symbol set
    _build("good", ("+1 +2", "-2* +1*"), real_only=False)
    for rows, match in (
        (("+1 +2", "+1* +1*"), "x1 twice on relay 1"),
        (("+1 +2", "0 +1*"), "lacks x2 on relay 1"),
    ):
        with pytest.raises(ConfigurationError, match=match):
            _build("bad", rows, real_only=False)
