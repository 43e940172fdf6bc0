"""Density-matrix numerics: spectra, entropies, norms, partial traces, JSON."""

import numpy as np
import pytest

from ensembleq.densmat import (
    DensityMatrix,
    DimensionProfile,
    eig_hermitian,
    embed_at_site,
    fidelity,
    matrix_from_json,
    matrix_function,
    matrix_to_json,
    partial_trace,
    relative_entropy,
    tensor,
    trace_norm,
    von_neumann_entropy,
)
from ensembleq import _kernel, extopt
from ensembleq.errors import InvalidInput
from ensembleq.rand import (
    random_density_matrix,
    random_hermitian,
    random_unitary,
    rng_from,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


# ---------------------------------------------------------------------------
# DensityMatrix validation
# ---------------------------------------------------------------------------

def test_density_matrix_accepts_valid_state():
    rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
    assert rho.dim == 2
    assert np.allclose(rho.mat, np.diag([0.3, 0.7]))


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(InvalidInput):
        DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(InvalidInput):
        DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(InvalidInput):
        DensityMatrix(np.diag([0.6, 0.6]).astype(complex))


def test_from_statevector_normalizes_projector():
    rho = DensityMatrix.from_statevector([1.0, 1.0])
    assert np.allclose(rho.mat, PLUS, atol=1e-12)


# ---------------------------------------------------------------------------
# eig_hermitian
# ---------------------------------------------------------------------------

def test_eig_diagonal_matrix():
    w, v = eig_hermitian(np.diag([0.3, 0.7]).astype(complex))
    assert np.allclose(w, [0.3, 0.7])
    assert np.allclose(np.abs(v), np.eye(2))


def test_eig_pauli_x_spectrum():
    w, _ = eig_hermitian(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [-1.0, 1.0])


def test_eig_reconstruction_random_seed42():
    m = random_hermitian(4, seed=42)
    w, v = eig_hermitian(m)
    assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - m) <= 1e-9
    assert np.linalg.norm(v.conj().T @ v - np.eye(4)) <= 1e-9
    assert np.all(np.diff(w) >= -1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(InvalidInput):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def test_entropy_pure_state_zero():
    assert von_neumann_entropy(KET0) == 0.0


def test_entropy_maximally_mixed_qubit():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)


def test_entropy_binary_oracle():
    val = von_neumann_entropy(np.diag([0.75, 0.25]).astype(complex))
    assert val == pytest.approx(binary_entropy(0.25), abs=1e-12)
    assert val == pytest.approx(0.8113, abs=1e-3)


def test_entropy_bounds_and_unitary_invariance():
    for trial in range(20):
        d = 2 + trial % 3
        rho = random_density_matrix(d, seed=100 + trial)
        s = von_neumann_entropy(rho)
        assert -1e-12 <= s <= np.log2(d) + 1e-12
        u = random_unitary(d, seed=200 + trial)
        assert von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(s, abs=1e-8)


def test_entropy_zero_iff_pure():
    rho = random_density_matrix(3, seed=5, rank=1)
    assert von_neumann_entropy(rho) <= 1e-8


def test_relative_entropy_identical_states():
    rho = random_density_matrix(3, seed=17)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_disjoint_supports_infinite():
    assert relative_entropy(KET0, KET1) == np.inf


def test_relative_entropy_pure_vs_mixed_oracle():
    assert relative_entropy(KET0, np.eye(2) / 2) == pytest.approx(1.0, abs=1e-10)


def test_relative_entropy_nonnegative_and_pinsker():
    for trial in range(20):
        d = 2 + trial % 2
        rho = random_density_matrix(d, seed=300 + trial)
        sigma = random_density_matrix(d, seed=400 + trial)
        rel = relative_entropy(rho, sigma)
        assert rel >= -1e-10
        pinsker = trace_norm(rho - sigma) ** 2 / (2.0 * np.log(2.0))
        assert rel >= pinsker - 1e-6


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(InvalidInput):
        relative_entropy(KET0, random_density_matrix(3, seed=1))


# ---------------------------------------------------------------------------
# trace norm and fidelity
# ---------------------------------------------------------------------------

def test_trace_norm_zero_matrix():
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_orthogonal_pure_difference():
    assert trace_norm(KET0 - KET1) == pytest.approx(2.0, abs=1e-12)


def test_trace_norm_zero_plus_oracle():
    assert trace_norm(KET0 - PLUS) == pytest.approx(np.sqrt(2.0), abs=1e-6)


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(InvalidInput):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_data_processing():
    prof = DimensionProfile((2, 3))
    for trial in range(10):
        a = random_density_matrix(6, seed=500 + trial)
        b = random_density_matrix(6, seed=600 + trial)
        reduced = partial_trace(a - b, prof, 0)
        assert trace_norm(reduced) <= trace_norm(a - b) + 1e-8


def test_fidelity_identical_states():
    rho = random_density_matrix(3, seed=8)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_orthogonal_pure():
    assert fidelity(KET0, KET1) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_zero_plus_overlap():
    assert fidelity(KET0, PLUS) == pytest.approx(0.5, abs=1e-8)


def test_fidelity_symmetry_and_conventions():
    for trial in range(10):
        rho = random_density_matrix(2, seed=700 + trial)
        sigma = random_density_matrix(2, seed=800 + trial)
        f = fidelity(rho, sigma)
        assert f == pytest.approx(fidelity(sigma, rho), abs=1e-8)
        root = fidelity(rho, sigma, convention="root")
        assert root == pytest.approx(np.sqrt(f), abs=1e-9)
    with pytest.raises(InvalidInput):
        fidelity(KET0, KET1, convention="cubed")


def test_fidelity_monotone_under_partial_trace():
    prof = DimensionProfile((2, 2))
    for trial in range(10):
        a = random_density_matrix(4, seed=900 + trial)
        b = random_density_matrix(4, seed=1000 + trial)
        fa = fidelity(partial_trace(a, prof, 0), partial_trace(b, prof, 0))
        assert fa >= fidelity(a, b) - 1e-8


# ---------------------------------------------------------------------------
# partial trace, tensor, embedding
# ---------------------------------------------------------------------------

def test_partial_trace_product_state():
    rho = random_density_matrix(2, seed=1)
    sigma = random_density_matrix(3, seed=2)
    prof = DimensionProfile((2, 3))
    assert np.allclose(partial_trace(tensor(rho, sigma), prof, 0), rho, atol=1e-12)
    assert np.allclose(partial_trace(tensor(rho, sigma), prof, 1), sigma, atol=1e-12)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    reduced = partial_trace(rho, DimensionProfile((2, 2)), 0)
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_preserves_trace_seed7():
    rho = random_density_matrix(6, seed=7)
    prof = DimensionProfile((2, 3))
    for keep in (0, 1):
        assert np.trace(partial_trace(rho, prof, keep)).real == pytest.approx(
            1.0, abs=1e-10
        )


def test_partial_trace_multi_site_keep():
    rho = random_density_matrix(8, seed=9)
    prof = DimensionProfile((2, 2, 2))
    kept = partial_trace(rho, prof, [0, 2])
    assert kept.shape == (4, 4)
    assert np.trace(kept).real == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_inconsistent_profile():
    with pytest.raises(InvalidInput):
        partial_trace(np.eye(6) / 6, DimensionProfile((2, 2)), 0)


def test_tensor_identities():
    assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.allclose(tensor(KET0, KET1), expected)


def test_tensor_entropy_additivity_seed11():
    rho = random_density_matrix(2, seed=11)
    sigma = random_density_matrix(3, seed=12)
    total = von_neumann_entropy(tensor(rho, sigma))
    assert total == pytest.approx(
        von_neumann_entropy(rho) + von_neumann_entropy(sigma), abs=1e-8
    )


def test_embed_at_site_traces_back():
    # the adjoint identity tr(embed(A, site) X) = tr(A marginal(X, site)),
    # for the validating wrappers and for the raw kernel forms
    for dims, site in (((2, 2), 1), ((2, 2), 0), ((2, 3), 0), ((3, 2), 1), ((2, 2, 2), 1)):
        op = random_hermitian(dims[site], seed=13)
        rho = random_density_matrix(int(np.prod(dims)), seed=14)
        for embed, trace_out in (
            (lambda a: embed_at_site(a, DimensionProfile(dims), site),
             lambda x: partial_trace(x, DimensionProfile(dims), site)),
            (lambda a: _kernel.embed_at_site(a, dims, site),
             lambda x: _kernel.partial_trace(x, dims, (site,))),
        ):
            direct = np.trace(embed(op) @ rho)
            reduced = np.trace(op @ trace_out(rho))
            assert direct == pytest.approx(reduced, abs=1e-10)


@pytest.mark.parametrize("site", [1.5, "1", True])
def test_embed_at_site_needs_an_integral_site(site):
    with pytest.raises(InvalidInput):
        embed_at_site(KET0, (2, 2), site)


def test_site_view_adds_the_embedded_operator_in_place():
    for dims, site in (((2, 2), 0), ((2, 3), 1), ((3, 2, 2), 1), ((2, 2, 3), 2)):
        big = int(np.prod(dims))
        op = random_hermitian(dims[site], seed=17)
        left = np.eye(int(np.prod(dims[:site])))
        right = np.eye(int(np.prod(dims[site + 1:])))
        kron_form = np.kron(np.kron(left, op), right)
        assert np.array_equal(_kernel.embed_at_site(op, dims, site), kron_form)
        x = random_density_matrix(big, seed=18)
        y = x.copy()
        _kernel.site_view(y, dims, site)[...] += op
        assert np.array_equal(y, x + kron_form)
    with pytest.raises(ValueError):
        _kernel.site_view(np.asfortranarray(random_density_matrix(4, seed=19)), (2, 2), 0)


def test_wrappers_match_kernel():
    for seed in range(5):
        rho = random_density_matrix(4, seed=60 + seed)
        sigma = random_density_matrix(4, seed=70 + seed)
        op = random_hermitian(2, seed=80 + seed)
        assert von_neumann_entropy(rho) == max(_kernel.entropy_bits(rho), 0.0)
        assert fidelity(rho, sigma, convention="root") == _kernel.fidelity_root(rho, sigma)
        for keep in ({0}, {1}, {0, 1}):
            assert np.array_equal(partial_trace(rho, (2, 2), keep),
                                  _kernel.partial_trace(rho, (2, 2), keep))
        for site in (0, 1):
            assert np.array_equal(embed_at_site(op, (2, 2), site),
                                  _kernel.embed_at_site(op, (2, 2), site))
        for fn in ("log2", "sqrt", "inv_sqrt_on_support"):
            assert np.array_equal(matrix_function(rho, fn), _kernel.matrix_function(rho, fn))
        assert np.array_equal(tensor(tensor(rho, rho), rho), _kernel.kron_power(rho, 3))


SITE_TABLE_SHAPES = [(d, n) for d in range(2, 9) for n in range(2, 7)
                     if d**n <= extopt.DIM_CAP]


@pytest.mark.parametrize("d, n", SITE_TABLE_SHAPES)
def test_site_table_gathers_marginals_and_embeds(d, n):
    dims, big = (d,) * n, d**n
    idx = _kernel.site_index(d, n)
    assert idx.shape == (n, d ** (n - 1), d, d) and not idx.flags.writeable
    assert _kernel.site_index(d, n) is idx
    rng = rng_from(100 * d + n)
    x = rng.normal(size=(big, big)) + 1j * rng.normal(size=(big, big))
    ops = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    marginals = _kernel.site_marginals(x, d, n)
    y = x.copy()
    _kernel.subtract_at_sites(y, ops, d, n)
    stepwise = x.copy()
    for site in range(n):
        # the solver's reports rest on these being bit-identical
        assert np.array_equal(marginals[site], _kernel.partial_trace(x, dims, (site,)))
        embedded = np.zeros((big, big), dtype=complex)
        embedded.ravel()[idx[site]] = ops[site]
        assert np.array_equal(embedded, _kernel.embed_at_site(ops[site], dims, site))
        _kernel.site_view(stepwise, dims, site)[...] -= ops[site]
    assert np.array_equal(y, stepwise)
    # a stack of three gathers one site or all sites per call and takes one
    # set of site operators per member, each member with the bits of its own
    # 2-D partial trace and views
    stack = rng.normal(size=(3, big, big)) + 1j * rng.normal(size=(3, big, big))
    stack_ops = rng.normal(size=(3, n, d, d)) + 1j * rng.normal(size=(3, n, d, d))
    subtracted = stack.copy()
    _kernel.subtract_at_sites(subtracted, stack_ops, d, n)
    gathered_all = _kernel.site_marginals(stack, d, n)
    for i, member in enumerate(stack):
        viewed = member.copy()
        for site in range(n):
            _kernel.site_view(viewed, dims, site)[...] -= stack_ops[i, site]
        assert np.array_equal(subtracted[i], viewed)
    for site in range(n):
        gathered = _kernel.site_marginals(stack, d, n, site)
        for i, member in enumerate(stack):
            assert np.array_equal(gathered[i], _kernel.partial_trace(member, dims, (site,)))
            assert np.array_equal(gathered_all[i, site], gathered[i])
    for a in (x, stack):
        with pytest.raises(ValueError):
            _kernel.subtract_at_sites(np.asfortranarray(a), ops, d, n)


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (3, 2)])
def test_block_stack_reads_each_diagonal_block_as_its_own_matrix(d, n):
    # a stack of 2D x 2D matrices has 2n sites, those of its two diagonal
    # blocks, each with the bits of its block alone; the off-diagonal blocks
    # are neither read nor written
    big = d**n
    rng = rng_from(300 + 10 * d + n)
    stack = rng.normal(size=(3, 2 * big, 2 * big)) + 1j * rng.normal(size=(3, 2 * big, 2 * big))
    ops = rng.normal(size=(3, 2 * n, d, d)) + 1j * rng.normal(size=(3, 2 * n, d, d))
    subtracted = stack.copy()
    _kernel.subtract_at_sites(subtracted, ops, d, n)
    gathered = _kernel.site_marginals(stack, d, n)
    for j, span in enumerate((slice(0, big), slice(big, 2 * big))):
        block = np.ascontiguousarray(stack[:, span, span])
        assert np.array_equal(gathered[:, j * n:(j + 1) * n], _kernel.site_marginals(block, d, n))
        _kernel.subtract_at_sites(block, ops[:, j * n:(j + 1) * n], d, n)
        assert np.array_equal(subtracted[:, span, span], block)
    for off in ((slice(0, big), slice(big, None)), (slice(big, None), slice(0, big))):
        assert np.array_equal(subtracted[(slice(None),) + off], stack[(slice(None),) + off])


def test_kernel_stacks_match_single_matrices():
    # each member of a stacked call gets the bits of its own 2-D call
    stack = np.array([random_density_matrix(6, seed=90 + s) for s in range(3)])
    skew = stack + 1j * np.array([random_hermitian(6, seed=99 + s) for s in range(3)])
    for i, rho in enumerate(stack):
        assert np.array_equal(_kernel.hermitize(skew)[i], _kernel.hermitize(skew[i]))
        for fn in ("log", "exp", "sqrt"):
            assert np.array_equal(_kernel.matrix_function(stack, fn)[i],
                                  _kernel.matrix_function(rho, fn))


# ---------------------------------------------------------------------------
# matrix functions
# ---------------------------------------------------------------------------

def test_matrix_sqrt_diagonal():
    assert np.allclose(
        matrix_function(np.diag([4.0, 9.0]), "sqrt"), np.diag([2.0, 3.0]), atol=1e-12
    )


def test_inv_sqrt_on_support_projector():
    assert np.allclose(matrix_function(KET0, "inv_sqrt_on_support"), KET0, atol=1e-12)


def test_matrix_sqrt_squares_back_seed3():
    m = random_density_matrix(4, seed=3)
    r = matrix_function(m, "sqrt")
    assert np.linalg.norm(r @ r - m) <= 1e-9


def test_matrix_sqrt_rejects_negative():
    with pytest.raises(InvalidInput):
        matrix_function(np.diag([1.0, -0.5]), "sqrt")


def test_matrix_function_unknown_tag():
    with pytest.raises(InvalidInput):
        matrix_function(np.eye(2), "exp")


# ---------------------------------------------------------------------------
# JSON and profiles
# ---------------------------------------------------------------------------

def test_matrix_json_round_trip():
    m = random_hermitian(3, seed=21) + 1j * 0  # complex Hermitian
    blob = matrix_to_json(m)
    assert blob["rows"] == blob["cols"] == 3
    back = matrix_from_json(blob)
    assert np.allclose(back, m, atol=1e-15)


def test_matrix_json_rejects_malformed():
    with pytest.raises(InvalidInput):
        matrix_from_json({"rows": 2, "cols": 2, "re": [[1, 0]], "im": [[0, 0]]})
    square = {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
    for rows, cols in ((2.5, 2), (2, "2")):
        with pytest.raises(InvalidInput):
            matrix_from_json({"rows": rows, "cols": cols, **square})
    # entries must be real numbers, not strings, booleans, complex or nested lists
    for key, entry in (("re", "1"), ("re", True), ("im", "0"), ("im", False),
                       ("re", 1j), ("re", [1])):
        bad = {"rows": 2, "cols": 2, **square}
        bad[key] = [[entry, 0], [0, 1]]
        with pytest.raises(InvalidInput):
            matrix_from_json(bad)
    with pytest.raises(InvalidInput):
        matrix_from_json({"rows": 2, "cols": 2, "re": [[1, 0], [0]], "im": square["im"]})


def test_dimension_profile_invariants():
    prof = DimensionProfile((2, 3, 2))
    assert prof.site_count == 3
    assert prof.total_dim == 12
    assert DimensionProfile((2.0, np.int64(2))).local_dims == (2, 2)
    with pytest.raises(InvalidInput):
        DimensionProfile((2, 0))


@pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), "2", None])
def test_dimension_profile_rejects_non_integral_dims(bad):
    with pytest.raises(InvalidInput):
        DimensionProfile((bad, 2))
    with pytest.raises(InvalidInput):
        partial_trace(np.eye(4) / 4, (bad, 2), 0)


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan), -np.inf])
def test_non_finite_matrices_are_rejected(entry):
    m = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    m[0, 0] = entry
    for check in (DensityMatrix, eig_hermitian, trace_norm,
                  lambda a: matrix_function(a, "log2")):
        with pytest.raises(InvalidInput, match="non-finite"):
            check(m)


def test_operations_do_not_mutate_inputs():
    rng = rng_from(33)
    m = random_density_matrix(4, seed=33)
    before = m.copy()
    von_neumann_entropy(m)
    matrix_function(m, "log2")
    partial_trace(m, DimensionProfile((2, 2)), 0)
    assert np.array_equal(m, before)
