"""Tests for the Gaussian-state core: symplectic algebra, cluster building,
homodyne projection and fidelity (checked against a truncated Fock-basis
density-matrix oracle)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose
from scipy.linalg import block_diag, expm

from mechmbqc import states as st

from oracles import project_one

FOURIER = np.array([[0.0, -1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# truncated Fock-basis oracle


def ladder(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def thermal_rho(nbar, dim):
    if nbar == 0:
        rho = np.zeros((dim, dim))
        rho[0, 0] = 1.0
        return rho
    weights = (nbar / (nbar + 1.0)) ** np.arange(dim) / (nbar + 1.0)
    return np.diag(weights / weights.sum())


def squeeze_unitary(r, dim):
    a = ladder(dim)
    return expm(0.5 * r * (a @ a - a.T @ a.T))


def rotate_unitary(theta, dim):
    a = ladder(dim)
    return expm(-1j * theta * (a.T @ a))


def quadrature_cov(rho, dim):
    a = ladder(dim)
    q = (a + a.T) / np.sqrt(2.0)
    p = (a - a.T) / (1j * np.sqrt(2.0))
    ops = (q, p)
    cov = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            sym = 0.5 * (ops[i] @ ops[j] + ops[j] @ ops[i])
            cov[i, j] = np.real(np.trace(rho @ sym))
    return cov


def fock_fidelity(rho1, rho2):
    """(tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 by Hermitian eigendecomposition."""
    w, v = np.linalg.eigh(rho1)
    sqrt1 = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sqrt1 @ rho2 @ sqrt1
    evals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(evals)) ** 2)


def gaussian_and_rho(nbar, r, theta, dim=60):
    """A squeezed rotated thermal state in both representations.

    The covariance is read back from the density matrix itself so the two
    representations agree by construction.
    """
    u = rotate_unitary(theta, dim) @ squeeze_unitary(r, dim)
    rho = u @ thermal_rho(nbar, dim) @ u.conj().T
    return st.GaussianState(quadrature_cov(rho, dim)), rho


# ---------------------------------------------------------------------------
# symplectic basics


def test_symplectic_form_is_built_once_and_read_only():
    omega = st.symplectic_form(4)
    assert st.symplectic_form(4) is omega
    assert not omega.flags.writeable
    with pytest.raises(ValueError):
        omega[0, 1] = 2.0


def test_symplectic_form_properties():
    omega = st.symplectic_form(3)
    assert_allclose(omega.T, -omega)
    assert_allclose(omega @ omega, -np.eye(6))


def test_vacuum_covariance_and_spectrum():
    assert_allclose(st.vacuum(1).cov, 0.5 * np.eye(2))
    assert st.vacuum(3).cov.shape == (6, 6)
    assert_allclose(st.vacuum(2).symplectic_spectrum, [0.5, 0.5])


def test_vacuum_rejects_zero_modes():
    with pytest.raises(ValueError):
        st.vacuum(0)


@pytest.mark.parametrize("shape", [(0, 0), (3, 3), (2, 4), (2, 2, 2)])
def test_state_rejects_a_covariance_that_is_not_2n_by_2n(shape):
    with pytest.raises(ValueError, match="is not 2n x 2n"):
        st.GaussianState(0.5 * np.ones(shape))


def test_state_reads_its_mode_count_off_the_covariance():
    state = st.GaussianState(0.5 * np.eye(6))
    assert state.n_modes == 3
    assert "n_modes=3" in repr(state)
    with pytest.raises(TypeError):
        st.GaussianState(0.5 * np.eye(6), n_modes=3)


def test_states_compare_by_identity_and_are_hashable():
    # Equality is identity: comparing two states with equal covariances
    # answers False instead of raising on the array field.
    state, twin = st.vacuum(1), st.vacuum(1)
    assert state == state
    assert not (state == twin)
    assert state != twin
    labels = {state: "a", twin: "b"}
    assert labels[state] == "a" and labels[twin] == "b"


def test_symplectic_spectrum_is_cached_and_read_only():
    state = st.thermal(2, [0.1, 0.7])
    spectrum = state.symplectic_spectrum
    assert state.symplectic_spectrum is spectrum
    assert_allclose(spectrum, [0.6, 1.2])
    assert not spectrum.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.symplectic_spectrum = np.zeros(2)


def test_state_rejects_asymmetric_covariance():
    cov = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        st.GaussianState(cov)


def test_squeeze_momentum_variances():
    state = st.squeeze_momentum(st.vacuum(1), 0, 3.0)
    assert_allclose(state.cov[1, 1], 0.5 * 10 ** -0.3, rtol=1e-12)
    assert_allclose(state.cov[0, 0], 0.5 * 10 ** 0.3, rtol=1e-12)


def test_squeeze_momentum_zero_is_identity():
    state = st.squeeze_momentum(st.vacuum(2), 1, 0.0)
    assert_allclose(state.cov, 0.5 * np.eye(4))


def test_squeeze_momentum_composes():
    twice = st.squeeze_momentum(st.squeeze_momentum(st.vacuum(1), 0, 3.0), 0, 3.0)
    once = st.squeeze_momentum(st.vacuum(1), 0, 6.0)
    assert_allclose(twice.cov, once.cov, rtol=1e-12)


def test_squeeze_momentum_invalid_mode():
    with pytest.raises(ValueError):
        st.squeeze_momentum(st.vacuum(1), 1, 3.0)


def test_apply_cz_zero_weight_is_identity():
    state = st.squeeze_momentum(st.vacuum(2), 0, 4.0)
    assert_allclose(st.apply_cz(state, 0, 1, 0.0).cov, state.cov)


def test_apply_cz_rejects_equal_modes():
    with pytest.raises(ValueError):
        st.apply_cz(st.vacuum(2), 1, 1)


def test_apply_cz_inverse():
    state = st.squeeze_momentum(st.vacuum(2), 0, 5.0)
    out = st.apply_cz(st.apply_cz(state, 0, 1, 0.7), 0, 1, -0.7)
    assert_allclose(out.cov, state.cov, atol=1e-12)


def test_apply_cz_against_explicit_matrix_product():
    # Independent oracle: build the 4x4 symplectic by hand and conjugate.
    w = 1.3
    s1 = st.squeeze_momentum(st.vacuum(1), 0, 8.0)
    s2 = st.squeeze_momentum(st.vacuum(1), 0, 12.0)
    joint = st.GaussianState(block_diag(s1.cov, s2.cov))
    out = st.apply_cz(joint, 0, 1, w)
    s_cz = np.eye(4)
    s_cz[1, 2] = w
    s_cz[3, 0] = w
    expected = s_cz @ joint.cov @ s_cz.T
    assert_allclose(out.cov, expected, rtol=1e-12)
    # Large squeezing: Cov(p1, q2) approaches w * Var(q2).
    assert_allclose(out.cov[1, 2], w * out.cov[2, 2], rtol=1e-12)


# ---------------------------------------------------------------------------
# graphs and clusters


def test_graph_rejects_self_loops_and_bad_nodes():
    with pytest.raises(ValueError):
        st.GraphSpec(3, ((0, 0),))
    with pytest.raises(ValueError):
        st.GraphSpec(3, ((0, 5),))


def test_cluster_empty_edges_is_product():
    graph = st.GraphSpec(3)
    cluster = st.build_cluster(graph, 4.0)
    single = st.squeeze_momentum(st.vacuum(1), 0, 4.0)
    assert_allclose(cluster.cov, block_diag(*([single.cov] * 3)))


def test_two_node_cluster_matches_manual_construction():
    cluster = st.build_cluster(st.GraphSpec.linear(2), 3.0)
    manual = st.squeeze_momentum(st.squeeze_momentum(st.vacuum(2), 0, 3.0), 1, 3.0)
    manual = st.apply_cz(manual, 0, 1)
    assert_allclose(cluster.cov, manual.cov)


def test_cluster_inputs_are_placed_unsqueezed():
    inp = st.thermal(1, 0.3)
    cluster = st.build_cluster(st.GraphSpec(3), 4.0, inputs={1: inp})
    single = st.squeeze_momentum(st.vacuum(1), 0, 4.0)
    assert np.array_equal(cluster.cov, block_diag(single.cov, inp.cov, single.cov))
    with pytest.raises(ValueError):
        st.build_cluster(st.GraphSpec(3), 4.0, inputs={0: st.vacuum(2)})
    with pytest.raises(ValueError):
        st.build_cluster(st.GraphSpec(3), 4.0, inputs={3: inp})


def test_linear_cluster_nullifiers_shrink_with_squeezing():
    graph = st.GraphSpec.linear(5)
    previous = np.inf
    for r_db in (3.0, 10.0, 20.0):
        cluster = st.build_cluster(graph, r_db)
        variances = st.nullifier_variances(cluster, graph)
        # Every nullifier beats the unsqueezed vacuum momentum variance.
        assert variances.max() < 0.5
        assert variances.max() < previous
        previous = variances.max()
    # 20 dB leaves only percent-level nullifier variance.
    assert previous < 0.01


def test_cluster_outputs_are_pure():
    cluster = st.build_cluster(st.GraphSpec.linear(4), 6.0)
    assert_allclose(cluster.symplectic_spectrum, 0.5, atol=1e-9)


def test_random_symplectic_products_stay_symplectic():
    rng = np.random.default_rng(7)
    state = st.vacuum(3)
    matrix = np.eye(6)
    for _ in range(20):
        kind = rng.integers(3)
        if kind == 0:
            local = rotation(rng.uniform(-np.pi, np.pi))
            step = st.embed_single_mode(local, 3, int(rng.integers(3)))
        elif kind == 1:
            r = rng.uniform(0, 1.5)
            local = np.diag([np.exp(r), np.exp(-r)])
            step = st.embed_single_mode(local, 3, int(rng.integers(3)))
        else:
            j, k = rng.choice(3, size=2, replace=False)
            step = st.cz_matrix(3, int(j), int(k), rng.uniform(-2, 2))
        matrix = step @ matrix
        state = st.apply_symplectic(state, step)
        omega = st.symplectic_form(3)
        assert np.max(np.abs(matrix @ omega @ matrix.T - omega)) < 1e-9
        assert state.is_physical()


# ---------------------------------------------------------------------------
# homodyne projection


def rotation(phi):
    """Phase-space rotation mapping q onto X_phi = q cos(phi) + p sin(phi)."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def schur_homodyne_reference(cov, mode, phi):
    """Brute-force reference for the projective homodyne update."""
    n = cov.shape[0] // 2
    rot = st.embed_single_mode(rotation(phi), n, mode)
    cov = rot @ cov @ rot.T
    idx_b = [2 * mode, 2 * mode + 1]
    idx_a = [i for i in range(2 * n) if i not in idx_b]
    sigma_a = cov[np.ix_(idx_a, idx_a)]
    sigma_ab = cov[np.ix_(idx_a, idx_b)]
    sigma_b = cov[np.ix_(idx_b, idx_b)]
    pi = np.diag([1.0, 0.0])
    pinv = np.zeros((2, 2))
    if sigma_b[0, 0] > 1e-12:
        pinv[0, 0] = 1.0 / sigma_b[0, 0]
    return sigma_a - sigma_ab @ pi @ pinv @ pi @ sigma_ab.T


def test_homodyne_product_state_leaves_rest_unchanged():
    s1 = st.squeeze_momentum(st.vacuum(1), 0, 5.0)
    joint = st.GaussianState(block_diag(s1.cov, st.thermal(1, 0.4).cov))
    out = project_one(joint, 1, 0.3)
    assert out.n_modes == 1
    assert_allclose(out.cov, s1.cov)


def test_homodyne_matches_brute_force_schur():
    rng = np.random.default_rng(3)
    state = st.build_cluster(st.GraphSpec.linear(3), 6.0)
    for mode in range(3):
        for phi in rng.uniform(-np.pi, np.pi, size=3):
            out = project_one(state, mode, phi)
            ref = schur_homodyne_reference(state.cov, mode, phi)
            assert_allclose(out.cov, ref, atol=1e-10)


def test_homodyne_teleportation_two_node_cluster():
    # p-measurement on the input node of a two-node cluster teleports with a
    # Fourier by-product; at high squeezing the output approaches f s f^T.
    r_in = 6.0
    inp = st.squeeze_momentum(st.vacuum(1), 0, r_in)
    joint = st.GaussianState(block_diag(inp.cov, st.vacuum(1).cov))
    joint = st.squeeze_momentum(joint, 1, 40.0)
    joint = st.apply_cz(joint, 0, 1)
    out = project_one(joint, 0, np.pi / 2.0)
    expected = FOURIER @ inp.cov @ FOURIER.T
    assert_allclose(out.cov, expected, atol=1e-3)
    assert out.is_pure()


def test_homodyne_preserves_purity():
    cluster = st.build_cluster(st.GraphSpec.linear(4), 5.0)
    out = project_one(cluster, 2, 0.7)
    assert out.is_pure(atol=1e-8)


def test_homodyne_angle_pi_shift_equivalent():
    cluster = st.build_cluster(st.GraphSpec.linear(3), 4.0)
    a = project_one(cluster, 1, 0.4)
    b = project_one(cluster, 1, 0.4 + np.pi)
    assert_allclose(a.cov, b.cov, atol=1e-12)


def test_homodyne_direction_is_normalized_by_construction():
    # Measuring p + lam q enters through the angle arctan(1/lam), so the
    # rescaled and normalized directions are literally the same operation;
    # equivalently the update only depends on the measured line in phase
    # space, checked here against the brute-force unnormalized projector.
    lam = 0.8
    phi = np.arctan2(1.0, lam)
    cluster = st.build_cluster(st.GraphSpec.linear(3), 4.0)
    out = project_one(cluster, 0, phi)
    # Unnormalized direction (lam q + p): condition on it directly.
    direction = np.zeros(6)
    direction[0] = lam
    direction[1] = 1.0
    cov = cluster.cov
    var = direction @ cov @ direction
    conditioned = cov - np.outer(cov @ direction, cov @ direction) / var
    keep = [2, 3, 4, 5]
    assert_allclose(out.cov, conditioned[np.ix_(keep, keep)], atol=1e-10)


def test_wire_shortening_leaves_two_node_cluster():
    # p-measuring the middle of a three-node chain joins the end nodes; the
    # residual state is a two-node cluster up to an inverse-Fourier
    # by-product on the far node, visible through its nullifiers.
    graph2 = st.GraphSpec.linear(2)
    for r_db, bound in ((10.0, 0.11), (25.0, 3.4e-3)):
        chain = st.build_cluster(st.GraphSpec.linear(3), r_db)
        short = project_one(chain, 1, np.pi / 2.0)
        correction = block_diag(np.eye(2), FOURIER.T)
        corrected = st.GaussianState(correction @ short.cov @ correction.T)
        variances = st.nullifier_variances(corrected, graph2)
        assert variances.max() < bound


def test_homodyne_rejects_unphysical_input():
    bad = st.GaussianState(0.25 * np.eye(4))
    with pytest.raises(ValueError, match="unphysical"):
        project_one(bad, 0, 0.0)


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_keep_all():
    cluster = st.build_cluster(st.GraphSpec.linear(3), 3.0)
    assert_allclose(st.condition_on_homodyne(cluster.cov[None], [], [], [0, 1, 2])[0],
                    cluster.cov)


def test_partial_trace_of_vacuum():
    assert_allclose(st.condition_on_homodyne(st.vacuum(2).cov[None], [], [], [1])[0],
                    0.5 * np.eye(2))


def test_partial_trace_principal_submatrix():
    cluster = st.build_cluster(st.GraphSpec.linear(3), 3.0)
    out = st.condition_on_homodyne(cluster.cov[None], [], [], [2])[0]
    assert_allclose(out, cluster.cov[4:6, 4:6])


def test_partial_trace_empty_keep_set():
    with pytest.raises(ValueError):
        st.condition_on_homodyne(st.vacuum(2).cov[None], [], [], [])


def test_partial_trace_rejects_a_repeated_mode():
    # Keeping a mode twice would duplicate its quadratures into a singular,
    # unphysical "state".
    cluster = st.build_cluster(st.GraphSpec.linear(3), 3.0)
    with pytest.raises(ValueError, match="distinct modes of the state"):
        st.condition_on_homodyne(cluster.cov[None], [], [], [0, 0])


# ---------------------------------------------------------------------------
# physicality


def test_is_physical_vacuum():
    state = st.vacuum(2)
    assert state.is_physical()
    assert_allclose(state.symplectic_spectrum[0], 0.5, atol=1e-12)


def test_is_physical_rejects_quarter_identity():
    state = st.GaussianState(0.25 * np.eye(2))
    assert not state.is_physical()
    assert_allclose(state.symplectic_spectrum[0], 0.25, atol=1e-12)


def test_two_physicality_slacks():
    # Propagated samples carry integration error and get PROPAGATION_ATOL =
    # 1e-6; every other check gets PHYSICALITY_ATOL = 1e-9.
    from mechmbqc import dynamics as dyn

    for shortfall, propagated_ok in ((1e-8, True), (1e-5, False)):
        nu = 0.5 - shortfall
        cov = np.diag([nu, nu, 0.5, 0.5])
        state = st.GaussianState(cov)
        assert not state.is_physical()
        with pytest.raises(ValueError, match="input state is unphysical"):
            st.condition_on_homodyne(cov[None], [1], [0.3], [0])
        for pair in ((state, st.vacuum(2)), (st.vacuum(2), state)):
            with pytest.raises(ValueError, match="fidelity input is unphysical"):
                st.fidelity(*pair)
        with pytest.raises(ValueError, match="fidelity input is unphysical"):
            st.fidelity_to(cov[None], st.vacuum(2))
        if propagated_ok:
            dyn._check_samples([1.0], cov[None])
        else:
            with pytest.raises(dyn.PhysicalityError) as err:
                dyn._check_samples([1.0], cov[None])
            assert err.value.t == 1.0
            assert_allclose(err.value.nu_min, nu, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_self_is_one():
    state = st.build_cluster(st.GraphSpec.linear(2), 5.0)
    assert st.fidelity(state, state) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_vacuum_thermal_convention():
    # Pins the squared-trace convention: overlap of vacuum with a thermal
    # state of unit occupation is 1/2.
    assert st.fidelity(st.vacuum(1), st.thermal(1, 1.0)) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_vacuum_vs_squeezed_fock_oracle():
    s_vac, rho_vac = gaussian_and_rho(0.0, 0.0, 0.0)
    r3 = st.db_to_squeeze_parameter(3.0)
    s_sq, rho_sq = gaussian_and_rho(0.0, r3, 0.0)
    expected = fock_fidelity(rho_vac, rho_sq)
    assert st.fidelity(s_vac, s_sq) == pytest.approx(expected, abs=1e-9)
    assert st.fidelity(s_vac, s_sq) == pytest.approx(1.0 / np.cosh(r3), abs=1e-12)


@pytest.mark.parametrize("spec1, spec2", [
    ((0.5, 0.3, 0.0), (1.2, -0.2, 0.0)),
    ((0.5, 0.4, 0.7), (0.8, 0.2, -0.3)),
    ((0.001, 0.2, 0.1), (0.6, -0.1, 0.4)),
])
def test_fidelity_mixed_pairs_match_fock_oracle(spec1, spec2):
    s1, rho1 = gaussian_and_rho(*spec1)
    s2, rho2 = gaussian_and_rho(*spec2)
    expected = fock_fidelity(rho1, rho2)
    assert st.fidelity(s1, s2) == pytest.approx(expected, abs=5e-9)
    assert st.fidelity(s2, s1) == pytest.approx(st.fidelity(s1, s2), abs=1e-11)


def test_fidelity_thermal_closed_form():
    for na, nb in ((0.5, 2.0), (1.0, 3.0)):
        expected = 1.0 / (np.sqrt((na + 1) * (nb + 1)) - np.sqrt(na * nb)) ** 2
        assert st.fidelity(st.thermal(1, na), st.thermal(1, nb)) == pytest.approx(
            expected, rel=1e-12
        )


def test_fidelity_two_mode_products_factorize():
    s1a, _ = gaussian_and_rho(0.5, 0.3, 0.0)
    s1b, _ = gaussian_and_rho(0.2, 0.1, 0.5)
    s2a, _ = gaussian_and_rho(1.0, -0.2, 0.3)
    s2b, _ = gaussian_and_rho(0.8, 0.4, -0.1)
    joint1 = st.GaussianState(block_diag(s1a.cov, s1b.cov))
    joint2 = st.GaussianState(block_diag(s2a.cov, s2b.cov))
    product = st.fidelity(s1a, s2a) * st.fidelity(s1b, s2b)
    assert st.fidelity(joint1, joint2) == pytest.approx(product, rel=1e-9)


def test_fidelity_monotone_in_thermal_occupation():
    reference = st.thermal(1, 0.5)
    values = [st.fidelity(reference, st.thermal(1, n)) for n in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(1.0, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        st.fidelity(st.vacuum(1), st.vacuum(2))


def test_fidelity_rejects_unphysical():
    with pytest.raises(ValueError, match="unphysical"):
        st.fidelity(st.vacuum(1), st.GaussianState(0.25 * np.eye(2)))


# ---------------------------------------------------------------------------
# stacked spectra and scoring


def random_physical_cov(rng, n_modes, pure=False):
    """Williamson form S diag(nu) S^T with S = expm(Omega K), K symmetric."""
    dim = 2 * n_modes
    k = rng.normal(scale=0.6, size=(dim, dim))
    s = expm(st.symplectic_form(n_modes) @ (0.5 * (k + k.T)))
    nu = np.full(n_modes, 0.5) if pure else rng.uniform(0.5, 3.0, size=n_modes)
    cov = s @ np.diag(np.repeat(nu, 2)) @ s.T
    return 0.5 * (cov + cov.T)


@settings(max_examples=40, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_modes=hst.integers(1, 6),
       n_stack=hst.integers(1, 5))
def test_stacked_symplectic_eigenvalues_equal_per_matrix_calls(seed, n_modes, n_stack):
    rng = np.random.default_rng(seed)
    covs = np.array([random_physical_cov(rng, n_modes, pure=rng.random() < 0.3)
                     for _ in range(n_stack)])
    stacked = st.symplectic_eigenvalues(covs)
    assert stacked.shape == (n_stack, n_modes)
    assert np.array_equal(stacked,
                          np.array([st.symplectic_eigenvalues(c) for c in covs]))
    assert np.array_equal(st.symplectic_eigenvalues(covs[None])[0], stacked)


def first_unphysical_oracle(covs, atol):
    """The physicality test spelled out one matrix at a time."""
    for index, cov in enumerate(covs):
        if not np.all(np.isfinite(cov)):
            return index, -np.inf
        nu_min = st.symplectic_eigenvalues(cov)[0]
        if not nu_min >= 0.5 - max(atol, 1e-10 * np.max(np.abs(cov))):
            return index, nu_min
    return None


@settings(max_examples=60, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_modes=hst.integers(1, 4),
       kinds=hst.lists(hst.sampled_from(["physical", "scaled", "nan"]),
                       min_size=0, max_size=6),
       atol=hst.sampled_from([1e-9, 1e-6]))
def test_first_unphysical_equals_per_matrix_check(seed, n_modes, kinds, atol):
    rng = np.random.default_rng(seed)
    covs = []
    for kind in kinds:
        cov = random_physical_cov(rng, n_modes, pure=rng.random() < 0.3)
        if kind == "scaled":
            cov = rng.uniform(0.2, 1.0) * cov
        elif kind == "nan":
            cov[tuple(rng.integers(2 * n_modes, size=2))] = np.nan
        covs.append(cov)
    covs = np.array(covs).reshape(len(kinds), 2 * n_modes, 2 * n_modes)
    assert st.first_unphysical(covs, atol) == first_unphysical_oracle(covs, atol)


def random_symplectic(rng, n_modes, squeeze_db):
    """expm(Omega K1) Sq expm(Omega K2), K symmetric, Sq a single-mode
    squeezer of ``squeeze_db`` on a random mode."""
    omega = st.symplectic_form(n_modes)
    k1, k2 = (rng.normal(scale=0.3, size=(2 * n_modes, 2 * n_modes)) for _ in range(2))
    r = st.db_to_squeeze_parameter(squeeze_db)
    squeeze = st.embed_single_mode(np.diag([np.exp(r), np.exp(-r)]), n_modes,
                                   int(rng.integers(n_modes)))
    return expm(omega @ (0.5 * (k1 + k1.T))) @ squeeze @ expm(omega @ (0.5 * (k2 + k2.T)))


@settings(max_examples=150, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_modes=hst.integers(1, 6),
       squeeze_db=hst.floats(0.0, 20.0), atol=hst.sampled_from([1e-9, 1e-6]),
       side=hst.sampled_from([1.0, -1.0]), n_stack=hst.integers(1, 3))
def test_certificate_agrees_with_spectral_check_at_the_boundary(
        seed, n_modes, squeeze_db, atol, side, n_stack):
    # sigma = S diag(nu) S^T with nu_min placed a relative 1e-6 above or
    # below the threshold 1/2 - slack, where the Cholesky certificate of
    # sigma + i(1/2 - slack)Omega is closest to the wrong verdict.
    rng = np.random.default_rng(seed)
    s = random_symplectic(rng, n_modes, squeeze_db)
    nu = np.concatenate([[0.5], rng.uniform(1.0, 3.0, size=n_modes - 1)])
    slack = max(atol, 1e-10 * np.max(np.abs(s @ np.diag(np.repeat(nu, 2)) @ s.T)))
    nu[0] = (0.5 - slack) * (1.0 + side * 1e-6)
    cov = s @ np.diag(np.repeat(nu, 2)) @ s.T
    covs = [random_physical_cov(rng, n_modes) for _ in range(n_stack - 1)]
    covs.insert(int(rng.integers(n_stack)), 0.5 * (cov + cov.T))
    covs = np.array(covs)
    expected = first_unphysical_oracle(covs, atol)
    assert (expected is None) == (side > 0)
    assert st.first_unphysical(covs, atol) == expected


def test_first_unphysical_eigensolves_only_a_stack_it_cannot_certify(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counting(matrix):
        calls.append(matrix.shape)
        return eigvals(matrix)

    monkeypatch.setattr(st.np.linalg, "eigvals", counting)
    rng = np.random.default_rng(3)
    covs = np.array([random_physical_cov(rng, 3, pure=k < 2) for k in range(4)])
    assert st.first_unphysical(covs, 1e-9) is None
    assert calls == []
    covs[2] = 0.25 * np.eye(6)
    assert st.first_unphysical(covs, 1e-9) == (2, 0.25)
    assert calls == [(4, 6, 6)]


def test_first_unphysical_reports_nan_as_minus_infinity():
    good = 0.5 * np.eye(2)
    assert st.first_unphysical(np.array([good, good]), 1e-9) is None
    stack = np.array([good, np.full((2, 2), np.nan), 0.25 * np.eye(2)])
    assert st.first_unphysical(stack, 1e-9) == (1, -np.inf)
    with pytest.raises(ValueError) as err:
        st.condition_on_homodyne(np.array([np.full((4, 4), np.inf)]), [0], [0.0], [1])
    assert str(err.value) == "input state is unphysical (min symplectic eigenvalue -inf)"


def test_quadratures_lists_row_pairs_in_order():
    assert st.quadratures([2, 0]).tolist() == [4, 5, 0, 1]
    assert st.quadratures([]).tolist() == []


@settings(max_examples=40, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_modes=hst.integers(1, 2),
       n_stack=hst.integers(1, 6), pure_reference=hst.booleans())
def test_fidelity_to_equals_per_entry_fidelity(seed, n_modes, n_stack, pure_reference):
    # A mixed reference takes the per-entry fallback; entries are a mix of
    # pure and mixed states either way.
    rng = np.random.default_rng(seed)
    reference = st.GaussianState(random_physical_cov(rng, n_modes, pure=pure_reference))
    covs = np.array([random_physical_cov(rng, n_modes, pure=rng.random() < 0.3)
                     for _ in range(n_stack)])
    expected = [st.fidelity(st.GaussianState(c), reference) for c in covs]
    stacked = st.fidelity_to(covs, reference)
    assert stacked.shape == (n_stack,)
    assert_allclose(stacked, expected, rtol=0, atol=1e-14)


def test_fidelity_to_rejects_unphysical_and_asymmetric_entries():
    reference = st.vacuum(1)
    good = 0.5 * np.eye(2)
    with pytest.raises(ValueError, match="unphysical"):
        st.fidelity_to(np.array([good, 0.25 * np.eye(2), good]), reference)
    with pytest.raises(ValueError, match="unphysical"):
        st.fidelity_to(np.array([good]), st.GaussianState(0.25 * np.eye(2)))
    skewed = np.array([[0.5, 0.1], [0.0, 0.5]])
    with pytest.raises(ValueError, match="not symmetric"):
        st.fidelity_to(np.array([good, skewed]), reference)
    with pytest.raises(ValueError, match="mode counts"):
        st.fidelity_to(np.array([0.5 * np.eye(4)]), reference)


def test_mixed_reference_fidelity_to_checks_its_input_once(monkeypatch):
    calls = []
    first_unphysical = st.first_unphysical

    def counting(covs, atol):
        calls.append(len(covs))
        return first_unphysical(covs, atol)

    rng = np.random.default_rng(7)
    covs = np.array([random_physical_cov(rng, 2, pure=k == 0) for k in range(5)])
    reference = st.thermal(2, [0.3, 1.2])
    expected = [st.fidelity(st.GaussianState(c), reference) for c in covs]
    monkeypatch.setattr(st, "first_unphysical", counting)
    assert np.array_equal(st.fidelity_to(covs, reference), expected)
    assert calls == [6]


@settings(max_examples=40, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_modes=hst.integers(2, 6),
       n_stack=hst.integers(1, 6), phi=hst.floats(-np.pi, np.pi))
def test_stacked_projection_equals_per_state_projection(seed, n_modes, n_stack, phi):
    rng = np.random.default_rng(seed)
    covs = np.array([random_physical_cov(rng, n_modes, pure=rng.random() < 0.3)
                     for _ in range(n_stack)])
    mode = int(rng.integers(n_modes))
    keep = [m for m in range(n_modes) if m != mode]
    stacked = st.condition_on_homodyne(covs, [mode], [phi], keep)
    assert stacked.shape == (n_stack, 2 * n_modes - 2, 2 * n_modes - 2)
    for cov, out in zip(covs, stacked):
        single = project_one(st.GaussianState(cov), mode, phi)
        assert np.array_equal(out, single.cov)
        assert_allclose(out, schur_homodyne_reference(cov, mode, phi),
                        rtol=1e-9, atol=1e-9 * np.max(np.abs(cov)))


@pytest.mark.parametrize("row, col", [(0, 1), (1, 0), (0, 3), (3, 0)])
def test_conditioning_checks_symmetry_before_physicality(row, col):
    # An asymmetric matrix is reported as such wherever its skew sits; a
    # physicality verdict on it would depend on which triangle is read.
    cov = 0.5 * np.eye(4)
    cov[row, col] += 3.0
    with pytest.raises(ValueError, match="not symmetric"):
        st.condition_on_homodyne(cov[None], [0], [0.0], [1])


def test_stacked_projection_rejects_one_unphysical_entry_as_a_single_call_does():
    good = 0.5 * np.eye(4)
    bad = 0.25 * np.eye(4)
    with pytest.raises(ValueError) as single:
        project_one(st.GaussianState(bad), 1, 0.3)
    with pytest.raises(ValueError) as stacked:
        st.condition_on_homodyne(np.array([good, bad, good]), [1], [0.3], [0])
    assert str(stacked.value) == str(single.value)
    assert str(single.value) == "input state is unphysical (min symplectic eigenvalue 2.500e-01)"
