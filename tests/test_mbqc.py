"""Tests for gate programs: the shear-parameter decomposition, the
teleportation composition identity and the projective protocol runners."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose
from scipy.linalg import block_diag, expm

from mechmbqc import mbqc
from mechmbqc import states as st

from oracles import compose_oracle, homodyne_conditioning, project_one


def test_named_gate_matrices():
    assert_allclose(mbqc.lambdas_to_symplectic((0, 0, 0, 0)), np.eye(2))
    assert_allclose(mbqc.lambdas_to_symplectic((1, 1, 1, 0)), mbqc.FOURIER)
    assert_allclose(mbqc.lambdas_to_symplectic((1, 0, 0, 0)), mbqc.shear_matrix(1.0))


def test_composition_identity_on_random_programs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lambdas = rng.uniform(-5.0, 5.0, size=4)
        direct = mbqc.lambdas_to_symplectic(lambdas)
        composed = compose_oracle(lambdas)
        assert np.max(np.abs(direct - composed)) < 1e-12
        assert np.linalg.det(direct) == pytest.approx(1.0, abs=1e-9)


def test_fourier_to_fourth_power_is_identity():
    assert_allclose(compose_oracle((0, 0, 0, 0)), np.eye(2), atol=1e-15)


def test_fourier_program_composes_to_fourier():
    assert_allclose(compose_oracle((1, 1, 1, 0)), mbqc.FOURIER, atol=1e-15)


def test_lambda_to_phase():
    assert mbqc.lambda_to_phase(0.0) == pytest.approx(np.pi / 2)
    assert mbqc.lambda_to_phase(1.0) == pytest.approx(np.pi / 4)
    assert mbqc.lambda_to_phase(1e9) == pytest.approx(0.0, abs=1e-9)


def test_gate_to_lambdas_round_trip():
    rng = np.random.default_rng(5)
    targets = [mbqc.lambdas_to_symplectic(rng.uniform(-3, 3, 4)) for _ in range(50)]
    # Degenerate lower-left / lower-right structures.
    targets += [
        np.eye(2),
        mbqc.FOURIER,
        np.diag([2.0, 0.5]),
        np.array([[1.0, 1.7], [0.0, 1.0]]),
        np.array([[0.5, 1.2], [0.0, 2.0]]),
        np.array([[0.0, -2.0], [0.5, 1.3]]),
    ]
    for target in targets:
        lambdas = mbqc.gate_to_lambdas(target)
        assert_allclose(mbqc.lambdas_to_symplectic(lambdas), target, atol=1e-9)


def test_gate_to_lambdas_rejects_non_symplectic():
    with pytest.raises(ValueError):
        mbqc.gate_to_lambdas(np.diag([2.0, 1.0]))


@pytest.mark.parametrize("matrix", [
    [[np.nan, 0.0], [0.0, np.nan]],
    [[1.0, np.nan], [0.0, 1.0]],
    [[1.0, 0.0], [np.inf, 1.0]],
], ids=["nan-diagonal", "nan-corner", "inf-corner"])
def test_non_finite_targets_are_rejected(matrix):
    # Every comparison with NaN is false, so without a finiteness check a NaN
    # diagonal passes the determinant test and decomposes to the identity.
    with pytest.raises(ValueError, match="finite"):
        mbqc.gate_to_lambdas(matrix)
    with pytest.raises(ValueError, match="finite"):
        mbqc.program_from_matrix(matrix)


def chain_phases(lambdas) -> tuple:
    return tuple(mbqc.lambda_to_phase(lam) for lam in lambdas)


def test_named_program_lookup():
    assert mbqc.named_program("identity").pattern.phases == chain_phases((0, 0, 0, 0))
    assert mbqc.named_program("F").pattern.phases == chain_phases((1, 1, 1, 0))
    assert mbqc.named_program("shear:3").pattern.phases == chain_phases((3, 0, 0, 0))
    assert mbqc.named_program(" Shear ").pattern.phases == chain_phases((1, 0, 0, 0))
    assert (mbqc.named_program("SHEAR:-2.5").pattern.phases
            == chain_phases((-2.5, 0, 0, 0)))
    cz = mbqc.named_program("cz")
    assert cz.pattern.phases == (np.pi / 2.0, np.pi / 2.0)
    assert cz.pattern.inputs == (1, 2)
    with pytest.raises(ValueError):
        mbqc.named_program("hadamard")


@pytest.mark.parametrize("name", ["shear=5", "shearx", "shear_3", "shear:",
                                  "shear:inf", "shear:nan", "shear:1:2"])
def test_named_program_rejects_near_miss_shear_names(name):
    with pytest.raises(ValueError, match="unknown gate program"):
        mbqc.named_program(name)


def test_single_mode_program_record():
    program = mbqc.single_mode_program((0.5, 0, -1, 2), "mine")
    assert program.name == "mine"
    assert [f.name for f in fields(program)] == ["pattern", "target", "name"]
    assert all(isinstance(phi, float) for phi in program.pattern.phases)
    assert program.measurement_phases() == program.pattern.phases == chain_phases(
        (0.5, 0.0, -1.0, 2.0))
    assert np.array_equal(program.target,
                          mbqc.lambdas_to_symplectic((0.5, 0.0, -1.0, 2.0)))
    assert not program.target.flags.writeable


def test_program_needs_four_lambdas():
    with pytest.raises(ValueError):
        mbqc.single_mode_program((1.0, 2.0), "short")


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_non_finite_shears_are_rejected(lam):
    with pytest.raises(ValueError, match="shear parameters must be finite"):
        mbqc.shear_program(lam)
    with pytest.raises(ValueError, match="shear parameters must be finite"):
        mbqc.single_mode_program((0.5, 0.0, lam, 1.0), "bad")


def test_program_target_must_match_the_pattern():
    pattern = mbqc.cz_program().pattern
    with pytest.raises(ValueError, match="inputs"):
        mbqc.GateProgram(pattern, np.eye(2), "bad")


def test_program_from_explicit_matrix():
    target = mbqc.lambdas_to_symplectic((0.3, -1.2, 0.8, 2.0))
    program = mbqc.program_from_matrix(target)
    assert_allclose(program.target, target, atol=1e-9)


def test_expected_output():
    cov = np.diag([0.7, 0.9])
    assert_allclose(mbqc.expected_output(np.eye(2), cov), cov)
    assert_allclose(mbqc.expected_output(mbqc.FOURIER, cov), np.diag([0.9, 0.7]))
    assert_allclose(
        mbqc.expected_output(mbqc.shear_matrix(1.0), 0.5 * np.eye(2)),
        np.array([[0.5, 0.5], [0.5, 1.0]]),
    )
    with pytest.raises(ValueError):
        mbqc.expected_output(np.diag([2.0, 1.0]), cov)


@pytest.mark.parametrize("program", [
    mbqc.identity_program(),
    mbqc.fourier_program(),
    mbqc.shear_program(1.0),
    mbqc.shear_program(3.0),
    mbqc.shear_program(5.0),
])
def test_projective_mbqc_reaches_target_at_high_squeezing(program):
    # Larger shear parameters converge more slowly: the measurement outcome
    # leaks lambda^2 Var(q_in) worth of input information past the ancilla's
    # finite anti-squeezed mask, so the bound here is the 50 dB level.
    inp = st.squeeze_momentum(st.vacuum(1), 0, 3.0)
    out = mbqc.run_projective(program, [inp], 50.0)
    reference = st.GaussianState(mbqc.expected_output(program.target, inp.cov))
    assert st.fidelity(out, reference) > 0.999


def test_projective_mbqc_fidelity_monotone_in_cluster_squeezing():
    inp = st.squeeze_momentum(st.vacuum(1), 0, 3.0)
    program = mbqc.shear_program(1.0)
    reference = st.GaussianState(mbqc.expected_output(program.target, inp.cov))
    fids = [
        st.fidelity(mbqc.run_projective(program, [inp], r_db), reference)
        for r_db in (3.0, 6.0, 10.0, 15.0, 20.0)
    ]
    assert all(b > a for a, b in zip(fids, fids[1:]))


def test_projective_mbqc_output_is_pure():
    inp = st.squeeze_momentum(st.vacuum(1), 0, 3.0)
    out = mbqc.run_projective(mbqc.fourier_program(), [inp], 3.0)
    assert out.n_modes == 1
    assert out.is_pure(atol=1e-8)


@pytest.mark.parametrize("program", [
    mbqc.identity_program(),
    mbqc.fourier_program(),
    mbqc.shear_program(0.7),
    mbqc.program_from_matrix(mbqc.lambdas_to_symplectic((0.3, -0.4, 0.8, 0.2))),
    mbqc.cz_program(),
], ids=["identity", "fourier", "shear0.7", "from-matrix", "cz"])
def test_projective_run_matches_target_matrix(program):
    target = program.target
    assert st.is_symplectic(target)
    inputs = [st.squeeze_momentum(st.vacuum(1), 0, r_db)
              for r_db in (4.0, 7.0)[: len(program.pattern.inputs)]]
    out = mbqc.run_projective(program, inputs, 60.0)
    expected = target @ block_diag(*(inp.cov for inp in inputs)) @ target.T
    assert_allclose(out.cov, expected, atol=2e-4)


def test_projective_run_needs_one_input_per_input_node():
    inp = st.vacuum(1)
    with pytest.raises(ValueError, match="2 input mode"):
        mbqc.run_projective(mbqc.cz_program(), [inp], 6.0)


def test_projective_cz_swap_symmetry():
    i1 = st.squeeze_momentum(st.vacuum(1), 0, 4.0)
    i2 = st.thermal(1, 0.0)
    out12 = mbqc.run_projective(mbqc.cz_program(), (i1, i2), 8.0)
    out21 = mbqc.run_projective(mbqc.cz_program(), (i2, i1), 8.0)
    swap = np.zeros((4, 4))
    swap[:2, 2:] = np.eye(2)
    swap[2:, :2] = np.eye(2)
    assert_allclose(out21.cov, swap @ out12.cov @ swap.T, atol=1e-10)


def test_projective_cz_zero_rung_gives_independent_wires():
    i1 = st.squeeze_momentum(st.vacuum(1), 0, 5.0)
    i2 = st.squeeze_momentum(st.vacuum(1), 0, 9.0)
    cz = mbqc.cz_program()
    no_rung = st.GraphSpec(4, ((0, 1), (2, 3)))
    wires = replace(cz, pattern=replace(cz.pattern, graph=no_rung))
    out = mbqc.run_projective(wires, (i1, i2), 60.0)
    f2 = block_diag(mbqc.FOURIER, mbqc.FOURIER)
    expected = f2 @ block_diag(i1.cov, i2.cov) @ f2.T
    assert_allclose(out.cov, expected, atol=2e-4)
    # No correlations between the rails.
    assert np.max(np.abs(out.cov[:2, 2:])) < 1e-10


# ---------------------------------------------------------------------------
# measurement patterns


@pytest.mark.parametrize("program", [
    mbqc.identity_program(), mbqc.shear_program(3.0), mbqc.cz_program(),
], ids=["identity", "shear3", "cz"])
def test_pattern_nodes_partition_the_graph(program):
    pattern = program.pattern
    assert pattern.phases == program.measurement_phases()
    assert len(pattern.measured) == len(pattern.phases)
    assert set(pattern.inputs) <= set(pattern.measured)
    nodes = sorted(pattern.measured + pattern.outputs)
    assert nodes == list(range(pattern.graph.n_nodes))


def test_pattern_completion_after_every_measurement_only_traces_out():
    # With every step done, completion just keeps the output nodes.
    pattern = replace(mbqc.cz_program().pattern, measured=(), phases=())
    cluster = st.build_cluster(pattern.graph, 6.0)
    kept = pattern.complete(cluster)
    assert np.array_equal(kept.cov, st.condition_on_homodyne(cluster.cov[None], [], [0, 3])[0])


def test_projective_runners_follow_the_program_pattern():
    inp = st.squeeze_momentum(st.vacuum(1), 0, 5.0)
    program = mbqc.shear_program(2.0)
    pattern = program.pattern
    cluster = st.build_cluster(pattern.graph, 5.0, inputs={0: inp})
    frame = pattern.frame
    by_hand = st.condition_on_homodyne(frame @ cluster.cov[None] @ frame.T,
                                       pattern.measured, pattern.outputs)[0]
    out = mbqc.run_projective(program, [inp], 5.0)
    assert np.array_equal(out.cov, by_hand)


def test_completion_checks_its_input_once(monkeypatch):
    calls = []
    first_unphysical = st.first_unphysical

    def counting(covs):
        calls.append(len(covs))
        return first_unphysical(covs)

    monkeypatch.setattr(st, "first_unphysical", counting)
    pattern = mbqc.cz_program().pattern
    cluster = st.build_cluster(pattern.graph, 6.0)
    pattern.complete_covs(np.array([cluster.cov] * 3))
    assert calls == [3]
    replace(pattern, measured=(), phases=()).complete_covs(cluster.cov[None])
    assert calls == [3]


def test_completion_rejects_overlapping_or_missing_nodes():
    cluster = st.build_cluster(st.GraphSpec.linear(3), 3.0).cov[None]
    for modes, keep in (((1, 1), (0,)), ((1,), (1,)), ((3,), (0,)), ((1,), (-1,))):
        with pytest.raises(ValueError, match="distinct modes of the state"):
            st.condition_on_homodyne(cluster, modes, keep)


def test_completion_needs_one_phase_per_measured_mode():
    # The pattern checks at construction: its frame zips measured nodes with
    # phases, so a short tuple would leave a node unrotated.
    for phases in ((np.pi / 2.0,), (0.1, 0.2, 0.3, 0.4, 0.5)):
        with pytest.raises(ValueError, match=f"{len(phases)} phases for 4 measured modes"):
            mbqc.MeasurementPattern(st.GraphSpec.linear(5), (0,), (0, 1, 2, 3), phases, (4,))


def test_pattern_checks_its_nodes_at_construction():
    # Unchecked, such a pattern failed later in its frame with a numpy
    # broadcast error, or measured a node it also kept.
    graph = st.GraphSpec.linear(3)
    for inputs, measured, outputs, match in (
            ((0,), (0, 7), (2,), "integer nodes"),
            ((0,), (0, -1), (2,), "integer nodes"),
            ((0,), (0, 1.0), (2,), "integer nodes"),
            ((3,), (0, 1), (2,), "integer nodes"),
            ((0,), (0, 1), (-3,), "integer nodes"),
            ((0,), (1, 1), (2,), "distinct"),
            ((0,), (0, 1), (1,), "distinct"),
            ((0,), (0, 1), (2, 2), "distinct"),
            ((0, 0), (0, 1), (2,), "distinct")):
        with pytest.raises(ValueError, match=match):
            mbqc.MeasurementPattern(graph, inputs, measured, (1.0,) * len(measured),
                                    outputs)
    # Inputs may be measured, as in the CZ pattern, and integer numpy
    # scalars are nodes.
    pattern = mbqc.MeasurementPattern(graph, (np.int64(1),), (1,), (1.0,), (0, 2))
    assert pattern.frame.shape == (6, 6)


def random_physical_cov(rng, n_modes):
    """A thermal state under a random symplectic map expm(Omega K)."""
    dim = 2 * n_modes
    k = rng.normal(scale=0.6, size=(dim, dim))
    s = expm(st.symplectic_form(n_modes) @ (0.5 * (k + k.T)))
    cov = s @ np.diag(np.repeat(rng.uniform(0.5, 3.0, size=n_modes), 2)) @ s.T
    return 0.5 * (cov + cov.T)


@settings(max_examples=40, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_nodes=hst.integers(2, 6),
       n_stack=hst.integers(1, 5))
def test_stacked_completion_equals_per_state_completion(seed, n_nodes, n_stack):
    # Random measured nodes in random order at random angles, and a random
    # non-empty choice and order of outputs among the rest.
    rng = np.random.default_rng(seed)
    order = [int(m) for m in rng.permutation(n_nodes)]
    n_measured = int(rng.integers(0, n_nodes))
    rest = order[n_measured:]
    outputs = tuple(rest[: int(rng.integers(1, len(rest) + 1))])
    pattern = mbqc.MeasurementPattern(
        st.GraphSpec.linear(n_nodes), (), tuple(order[:n_measured]),
        tuple(rng.uniform(-np.pi, np.pi, size=n_measured)), outputs)
    covs = np.array([random_physical_cov(rng, n_nodes) for _ in range(n_stack)])
    stacked = pattern.complete_covs(covs)
    assert stacked.shape == (n_stack, 2 * len(outputs), 2 * len(outputs))
    for cov, out in zip(covs, stacked):
        assert np.array_equal(out, pattern.complete(st.GaussianState(cov)).cov)


def sequential_completion(pattern, cov):
    """The pattern finished one projection at a time: each measured node is
    projected in turn, tracking where the surviving nodes sit."""
    state = st.GaussianState(cov)
    remaining = list(range(pattern.graph.n_nodes))
    for node, phi in zip(pattern.measured, pattern.phases):
        state = project_one(state, remaining.index(node), phi)
        remaining.remove(node)
    keep = [remaining.index(m) for m in pattern.outputs]
    return st.condition_on_homodyne(state.cov[None], [], keep)[0]


@settings(max_examples=60, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_nodes=hst.integers(2, 6))
def test_one_conditioning_equals_sequential_projections(seed, n_nodes):
    # Conditioning on all measured quadratures at once is the same Gaussian
    # update as projecting them one by one, in any order.
    rng = np.random.default_rng(seed)
    order = [int(m) for m in rng.permutation(n_nodes)]
    n_measured = int(rng.integers(1, n_nodes))
    rest = [int(m) for m in rng.permutation(order[n_measured:])]
    pattern = mbqc.MeasurementPattern(
        st.GraphSpec.linear(n_nodes), (), tuple(order[:n_measured]),
        tuple(rng.uniform(-np.pi, np.pi, size=n_measured)),
        tuple(rest[: int(rng.integers(1, len(rest) + 1))]))
    covs = np.array([random_physical_cov(rng, n_nodes) for _ in range(3)])
    for cov, out in zip(covs, pattern.complete_covs(covs)):
        assert_allclose(out, sequential_completion(pattern, cov),
                        rtol=0, atol=1e-11 * np.max(np.abs(cov)))


def test_frame_rotates_each_measured_quadrature_onto_momentum():
    pattern = mbqc.shear_program(2.5).pattern
    frame = pattern.frame
    assert frame is pattern.frame and not frame.flags.writeable
    assert st.is_symplectic(frame)
    assert_allclose(frame @ frame.T, np.eye(10), rtol=0, atol=1e-15)  # a rotation
    for node, phi in zip(pattern.measured, pattern.phases):
        block = frame[2 * node:2 * node + 2, 2 * node:2 * node + 2]
        assert_allclose(block[1], [np.cos(phi), np.sin(phi)], rtol=0, atol=0)
    for node in pattern.outputs:
        assert np.array_equal(frame[2 * node:2 * node + 2], np.eye(10)[2 * node:2 * node + 2])
    off_block = frame.copy()
    for node in range(5):
        off_block[2 * node:2 * node + 2, 2 * node:2 * node + 2] = 0.0
    assert not off_block.any()


@settings(max_examples=100, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_nodes=hst.integers(2, 5),
       phases=hst.lists(hst.floats(-np.pi, np.pi, exclude_min=True), min_size=4, max_size=4))
def test_completion_in_the_frame_equals_measuring_each_angle(seed, n_nodes, phases):
    # Rotating each measured node into its frame and measuring p is the
    # Gaussian update of measuring X_phi directly: the oracle conditions on
    # the cos/sin rows, with no frame. Random weighted graphs, measured
    # nodes and outputs; the cluster of the graph and a random mixed state.
    # Over 40,000 such matrices the two differed by at most 5.9e-15 max|cov|.
    rng = np.random.default_rng(seed)
    pairs = [(j, k) for j in range(n_nodes) for k in range(j + 1, n_nodes)]
    graph = st.GraphSpec(n_nodes, tuple((j, k, float(rng.uniform(-2.0, 2.0)))
                                        for j, k in pairs if rng.random() < 0.5))
    order = [int(m) for m in rng.permutation(n_nodes)]
    n_measured = int(rng.integers(0, n_nodes))
    rest = order[n_measured:]
    pattern = mbqc.MeasurementPattern(graph, (), tuple(order[:n_measured]),
                                      tuple(phases[:n_measured]),
                                      tuple(rest[: int(rng.integers(1, len(rest) + 1))]))
    covs = np.array([st.build_cluster(graph, float(rng.uniform(0.0, 20.0))).cov,
                     random_physical_cov(rng, n_nodes)])
    want = homodyne_conditioning(covs, pattern.measured, pattern.phases, pattern.outputs)
    for cov, out, expected in zip(covs, pattern.complete_covs(covs), want):
        assert_allclose(out, expected, rtol=0, atol=2e-14 * np.max(np.abs(cov)))
