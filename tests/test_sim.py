import dataclasses
import hashlib
import json
import math
import pathlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2mbqc import boolean, mbqc, pfd, qsp, sim
from l2mbqc.mbqc import (MeasurementSchedule, PauliZBasis, QubitSpec, XYBasis,
                         cluster1d, compile_pfd_to_ghz, composite, ghz,
                         lift_ghz_to_cluster, mod3_protocol)
from l2mbqc.sim import (DenseEngine, bell_score,
                        branch_distribution, chain_sample, compare_engines,
                        effective_circuit, exact_distribution,
                        exact_distributions, run_schedule_batch, run_shot,
                        verify_protocol, xy_basis_vectors)
from oracles import rot_x, rot_z

DATA = pathlib.Path(__file__).parent / "data"


def fixed_angle_schedule(resource, thetas, o_ids=None):
    qubits = tuple(QubitSpec(i + 1, XYBasis(float(t)))
                   for i, t in enumerate(thetas))
    o = frozenset(o_ids) if o_ids else frozenset(range(1, len(thetas) + 1))
    return MeasurementSchedule(resource, 0, qubits, o, 0)


class TestEngines:
    def test_cluster_site3_pauli_z_marginal(self):
        z0 = np.array([[1, 0]], dtype=complex)
        z1 = np.array([[0, 1]], dtype=complex)
        p0, p1 = DenseEngine(cluster1d(5)).marginal(3, z0, z1)
        assert p0[0] == pytest.approx(0.5, abs=1e-12)
        assert p1[0] == pytest.approx(0.5, abs=1e-12)

    def test_ghz_site1_pauli_z_marginal(self):
        z0 = np.array([[1, 0]], dtype=complex)
        z1 = np.array([[0, 1]], dtype=complex)
        p0, _ = DenseEngine(ghz(4)).marginal(1, z0, z1)
        assert p0[0] == pytest.approx(0.5, abs=1e-12)
        qubits = (QubitSpec(1, PauliZBasis()),) + tuple(
            QubitSpec(i, XYBasis(0.0)) for i in (2, 3, 4))
        table = sim._site_table(
            MeasurementSchedule(ghz(4), 0, qubits, frozenset({2, 3, 4}), 0))
        vectors, kernels = table.vectors, table.kernels
        # a Pauli-Z site reads the Z basis under either setting
        assert (vectors[0] == np.eye(2)).all()
        start = np.array([[[1.0, 0, 0, 0]]])  # (re, im) pairs, bond 2
        for setting in (0, 1):
            B, w, gap, total = sim._branches(start, kernels[0],
                                             np.array([setting]))
            assert w[0] == pytest.approx([0.5, 0.5], abs=1e-12)
            assert B.view(complex).shape == (1, 2, 1, 2)
            assert gap[0] / total[0] < 1e-12

    def test_chain_steps_in_id_order_only(self):
        # the chain steps through the id-sorted qubits zipped with its tensors,
        # so only the dense engine, which reads any site, checks the order
        z0 = np.array([[1, 0]], dtype=complex)
        z1 = np.array([[0, 1]], dtype=complex)
        dense = DenseEngine(cluster1d(5))
        with pytest.raises(ValueError, match="qubit 1 next, not 3"):
            dense.project(3, z0, np.array([0.5]))
        dense.project(1, z0, np.array([0.5]))
        with pytest.raises(ValueError, match="qubit 2 next, not 1"):
            dense.project(1, z0, np.array([0.5]))
        p0, _ = dense.marginal(2, z0, z1)
        assert p0[0] == pytest.approx(0.5, abs=1e-12)

    def test_dense_engine_capped_on_whole_register(self):
        # each part is under the cap; the joint register is not
        r = composite(cluster1d(8), cluster1d(8))
        with pytest.raises(ValueError, match=f"capped at {sim.ENUM_CAP}"):
            sim.dense_state(r)
        s = fixed_angle_schedule(r, [0.0] * 16)
        with pytest.raises(ValueError, match=f"capped at {sim.ENUM_CAP}"):
            compare_engines(s, 0)

    def test_ghz_all_x_even_parity(self):
        # perfect X correlation on the three-party cat state
        s = fixed_angle_schedule(ghz(3), [0.0, 0.0, 0.0])
        dist = exact_distribution(s, 0)
        assert dist[0] == pytest.approx(1.0, abs=1e-12)

    def test_cluster_marginals_any_order(self):
        # qubits given out of id order; both engines step in id order
        rng = np.random.default_rng(5)
        thetas = rng.uniform(0, 2 * np.pi, 5)
        qubits = tuple(QubitSpec(i, XYBasis(float(thetas[i - 1])))
                       for i in (3, 5, 1, 4, 2))
        s = MeasurementSchedule(cluster1d(5), 0, qubits, frozenset({1, 3, 5}), 0)
        assert compare_engines(s, 0, seed=3) < 1e-12

    def test_mps_bond_dimension_assertion_holds(self):
        s = mod3_protocol(2)
        assert all(max(A.shape[0], A.shape[2]) <= 2
                   for A in sim._chain_tensors(s.resource))
        _, ys = run_schedule_batch(s, 2, 8, seed=0)
        assert (ys == boolean.mod_p(3, 0, 2)(2)).all()


class TestRunShot:
    def test_seeded_determinism(self):
        s = mod3_protocol(2)
        a = run_shot(s, 2, seed=123)
        b = run_shot(s, 2, seed=123)
        assert a == b
        c = run_shot(s, 2, seed=124)
        # one uniform per qubit in id order; the output is deterministic
        assert "".join(str(a[0][q]) for q in sorted(a[0])) == "1000011011101"
        assert "".join(str(c[0][q]) for q in sorted(c[0])) == "1111110100000"
        assert a[1] == c[1] == boolean.mod_p(3, 0, 2)(2)

    def test_mod3_n4_specific_input(self):
        s = mod3_protocol(4)
        f = boolean.mod_p(3, 0, 4)
        for k in range(20):
            _, y = run_shot(s, "1110", seed=k)
            assert y == f("1110") == 0

    @pytest.mark.parametrize("build, f, xs, pinned", [
        (lambda: mbqc.or_protocol(4), boolean.or_n(4), [0, 5, 15], {
            0: ["101110001011001100000100001001110111001001101",
                "011101010101110011000011110110111010111100010",
                "011011011100100110010101011110011001101010011"],
            1: ["111000001111001101010101101010100110101010001",
                "100110001101110110000110011100001111000110000",
                "001100111111011111111010111011000010010010010"]}),
        (lambda: mbqc.modp_protocol(5, 0, 3, qsp.reference_angles(5)),
         boolean.mod_p(5, 0, 3), [0, 3, 7], {
            0: ["1011100011110011000101000010011101110010011010110101100"
                "0111111011110100",
                "0111010101011100110000111101101110101111000111011000001"
                "0101101100011100",
                "0110110111001001100001010111110110011010100101100101101"
                "1001100111100111"],
            1: ["1110000010110011010101011010101001101010100011101111011"
                "0000011110000101",
                "1001100010011101100101100111000011110001100011101100001"
                "0111100011001111",
                "0011001111110111111010101110100000100100100111000001011"
                "1100000110011101"]}),
    ])
    def test_seeded_multi_row_outcomes(self, build, f, xs, pinned):
        # one uniform per row per site in id order, rows side by side
        s = build()
        for seed, rows in pinned.items():
            outcomes = chain_sample(s, xs, np.random.default_rng(seed))
            assert ["".join(map(str, col)) for col in outcomes[1:].T] == rows
            assert sim.output_bits(s, outcomes).tolist() == [f(x) for x in xs]

    @pytest.mark.parametrize("build, rows, seed, digest", [
        (lambda: mod3_protocol(8), 1024, 1,
         "0646f53ffe7337d7657cf38ec12612b33c14c1807c5dc7b825b9d6d7e84c8fd1"),
        (lambda: mbqc.or_protocol(6), 1024, 2,  # Pauli-Z cuts
         "22173b44f842199881b134d6782aeedda497f458886cc2899dbeb506a4610ee5"),
        (lambda: mbqc.modp_protocol(7, 0, 5, qsp.reference_angles(7)), 320, 3,
         "4e493fdd0ae28c530bd0fe45aef7c021dbbb2de501d671ff1d9ff63edb944b71"),
        # bond-1 chain ends and joints
        (lambda: compile_pfd_to_ghz(pfd.pairwise_and_decomposition(3), 0),
         1024, 4,
         "ab39d389eed71836981cf48c9555a84e2d9b63b5f2ec4cde27bf667746f65ee0"),
        (lambda: lift_ghz_to_cluster(
            compile_pfd_to_ghz(pfd.solve_pfd(boolean.and_n(2)), 0)), 1024, 5,
         "20ed279c6b7fa33ebece6daea45781c1c25ade81b1f7905a2d835b690140dc8a"),
        (lambda: TestComposite().build_xor_schedule(), 1024, 6,
         "39bb406c49a72ea4a686650e08677dfcebdc0be6a49096f505f2ef53d3c49854"),
    ])
    def test_pinned_sample_digests(self, build, rows, seed, digest):
        # the sampled bytes are part of the seeded-reproducibility contract
        s = build()
        xs = np.arange(rows) % (1 << s.arity)
        outcomes = chain_sample(s, xs, np.random.default_rng(seed))
        assert outcomes.shape == (s.n_qubits + 1, rows)
        assert hashlib.sha256(outcomes.tobytes()).hexdigest() == digest

    def test_zero_rows(self):
        s = mod3_protocol(1)
        assert chain_sample(s, [], np.random.default_rng(0)).shape == (10, 0)
        outcomes, ys = run_schedule_batch(s, 0, 0, 0)
        assert ys.shape == (0,)
        assert sorted(outcomes) == list(range(1, 10))
        assert all(v.shape == (0,) for v in outcomes.values())

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError, match="shots must be >= 0, got -1"):
            run_schedule_batch(mod3_protocol(1), 0, -1, 0)

    def test_empty_schedule_returns_constant(self):
        s = MeasurementSchedule(cluster1d(0), 1, (), frozenset(), 1)
        _, y = run_shot(s, 0, seed=0)
        assert y == 1

    def test_dense_and_chain_same_seed_same_outcomes(self):
        # a dense-engine run draws from the seed's stream as run_shot does
        s = mod3_protocol(1)
        for seed in range(7, 12):
            outcomes, _ = sim._drive(s, np.array([1]),
                                     np.random.default_rng(seed),
                                     dense=DenseEngine(s.resource))
            dense = {q: int(outcomes[q, 0]) for q in range(1, s.n_qubits + 1)}
            assert dense == run_shot(s, 1, seed=seed)[0]


class TestPinnedChainStep:
    """Bit-level pins on the chain step's other two consumers: the exact DP
    on the builds of ``test_pinned_sample_digests``, and the dense-forced
    sweep of ``compare_engines``."""

    EXACT_BUILDS = [
        lambda: mod3_protocol(8),
        lambda: mbqc.or_protocol(6),
        lambda: mbqc.modp_protocol(7, 0, 5, qsp.reference_angles(7)),
        lambda: compile_pfd_to_ghz(pfd.pairwise_and_decomposition(3), 0),
        lambda: lift_ghz_to_cluster(
            compile_pfd_to_ghz(pfd.solve_pfd(boolean.and_n(2)), 0)),
        lambda: TestComposite().build_xor_schedule(),
    ]

    def test_pinned_exact_distributions(self):
        h = hashlib.sha256()
        for build in self.EXACT_BUILDS:
            s = build()
            for d in exact_distributions(s, range(1 << s.arity)):
                h.update(f"{d[0].hex()} {d[1].hex()} {d.peak_states} "
                         f"{d.marginal_dev.hex()};".encode())
        assert h.hexdigest() == (
            "1c4b478e689787f7e07ed19d817dfc5573968e082c643a91e996ab6db51df94a")

    def test_pinned_dense_forced_runs(self):
        h = hashlib.sha256()
        for s in (mod3_protocol(2), lift_ghz_to_cluster(
                compile_pfd_to_ghz(pfd.solve_pfd(boolean.and_n(2)), 0))):
            for seed in range(11, 16):
                x = seed % (1 << s.arity)
                gap = compare_engines(s, x, seed=seed)
                outcomes, _ = sim._drive(s, np.array([x]),
                                         np.random.default_rng(seed),
                                         dense=DenseEngine(s.resource))
                h.update(gap.hex().encode() + outcomes.tobytes())
        assert h.hexdigest() == (
            "8ff465b99d1f2114c9c27ef42f6aedd51a9a40580430d73caaf9d609dc268001")

    # What a change to the step's float arithmetic must not move: the
    # sampled bytes, the dense-forced outcomes without the gap, and the
    # DP's peak_states and distributions to 1e-13 (held as values, not as a
    # digest of rounded values: some sit within 1e-15 of a rounding edge).
    def test_pinned_sampled_outcomes(self):
        h = hashlib.sha256()
        for seed, build in enumerate(self.EXACT_BUILDS):
            s = build()
            xs = np.arange(2048) % (1 << s.arity)
            h.update(chain_sample(s, xs, np.random.default_rng(seed))
                     .tobytes())
        assert h.hexdigest() == (
            "fdd25157eb05229c45e7e7e7d8bca3e6faf7a31a344aa90f0695f1fe3af2d030")

    def test_pinned_dense_forced_outcomes(self):
        h = hashlib.sha256()
        for s in (mod3_protocol(2), lift_ghz_to_cluster(
                compile_pfd_to_ghz(pfd.solve_pfd(boolean.and_n(2)), 0))):
            for seed in range(11, 16):
                outcomes, _ = sim._drive(s, np.array([seed % (1 << s.arity)]),
                                         np.random.default_rng(seed),
                                         dense=DenseEngine(s.resource))
                h.update(outcomes.tobytes())
        assert h.hexdigest() == (
            "fe23006c7a5eeb8e5d379610cd5808d0dde21eb24bae9983405bcb59eada8285")

    def test_pinned_exact_distributions_to_1e13(self):
        pins = json.loads((DATA / "chain_step_exact_pins.json").read_text())
        assert len(pins) == len(self.EXACT_BUILDS)
        for build, pinned in zip(self.EXACT_BUILDS, pins):
            s = build()
            dists = exact_distributions(s, range(1 << s.arity))
            assert len(dists) == len(pinned)
            for d, (p0, p1, peak) in zip(dists, pinned):
                assert d.peak_states == peak
                assert abs(d[0] - p0) <= 1e-13 and abs(d[1] - p1) <= 1e-13


def assert_chain_sample_matches_branches(s, inputs, rows_per_input, seed):
    """Empirical outcome strings of one sweep against the exact branch weights.

    Rows cycle through the inputs, so each row's own input must be used.
    E[TV] <= 0.5 * sum_k sqrt(p_k (1 - p_k) / n) by Jensen, and one row moves
    the TV by at most 1/n, so by McDiarmid the TV exceeds that mean bound by
    0.01 with probability at most exp(-2 n 0.01^2) = exp(-8) at n = 40000.
    """
    xs = np.tile(inputs, rows_per_input)
    outcomes = chain_sample(s, xs, np.random.default_rng(seed))
    n = rows_per_input
    for x in inputs:
        exact = branch_distribution(s, x)
        counts = Counter(map(tuple, outcomes[1:, xs == x].T.tolist()))
        tv = 0.5 * sum(abs(counts.get(k, 0) / n - exact.get(k, 0.0))
                       for k in set(exact) | set(counts))
        bound = 0.5 * sum(math.sqrt(p * (1 - p) / n) for p in exact.values())
        assert tv < bound + 0.01


class TestChainSample:
    def test_mod3_n1_matches_branch_distribution(self):
        assert_chain_sample_matches_branches(mod3_protocol(1), [0, 1], 40000, 17)


class TestMarginalChecks:
    """Each state representation checks its own marginal sums."""

    @staticmethod
    def scaled_first(build):
        def scaled(resource):
            out = build(resource)
            out[0] = out[0] * 1.01
            return out
        return scaled

    def test_chain_check_fires(self, monkeypatch):
        s = mod3_protocol(1)
        monkeypatch.setattr(sim, "_chain_tensors",
                            self.scaled_first(sim._chain_tensors))
        with pytest.raises(AssertionError, match="state weight"):
            chain_sample(s, [0, 1], np.random.default_rng(0))
        with pytest.raises(AssertionError, match="state weight"):
            exact_distribution(s, 1)
        with pytest.raises(AssertionError, match="state weight"):
            exact_distributions(s, [0, 1])

    def test_nan_state_fails_on_the_sampler_path(self):
        # a NaN weight fails the check; a dead row (0 <= 0) passes
        kernel = sim._site_table(mod3_protocol(1)).kernels[1]
        F = np.zeros((3, 1, 4)) + (1, 0, 0, 0)
        F[2] = 0.0
        rows = 2 * np.arange(3) + np.array([0, 1, 1], dtype=np.uint8)
        B, w, gap, total = sim._branches(F, kernel, rows)
        assert total[2] == gap[2] == 0.0 and (w[2] == 0).all()
        F[1, 0, 1] = np.nan
        with pytest.raises(AssertionError, match="state weight"):
            sim._branches(F, kernel, rows)

    def test_nan_kernel_fails_on_the_dp_path(self, monkeypatch):
        build = sim._chain_tensors

        def nan_entry(resource):
            out = build(resource)
            out[1] = out[1].copy()
            out[1][0, 1, 1] = np.nan
            return out
        monkeypatch.setattr(sim, "_chain_tensors", nan_entry)
        s = mod3_protocol(1)
        assert np.isnan(sim._site_table(s).kernels[1]).any()
        with pytest.raises(AssertionError, match="state weight"):
            exact_distributions(s, [0, 1])

    def test_dense_check_fires(self, monkeypatch):
        s = mod3_protocol(1)
        build = sim.dense_state
        monkeypatch.setattr(sim, "dense_state", lambda r: build(r) * 1.01)
        with pytest.raises(AssertionError, match="sum to 1"):
            branch_distribution(s, 1)
        with pytest.raises(AssertionError, match="sum to 1"):
            compare_engines(s, 1)


class TestExactDistribution:
    def test_mod3_n1_deterministic(self):
        s = mod3_protocol(1)
        f = boolean.mod_p(3, 0, 1)
        for x in range(2):
            assert exact_distribution(s, x)[f(x)] == pytest.approx(1.0, abs=1e-10)

    def test_pairwise_and_ghz_beats_bound(self):
        f = boolean.pairwise_and(2)
        s = compile_pfd_to_ghz(pfd.pairwise_and_decomposition(2), 0)
        worst = min(exact_distribution(s, x)[f(x)] for x in range(4))
        assert worst == pytest.approx(1.0, abs=1e-12)
        assert worst > boolean.nchvm_bound(f)

    def test_zero_angles_ghz_outputs_zero(self):
        s = fixed_angle_schedule(ghz(4), [0.0] * 4)
        assert exact_distribution(s, 0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_size_cap(self):
        # listing every outcome string stays capped; the DP is not
        with pytest.raises(ValueError, match="capped"):
            branch_distribution(mod3_protocol(3), 0)

    def test_mod3_n3_deterministic_beyond_enumeration_cap(self):
        s = mod3_protocol(3)
        assert s.n_qubits > sim.ENUM_CAP
        f = boolean.mod_p(3, 0, 3)
        for x in range(8):
            assert exact_distribution(s, x)[f(x)] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("build, peak", [
        (lambda: mod3_protocol(1), 4),
        (lambda: mod3_protocol(2), 4),
        (lambda: mod3_protocol(3), 4),
        (lambda: mbqc.modp_protocol(5, 0, 3, qsp.reference_angles(5)), 4),
        (lambda: mbqc.or_protocol(4), 32),
    ])
    def test_peak_states(self, build, peak):
        s = build()
        dists = [exact_distribution(s, x) for x in range(1 << s.arity)]
        assert max(d.peak_states for d in dists) == peak
        assert max(d.marginal_dev for d in dists) < sim.MARGINAL_TOL

    def test_zero_qubit_schedule(self):
        s = MeasurementSchedule(cluster1d(0), 1, (), frozenset(), 1)
        assert exact_distribution(s, 1) == {0: 0.0, 1: 1.0}


def pauli_z_cut_schedule():
    """Seven-site chain cut at site 4; the cut outcome feeds later settings."""
    rng = np.random.default_rng(40)
    th = rng.uniform(0, 2 * np.pi, 7)
    qubits = (
        QubitSpec(1, XYBasis(th[0], 0), 1),
        QubitSpec(2, XYBasis(th[1], 1), 2, frozenset({1})),
        QubitSpec(3, XYBasis(th[2], 0, 0.3), 3, frozenset({2})),
        QubitSpec(4, PauliZBasis()),
        QubitSpec(5, XYBasis(th[4], 1), 1, frozenset({4})),
        QubitSpec(6, XYBasis(th[5], 0), 0, frozenset({1, 4, 5})),
        QubitSpec(7, XYBasis(th[6], 0), 2, frozenset({2, 6})),
    )
    return MeasurementSchedule(cluster1d(7), 2, qubits,
                               frozenset({1, 3, 4, 7}), 1)


def dead_on_one_input_schedule():
    """Two unentangled |+> sites; site 2 adapts on site 1's outcome.

    Input 1 reads site 1 in X, so outcome 1 has weight exactly 0; input 0
    reads it in Y, where both outcomes are alive.  So the DP key of outcome
    1 lives on input 0 only, and site 2 meets it as a zero row on input 1.
    """
    qubits = (QubitSpec(1, XYBasis(math.pi / 4, 0, math.pi / 4), 1),
              QubitSpec(2, XYBasis(0.7), 0, frozenset({1})))
    return MeasurementSchedule(composite(cluster1d(1), cluster1d(1)), 1,
                               qubits, frozenset({1, 2}), 0)


CROSS_ORACLE_BUILDS = [
    lambda: mod3_protocol(1),
    lambda: mod3_protocol(2),
    lambda: compile_pfd_to_ghz(pfd.solve_pfd(boolean.and_n(2)), 0),
    lambda: compile_pfd_to_ghz(pfd.solve_pfd(boolean.or_n(2)), 0),
    lambda: compile_pfd_to_ghz(pfd.pairwise_and_decomposition(3), 0),
    lambda: lift_ghz_to_cluster(
        compile_pfd_to_ghz(pfd.solve_pfd(boolean.and_n(2)), 0)),
    lambda: lift_ghz_to_cluster(
        compile_pfd_to_ghz(pfd.pairwise_and_decomposition(3), 0)),
    lambda: TestComposite().build_xor_schedule(),
    pauli_z_cut_schedule,
]


@pytest.mark.parametrize("build", CROSS_ORACLE_BUILDS)
def test_exact_distribution_matches_dense_branch_walk(build):
    # the DP runs on chain tensors; the dense walk shares none of its state
    s = build()
    for x in range(1 << s.arity):
        marginal = {0: 0.0, 1: 0.0}
        for outs, p in branch_distribution(s, x).items():
            marginal[s.c ^ (sum(outs[o - 1] for o in s.o_ids) & 1)] += p
        dist = exact_distribution(s, x)
        for y in (0, 1):
            assert dist[y] == pytest.approx(marginal[y], abs=1e-12)


class TestExactSweep:
    """One sweep over many inputs against one sweep per input."""

    @pytest.mark.parametrize("build", CROSS_ORACLE_BUILDS + [
        lambda: mbqc.or_protocol(4), dead_on_one_input_schedule])
    def test_matches_one_input_sweeps(self, build):
        s = build()
        xs = range(1 << s.arity)
        dists = exact_distributions(s, xs)
        assert len(dists) == len(xs)
        for x, dist in zip(xs, dists):
            one = exact_distribution(s, x)
            for y in (0, 1):
                assert dist[y] == pytest.approx(one[y], abs=1e-12)

    def test_branch_dead_on_one_input_only(self, monkeypatch):
        s = dead_on_one_input_schedule()
        seen = []
        branches = sim._branches

        def spy(F, K, at):
            B, w, gap, total = branches(F, K, at)
            seen.append((total, w, gap))
            return B, w, gap, total

        monkeypatch.setattr(sim, "_branches", spy)
        dists = exact_distributions(s, [0, 1])
        # site 1 has one key, so its rows are the inputs 0 and 1
        assert seen[0][1][:, 1].tolist() == [pytest.approx(0.5), 0.0]
        # site 2 holds (input, key) rows; the key of outcome 1 is zero on
        # input 1, which the marginal check passes as 0 <= 0 and the DP
        # leaves out of its relative gap instead of reading 0/0
        assert seen[1][0].tolist() == [pytest.approx(0.5), pytest.approx(0.5),
                                       pytest.approx(1.0), 0.0]
        assert seen[1][2][3] == 0.0
        assert all(0 <= gap[i] < sim.MARGINAL_TOL * total[i]
                   for total, _, gap in seen for i in np.flatnonzero(total))
        for d in dists:
            assert math.isfinite(d.marginal_dev)
            assert 0 <= d.marginal_dev < sim.MARGINAL_TOL
            assert d.peak_states == 2
        for x, d in zip((0, 1), dists):
            walk = {0: 0.0, 1: 0.0}
            for outs, p in branch_distribution(s, x).items():
                walk[outs[0] ^ outs[1]] += p
            for y in (0, 1):
                assert d[y] == pytest.approx(walk[y], abs=1e-12)

    def test_no_inputs(self):
        assert exact_distributions(mod3_protocol(1), []) == []

    def test_verify_protocol_sweeps_every_input_at_once(self, monkeypatch):
        # one _branches call per site for all 16 inputs, not one per input
        calls = []
        branches = sim._branches
        monkeypatch.setattr(sim, "_branches",
                            lambda *a: calls.append(1) or branches(*a))
        s = mod3_protocol(4)
        report = verify_protocol(s, boolean.mod_p(3, 0, 4),
                                 shots_per_input=0, use_exact=True)
        assert len(report.records) == 16 and report.min_exact > 1 - 1e-9
        assert len(calls) == s.n_qubits


class TestEffectiveCircuit:
    def test_identity_chain(self):
        s = fixed_angle_schedule(cluster1d(3), [0.0, 0.0, 0.0],
                                 o_ids={1, 3})
        eff = effective_circuit(s, 0)
        assert np.allclose(eff.unitary, np.eye(2), atol=1e-12)
        assert eff.output_distribution[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mod3_analytic_deterministic(self, n):
        s = mod3_protocol(n)
        f = boolean.mod_p(3, 0, n)
        for x in range(1 << n):
            assert sim.analytic_success(s, f, x) >= 1 - 1e-9

    def test_analytic_agrees_with_enumeration(self):
        s = mod3_protocol(2)
        f = boolean.mod_p(3, 0, 2)
        for x in range(4):
            assert sim.analytic_success(s, f, x) == pytest.approx(
                exact_distribution(s, x)[f(x)], abs=1e-10)

    def test_untagged_schedule_rejected(self):
        s = fixed_angle_schedule(cluster1d(3), [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            effective_circuit(s, 0)


class TestVerifyProtocol:
    @pytest.mark.parametrize("score", [verify_protocol, bell_score])
    def test_negative_shots_rejected(self, score):
        s, f = mod3_protocol(2), boolean.mod_p(3, 0, 2)
        with pytest.raises(ValueError,
                           match="shots_per_input must be >= 0, got -2"):
            score(s, f, shots_per_input=-2)

    def test_mod3_n4_full_sweep(self):
        s = mod3_protocol(4)
        f = boolean.mod_p(3, 0, 4)
        report = verify_protocol(s, f, shots_per_input=100, seed=11)
        assert report.all_shots_correct
        assert report.min_analytic >= 1 - 1e-9
        assert report.resources.as_tuple() == (21, 6, 5, 3)

    def test_or4_sweep(self):
        report = verify_protocol(mbqc.or_protocol(4), boolean.or_n(4),
                                 shots_per_input=200, seed=12)
        assert report.all_shots_correct

    def test_ghz_and2_analytic(self):
        f = boolean.and_n(2)
        s = compile_pfd_to_ghz(pfd.solve_pfd(f), 0)
        report = verify_protocol(s, f, shots_per_input=50, seed=13)
        assert report.min_analytic == pytest.approx(1.0, abs=1e-12)
        assert report.min_exact == pytest.approx(1.0, abs=1e-10)

    def test_report_serialization(self):
        f = boolean.and_n(2)
        s = compile_pfd_to_ghz(pfd.solve_pfd(f), 0)
        report = verify_protocol(s, f, shots_per_input=10, seed=1)
        assert "empirical_rate" in report.to_json()
        assert report.to_csv().startswith("x,target")
        stats = json.loads(report.to_json())["stats"]
        assert stats["exact_peak_states"] == 2
        assert 0 <= stats["exact_marginal_dev"] < sim.MARGINAL_TOL

    def test_stats_without_exact_work(self):
        f = boolean.and_n(2)
        s = compile_pfd_to_ghz(pfd.solve_pfd(f), 0)
        report = verify_protocol(s, f, shots_per_input=10, use_exact=False)
        assert report.min_exact is None
        assert report.stats == {"exact_peak_states": None,
                                "exact_marginal_dev": None}

    def test_explicit_exact_above_enumeration_cap(self):
        # use_exact=True is honoured at any size; the default stays capped
        s = mod3_protocol(8)
        f = boolean.mod_p(3, 0, 8)
        report = verify_protocol(s, f, shots_per_input=0, use_exact=True)
        assert report.min_exact is not None and report.min_exact > 1 - 1e-9
        assert report.stats["exact_peak_states"] == 4
        assert verify_protocol(s, f, shots_per_input=0).min_exact is None

    def test_stats_not_compared(self):
        f = boolean.and_n(2)
        s = compile_pfd_to_ghz(pfd.solve_pfd(f), 0)
        report = verify_protocol(s, f, shots_per_input=5, seed=1)
        assert dataclasses.replace(report, stats={}) == report


class TestBellScore:
    def test_pairwise_and_4(self):
        f = boolean.pairwise_and(4)
        s = compile_pfd_to_ghz(pfd.pairwise_and_decomposition(4), 0)
        score = bell_score(s, f)
        assert score.classical_bound == pytest.approx(0.625, abs=1e-12)
        assert score.quantum_success == pytest.approx(1.0, abs=1e-9)
        assert score.violates

    def test_and2(self):
        f = boolean.and_n(2)
        s = compile_pfd_to_ghz(pfd.solve_pfd(f), 0)
        score = bell_score(s, f)
        assert score.classical_bound == pytest.approx(0.75, abs=1e-12)
        assert score.violates

    def test_linear_function_no_violation(self):
        f = boolean.parity_n(2)
        s = compile_pfd_to_ghz(pfd.solve_pfd(f), 0)
        score = bell_score(s, f)
        assert score.classical_bound == pytest.approx(1.0, abs=1e-12)
        assert not score.violates

    def test_no_certificate_raises(self):
        # no analytic path, above the exact default and no shots: nothing
        # certifies the NOT-OR schedule, so no quantum success is reported
        s = dataclasses.replace(mbqc.or_protocol(6), c=1)
        with pytest.raises(ValueError, match="no certificate"):
            bell_score(s, boolean.or_n(6))

    def test_classical_bound_matches_enumeration(self):
        # oracle: agreement count of every affine predictor
        f = boolean.pairwise_and(4)
        best = max(sum((f(x) == (boolean.popcount(k & x) & 1) ^ b)
                       for x in range(16)) / 16
                   for k in range(16) for b in (0, 1))
        s = compile_pfd_to_ghz(pfd.pairwise_and_decomposition(4), 0)
        assert bell_score(s, f).classical_bound == pytest.approx(best, abs=1e-12)


class TestCorrespondences:
    def test_ghz_parity_equals_commuting_circuit(self):
        rng = np.random.default_rng(21)
        for N in (2, 4, 7, 10):
            thetas = rng.uniform(0, 2 * np.pi, N)
            s = fixed_angle_schedule(ghz(N), thetas)
            dist = exact_distribution(s, 0)
            U = np.eye(2, dtype=complex)
            for t in thetas:
                U = rot_x(t) @ U
            assert dist[1] == pytest.approx(abs(U[1, 0]) ** 2, abs=1e-10)

    def test_cluster_branches_match_alternating_circuit(self):
        rng = np.random.default_rng(22)
        for N in (1, 3, 5):
            L = 2 * N + 1
            thetas = rng.uniform(0, 2 * np.pi, L)
            s = fixed_angle_schedule(cluster1d(L), thetas,
                                     o_ids=set(range(1, L + 1, 2)))
            branches = branch_distribution(s, 0)
            norm = None
            for mm, pr in branches.items():
                U = np.eye(2, dtype=complex)
                for j in range(1, L + 1):
                    flips = sum(mm[k - 1] for k in range(1, j) if (k - j) % 2)
                    td = (-1.0) ** flips * thetas[j - 1]
                    U = (rot_x(td) if j % 2 else rot_z(td)) @ U
                parity = 0
                for k in range(0, L, 2):
                    parity ^= mm[k]
                amp2 = abs(U[parity, 0]) ** 2
                if amp2 < 1e-14:
                    assert pr < 1e-14
                    continue
                ratio = pr / amp2
                norm = ratio if norm is None else norm
                assert ratio == pytest.approx(norm, abs=1e-10)
            assert norm == pytest.approx(2.0 ** -(L - 1), abs=1e-10)


class TestCrossEngine:
    @pytest.mark.parametrize("build", [
        lambda: mod3_protocol(1),
        lambda: mod3_protocol(2),
        lambda: compile_pfd_to_ghz(pfd.solve_pfd(boolean.and_n(2)), 0),
        lambda: lift_ghz_to_cluster(
            compile_pfd_to_ghz(pfd.solve_pfd(boolean.or_n(2)), 0)),
    ])
    def test_marginals_agree(self, build):
        s = build()
        assert s.n_qubits <= 14
        for x in range(1 << s.arity):
            assert compare_engines(s, x, seed=x + 1) < 1e-12

    def test_mod3_per_round_marginals(self):
        s = mod3_protocol(1)
        for x in range(2):
            assert compare_engines(s, x, seed=50 + x) < 1e-12


class TestComposite:
    def build_xor_schedule(self):
        # two independent cat-state blocks computing AND(x1,x2) and OR(x3,x4);
        # the joint outcome parity is their XOR
        f1, f2 = boolean.and_n(2), boolean.or_n(2)
        d1, d2 = pfd.solve_pfd(f1), pfd.solve_pfd(f2)
        qubits = []
        for t, mask in enumerate(sorted(d1.angles), 1):
            half = math.pi * float(d1.angles[mask]) / 2
            qubits.append(QubitSpec(t, XYBasis(half, 1, half), mask))
        for t, mask in enumerate(sorted(d2.angles), 4):
            half = math.pi * float(d2.angles[mask]) / 2
            qubits.append(QubitSpec(t, XYBasis(half, 1, half), mask << 2))
        return MeasurementSchedule(composite(ghz(3), ghz(3)), 4,
                                   tuple(qubits), frozenset(range(1, 7)), 0)

    def test_exact_distribution(self):
        s = self.build_xor_schedule()
        for x in range(16):
            target = boolean.and_n(2)(x & 3) ^ boolean.or_n(2)(x >> 2)
            assert exact_distribution(s, x)[target] == pytest.approx(1.0, abs=1e-10)

    def test_cross_engine(self):
        s = self.build_xor_schedule()
        for x in (0, 5, 10, 15):
            assert compare_engines(s, x, seed=x) < 1e-12

    def test_chain_sample_matches_branch_distribution(self):
        assert_chain_sample_matches_branches(self.build_xor_schedule(),
                                             [3, 12], 40000, 18)

    def test_sampling(self):
        s = self.build_xor_schedule()
        _, ys = run_schedule_batch(s, 7, 50, seed=3)
        target = boolean.and_n(2)(3) ^ boolean.or_n(2)(1)
        assert all(int(y) == target for y in ys)


def complex_kernels(s):
    """The (N, l, setting * outcome * r) complex kernels v^H A of a schedule,
    from its site vectors and chain tensors, bonds padded to 2."""
    A = np.zeros((s.n_qubits, 2, 2, 2), dtype=complex)
    for a, T in zip(A, sim._chain_tensors(s.resource)):
        a[:T.shape[0], :, :T.shape[2]] = T
    vectors = sim._site_table(s).vectors
    return np.einsum("isoc,ilcr->ilsor", vectors.conj(), A).reshape(-1, 2, 8)


class TestSiteTable:
    @pytest.mark.parametrize("build, sweep", [
        (lambda: mbqc.modp_protocol(7, 0, 5, qsp.reference_angles(7)),
         lambda s: chain_sample(s, np.arange(320) % 32,
                                np.random.default_rng(0))),
        (lambda: mod3_protocol(4),
         lambda s: exact_distributions(s, range(16))),
        (lambda: mod3_protocol(2), lambda s: compare_engines(s, 3)),
    ])
    def test_basis_vectors_built_once_per_sweep(self, monkeypatch, build,
                                                sweep):
        # every site's vectors come from one call, not one call per site
        s = build()
        shapes = []
        vectors = sim.xy_basis_vectors
        monkeypatch.setattr(sim, "xy_basis_vectors",
                            lambda a: shapes.append(a.shape) or vectors(a))
        sweep(s)
        assert shapes == [(s.n_qubits, 2)]

    @pytest.mark.parametrize("sweep", [
        lambda s: chain_sample(s, np.arange(320) % 32,
                               np.random.default_rng(0)),
        lambda s: exact_distributions(s, range(32)),
        lambda s: sim.effective_unitaries(s, range(32)),
    ])
    def test_input_parities_once_per_mask(self, monkeypatch, sweep):
        # P.x depends only on the mask and the inputs: one parity pass per
        # distinct mask, however many sites share it
        s = mbqc.modp_protocol(7, 0, 5, qsp.reference_angles(7))
        calls = []
        parity = sim.parity
        monkeypatch.setattr(sim, "parity",
                            lambda v: calls.append(v) or parity(v))
        sweep(s)
        distinct = {q.p_mask for q in s.qubits}
        assert len(calls) == len(distinct) < s.n_qubits

    def test_parity_at_every_width(self):
        # each prefix has another largest value, so the fold skips another
        # number of shifts
        v = np.array([0, 1, 2, 3, 5, 6, 2**16 + 1, 2**31 + 2**17, 2**32,
                      2**62 + 2**33 + 1, 2**63 - 1], dtype=np.int64)
        for end in range(len(v) + 1):
            p = sim.parity(v[:end])
            assert p.dtype == np.uint8
            assert p.tolist() == [bin(int(x)).count("1") & 1
                                  for x in v[:end]]

    def test_built_once_per_schedule(self, monkeypatch):
        calls = []
        build = sim._build_site_table
        monkeypatch.setattr(sim, "_build_site_table",
                            lambda s: calls.append(s) or build(s))
        # building or decoding a schedule does not pay for the table
        s = mbqc.MeasurementSchedule.from_json(mod3_protocol(2).to_json())
        assert calls == []
        # the analytic path, two sample chunks, the exact sweep and the
        # dense-forced sweep share one table
        report = verify_protocol(s, boolean.mod_p(3, 0, 2),
                                 shots_per_input=300, seed=1)
        assert report.min_analytic > 1 - 1e-9 and report.min_exact > 1 - 1e-9
        assert compare_engines(s, 3) < 1e-12
        assert calls == [s]
        # an equal schedule is another object with its own table
        exact_distribution(dataclasses.replace(s), 0)
        assert len(calls) == 2

    def test_table_is_read_only(self):
        table = sim._site_table(pauli_z_cut_schedule())
        for arr in (table.angles, table.vectors, table.kernels,
                    *table.a_rows):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.kernels[0, 0, 0] = 1.0
        assert [a.tolist() for a in table.a_rows] == [
            [], [1], [2], [], [4], [1, 4, 5], [2, 6]]
        assert all(a.dtype == np.intp for a in table.a_rows)

    @pytest.mark.parametrize("k", [1, 2])
    def test_branches_contiguous(self, k):
        # k = 1 is a sampled row, k = 2 a square DP factor
        s = mod3_protocol(1)
        kernel = sim._site_table(s).kernels[1]
        F = np.random.default_rng(k).normal(size=(5, k, 4))
        F /= np.sqrt(sim._sq_norms(F))[:, None, None]
        setting = np.array([0, 1, 1, 0, 1])
        B, w, *_ = sim._branches(F, kernel,
                                 2 * np.arange(5 * k) + setting.repeat(k))
        assert B.shape == (5, 2, k, 4) and B.flags.c_contiguous
        # branch m of state i is flat row 2i + m
        K = complex_kernels(s)[1].reshape(2, 2, 2, 2)
        for i, bit in enumerate(setting):
            for m in (0, 1):
                want = F[i].view(complex) @ K[:, bit, m]
                assert np.allclose(B.reshape(10, k, 4)[2 * i + m]
                                   .view(complex), want, atol=1e-15)
                assert w[i, m] == pytest.approx(
                    np.sum(np.abs(want) ** 2), abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([ghz, cluster1d]),
           st.lists(st.floats(-7, 7), min_size=3, max_size=3),
           st.sampled_from([1, 2]), st.integers(1, 6), st.randoms())
    def test_real_kernel_is_the_complex_product(self, build, thetas, k, n,
                                                rnd):
        # F.view(float) @ kernel is (F @ K).view(float) for every site, on
        # sampled rows (k = 1) and square DP factors (k = 2)
        s = fixed_angle_schedule(build(3), thetas)
        F = np.array([rnd.uniform(-1, 1) for _ in range(n * k * 4)])
        F = F.reshape(n, k, 4)
        for kernel, K in zip(sim._site_table(s).kernels, complex_kernels(s)):
            assert kernel.shape == (4, 16) and kernel.dtype == np.float64
            assert np.allclose(F @ kernel, (F.view(complex) @ K)
                               .view(np.float64), rtol=0, atol=1e-15)


class TestBasisVectors:
    def test_eigenvector_convention(self):
        # |m(theta)> has X(theta) eigenvalue (-1)^m
        theta = 0.73
        v0, v1 = xy_basis_vectors(np.array([theta]))
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        obs = math.cos(theta) * X + math.sin(theta) * Y
        assert np.allclose(obs @ v0[0], v0[0], atol=1e-12)
        assert np.allclose(obs @ v1[0], -v1[0], atol=1e-12)
