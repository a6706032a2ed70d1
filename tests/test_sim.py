import math
from collections import Counter

import numpy as np
import pytest

from l2mbqc import boolean, mbqc, pfd, sim
from l2mbqc.mbqc import (MeasurementSchedule, PauliZBasis, QubitSpec, XYBasis,
                         cluster1d, compile_pfd_to_ghz, composite, ghz,
                         lift_ghz_to_cluster, mod3_protocol)
from l2mbqc.qsp import rot_x, rot_z
from l2mbqc.sim import (ChainEngine, DenseEngine, bell_score,
                        branch_distribution, chain_sample, compare_engines,
                        effective_circuit, exact_distribution,
                        run_schedule_batch, run_shot, verify_protocol,
                        xy_basis_vectors)


def fixed_angle_schedule(resource, thetas, o_ids=None, rounds=None):
    qubits = tuple(QubitSpec(i + 1, 1 if rounds is None else rounds[i],
                             XYBasis(float(t)))
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
        for eng in (DenseEngine(ghz(4)), ChainEngine(ghz(4))):
            p0, _ = eng.marginal(1, z0, z1)
            assert p0[0] == pytest.approx(0.5, abs=1e-12)

    def test_chain_steps_in_id_order_only(self):
        z0 = np.array([[1, 0]], dtype=complex)
        z1 = np.array([[0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="next"):
            ChainEngine(cluster1d(5)).marginal(3, z0, z1)

    def test_ghz_all_x_even_parity(self):
        # perfect X correlation on the three-party cat state
        s = fixed_angle_schedule(ghz(3), [0.0, 0.0, 0.0])
        dist = exact_distribution(s, 0)
        assert dist[0] == pytest.approx(1.0, abs=1e-12)

    def test_cluster_marginals_any_order(self):
        # measuring mid-chain first must agree across engines
        rng = np.random.default_rng(5)
        thetas = rng.uniform(0, 2 * np.pi, 5)
        qubits = tuple(QubitSpec(i + 1, r, XYBasis(float(t)))
                       for i, (t, r) in enumerate(zip(thetas, [2, 3, 1, 2, 1])))
        s = MeasurementSchedule(cluster1d(5), 0, qubits, frozenset({1, 3, 5}), 0)
        assert compare_engines(s, 0, seed=3) < 1e-12

    def test_mps_bond_dimension_assertion_holds(self):
        s = mod3_protocol(2)
        assert all(max(A.shape[0], A.shape[2]) <= 2
                   for A in ChainEngine(s.resource).tensors)
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
            _, y = run_shot(s, "1110", seed=k, engine="mps")
            assert y == f("1110") == 0

    def test_empty_schedule_returns_constant(self):
        s = MeasurementSchedule(cluster1d(0), 1, (), frozenset(), 1)
        _, y = run_shot(s, 0, seed=0)
        assert y == 1

    def test_dense_and_mps_same_seed_same_outcomes(self):
        s = mod3_protocol(1)
        a = run_shot(s, 1, seed=7, engine="dense")
        b = run_shot(s, 1, seed=7, engine="mps")
        assert a == b


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
        with pytest.raises(ValueError):
            exact_distribution(mod3_protocol(3), 0)


class TestEffectiveCircuit:
    def test_identity_chain(self):
        s = fixed_angle_schedule(cluster1d(3), [0.0, 0.0, 0.0],
                                 o_ids={1, 3})
        s = MeasurementSchedule(s.resource, 0, s.qubits, s.o_ids, 0,
                                compiled=True)
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
            qubits.append(QubitSpec(t, 1, XYBasis(half, 1, half), mask))
        for t, mask in enumerate(sorted(d2.angles), 4):
            half = math.pi * float(d2.angles[mask]) / 2
            qubits.append(QubitSpec(t, 1, XYBasis(half, 1, half), mask << 2))
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
