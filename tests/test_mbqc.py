import json
import math
import pathlib

import pytest

from l2mbqc import boolean, mbqc, pfd, sim
from l2mbqc.mbqc import (MeasurementSchedule, PauliZBasis, QubitSpec, Resource,
                         XYBasis, cluster1d, compile_pfd_to_ghz,
                         compile_to_cluster, composite, ghz,
                         lift_ghz_to_cluster, mod3_protocol, modp_protocol,
                         or_protocol, qsp_symmetric_protocol, resources)
from l2mbqc.onequbit import (Condition, Gate, OneQubitProgram,
                             build_commuting_program, build_mod3_clifford)

DATA = pathlib.Path(__file__).parent / "data"


class TestScheduleModel:
    def test_duplicate_ids_rejected(self):
        qs = (QubitSpec(1, 1, XYBasis(0.0)), QubitSpec(1, 1, XYBasis(0.0)))
        with pytest.raises(ValueError):
            MeasurementSchedule(cluster1d(2), 1, qs, frozenset(), 0)

    def test_causality_violation_rejected(self):
        qs = (QubitSpec(1, 1, XYBasis(1.0), 0, frozenset({2})),
              QubitSpec(2, 1, XYBasis(0.0)))
        with pytest.raises(ValueError, match="causal"):
            MeasurementSchedule(cluster1d(2), 1, qs, frozenset({1}), 0)

    def test_upward_adaptation_rejected(self):
        # causal in rounds, but qubit 1 adapts on the higher id 2
        qs = (QubitSpec(1, 2, XYBasis(1.0), 0, frozenset({2})),
              QubitSpec(2, 1, XYBasis(0.0)))
        with pytest.raises(ValueError, match="qubit 1 adapts on qubit 2"):
            MeasurementSchedule(cluster1d(2), 1, qs, frozenset({1}), 0)

    def test_pauli_z_carries_no_conditioning(self):
        qs = (QubitSpec(1, 1, PauliZBasis(), p_mask=1),)
        with pytest.raises(ValueError):
            MeasurementSchedule(cluster1d(1), 1, qs, frozenset(), 0)

    def test_measured_angle(self):
        q = QubitSpec(1, 1, XYBasis(0.5, bias=1, offset=0.5), p_mask=1)
        assert q.measured_angle(1, 0) == pytest.approx(1.0)
        assert q.measured_angle(0, 0) == pytest.approx(0.0)


class TestSerialization:
    def test_round_trip(self):
        s = mod3_protocol(2)
        s2 = MeasurementSchedule.from_json(s.to_json())
        assert s2.qubits == s.qubits
        assert s2.o_ids == s.o_ids and s2.c == s.c
        assert s2.declared_l_c == s.declared_l_c
        assert s2.compiled == s.compiled

    def test_golden_file(self):
        golden = (DATA / "mod3_n4_schedule.json").read_text()
        assert mod3_protocol(4).to_json() + "\n" == golden

    def test_rejects_backward_adaptation(self):
        obj = json.loads(mod3_protocol(1).to_json())
        # point a round-1 qubit at a later-round outcome
        later = max(q["id"] for q in obj["qubits"] if q["round"] == 5)
        obj["qubits"][0]["a_ids"] = [later]
        with pytest.raises(ValueError, match="causal"):
            MeasurementSchedule.from_json(json.dumps(obj))

    def test_malformed_json_position(self):
        with pytest.raises(ValueError, match="position"):
            MeasurementSchedule.from_json("{not json")


class TestCompileToCluster:
    def test_single_rotation_minimal_chain(self):
        prog = OneQubitProgram(1, (Gate("X", math.pi / 3),))
        s = compile_to_cluster(prog)
        assert s.resource.n_qubits == 1
        assert all(not q.a_ids for q in s.qubits)
        assert resources(s).t_c == 1

    def test_commuting_or2_two_rounds(self):
        prog = build_commuting_program(pfd.solve_pfd(boolean.or_n(2)))
        s = compile_to_cluster(prog)
        assert resources(s).t_c == 2

    def test_mod3_generic_compile_simulates(self):
        s = compile_to_cluster(build_mod3_clifford(2))
        f = boolean.mod_p(3, 0, 2)
        for x in range(4):
            assert sim.exact_distribution(s, x)[f(x)] == pytest.approx(1.0, abs=1e-10)

    def test_alternation_structure(self):
        s = compile_to_cluster(build_mod3_clifford(1))
        assert s.n_qubits == 9
        assert s.o_ids == frozenset(range(1, 10, 2))

    def test_pi_multiple_exemption_preserves_distribution(self):
        for n in (1, 2):
            a = compile_to_cluster(build_mod3_clifford(n), exempt_pi_multiples=True)
            b = compile_to_cluster(build_mod3_clifford(n), exempt_pi_multiples=False)
            for x in range(1 << n):
                da = sim.exact_distribution(a, x)
                db = sim.exact_distribution(b, x)
                assert da[0] == pytest.approx(db[0], abs=1e-10)

    def test_effective_circuit_matches_program_unitary(self):
        # compiler soundness: the schedule's branch-independent circuit is the
        # program's unitary up to a global phase (trace criterion)
        import numpy as np
        for prog in (build_mod3_clifford(2),
                     build_commuting_program(pfd.solve_pfd(boolean.or_n(2)))):
            s = compile_to_cluster(prog)
            for x in range(1 << prog.n):
                V = sim.effective_circuit(s, x).unitary
                U = prog.unitary(x)
                assert abs(abs(np.trace(U.conj().T @ V)) - 2) < 1e-12

    def test_random_programs_compile_soundly(self):
        # end-to-end soak: arbitrary conditioned programs keep their exact
        # output distribution through compilation and branch enumeration
        import random
        rnd = random.Random(33)
        from l2mbqc.onequbit import evaluate
        for _ in range(40):
            n = rnd.randint(1, 2)
            gates = []
            for _ in range(rnd.randint(1, 5)):
                axis = rnd.choice("XZ")
                angle = rnd.uniform(-3, 3)
                kind = rnd.choice(["none", "select", "sign"])
                if kind == "none":
                    cond = Condition()
                elif kind == "select":
                    cond = Condition("select", rnd.randint(1, (1 << n) - 1))
                else:
                    cond = Condition("sign", rnd.randint(1, (1 << n) - 1),
                                     rnd.randint(0, 1))
                gates.append(Gate(axis, angle, cond))
            prog = OneQubitProgram(n, tuple(gates), flip_output=rnd.randint(0, 1))
            s = compile_to_cluster(prog)
            if s.n_qubits > 13:
                continue
            for x in range(1 << n):
                want = evaluate(prog, x).distribution
                got = sim.exact_distribution(s, x)
                assert got[0] == pytest.approx(want[0], abs=1e-9)


class TestGhzCompile:
    def test_and2_all_inputs_exact(self):
        f = boolean.and_n(2)
        s = compile_pfd_to_ghz(pfd.solve_pfd(f), f.table[0])
        assert s.n_qubits == 3
        for x in range(4):
            assert sim.exact_distribution(s, x)[f(x)] == pytest.approx(1.0, abs=1e-10)

    def test_pairwise_and_3_four_qubits(self):
        f = boolean.pairwise_and(3)
        s = compile_pfd_to_ghz(pfd.pairwise_and_decomposition(3), 0)
        assert s.n_qubits == 4
        for x in range(8):
            assert sim.exact_distribution(s, x)[f(x)] == pytest.approx(1.0, abs=1e-10)

    def test_constant_function_empty_schedule(self):
        f = boolean.constant(1, 2)
        s = compile_pfd_to_ghz(pfd.solve_pfd(f), 1)
        assert s.n_qubits == 0 and s.c == 1
        assert sim.exact_distribution(s, 0) == {0: 0.0, 1: 1.0}

    def test_nonadaptive(self):
        s = compile_pfd_to_ghz(pfd.solve_pfd(boolean.or_n(2)), 0)
        assert all(q.round == 1 and not q.a_ids for q in s.qubits)


class TestLift:
    def test_single_qubit_lift(self):
        f = boolean.parity_n(1)
        g = compile_pfd_to_ghz(pfd.solve_pfd(f), 0)
        assert g.n_qubits == 1
        lifted = lift_ghz_to_cluster(g)
        assert lifted.n_qubits == 3
        for x in range(2):
            assert sim.exact_distribution(lifted, x)[f(x)] == pytest.approx(
                1.0, abs=1e-10)

    def test_or2_lift_outputs(self):
        f = boolean.or_n(2)
        g = compile_pfd_to_ghz(pfd.solve_pfd(f), 0)
        lifted = lift_ghz_to_cluster(g)
        assert lifted.n_qubits == 7
        for x in range(4):
            assert sim.exact_distribution(lifted, x)[f(x)] == pytest.approx(
                1.0, abs=1e-10)

    def test_resource_tuple(self):
        g = compile_pfd_to_ghz(pfd.solve_pfd(boolean.and_n(2)), 0)
        rep = resources(lift_ghz_to_cluster(g))
        assert rep.as_tuple() == (7, 3, 2, 3)

    def test_adaptive_input_rejected(self):
        with pytest.raises(ValueError):
            lift_ghz_to_cluster(mod3_protocol(1))


class TestNamedProtocols:
    def test_mod3_resources(self):
        for n in (1, 2, 4, 6):
            rep = resources(mod3_protocol(n))
            assert rep.as_tuple() == (4 * n + 5, n + 2, 5, 3)

    def test_mod3_n4_is_21_qubits(self):
        assert mod3_protocol(4).n_qubits == 21

    def test_mod3_n1_exact(self):
        s = mod3_protocol(1)
        f = boolean.mod_p(3, 0, 1)
        for x in range(2):
            assert sim.exact_distribution(s, x)[f(x)] == pytest.approx(1.0, abs=1e-10)

    def test_modp_resources(self, modp_angles):
        s = modp_protocol(3, 0, 4, modp_angles[3])
        rep = resources(s)
        assert rep.l_q == 10 * 5 - 1 == 49
        assert rep.as_tuple() == (49, 6, 10, 3)

    def test_modp_p5_sampling(self, modp_angles):
        s = modp_protocol(5, 0, 3, modp_angles[5])
        f = boolean.mod_p(5, 0, 3)
        report = sim.verify_protocol(s, f, shots_per_input=200, seed=41)
        assert report.all_shots_correct
        assert report.min_analytic > 1 - 1e-9

    def test_symmetric_resources(self, symmetric_angles):
        f = boolean.pairwise_and(2)
        s = qsp_symmetric_protocol(f, 2, symmetric_angles[(0, 0, 1)])
        assert resources(s).as_tuple() == (53, 2, 18, 3)

    def test_symmetric_outputs(self, symmetric_angles):
        f = boolean.pairwise_and(2)
        s = qsp_symmetric_protocol(f, 2, symmetric_angles[(0, 0, 1)])
        for x in range(4):
            assert sim.analytic_success(s, f, x) > 1 - 1e-9


class TestOrProtocol:
    def test_zero_input_always_zero(self):
        s = or_protocol(4)
        _, ys = sim.run_schedule_batch(s, 0, 100, seed=1)
        assert not ys.any()

    def test_qubit_count_formula(self):
        for n in (2, 3, 4, 6):
            kappa = math.ceil(math.log2(n + 1))
            assert or_protocol(n).n_qubits == 2 * kappa * (n + 1) + 2 ** (kappa + 1) - 1

    def test_three_rounds(self):
        assert resources(or_protocol(4)).t_c == 3

    def test_counter_randomness_output_determinism(self):
        # the counter string varies shot to shot; the output never does
        s = or_protocol(3)
        f = boolean.or_n(3)
        kappa = s.meta["kappa"]
        for x in (1, 5, 7):
            outcomes, ys = sim.run_schedule_batch(s, x, 50, seed=x)
            assert all(int(y) == f(x) for y in ys)
        counters = set()
        outcomes, _ = sim.run_schedule_batch(s, 7, 50, seed=99)
        for shot in range(50):
            bits = []
            for b in range(kappa):
                par = 0
                for qid in s.meta["block_outputs"][b]:
                    par ^= int(outcomes[qid][shot])
                bits.append(par)
            counters.add(tuple(bits))
        assert len(counters) > 1


class TestResources:
    def test_empty_schedule(self):
        s = MeasurementSchedule(cluster1d(0), 1, (), frozenset(), 0)
        rep = resources(s)
        assert (rep.l_q, rep.l_c, rep.t_q, rep.t_c) == (0, 0, 0, 0)

    def test_structural_count_distinct_masks(self):
        s = compile_pfd_to_ghz(pfd.solve_pfd(boolean.or_n(2)), 0)
        assert resources(s).structural_l_c == 3

    def test_volume(self):
        rep = resources(mod3_protocol(4))
        assert rep.volume == (21 + 6) * (5 + 3)


class TestCompositeResource:
    def test_composite_sizes(self):
        r = composite(ghz(3), cluster1d(5))
        assert r.n_qubits == 8
        assert Resource("composite", 8, (ghz(3), cluster1d(5))) == r

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Resource("composite", 7, (ghz(3), cluster1d(5)))
