import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2mbqc import boolean, pfd
from l2mbqc.onequbit import (Condition, Gate, OneQubitProgram,
                             build_commuting_program, build_mod3_clifford,
                             build_qsp_program, build_symmetric_program,
                             normalize_sign_form, or_reduction_bank)
from l2mbqc.qsp import reference_angles
from oracles import (CLIFFORD_CYCLE, X, Y, Z, counter_bit_is_certain_one,
                     counter_bit_probability, counter_distribution,
                     moore_counter, output_bit, program_unitary, readout,
                     truth_table)


@st.composite
def small_programs(draw):
    n = draw(st.integers(1, 3))
    count = draw(st.integers(1, 6))
    gates = []
    for _ in range(count):
        axis = draw(st.sampled_from(["X", "Z"]))
        angle = draw(st.floats(-3.0, 3.0, allow_nan=False))
        kind = draw(st.sampled_from(["none", "select", "sign"]))
        if kind == "none":
            cond = Condition()
        else:
            cond = Condition(kind, draw(st.integers(1, (1 << n) - 1)),
                             draw(st.integers(0, 1)) if kind == "sign" else 0)
        gates.append(Gate(axis, angle, cond))
    return OneQubitProgram(n, tuple(gates))


class TestEvaluate:
    def test_empty_program_outputs_zero(self):
        prog = OneQubitProgram(1, ())
        assert output_bit(prog, 0) == 0

    def test_mod3_clifford_specific_input(self):
        # weight 2: the conjugated generator lands on the Y axis, reading 1
        prog = build_mod3_clifford(3)
        assert output_bit(prog, "110") == 1

    def test_qsp_mod5_full_truth_table(self, modp_angles):
        prog = build_qsp_program(5, 0, 5, modp_angles[5])
        assert truth_table(prog) == boolean.mod_p(5, 0, 5).table


class TestMod3Clifford:
    def test_cycle_gate_matches_exponential(self):
        # conjugation by the cycle gate sends Z to X, X to Y and Y to Z
        for src, dst in ((Z, X), (X, Y), (Y, Z)):
            conj = CLIFFORD_CYCLE @ src @ CLIFFORD_CYCLE.conj().T
            assert np.max(np.abs(conj - dst)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_truth_tables(self, n):
        assert truth_table(build_mod3_clifford(n)) == boolean.mod_p(3, 0, n).table

    def test_abstract_gate_count(self):
        for n in (1, 3, 6):
            assert build_mod3_clifford(n).meta["abstract_gate_count"] == 2 * n + 1

    def test_n1_zero_input(self):
        assert output_bit(build_mod3_clifford(1), 0) == 0


class TestQspProgram:
    def test_gate_count_formula(self):
        ref = reference_angles(3)
        assert build_qsp_program(3, 0, 4, ref).gate_count == 5 * 4 + 6

    def test_residue_adds_one_offset_per_block(self, modp_angles):
        # (2p-1)n + 2p gates plus one offset rotation in each of 2p-1 blocks
        assert build_qsp_program(3, 2, 4, modp_angles[3]).gate_count == 26 + 5

    @pytest.mark.parametrize("n", [0, -2])
    def test_nonpositive_arity_rejected(self, n):
        with pytest.raises(ValueError, match="n >= 1"):
            build_qsp_program(3, 0, n, reference_angles(3))

    def test_reference_angles_n2(self):
        prog = build_qsp_program(3, 0, 2, reference_angles(3))
        assert output_bit(prog, "11") == 1

    def test_zero_input_matches_function(self, modp_angles):
        for p, j in ((3, 0), (5, 2)):
            prog = build_qsp_program(p, j, 3, modp_angles[p])
            assert output_bit(prog, 0) == boolean.mod_p(p, j, 3)(0)

    def test_nonzero_residue_truth_table(self, modp_angles):
        prog = build_qsp_program(3, 2, 4, modp_angles[3])
        assert truth_table(prog) == boolean.mod_p(3, 2, 4).table

    def test_unverified_angles_rejected(self):
        from l2mbqc.qsp import QspAngles
        bogus = QspAngles((0.1, 0.2, 0.3, 0.4, 0.5), 3)
        with pytest.raises(ValueError):
            build_qsp_program(3, 0, 2, bogus)


class TestSymmetricProgram:
    def test_gate_count_n2(self, symmetric_angles):
        f = boolean.pairwise_and(2)
        prog = build_symmetric_program(f, 2, symmetric_angles[(0, 0, 1)])
        assert prog.gate_count == 28

    def test_zero_input_zero_function(self, symmetric_angles):
        f = boolean.pairwise_and(2)
        prog = build_symmetric_program(f, 2, symmetric_angles[(0, 0, 1)])
        assert output_bit(prog, 0) == 0

    def test_mod31_n3_truth_table(self, symmetric_angles):
        # value 1 at weight zero flips the classical output bit
        f = boolean.mod_p(3, 1, 3)
        prog = build_symmetric_program(f, 3, symmetric_angles[(0, 1, 0, 0)])
        assert prog.flip_output == 1
        assert truth_table(prog) == f.table


class TestCommutingProgram:
    def test_or2_outputs(self):
        prog = build_commuting_program(pfd.solve_pfd(boolean.or_n(2)))
        assert truth_table(prog) == boolean.or_n(2).table

    def test_zero_decomposition_constant(self):
        prog = build_commuting_program(pfd.solve_pfd(boolean.constant(0, 2)))
        assert truth_table(prog) == (0, 0, 0, 0)

    def test_pairwise_and_3(self):
        prog = build_commuting_program(pfd.pairwise_and_decomposition(3))
        assert truth_table(prog) == boolean.pairwise_and(3).table

    def test_gate_order_invariance(self):
        # all rotations share the X axis, so any permutation evaluates alike
        prog = build_commuting_program(pfd.solve_pfd(boolean.and_n(2)))
        rev = OneQubitProgram(prog.n, tuple(reversed(prog.gates)))
        for x in range(4):
            assert np.allclose(program_unitary(prog, x),
                               program_unitary(rev, x), atol=1e-12)


class TestNormalizeSignForm:
    def test_select_substitution_identity(self):
        gate = Gate("X", math.pi / 3, Condition("select", 1))
        prog = OneQubitProgram(1, (gate,))
        ns = normalize_sign_form(prog)
        for x in (0, 1):
            assert readout(ns, x) == pytest.approx(readout(prog, x), abs=1e-12)

    def test_no_select_gates_remain(self):
        ns = normalize_sign_form(build_mod3_clifford(2))
        assert all(g.cond.kind != "select" for g in ns.gates)

    @settings(max_examples=40, deadline=None)
    @given(small_programs())
    def test_unitary_preserved_up_to_phase(self, prog):
        ns = normalize_sign_form(prog)
        for x in range(1 << prog.n):
            U, V = program_unitary(prog, x), program_unitary(ns, x)
            assert abs(abs(np.trace(U.conj().T @ V)) - 2) < 1e-10

    @pytest.mark.parametrize("kappa", [4, 5, 6])
    def test_residue_is_the_exactly_rounded_sum(self, kappa):
        # at these kappa a per-gate running sum is off by up to 2.2e-15
        prog = build_commuting_program(pfd.or_decomposition(kappa))
        residue = normalize_sign_form(prog).gates[-1]
        halves = [Fraction(g.angle / 2) for g in prog.gates]
        assert residue.cond.kind == "none"
        assert residue.angle == float(sum(halves))


class TestOrReductionBank:
    def test_zero_input_all_zero(self):
        for prog in or_reduction_bank(4):
            assert output_bit(prog, 0) == 0

    def test_weight_two_bit_two_certain(self):
        bank = or_reduction_bank(4)
        assert readout(bank[1], "1100")[1] == pytest.approx(1.0, abs=1e-12)
        assert counter_bit_is_certain_one(2, 2)

    def test_register_width(self):
        # one extra bit over the naive log so weight n never wraps to zero
        assert len(or_reduction_bank(4)) == 3
        assert len(or_reduction_bank(7)) == 3
        assert len(or_reduction_bank(8)) == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_support_never_aliases(self, n):
        bank = or_reduction_bank(n)
        for w in range(1, n + 1):
            pr_all_zero = 1.0
            certain = False
            for mu, prog in enumerate(bank, 1):
                pr_all_zero *= 1 - counter_bit_probability(mu, w)
                certain = certain or counter_bit_is_certain_one(mu, w)
            assert certain and pr_all_zero == pytest.approx(0.0, abs=1e-30)

    def test_weight_four_aliases_under_narrow_register(self):
        # with only ceil(log2 n) = 2 counter bits at n = 4, weight 4 wraps
        # to the all-zero counter even though OR is 1
        for mu in (1, 2):
            assert counter_bit_probability(mu, 4) == pytest.approx(0.0, abs=1e-30)


class TestProgramSerialization:
    def test_round_trip(self):
        prog = build_mod3_clifford(2)
        back = OneQubitProgram.from_json(prog.to_json())
        assert back.gates == prog.gates
        assert back.n == prog.n and back.flip_output == prog.flip_output

    def test_schema_fields(self):
        import json
        obj = json.loads(build_mod3_clifford(1).to_json())
        gate = obj["gates"][1]
        assert set(gate) == {"axis", "theta", "cond"}
        assert gate["cond"]["type"] == "select"


class TestMooreCounter:
    def test_unitary_is_dft_conjugated_diagonal(self):
        M = moore_counter(3)
        assert np.max(np.abs(M @ M.conj().T - np.eye(len(M)))) < 1e-12
        # the counter must increment each basis state below the modulus
        for a in range(3):
            col = M[:, a]
            target = (a + 1) % 3
            assert abs(col[target]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_steps(self):
        dist = counter_distribution(5, 0)
        assert dist[0] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("p", [3, 5])
    def test_counter_support(self, p):
        for w in range(11):
            pr0 = counter_distribution(p, w)[0]
            if w % p == 0:
                assert pr0 == pytest.approx(1.0, abs=1e-12)
            else:
                assert pr0 == pytest.approx(0.0, abs=1e-12)
