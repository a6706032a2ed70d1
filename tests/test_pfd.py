import math
import random
from fractions import Fraction

import pytest

from l2mbqc import boolean, pfd
from l2mbqc.boolean import and_n, constant, from_table, or_n, pairwise_and, parity_n
from l2mbqc.mbqc import compile_pfd_to_ghz
from l2mbqc.pfd import (PeriodicDecomposition, brute_force_matrix_entry,
                        or_decomposition, or_decomposition_published,
                        pairwise_and_decomposition, sierpinski_matrix,
                        solve_pfd, sparsity_certificate, verify_pfd)


class TestSierpinski:
    def test_n1_is_identity(self):
        sys1 = sierpinski_matrix(1)
        assert sys1.matrix == ((1,),)
        assert sys1.inverse == ((Fraction(1),),)

    def test_n2_full_mask_row(self):
        # brute force: y = 11 has four subsets; half satisfy any nonzero parity
        sys2 = sierpinski_matrix(2)
        assert sys2.matrix[2] == (2, 2, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_entries_match_brute_force(self, n):
        sysn = sierpinski_matrix(n)
        masks = list(range(1, 1 << n))
        for i, y in enumerate(masks):
            for k, p in enumerate(masks):
                assert sysn.matrix[i][k] == brute_force_matrix_entry(y, p)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exact_inverse(self, n):
        # construction already multiplies M by the closed form exactly; the
        # uncached call runs that check whatever built the system first
        assert sierpinski_matrix.__wrapped__(n) == sierpinski_matrix(n)

    def test_out_of_range(self):
        for n in (0, 7, 7):  # a refused n is not cached
            with pytest.raises(ValueError):
                sierpinski_matrix(n)

    def test_built_once_per_arity(self):
        assert sierpinski_matrix(5) is sierpinski_matrix(5)


class TestSolve:
    def test_constant_zero_gives_empty_support(self):
        d = solve_pfd(constant(0, 3))
        assert d.angles == {}

    def test_or2_published_angles_pass(self):
        ref = or_decomposition_published(2)
        assert ref.angles == {1: Fraction(3, 2), 2: Fraction(3, 2),
                              3: Fraction(-1, 2)}
        ok, resid = verify_pfd(or_n(2), ref)
        assert ok and resid < 1e-12

    def test_published_or_fails_beyond_two(self):
        # the graded-magnitude formula leaves a phase of 2^(2-n) at weight
        # one, which is not an odd integer once n >= 3
        for n in (3, 4, 5):
            ok, _ = verify_pfd(or_n(n), or_decomposition_published(n))
            assert not ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_uniform_or_decomposition(self, n):
        ok, resid = verify_pfd(or_n(n), or_decomposition(n))
        assert ok and resid < 1e-12

    def test_and3_canonical_scaled_angles_all_odd(self):
        cert = sparsity_certificate(and_n(3))
        assert cert.all_odd and cert.non_integer_count == 7

    def test_odd_offset_rejected(self):
        with pytest.raises(ValueError):
            solve_pfd(or_n(2), offsets={1: 1})

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_functions_solve_and_verify(self, n):
        rnd = random.Random(n)
        for _ in range(50):
            f = from_table(tuple(rnd.randint(0, 1) for _ in range(1 << n)))
            d = solve_pfd(f)
            ok, resid = verify_pfd(f, d)
            assert ok, resid

    def test_even_offsets_preserve_validity(self):
        rnd = random.Random(9)
        for n in (2, 3):
            f = from_table(tuple(rnd.randint(0, 1) for _ in range(1 << n)))
            for _ in range(10):
                offs = {y: 2 * rnd.randint(-3, 3) for y in range(1, 1 << n)}
                d = solve_pfd(f, offsets=offs)
                ok, _ = verify_pfd(f, d)
                assert ok


class TestVerify:
    def test_constant_zero_angles(self):
        d = PeriodicDecomposition(2, {})
        ok, resid = verify_pfd(constant(0, 2), d)
        assert ok and resid == 0.0

    def test_pairwise_and_3_halves_variant(self):
        # brute force over all 8 inputs fixed the full-mask sign to -1/2
        d = pairwise_and_decomposition(3)
        assert d.angles[7] == Fraction(-1, 2)
        ok, _ = verify_pfd(pairwise_and(3), d)
        assert ok

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pairwise_and_general(self, n):
        ok, _ = verify_pfd(pairwise_and(n), pairwise_and_decomposition(n))
        assert ok

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            verify_pfd(or_n(3), or_decomposition(2))

    def test_verdict_sees_what_the_cosine_cannot(self):
        # 1-bit parity wants phase 1 at x = 1; the cosine of pi * (1 + 2^-40)
        # rounds to -1, but the phase is not an integer
        d = PeriodicDecomposition(1, {1: 1 + Fraction(1, 2**40)})
        ok, resid = verify_pfd(parity_n(1), d)
        assert not ok and resid == 0.0
        odd = PeriodicDecomposition(1, {1: Fraction(-3)})
        assert verify_pfd(parity_n(1), odd) == (True, 0.0)


class TestSparsityCertificate:
    def test_and2(self):
        cert = sparsity_certificate(and_n(2))
        assert cert.non_integer_count == 3 and cert.all_odd

    def test_parity_solution_is_integral(self):
        # a linear function needs no genuine rotations: the canonical
        # zero-offset solve returns integer angles on every mask
        cert = sparsity_certificate(parity_n(2))
        assert cert.non_integer_count == 0

    def test_constant(self):
        assert sparsity_certificate(constant(0, 3)).non_integer_count == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_degree_functions_certify(self, n):
        # any function with the full monomial has every scaled angle odd
        rnd = random.Random(17 + n)
        for _ in range(20):
            table = [rnd.randint(0, 1) for _ in range(1 << n)]
            f = from_table(tuple(table))
            poly = boolean.anf(f)
            full = (1 << n) - 1
            cert = sparsity_certificate(f)
            if full in poly.monomials:
                assert cert.all_odd
                if n >= 2:
                    # at n = 1 the lone odd multiple of 2^(n-1) is integral
                    assert cert.non_integer_count == (1 << n) - 1


class TestGhzStrategy:
    """The nonadaptive GHZ strategy: one qubit per mask in the support."""

    def test_pairwise_and_3_needs_four_qubits(self):
        d = pairwise_and_decomposition(3)
        s = compile_pfd_to_ghz(d, 0)
        assert s.n_qubits == 4
        assert [q.p_mask for q in sorted(s.qubits, key=lambda q: q.id)] == \
            d.support

    def test_or2_needs_three(self):
        assert compile_pfd_to_ghz(solve_pfd(or_n(2)), 0).n_qubits == 3

    def test_constant_is_empty(self):
        s = compile_pfd_to_ghz(solve_pfd(constant(1, 2)), 1)
        assert s.qubits == () and s.c == 1


class TestSerialization:
    def test_round_trip(self):
        d = solve_pfd(and_n(3))
        d2 = PeriodicDecomposition.from_json(d.to_json())
        assert d2.angles == d.angles and d2.n == d.n
