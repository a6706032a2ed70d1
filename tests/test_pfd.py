import functools
import math
import random
from fractions import Fraction

import pytest

from l2mbqc import boolean, cli
from l2mbqc.boolean import and_n, constant, from_table, or_n, pairwise_and, parity_n
from l2mbqc.mbqc import compile_pfd_to_ghz
from l2mbqc.pfd import (PeriodicDecomposition, or_decomposition,
                        or_decomposition_published, pairwise_and_decomposition,
                        solve_pfd, sparsity_certificate, verify_pfd)
from oracles import brute_force_matrix_entry, dot2, sierpinski_matrix


class TestSierpinski:
    def test_n1_is_identity(self):
        assert sierpinski_matrix(1) == (((1,),), ((Fraction(1),),))

    def test_n2_full_mask_row(self):
        # brute force: y = 11 has four subsets; half satisfy any nonzero parity
        assert sierpinski_matrix(2)[0][2] == (2, 2, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_entries_match_brute_force(self, n):
        M, _ = sierpinski_matrix(n)
        masks = list(range(1, 1 << n))
        for i, y in enumerate(masks):
            for k, p in enumerate(masks):
                assert M[i][k] == brute_force_matrix_entry(y, p)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exact_inverse(self, n):
        # construction multiplies M by the closed form exactly
        sierpinski_matrix(n)


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

    @pytest.mark.parametrize("key", [0, 4, -1])
    def test_offset_key_outside_the_masks_rejected(self, key):
        # an offset on a non-mask key would otherwise be dropped unread
        with pytest.raises(ValueError, match=rf"1\.\.3, got \[{key}\]"):
            solve_pfd(or_n(2), offsets={key: 2})

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


@functools.cache
def _inverse(n):
    return sierpinski_matrix(n)[1]


def _matrix_solve(f, offsets=None):
    """The rational oracle: phi = M^{-1} (a + k) as a row-times-vector product."""
    inverse = _inverse(f.n)
    masks = range(1, 1 << f.n)
    monomials = boolean.anf(f).monomials
    rhs = [(y in monomials) + (offsets or {}).get(y, 0) for y in masks]
    angles = {}
    for i, p in enumerate(masks):
        phi = sum((inverse[i][j] * rhs[j] for j in range(len(rhs))), Fraction(0))
        if phi != 0:
            angles[p] = phi
    return PeriodicDecomposition(f.n, angles)


def _phase_sum_verify(f, d):
    """The per-input oracle: phase(x) as a sum of angles over odd parities."""
    ok, worst = True, 0.0
    for x in range(1 << f.n):
        phase = sum((phi for mask, phi in d.angles.items()
                     if dot2(mask, x)), Fraction(0))
        flip = f.table[x] ^ f.table[0]
        ok = ok and phase.denominator == 1 and phase.numerator % 2 == flip
        worst = max(worst, abs(math.cos(math.pi * float(phase))
                               - (-1.0 if flip else 1.0)))
    return ok, worst


def _oracle_cases():
    """Every function of n <= 3, then seeded ones at n = 4..6, with and
    without even offsets."""
    rnd = random.Random(24)
    functions = [from_table(tuple((bits >> x) & 1 for x in range(1 << n)))
                 for n in (1, 2, 3) for bits in range(1 << (1 << n))]
    functions += [from_table(tuple(rnd.randint(0, 1) for _ in range(1 << n)))
                  for n in (4, 5, 6) for _ in range(12)]
    for f in functions:
        yield f, None
        yield f, {y: 2 * rnd.randint(-3, 3) for y in range(1, 1 << f.n)}


class TestTransformOracle:
    """The butterflies against the rational matrix they replace."""

    def test_solve_matches_matrix_product(self):
        for f, offsets in _oracle_cases():
            d = solve_pfd(f, offsets)
            assert d == _matrix_solve(f, offsets), (f.table, offsets)
            assert verify_pfd(f, d) == _phase_sum_verify(f, d)

    def test_verify_matches_phase_sums_on_closed_forms(self):
        cases = [(or_n(n), build(n)) for n in range(1, 7)
                 for build in (or_decomposition, or_decomposition_published)]
        cases += [(pairwise_and(n), pairwise_and_decomposition(n))
                  for n in range(2, 7)]
        for f, d in cases:
            assert verify_pfd(f, d) == _phase_sum_verify(f, d)
        # the published OR fails from n = 3 on (ERRATA §1): a false verdict
        assert not verify_pfd(or_n(3), or_decomposition_published(3))[0]

    def test_no_production_path_builds_the_matrix(self, capsys):
        # the matrix lives in the test oracles, out of reach of src/; the
        # production paths still run at the arity cap
        f = boolean.mod_p(3, 0, 6)
        d = solve_pfd(f, {1: 2})
        assert verify_pfd(f, d)[0]
        assert sparsity_certificate(f).n == 6
        assert compile_pfd_to_ghz(solve_pfd(f), f.table[0]).n_qubits > 0
        assert cli.main(["pfd", "--fn", "mod3", "--n", "6"]) == 0
        assert cli.main(["table1", "--n", "6"]) == 0
        assert "nonadaptive-ghz" in capsys.readouterr().out
