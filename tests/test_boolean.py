import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2mbqc import boolean
from l2mbqc.boolean import (BooleanFunction, and_n, anf, build, constant,
                            f_max, from_profile, from_table, mod_p,
                            nchvm_bound, or_n, pairwise_and, parity_n,
                            popcount, walsh_spectrum)
from oracles import (anf_value, anf_weight_coefficients, mod_p_anf_coeffs,
                     walsh_hadamard)


def brute_anf(f: BooleanFunction) -> frozenset[int]:
    """Independent Moebius oracle: a_S = xor of f over subsets of S."""
    coeffs = set()
    for s in range(1 << f.n):
        acc = 0
        sub = s
        while True:
            acc ^= f.table[sub]
            if sub == 0:
                break
            sub = (sub - 1) & s
        if acc:
            coeffs.add(s)
    return frozenset(coeffs)


class TestEvaluate:
    def test_mod3_zero_weight(self):
        assert mod_p(3, 0, 4)("0000") == 0

    def test_mod3_weight_three(self):
        # weight 3 is 0 mod 3, so the residue-0 test accepts
        assert mod_p(3, 0, 4)("1101") == 0

    def test_and_all_ones(self):
        assert and_n(3)("111") == 1

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            and_n(3)("11")

    @pytest.mark.parametrize("x", [np.int64(5), np.uint8(5), np.int32(5)])
    def test_numpy_integer_index(self, x):
        index = boolean.parse_input(x, 3)
        assert index == 5 and type(index) is int
        assert mod_p(3, 0, 3)(x) == 1

    def test_zero_d_integer_array_index(self):
        assert boolean.parse_input(np.array(3), 2) == 3

    @pytest.mark.parametrize("x", [True, False, np.True_, np.False_])
    def test_bool_refused(self, x):
        with pytest.raises(ValueError, match="is a bool"):
            boolean.parse_input(x, 1)


class TestBuilders:
    def test_pairwise_and_weight_two(self):
        assert pairwise_and(4)("1100") == 1

    def test_or_of_zeros(self):
        assert or_n(2)("00") == 0

    def test_mod5_matches_direct_definition(self):
        f = mod_p(5, 2, 6)
        assert f("110000") == 0  # weight 2 equals the residue
        for x in range(1 << 6):
            assert f(x) == (0 if popcount(x) % 5 == 2 else 1)

    def test_symmetric_profiles_populated(self):
        for f in (mod_p(3, 1, 4), and_n(3), or_n(3), pairwise_and(5),
                  parity_n(2), constant(1, 3)):
            assert f.is_symmetric

    def test_profile_derived_from_a_direct_table(self):
        assert BooleanFunction(2, (0, 1, 1, 0)).symmetric_profile == (0, 1, 0)
        assert BooleanFunction(2, (0, 1, 0, 0)).symmetric_profile is None

    def test_build_dispatch(self):
        assert build("and", 2).table == and_n(2).table
        with pytest.raises(ValueError):
            build("nope", 2)

    def test_arity_cap(self):
        with pytest.raises(ValueError):
            constant(0, 21)

    def test_bad_mod_p_parameters(self):
        with pytest.raises(ValueError):
            mod_p(4, 0, 3)
        with pytest.raises(ValueError):
            mod_p(3, 3, 3)


class TestAnf:
    def test_mod3_base_case(self):
        # the three-variable residue-0 counter: all degree-1 and degree-2 terms
        poly = anf(mod_p(3, 0, 3))
        assert poly.monomials == frozenset({1, 2, 4, 3, 5, 6})
        assert poly.degree == 2

    def test_constant_zero_empty(self):
        assert anf(constant(0, 3)).monomials == frozenset()

    def test_pairwise_and_all_pairs(self):
        poly = anf(pairwise_and(4))
        pairs = {(1 << i) | (1 << j) for i in range(4) for j in range(i + 1, 4)}
        assert poly.monomials == frozenset(pairs)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.randoms())
    def test_moebius_round_trip(self, n, rnd):
        table = tuple(rnd.randint(0, 1) for _ in range(1 << n))
        f = from_table(table)
        poly = anf(f)
        assert poly.monomials == brute_anf(f)
        for x in range(1 << n):
            assert anf_value(poly, x) == f.table[x]


class TestWalsh:
    def test_constant_at_zero_mask(self):
        assert walsh_hadamard(constant(0, 2), 0) == 1.0

    def test_and2_fmax(self):
        assert f_max(and_n(2)) == pytest.approx(0.5, abs=1e-15)

    def test_pairwise_and_fmax(self):
        assert f_max(pairwise_and(4)) == pytest.approx(0.25, abs=1e-15)

    def test_spectrum_matches_single_coefficients(self):
        f = mod_p(3, 1, 4)
        spec = walsh_spectrum(f)
        for k in range(1 << 4):
            assert spec[k] == pytest.approx(walsh_hadamard(f, k), abs=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.randoms())
    def test_parseval(self, n, rnd):
        f = from_table(tuple(rnd.randint(0, 1) for _ in range(1 << n)))
        assert sum(v * v for v in walsh_spectrum(f)) == pytest.approx(1.0, abs=1e-12)


class TestNchvmBound:
    def test_and2(self):
        assert nchvm_bound(and_n(2)) == pytest.approx(0.75, abs=1e-15)

    def test_pairwise_and_4(self):
        assert nchvm_bound(pairwise_and(4)) == pytest.approx(0.625, abs=1e-15)

    def test_linear_function_is_classical(self):
        assert nchvm_bound(parity_n(3)) == pytest.approx(1.0, abs=1e-15)

    def test_matches_exhaustive_linear_search(self):
        # oracle: enumerate every affine function and count agreements
        f = mod_p(3, 0, 4)
        best = 0
        for k in range(1 << 4):
            for b in (0, 1):
                hits = sum(f(x) == (popcount(k & x) & 1) ^ b
                           for x in range(1 << 4))
                best = max(best, hits)
        assert nchvm_bound(f) == pytest.approx(best / 16, abs=1e-12)


class TestModPAnfCoefficients:
    def test_base_vector(self):
        assert mod_p_anf_coeffs(3, 2)[0] == (0, 1, 1)

    def test_mod3_n3_residue0_selects_degrees_one_two(self):
        coeffs = mod_p_anf_coeffs(3, 3)
        assert tuple(v[0] for v in coeffs) == (0, 1, 1, 0)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_brute_force_anf(self, p):
        for n in range(1, 9):
            table = mod_p_anf_coeffs(p, n)
            for j in range(p):
                expected = anf_weight_coefficients(anf(mod_p(p, j, n)))
                assert expected is not None
                assert tuple(v[j] for v in table) == expected

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_some_residue_attains_full_degree(self, p):
        for n in range(1, 11):
            top = mod_p_anf_coeffs(p, n)[n]
            assert any(top)


class TestSymmetry:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.randoms(), st.randoms())
    def test_profile_functions_are_permutation_invariant(self, n, rnd, rnd2):
        prof = [rnd.randint(0, 1) for _ in range(n + 1)]
        f = from_profile(prof, n)
        perm = list(range(n))
        rnd2.shuffle(perm)
        for x in range(1 << n):
            y = sum(((x >> i) & 1) << perm[i] for i in range(n))
            assert f(x) == f(y)

    def test_zero_anchored_profile(self):
        assert or_n(3).zero_anchored_profile() == ([0, 1, 1, 1], 0)
        # mod_p reads 0 at weight 0 only when j = 0
        assert mod_p(3, 1, 3).zero_anchored_profile() == ([0, 1, 0, 0], 1)
        with pytest.raises(ValueError):
            from_table([0, 1, 0, 0]).zero_anchored_profile()


class TestSerialization:
    def test_round_trip(self):
        f = mod_p(5, 1, 4)
        g = BooleanFunction.from_json(f.to_json())
        assert g.table == f.table and g.n == f.n
        assert g.symmetric_profile == f.symmetric_profile

    def test_table_hex_shape(self):
        import json
        obj = json.loads(and_n(3).to_json())
        assert set(obj) == {"n", "kind", "params", "table_hex"}
        assert int(obj["table_hex"], 16) == 1 << 7
