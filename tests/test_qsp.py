import hashlib
import itertools
import math

import mpmath
import numpy as np
import pytest

from l2mbqc import qsp
from l2mbqc.qsp import (LaurentPair, QspAngles, SynthesisError,
                        complete_and_extract_angles, reconstruct_unitary,
                        reference_angles, solve_mod_p_coeffs,
                        solve_symmetric_coeffs, unitarity_deviation,
                        verify_qsp, verify_symmetric)


class TestReferenceAngles:
    @pytest.mark.parametrize("p", [3, 5, 7, 9])
    def test_published_sets_are_deterministic(self, p):
        worst = verify_qsp(reference_angles(p), p, 0, 20)
        assert worst < 1e-10

    def test_p3_weight_one_reads_one(self):
        U = reconstruct_unitary(reference_angles(3), 4 * np.pi / 3)
        assert abs(U[1, 0]) ** 2 >= 1 - 1e-10

    def test_p5_zero_phase_reads_zero(self):
        U = reconstruct_unitary(reference_angles(5), 0.0)
        assert abs(U[0, 0]) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_unknown_modulus(self):
        with pytest.raises(KeyError):
            reference_angles(11)


class TestModPSolve:
    def test_p3_coefficients_match_hand_solution(self):
        # the three-harmonic system solves exactly to 5/9, 1/3, 1/9
        pair = solve_mod_p_coeffs(3, 0)
        assert pair.a[1] == pytest.approx(5 / 9, abs=1e-14)
        assert pair.a[3] == pytest.approx(1 / 3, abs=1e-14)
        assert pair.a[5] == pytest.approx(1 / 9, abs=1e-14)

    def test_row_sum_normalization(self):
        # at zero phase every cosine is 1, so the coefficients sum to 1
        pair = solve_mod_p_coeffs(5, 0)
        assert sum(pair.a.values()) == pytest.approx(1.0, abs=1e-13)

    def test_p5_delta_values_on_grid(self):
        pair = solve_mod_p_coeffs(5, 0)
        for w in range(5):
            phi = 4 * np.pi * w / 5
            assert pair.a_value(phi) == pytest.approx(1.0 if w == 0 else 0.0,
                                                      abs=1e-10)

    def test_grid_periodicity(self):
        # series values repeat when the weight shifts by the modulus
        pair = solve_mod_p_coeffs(7, 0)
        for w in range(4):
            a1 = pair.a_value(4 * np.pi * w / 7)
            a2 = pair.a_value(4 * np.pi * (w + 7) / 7)
            assert a1 == pytest.approx(a2, abs=1e-12)

    def test_structural_parity(self):
        pair = solve_mod_p_coeffs(3, 0)
        assert all(h % 2 == 1 for h in pair.a)
        assert all(h % 2 == 1 for h in pair.b)
        assert pair.degree == 5

    def test_residual_reported(self):
        assert solve_mod_p_coeffs(9, 0).residual < 1e-12

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            solve_mod_p_coeffs(4, 0)


class TestSymmetricSolve:
    def test_mod3_profile_n3_residual(self):
        pair = solve_symmetric_coeffs([0, 1, 1, 0], 3)
        assert pair.residual < 1e-10
        assert pair.degree == 13

    def test_value_rows_interpolate(self):
        prof = [0, 0, 1]
        pair = solve_symmetric_coeffs(prof, 2)
        q = pair.grid_period
        for w, fw in enumerate(prof):
            phi = 4 * np.pi * w / q
            assert pair.a_value(phi) == pytest.approx(1 - fw, abs=1e-10)
            assert pair.b_value(phi) == pytest.approx(fw, abs=1e-10)

    def test_zero_phase_row_sums_to_one(self):
        pair = solve_symmetric_coeffs([0, 1, 0], 2)
        assert sum(pair.a.values()) == pytest.approx(1.0, abs=1e-12)

    def test_profile_starting_at_one_rejected(self):
        with pytest.raises(SynthesisError):
            solve_symmetric_coeffs([1, 0, 1], 2)


# every profile with f(0) = 0 up to n = 3: 2 + 4 + 8 of them
ALL_PROFILES = [(0, *bits) for n in (1, 2, 3)
                for bits in itertools.product((0, 1), repeat=n)]


def _remainder_degree(pair):
    """Degree in w = z^2 of the remainder 1 - A^2 - B^2."""
    R = qsp._laurent_square_remainder(pair)
    return max(abs(e) for e, c in R.items() if abs(c) > 1e-40) // 2


class TestGridZeroDivision:
    @pytest.mark.parametrize("p", [3, 5, 7, 9, 11, 13])
    def test_mod_p_certificate(self, p, modp_angles):
        angles = (modp_angles[p] if p in modp_angles
                  else qsp.synthesize_mod_p(p, 0))
        stats = angles.stats
        deg = _remainder_degree(solve_mod_p_coeffs(p, 0))
        assert stats["division_remainder"] < qsp.COMPLETION_TOL
        assert stats["grid_zeros"] == 2 * p
        assert stats["quotient_degree"] == 2 * deg - 2 * p
        # the float seeds land next to every polished root
        assert stats["root_seed_dev"] < 1e-8
        if p == 7:
            assert stats["quotient_degree"] == 12

    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_symmetric_certificate(self, profile):
        n = len(profile) - 1
        q = 2 * n + 1
        angles = qsp.synthesize_symmetric(list(profile), n)
        deg = _remainder_degree(solve_symmetric_coeffs(list(profile), n))
        stats = angles.stats
        assert stats["division_remainder"] < qsp.COMPLETION_TOL
        assert stats["grid_zeros"] == 2 * q
        assert stats["quotient_degree"] == 2 * deg - 2 * q
        assert verify_symmetric(angles, list(profile)) < 1e-9

    def test_root_finder_sees_only_the_quotient(self, monkeypatch):
        degrees = []
        real = mpmath.polyroots

        def counting(coeffs, *args, **kwargs):
            degrees.append(len(coeffs) - 1)
            return real(coeffs, *args, **kwargs)

        monkeypatch.setattr(mpmath, "polyroots", counting)
        qsp.synthesize_mod_p(7, 0)
        assert degrees == [12]
        degrees.clear()
        # the constant-zero profile leaves a constant quotient: no root finding
        qsp.synthesize_symmetric([0, 0, 0], 2)
        assert degrees == []

    @pytest.mark.parametrize("bad_seeds", [
        lambda coeffs: np.full(len(coeffs) - 1, np.nan + 0j),
        lambda coeffs: np.full(len(coeffs) - 1, 0.3 + 0.2j),
    ], ids=["nan", "all-equal"])
    def test_root_seeds_change_speed_only(self, monkeypatch, bad_seeds):
        # useless starting points cost polish steps, never a different root
        builds = [lambda: qsp.synthesize_mod_p(5, 2),
                  lambda: qsp.synthesize_symmetric([0, 1, 0], 2)]
        seeded = [build() for build in builds]
        monkeypatch.setattr(qsp, "_seed_roots", bad_seeds)
        for build, good in zip(builds, seeded):
            angles = build()
            assert [x.hex() for x in angles.xi] == [x.hex() for x in good.xi]
            assert angles.residual == good.residual
            assert angles.stats["root_seed_dev"] > 1e-3

    def test_angles_match_pinned_values(self, modp_angles, symmetric_angles):
        # values from before the grid zeros were divided out
        np.testing.assert_allclose(modp_angles[5].xi, [
            -2.643100054737851, -2.176674541361567, -1.806152448794077,
            -1.7885794121847842, 2.895801153197672, -1.5550007680234488,
            -0.4776716611851466, 0.08708532046967239, 0.25794858359336437],
            rtol=0, atol=1e-12)
        np.testing.assert_allclose(symmetric_angles[(0, 1, 0)].xi, [
            -3.019405957908539, -2.9219061068545047, -1.700453159702252,
            -0.7845085666681999, -2.1947324005126103, -1.4525015721219354,
            -1.5342674828469243, -0.5582595374448357, 0.2389600672085269],
            rtol=0, atol=1e-12)

    def test_remainder_without_grid_zeros_rejected(self):
        # feasible (1 - A^2 >= 3/4), but nothing vanishes at the grid points
        pair = LaurentPair(1, {1: 0.5}, {}, 3, (0,), 0.0,
                           {1: mpmath.mpf("0.5")}, {})
        assert pair.min_remainder() > 0
        with pytest.raises(SynthesisError, match="grid zeros"):
            complete_and_extract_angles(pair)


def _angle_digest(angles_list):
    """sha256 of the hex angles and certificate residuals, one line a set."""
    keys = ("interp_residual", "division_remainder", "reconstruction_residual")
    h = hashlib.sha256()
    for a in angles_list:
        words = [x.hex() for x in a.xi] + [float(a.stats[k]).hex() for k in keys]
        h.update(" ".join(words).encode() + b"\n")
    return h.hexdigest()


def _profiles(n):
    return [[0, *bits] for bits in itertools.product((0, 1), repeat=n)]


class TestPinnedAngles:
    # the synthesized angles are part of the reproducibility contract: a
    # faster root finder or solver must give the same floats bit for bit
    @pytest.mark.parametrize("build, digest", [
        (lambda: [qsp.synthesize_mod_p(3, j) for j in range(3)],
         "f4c4d2e2dbd86bef2558a91541f66d5c9c4430b6bc3af9e9f5cde734b484f96b"),
        (lambda: [qsp.synthesize_mod_p(5, j) for j in range(5)],
         "658f4515b6a391712e8e8bcb85408e89a6fdaf5e9b32a9532534b5c5ef68fcaf"),
        (lambda: [qsp.synthesize_mod_p(7, j) for j in range(7)],
         "46e444ac26adb3ffe70938203432f3ce3acb768adc087deb7717afa785011954"),
        (lambda: [qsp.synthesize_mod_p(p, 0) for p in (9, 11, 13)],
         "3197e011891da807a20074a99791a1cd41e25b4fd7c00eae44211c0b86ebb706"),
        (lambda: [qsp.synthesize_symmetric(f, 2) for f in _profiles(2)],
         "281ed477395f355e9e467f436dfd85f653481dd7313cb0544f0f3d48e18a3311"),
        (lambda: [qsp.synthesize_symmetric(f, 3) for f in _profiles(3)],
         "abafc123d3b82449942664ce0ad87260318a3825b9484c1910841a06506b25af"),
    ], ids=["p3-all-j", "p5-all-j", "p7-all-j", "p9-11-13", "profiles-n2",
            "profiles-n3"])
    def test_pinned_angle_digests(self, build, digest):
        assert _angle_digest(build()) == digest


class TestCompletion:
    def test_pure_winding_gives_equal_angles(self):
        # A = cos(L phi/2), B = -sin(L phi/2) is a plain power of the X
        # rotation, so every extracted axis angle is the same
        L = 5
        pair = LaurentPair(L, {L: 1.0}, {L: -1.0}, 2 * L + 1, (0,), 0.0,
                           {L: __import__("mpmath").mpf(1)},
                           {L: __import__("mpmath").mpf(-1)})
        angles = complete_and_extract_angles(pair)
        spread = max(angles.xi) - min(angles.xi)
        assert spread < 1e-12

    def test_infeasible_pair_rejected(self):
        import mpmath as mp
        pair = LaurentPair(1, {1: 2.0}, {}, 3, (0,), 0.0,
                           {1: mp.mpf(2)}, {})
        with pytest.raises(SynthesisError):
            complete_and_extract_angles(pair)

    @pytest.mark.parametrize("p", [3, 5, 7, 9])
    def test_reconstruction_residual(self, p, modp_angles):
        assert modp_angles[p].residual < 1e-10

    def test_p3_matches_reference_functionally(self, modp_angles):
        # never compare raw angles: both sets must drive identical bits
        own, ref = modp_angles[3], reference_angles(3)
        for w in range(9):
            phi = 4 * np.pi * w / 3
            Uo = reconstruct_unitary(own, phi)
            Ur = reconstruct_unitary(ref, phi)
            target = 0 if w % 3 == 0 else 1
            assert abs(Uo[target, 0]) ** 2 > 1 - 1e-9
            assert abs(Ur[target, 0]) ** 2 > 1 - 1e-9


class TestReconstruct:
    def test_zero_phase_is_identity(self, modp_angles):
        U = reconstruct_unitary(modp_angles[3], 0.0)
        assert np.allclose(U, np.eye(2), atol=1e-12)

    def test_unitarity_random_angle_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            L = int(rng.integers(1, 12))
            angles = QspAngles(L, tuple(rng.uniform(-np.pi, np.pi, L)), 3)
            dev = unitarity_deviation(angles, float(rng.uniform(0, 4 * np.pi)))
            assert dev < 1e-13

    def test_phase_array_matches_scalar_calls(self, modp_angles):
        ang = modp_angles[5]
        phis = np.linspace(0.0, 4 * np.pi, 7)
        U = reconstruct_unitary(ang, phis, xi0=0.3)
        assert U.shape == (7, 2, 2)
        for k, phi in enumerate(phis):
            assert np.allclose(U[k], reconstruct_unitary(ang, phi, xi0=0.3),
                               atol=1e-15)

    def test_trailing_z_rotation_is_harmless(self, modp_angles):
        ang = modp_angles[3]
        phi = 4 * np.pi / 3
        U0 = reconstruct_unitary(ang, phi)
        U1 = reconstruct_unitary(ang, phi, xi0=0.7)
        assert abs(abs(U0[1, 0]) - abs(U1[1, 0])) < 1e-14

    def test_order_and_sign_inversion_preserve_readout(self):
        # probabilities are invariant under reversing the sequence and
        # flipping every axis angle
        ref = reference_angles(5)
        flipped = QspAngles(ref.length, tuple(-x for x in reversed(ref.xi)), 5)
        for w in range(5):
            phi = 4 * np.pi * w / 5
            a = abs(reconstruct_unitary(ref, phi)[1, 0]) ** 2
            b = abs(reconstruct_unitary(flipped, phi)[1, 0]) ** 2
            assert a == pytest.approx(b, abs=1e-12)


class TestVerify:
    def test_reference_p7_long_sweep(self):
        assert verify_qsp(reference_angles(7), 7, 0, 10) < 1e-10

    def test_own_p3_deep_sweep(self, modp_angles):
        assert verify_qsp(modp_angles[3], 3, 0, 8) < 1e-9

    def test_all_residues_via_phase_shift(self, modp_angles):
        for p in (3, 5):
            for j in range(p):
                assert verify_qsp(modp_angles[p], p, j, 12) < 1e-9

    def test_constant_zero_profile(self):
        angles = qsp.synthesize_symmetric([0, 0, 0], 2)
        assert verify_symmetric(angles, [0, 0, 0]) < 1e-12

    def test_symmetric_profiles(self, symmetric_angles):
        for prof, angles in symmetric_angles.items():
            assert verify_symmetric(angles, list(prof)) < 1e-9


class TestSerialization:
    def test_round_trip(self, modp_angles):
        a = modp_angles[3]
        b = QspAngles.from_json(a.to_json())
        assert b.xi == a.xi and b.length == a.length
        assert b.grid_period == a.grid_period
        assert b.stats == a.stats and b.stats["grid_zeros"] == 6

    def test_json_without_stats_still_loads(self):
        a = QspAngles.from_json('{"L": 1, "xi": [0.5], "grid_period": 3}')
        assert a.stats == {} and a.xi == (0.5,)

    def test_target_records_the_request(self, modp_angles):
        a = modp_angles[3]
        assert a.target == {"values": [0, 1], "p": 3, "j": 0}
        assert qsp.synthesize_mod_p(3, 1).target["j"] == 1
