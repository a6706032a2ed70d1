import functools
import hashlib
import itertools
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2mbqc import qsp
from l2mbqc.qsp import (LaurentPair, QspAngles, SynthesisError,
                        complete_and_extract_angles, reconstruct_unitary,
                        reference_angles, solve_mod_p_coeffs,
                        solve_symmetric_coeffs, verify_qsp, verify_symmetric)
from oracles import rot_x, rot_z


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
        with pytest.raises(ValueError, match=r"p=11; published tables cover "
                                             r"p = 3, 5, 7, 9$"):
            reference_angles(11)


class TestModPSolve:
    def test_p3_coefficients_match_hand_solution(self):
        # the three-harmonic system solves exactly to 5/9, 1/3, 1/9
        # (harmonics 1, 3, 5 at indices 0, 1, 2)
        pair = solve_mod_p_coeffs(3, 0)
        assert float(pair.a[0]) == pytest.approx(5 / 9, abs=1e-14)
        assert float(pair.a[1]) == pytest.approx(1 / 3, abs=1e-14)
        assert float(pair.a[2]) == pytest.approx(1 / 9, abs=1e-14)

    def test_row_sum_normalization(self):
        # at zero phase every cosine is 1, so the coefficients sum to 1
        pair = solve_mod_p_coeffs(5, 0)
        assert float(sum(pair.a)) == pytest.approx(1.0, abs=1e-13)

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
        # one coefficient per odd harmonic 1, 3, ..., degree
        pair = solve_mod_p_coeffs(3, 0)
        assert pair.degree == 5
        assert pair.a.shape == pair.b.shape == (3,)
        with pytest.raises(ValueError, match="harmonic"):
            _pair([1, 0, 0], [0, 0], 3)

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
        assert float(sum(pair.a)) == pytest.approx(1.0, abs=1e-12)

    def test_profile_starting_at_one_rejected(self):
        with pytest.raises(SynthesisError):
            solve_symmetric_coeffs([1, 0, 1], 2)


# every profile with f(0) = 0 up to n = 3: 2 + 4 + 8 of them
ALL_PROFILES = [(0, *bits) for n in (1, 2, 3)
                for bits in itertools.product((0, 1), repeat=n)]


def _pair(a, b, q):
    """A hand-built pair; coefficient j belongs to harmonic 2j + 1."""
    return LaurentPair([mpmath.mpf(c) for c in a],
                       [mpmath.mpf(c) for c in b], q, (0,), 0.0)


def _lu_interpolant(q, values):
    """The interpolation conditions as two q x q systems, solved by LU.

    Value rows pin A = 1 - f at w = 0..(q-1)/2 and B = f at w = 1..(q-1)/2
    on phi_w = 4*pi*w/q; zero-slope rows fill the other grid points.  An
    oracle independent of the closed form: every entry comes from mp.cos
    and mp.sin of its own angle.
    """
    mp = mpmath
    with mp.workdps(qsp.SYNTHESIS_DPS):
        half = (q - 1) // 2
        harms = range(1, 2 * q, 2)
        grid = [4 * mp.pi * w / q for w in range(half + 1)]

        def solve(value, slope, vals, first):
            rows = [[value(h * grid[w] / 2) for h in harms]
                    for w in range(first, half + 1)]
            rows += [[h * slope(h * grid[w] / 2) for h in harms]
                     for w in range(1 - first, half + 1)]
            rhs = [vals[w] for w in range(first, half + 1)] + [0] * (half + first)
            return list(mp.lu_solve(mp.matrix(rows), mp.matrix(rhs)))

        return (solve(mp.cos, mp.sin, [1 - v for v in values], 0),
                solve(mp.sin, mp.cos, list(values), 1))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: solve_symmetric_coeffs([0], 0), id="q1"),
    *(pytest.param(functools.partial(solve_mod_p_coeffs, p), id=f"mod{p}")
      for p in (3, 5, 7, 9, 13, 23)),
    *(pytest.param(functools.partial(solve_symmetric_coeffs, list(f), len(f) - 1),
                   id="".join(map(str, f))) for f in ALL_PROFILES),
])
def test_closed_form_matches_lu_solve(build):
    pair = build()
    a, b = _lu_interpolant(pair.grid_period, pair.target_values)
    gaps = [abs(x - y) for x, y in zip([*pair.a, *pair.b], a + b)]
    assert len(gaps) == 2 * pair.grid_period
    assert max(gaps) <= 1e-45
    assert pair.residual <= 1e-45


def _remainder(pair):
    """The remainder 1 - A^2 - B^2 at scale 2^(2F), w^m at index m + L."""
    A = qsp._z_series(pair.a, 1)
    iB = qsp._z_series(pair.b, -1)
    rho = np.convolve(iB, iB) - np.convolve(A, A)
    rho[pair.degree] += qsp._ONE ** 2
    return rho


def _remainder_degree(pair):
    """Degree in w = z^2 of the remainder 1 - A^2 - B^2."""
    L, tiny = pair.degree, qsp._ONE ** 2 // 10 ** 40
    return max(abs(k - L) for k, c in enumerate(_remainder(pair)) if abs(c) > tiny)


def _quotient(pair, deg):
    """The remainder of degree ``deg`` with its double grid zeros divided out."""
    L = pair.degree
    quot, _ = qsp._divide_grid_zeros(_remainder(pair)[L - deg:L + deg + 1],
                                     pair.grid_period)
    return quot


_SEED_RNG = random.Random(5)
# two profiles whose quotient roots spread from 0.018 to 57 in modulus, and
# a seeded sample of 4 nonconstant profiles at each n = 5..8
SEED_PROFILES = [(0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1, 0)]
SEED_PROFILES += [(0, *((m >> i) & 1 for i in range(n))) for n in (5, 6, 7, 8)
                  for m in _SEED_RNG.sample(range(1, 1 << n), 4)]


class TestGridZeroDivision:
    @pytest.mark.parametrize("p", [3, 5, 7, 9, 11, 13, 17, 23, 31, 41])
    def test_mod_p_certificate(self, p, modp_angles):
        angles = (modp_angles[p] if p in modp_angles
                  else qsp.synthesize_mod_p(p, 0))
        stats = angles.stats
        deg = _remainder_degree(solve_mod_p_coeffs(p, 0))
        assert stats["division_remainder"] < qsp.COMPLETION_TOL
        assert stats["grid_zeros"] == 2 * p
        assert stats["quotient_degree"] == 2 * deg - 2 * p
        assert stats["reciprocal_dev"] < qsp.RECIPROCAL_TOL
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
        assert stats["reciprocal_dev"] < qsp.RECIPROCAL_TOL
        assert verify_symmetric(angles, list(profile)) < 1e-9

    def test_root_finder_sees_only_the_quotient(self, monkeypatch):
        degrees = []
        real = qsp._polish_root

        def counting(quot, seed):
            degrees.append(len(quot) - 1)
            return real(quot, seed)

        monkeypatch.setattr(qsp, "_polish_root", counting)
        # the degree-12 quotient at p = 7 is self-reciprocal: one polish from
        # each of its 6 roots inside the circle
        qsp.synthesize_mod_p(7, 0)
        assert degrees == [12] * 6
        degrees.clear()
        # the constant-zero profile leaves a constant quotient: no polish
        qsp.synthesize_symmetric([0, 0, 0], 2)
        assert degrees == []

    @pytest.mark.parametrize("bad_roots", [
        lambda coeffs: np.full(len(coeffs) - 1, np.nan + 0j),
        lambda coeffs: np.full(len(coeffs) - 1, 0.3 + 0.2j),
    ], ids=["nan", "all-equal"])
    def test_root_seeds_change_speed_only(self, monkeypatch, bad_roots):
        # there is no fallback root finder: without one seed inside the
        # circle for each root there, synthesis stops (none are inside for
        # NaN roots; all 2d are for the equal ones)
        monkeypatch.setattr(qsp.np, "roots", bad_roots)
        for p in (5, 7, 9):
            with pytest.raises(SynthesisError,
                               match=r"companion roots lie inside the circle"):
                qsp.synthesize_mod_p(p, 0)

    def test_seeds_converging_to_one_root_rejected(self, monkeypatch):
        # d copies of one good seed all polish to the same root
        real = qsp._seed_roots
        monkeypatch.setattr(qsp, "_seed_roots",
                            lambda quot: np.full_like(real(quot), real(quot)[0]))
        with pytest.raises(SynthesisError, match="two seeds converged to one root"):
            qsp.synthesize_mod_p(7, 0)

    def test_unconverged_polish_rejected(self, monkeypatch):
        # one Newton step from a float seed moves ~1e-15, far above the
        # 2^(20 - F) stop rule
        monkeypatch.setattr(qsp, "_POLISH_STEPS", 1)
        with pytest.raises(SynthesisError, match="root polish did not converge "
                                                 "within 1 steps"):
            qsp.synthesize_mod_p(5, 0)

    def test_polish_reaches_the_layout_resolution(self):
        # every polished root of the p = 41 quotient is settled: the next
        # Newton step |Q / Q'| would be below the stop rule's 2^(20 - F)
        pair = solve_mod_p_coeffs(41, 0)
        deg = _remainder_degree(pair)
        quot = _quotient(pair, deg)
        slopes = [(k * c, 0) for k, c in enumerate(quot)][1:]
        for seed in qsp._seed_roots(quot):
            w = qsp._polish_root(quot, seed)
            value = qsp._horner([(c, 0) for c in quot], w)
            slope = qsp._horner(slopes, w)
            assert qsp._abs(*value) <= qsp._abs(*slope) >> (qsp._FRAC_BITS - 20)

    @pytest.mark.parametrize("profile", SEED_PROFILES,
                             ids=lambda f: "".join(map(str, f)))
    def test_seeds_land_on_every_root(self, profile):
        n = len(profile) - 1
        angles = qsp.synthesize_symmetric(list(profile), n)
        assert angles.stats["root_seed_dev"] < 1e-8
        assert verify_symmetric(angles, list(profile)) < 1e-9

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

    def test_perturbed_roots_fail_identity_check(self, monkeypatch):
        # a 1e-20 relative error in every root is far past the 1e-25 check
        real = qsp._polish_root

        def scaled(quot, seed):
            return tuple(x + x // 10 ** 20 for x in real(quot, seed))

        monkeypatch.setattr(qsp, "_polish_root", scaled)
        with pytest.raises(SynthesisError, match="failed identity check"):
            qsp.synthesize_mod_p(5, 0)

    def test_quotient_off_reciprocal_rejected(self, monkeypatch):
        # a 1e-20 relative error in one coefficient is far past the tolerance
        real = qsp._divide_grid_zeros

        def perturbed(poly, q):
            quot, rest = real(poly, q)
            quot[1] *= 1 + mpmath.mpf("1e-20")
            return quot, rest

        monkeypatch.setattr(qsp, "_divide_grid_zeros", perturbed)
        with pytest.raises(SynthesisError, match="self-reciprocal"):
            qsp.synthesize_mod_p(5, 0)

    def test_zero_on_circle_rejected(self, monkeypatch):
        # the first polished root is moved radially onto the unit circle
        real = qsp._polish_root
        calls = []

        def on_circle(quot, seed):
            wr, wi = real(quot, seed)
            calls.append(seed)
            if len(calls) > 1:
                return wr, wi
            n = qsp._abs(wr, wi)
            return wr * qsp._ONE // n, wi * qsp._ONE // n

        monkeypatch.setattr(qsp, "_polish_root", on_circle)
        with pytest.raises(SynthesisError, match="zero on the circle off the grid"):
            qsp.synthesize_mod_p(5, 0)

    def test_remainder_without_grid_zeros_rejected(self):
        # feasible (1 - A^2 >= 3/4), but nothing vanishes at the grid points
        pair = _pair(["0.5"], [0], 3)
        assert pair.min_remainder() > 0
        with pytest.raises(SynthesisError, match="grid zeros"):
            complete_and_extract_angles(pair)


_RESIDUALS = ("interp_residual", "division_remainder")


def _angle_digest(angles_list, keys=_RESIDUALS + ("reconstruction_residual",)):
    """sha256 of the hex angles and certificate residuals, one line a set."""
    h = hashlib.sha256()
    for a in angles_list:
        words = [x.hex() for x in a.xi] + [float(a.stats[k]).hex() for k in keys]
        h.update(" ".join(words).encode() + b"\n")
    return h.hexdigest()


def _profiles(n):
    return [[0, *bits] for bits in itertools.product((0, 1), repeat=n)]


_PINNED_SETS = {
    "p3-all-j": lambda: [qsp.synthesize_mod_p(3, j) for j in range(3)],
    "p5-all-j": lambda: [qsp.synthesize_mod_p(5, j) for j in range(5)],
    "p7-all-j": lambda: [qsp.synthesize_mod_p(7, j) for j in range(7)],
    "p9-11-13": lambda: [qsp.synthesize_mod_p(p, 0) for p in (9, 11, 13)],
    "profiles-n2": lambda: [qsp.synthesize_symmetric(f, 2) for f in _profiles(2)],
    "profiles-n3": lambda: [qsp.synthesize_symmetric(f, 3) for f in _profiles(3)],
}


@functools.cache
def _pinned_set(name):
    return _PINNED_SETS[name]()


def _pins(digests):
    return [pytest.param(name, d, id=name) for name, d in digests.items()]


class TestPinnedAngles:
    # the synthesized angles are part of the reproducibility contract: a
    # faster root finder or solver must give the same floats bit for bit
    @pytest.mark.parametrize("name, digest", _pins({
        "p3-all-j": "611b75868b304be1d8b07206d55e9d2a8e425acac4aa54de52939b2d1f83499d",
        "p5-all-j": "898540977a50e6bb081e2927c9f14463d01e3cf172aa8eec4ff17b5f80af6b97",
        "p7-all-j": "115edeb37eafe422a0ec02ae5e6860ca9601680fb06e185552e68cfbfe17b4d4",
        "p9-11-13": "d166e086d1b849ef4287c6e1073817b9ca90c1d37b289a397e866262dfe2fd7b",
        "profiles-n2": "b0c0ff12aa259e0e63721e97ad050c41748d17c2037a1fc2905a328fea966dbf",
        "profiles-n3": "1070ab763b6a8c59cfce3e908c6a6affaa13e41f635252fe952f877eeaf5e31c",
    }))
    def test_pinned_angles_and_solver_residuals(self, name, digest):
        # division_remainder is the exact leftover of the interpolant as
        # rounded to the fixed-point layout, so these and the full digests
        # move with that rounding
        assert _angle_digest(_pinned_set(name), _RESIDUALS) == digest

    @pytest.mark.parametrize("name, digest", _pins({
        "p3-all-j": "17671979c13c9ae20eea2c8e0619b501fc6fdaebfae32e48d63f2ad0b65176a8",
        "p5-all-j": "9df0e601b393da8f2fd678357a096eed160cfbad4d98e9b9ff7666dc05dfed28",
        "p7-all-j": "8eb19d02bceca698c87da7c54af1cb4307eb2022d7f5eee273a8550ce472911d",
        "p9-11-13": "31a4bddaf699cb4ef0148796d9bb3f7f9a990a7219ec64159ceabca950a0c3ee",
        "profiles-n2": "ed89ded74fd51631e169af568edbb22c1aad9083976bd8468213378ff31cf7d7",
        "profiles-n3": "8b82f215ed2f18660b417720f168c5f1643521a74456c79b5050e08e00cabb84",
    }))
    def test_pinned_angle_digests(self, name, digest):
        # also pins the float reconstruction residual, which follows the
        # rounding of the rotation-product kernel
        assert _angle_digest(_pinned_set(name)) == digest

    # leaves out division_remainder, the 1e-50 leftover of the exact
    # division, which follows the rounding of the interpolant; the angles
    # and the other residuals must not move with it
    @pytest.mark.parametrize("name, digest", _pins({
        "p3-all-j": "54eb127abacb066209db3d7e641cde57b0cebca4eea666d02a95cc46cd2eae86",
        "p5-all-j": "982a98ca9418ecf6ad6f596dfe32abe487b4162f3a30ce3b54c9f3e6fd0ad3bc",
        "p7-all-j": "b5026511ed56bfa8689f704d62a0f3f0622bca95052ccef11f0e1765dd049bf0",
        "p9-11-13": "09da2baccf1dc31bdfac6635b23cbafcf8a6ddf5e183957534049e08ca819807",
        "profiles-n2": "c3dd5bee7a0690e48a6f1454bf5ea9daf9485d15bb175f3f4b80d57dc06eb790",
        "profiles-n3": "598676385ed6f648452a5ce02b7d0dffdfe744e760b4d4dd5c65f9c1b775756d",
    }))
    def test_pinned_angles_and_seed_deviation(self, name, digest):
        keys = ("interp_residual", "reconstruction_residual", "root_seed_dev")
        assert _angle_digest(_pinned_set(name), keys) == digest

    # the float outputs alone, free of the 1e-50 residues of the exact
    # stages: a different interpolation or division order must not move them
    @pytest.mark.parametrize("name, digest", _pins({
        "p3-all-j": "6d1959f202673c36cc0325cb2d0eb8910ab485f57a24f4141a4752a7a8ea1554",
        "p5-all-j": "a1452f6523e55373df0cf744446f744a7ac0c240aaef69bd4bd75e279fe6bed2",
        "p7-all-j": "a819e760bd720f94b8057dc50e1465161524d1f4a84ed11dbe27e4534667ed91",
        "p9-11-13": "0caedb3561f7be5671c738f49b7ce325cc4fdd8d62e15eefa67409e3115418c5",
        "profiles-n2": "6150906fe7f24702dfd7f22093627bfa6d4f981c8a50b55e7f6584811acc10a1",
        "profiles-n3": "760722e14931e1628f6ba27805d30665b6be044f92db84c87826834064da81c9",
    }))
    def test_pinned_angles_and_float_certificates(self, name, digest):
        keys = ("reconstruction_residual", "root_seed_dev")
        assert _angle_digest(_pinned_set(name), keys) == digest

    @pytest.mark.parametrize("p, digest", [
        pytest.param(15, "5723a2b8726ca464f66e8b4009308b64c6430c3c83bb0459938ae388beb3eb00", id="p15"),
        pytest.param(17, "53ad5e04936b5c967e98e9198287c8d164d1dcfdd0b439ae6984699887caf959", id="p17"),
        pytest.param(19, "fae82e04a8e59c243ff8a47a233d8f38d6f0324a40c289fe8843e16efe890ecf", id="p19"),
    ])
    def test_pinned_angles_beyond_13(self, p, digest):
        assert _angle_digest([qsp.synthesize_mod_p(p, 0)], ()) == digest

    # the mod-p family at the scale of the certification targets, with the
    # solver and reconstruction residuals
    @pytest.mark.parametrize("p, digest", [
        pytest.param(23, "1a561a35c6c6e2a4454a4633cbe3bb1ad7510f7a0c610c7f7d92e8156acda797", id="p23"),
        pytest.param(31, "f8d35c0f1701602ce4d17441b7706286afe1e52a4eedfafbdaf7a1c2eb6ee848", id="p31"),
        pytest.param(41, "d09ea834b5062df9fc1aef8c2cb2da4c205c0db6f65942ddf0a094e2d577c6bf", id="p41"),
        pytest.param(61, "691a7a1a79bb55498a4118bf900901641e0ca094e2c62b524469ecd2f57fb5c8", id="p61"),
    ])
    def test_pinned_angle_digests_at_scale(self, p, digest):
        assert _angle_digest([qsp.synthesize_mod_p(p, 0)]) == digest

    # the same sets without division_remainder, which follows the remainder
    # arithmetic; the angles and the float certificates must not move with it
    @pytest.mark.parametrize("p, digest", [
        pytest.param(23, "8fcb3463d0c2baa0ded193af5f61bdeb77c5b1af76ce615ab97977874019af1e", id="p23"),
        pytest.param(31, "d24ee7214b3c1b1d48c3ae6cf4faf1dced1373c70e4ca2aac72d1d9d3b516f0f", id="p31"),
        pytest.param(41, "96f8e8c0ee297db0d49de10a549c62967b040193b9bdbf17c9de64bc53ba1d08", id="p41"),
        pytest.param(61, "d7879405700036253eef5b63d4f915989b840ef38ad7c9487eaf382893b0bb5b", id="p61"),
    ])
    def test_pinned_angles_and_seed_deviation_at_scale(self, p, digest):
        keys = ("interp_residual", "reconstruction_residual", "root_seed_dev")
        assert _angle_digest([qsp.synthesize_mod_p(p, 0)], keys) == digest


def _reciprocal_reduction(quot):
    """R with quot(w) = w^d R(w + 1/w), for a self-reciprocal quotient.

    ``quot`` lists the 2d + 1 coefficients from the constant term up; the
    upper half is read.  w^k + w^-k is the Dickson polynomial D_k(u), with
    D_0 = 2, D_1 = u and D_(k+1) = u D_k - D_(k-1), so R = quot[d] +
    sum_k quot[d+k] D_k.  Returns R from the constant term up.
    """
    d = (len(quot) - 1) // 2
    R = np.zeros(d + 1, dtype=object)
    R[0] = quot[d]
    prev = np.array([2] + [0] * d, dtype=object)
    cur = np.array([0, 1] + [0] * (d - 1), dtype=object)
    for c in quot[d + 1:]:
        R = R + cur * c
        prev, cur = cur, np.concatenate(([0], cur[:-1])) - prev
    return R


def _mp_angles(pair):
    """Float angles from the completion and peel in mpf/mpc objects.

    An oracle independent of the fixed-point layout, as ``_lu_interpolant``
    is for the closed form: the remainder, the grid-zero division, the
    spectral factor and the peel all run on mpmath numbers at
    SYNTHESIS_DPS.  Its own root finder, ``mp.polyroots`` on the half-degree
    reduction in u = w + 1/w, replaces the fixed-point Newton polish of the
    quotient in w; the checks are left out.
    """
    mp = mpmath
    with mp.workdps(qsp.SYNTHESIS_DPS):
        L, q = pair.degree, pair.grid_period
        A = np.concatenate([pair.a[::-1], pair.a]) / 2
        iB = np.concatenate([-pair.b[::-1], pair.b]) / 2
        rho = np.convolve(iB, iB) - np.convolve(A, A)  # w^m at index m + L
        rho[L] += 1
        G = np.full(L + 1, mp.mpf(0), dtype=object)
        degs = [abs(k - L) for k, c in enumerate(rho) if abs(c) > mp.mpf(10) ** -40]
        if degs:
            deg = max(degs)
            qc = rho[L - deg:L + deg + 1]
            rest, quot = list(qc), [None] * (2 * deg - 2 * q + 1)
            for k in range(2 * deg, 2 * q - 1, -1):  # divide by (w^q - 1)^2
                quot[k - 2 * q] = rest[k]
                rest[k - q] += 2 * rest[k]
                rest[k - 2 * q] -= rest[k]
            s = np.roots([complex(c) for c in quot[::-1]])
            s = s[np.abs(s) < 1]
            us = mp.polyroots(_reciprocal_reduction(quot)[::-1], maxsteps=600,
                              extraprec=60, roots_init=[mp.mpc(x + 1 / x) for x in s]
                              ) if len(quot) > 1 else []
            inside = []
            for u in us:
                r = mp.sqrt(u * u - 4)
                inside.append(2 / (u + r) if abs(u + r) >= abs(u - r) else 2 / (u - r))
            unity = np.array([-1] + [0] * (q - 1) + [1], dtype=object)
            sigma = functools.reduce(np.convolve, ([-r, 1] for r in inside), unity)
            ghat = sigma * mp.sqrt(qc[-1] / (sigma[deg] * sigma[0]))
            lo = (L + 1) // 2 - (deg + 1) // 2
            G[lo:lo + deg + 1] = [mp.re(c) for c in ghat]
        P = A + 1j * (G + G[::-1]) / 2
        Q = iB + 1j * (G - G[::-1]) / 2
        eff = max((abs(2 * i - L) for i, pq in enumerate(zip(P, Q))
                   if max(map(abs, pq)) > mp.mpf(10) ** -38), default=0)
        P, Q = (x[(L - eff) // 2:(L + eff) // 2 + 1] for x in (P, Q))
        xis = []
        for _ in range(eff):
            nv = mp.sqrt(abs(P[-1]) ** 2 + abs(Q[-1]) ** 2)
            c = Q[-1] / nv * mp.conj(-mp.conj(P[-1]) / nv)
            xis.append(-mp.arg(mp.conj(c)))
            dP, dQ = P[:-1] - P[1:], Q[:-1] - Q[1:]
            # array first: mpc * ndarray reprs the array
            P, Q = P[1:] + dP / 2 + np.conj(dQ) * c, Q[1:] + dQ / 2 + np.conj(dP) * c
        xi = list(reversed(xis)) + [mp.mpf(0), mp.pi] * ((L - eff) // 2)
    return tuple(float(x) for x in xi)


_RNG = random.Random(23)
ORACLE_PROFILES = [(0, *bits) for n in (1, 2, 3, 4)
                   for bits in itertools.product((0, 1), repeat=n)]
# a seeded sample at n = 5..8, plus two whose quotient roots spread from
# 0.018 to 57 in modulus
ORACLE_PROFILES += [(0, *(_RNG.randint(0, 1) for _ in range(n)))
                    for n in (5, 6, 7, 8) for _ in range(3)]
ORACLE_PROFILES += [(0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, 1, 0)]


@pytest.mark.parametrize("build", [
    *(pytest.param(functools.partial(solve_mod_p_coeffs, p), id=f"mod{p}")
      for p in (3, 5, 7, 9, 13, 23, 41, 61)),
    *(pytest.param(functools.partial(solve_symmetric_coeffs, list(f), len(f) - 1),
                   id="".join(map(str, f))) for f in ORACLE_PROFILES),
])
def test_fixed_point_matches_mp_oracle(build):
    pair = build()
    angles = complete_and_extract_angles(pair)
    xi = _mp_angles(pair)
    assert [x.hex() for x in angles.xi] == [x.hex() for x in xi]
    assert angles.residual == qsp._reconstruction_residual(xi, pair)


class TestPeel:
    @pytest.mark.parametrize("target", [3, 5, 7, (0, 1, 0)])
    def test_peel_residual_reported(self, target, modp_angles, symmetric_angles):
        angles = (symmetric_angles[target] if isinstance(target, tuple)
                  else modp_angles[target])
        residual = angles.stats["peel_residual"]
        assert isinstance(residual, float) and 0 <= residual <= 1e-18

    def test_off_plane_axis_rejected(self):
        # a factor off by 1e-12 no longer completes the pair to SU(2), so the
        # leading coefficient's kernel vector leaves the XY plane
        pair = solve_mod_p_coeffs(5, 0)
        with mpmath.workdps(qsp.SYNTHESIS_DPS):
            G, _ = qsp._complete(pair)
            G[len(G) // 2] += qsp._ONE // 10 ** 12
            with pytest.raises(SynthesisError, match="left the XY plane"):
                qsp._peel_angles(pair, G)

    def test_peel_residual_at_scale(self):
        # the remainder is exact, so only the roots' 50 digits reach the peel
        assert qsp.synthesize_mod_p(41, 0).stats["peel_residual"] <= 1e-45

    def test_all_zero_series_rejected(self):
        # nothing survives the deflation, which leaves an odd degree gap
        pair = _pair([0, 0], [0, 0], 3)
        with pytest.raises(SynthesisError, match="deflation changed parity"):
            qsp._peel_angles(pair, np.zeros(4, dtype=object))

    def test_vanishing_leading_coefficient_rejected(self):
        # 1e-35 counts as a layer (above 1e-38) but is no axis (below 1e-30)
        pair = _pair(["1e-35"], [0], 3)
        with pytest.raises(SynthesisError, match="vanishing leading coefficient"):
            qsp._peel_angles(pair, np.zeros(2, dtype=object))

    def test_uncleared_layer_rejected(self):
        # |P| and |Q| agree to 1e-22, so the axis lies in the XY plane, but
        # at a norm of 1e6 the projector leaves a residue of 5e-17
        with mpmath.workdps(qsp.SYNTHESIS_DPS):
            pair = _pair(["2e6"], ["2000000.0000000000000002"], 3)
            with pytest.raises(SynthesisError, match="peel residue 5.0e-17"):
                qsp._peel_angles(pair, np.zeros(2, dtype=object))

    def test_negated_unitary_rejected(self):
        # -U peels through the same layers and leaves -I behind
        pair = solve_mod_p_coeffs(5, 0)
        with mpmath.workdps(qsp.SYNTHESIS_DPS):
            G, _ = qsp._complete(pair)
            neg = LaurentPair(-pair.a, -pair.b, 5, (0,), 0.0)
            with pytest.raises(SynthesisError, match="nonidentity residual layer"):
                qsp._peel_angles(neg, -G)


class TestCompletion:
    def test_pure_winding_gives_equal_angles(self):
        # A = cos(L phi/2), B = -sin(L phi/2) is a plain power of the X
        # rotation, so every extracted axis angle is the same
        L = 5
        pair = _pair([0, 0, 1], [0, 0, -1], 2 * L + 1)
        angles = complete_and_extract_angles(pair)
        spread = max(angles.xi) - min(angles.xi)
        assert spread < 1e-12

    def test_infeasible_pair_rejected(self):
        pair = _pair([2], [0], 3)
        with pytest.raises(SynthesisError):
            complete_and_extract_angles(pair)

    def test_negative_remainder_gives_no_real_factor(self):
        # A = cos(3 phi/2), B = 3 sin(3 phi/2): 1 - A^2 - B^2 = -8 sin^2(3 phi/2)
        # = 2 w^-3 (w^3 - 1)^2 has its grid zeros, but its factor is imaginary
        pair = _pair([0, 1], [0, 3], 3)
        with mpmath.workdps(qsp.SYNTHESIS_DPS):
            with pytest.raises(SynthesisError,
                               match=r"completion not real \(imag 1.4e\+00\)"):
                qsp._complete(pair)

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


_ANGLE = st.floats(-4 * np.pi, 4 * np.pi, allow_nan=False)


@st.composite
def _gate_lists(draw):
    """(k, gates): X/Z gates whose angles are scalars or length-k lists."""
    k = draw(st.integers(1, 5))
    angle = st.one_of(_ANGLE, st.lists(_ANGLE, min_size=k, max_size=k))
    return k, draw(st.lists(st.tuples(st.sampled_from("XZ"), angle), max_size=12))


class TestRotationProduct:
    @settings(max_examples=200, deadline=None)
    @given(_gate_lists())
    def test_matches_explicit_matmul_chain(self, case):
        k, gates = case
        U = qsp.rotation_product(gates)
        assert U.shape == (k if any(np.ndim(a) for _, a in gates) else 1, 2, 2)
        for b, Ub in enumerate(U):
            ref = np.eye(2, dtype=complex)
            for axis, angle in gates:
                theta = angle[b] if np.ndim(angle) else angle
                ref = (rot_x if axis == "X" else rot_z)(theta) @ ref
            assert np.max(np.abs(Ub - ref)) < 1e-13
            assert np.max(np.abs(Ub.conj().T @ Ub - np.eye(2))) < 1e-13
            assert abs(np.linalg.det(Ub) - 1) < 1e-13

    def test_empty_product_is_one_identity(self):
        assert np.array_equal(qsp.rotation_product([]), np.eye(2)[None])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="'Y'"):
            qsp.rotation_product([("X", 0.2), ("Y", 0.1)])


class TestReconstruct:
    def test_zero_phase_is_identity(self, modp_angles):
        U = reconstruct_unitary(modp_angles[3], 0.0)
        assert np.allclose(U, np.eye(2), atol=1e-12)

    def test_unitarity_random_angle_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            L = int(rng.integers(1, 12))
            angles = QspAngles(tuple(rng.uniform(-np.pi, np.pi, L)), 3)
            U = reconstruct_unitary(angles, float(rng.uniform(0, 4 * np.pi)))
            assert np.max(np.abs(U.conj().T @ U - np.eye(2))) < 1e-13

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
        flipped = QspAngles(tuple(-x for x in reversed(ref.xi)), 5)
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

    def test_negative_sweep_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0, got -1"):
            verify_qsp(reference_angles(3), 3, 0, -1)

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

    def test_length_and_residual_are_derived(self, modp_angles):
        # L and residual in the JSON are output only
        a = QspAngles.from_json('{"L": 7, "xi": [0.5, 0.25], "residual": 1.0}')
        assert a.length == 2 and a.residual == 0.0
        assert modp_angles[3].residual == \
            modp_angles[3].stats["reconstruction_residual"]

    def test_target_records_the_request(self, modp_angles):
        a = modp_angles[3]
        assert a.target == {"values": [0, 1], "p": 3, "j": 0}
        assert qsp.synthesize_mod_p(3, 1).target["j"] == 1
