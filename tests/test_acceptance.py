"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here, not configurable.  Criterion 9 includes one
deliberately honest check of a published closed-form angle table that is
mathematically wrong beyond two bits; that sub-test documents the failure
instead of papering over it (see the repository ERRATA notes).
"""
import hashlib
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from l2mbqc import boolean, mbqc, pfd, qsp, sim
import oracles


def stamp(criterion: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{criterion} exceeded budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s)")


def test_criterion_01_reference_angle_fixture():
    """Published angle tables drive failure < 1e-10 at weights 0..20."""
    t0 = time.perf_counter()
    for p in (3, 5, 7, 9):
        worst = qsp.verify_qsp(qsp.reference_angles(p), p, 0, 20)
        assert worst < 1e-10, (p, worst)
    stamp("01 reference-angle fixture", t0, 1.0)


def test_criterion_02_own_synthesis():
    """Own angles: failure < 1e-9 for every residue, matching the fixtures."""
    t0 = time.perf_counter()
    for p in (3, 5, 7, 9):
        own = qsp.synthesize_mod_p(p, 0)
        ref = qsp.reference_angles(p)
        for j in range(p):
            assert qsp.verify_qsp(own, p, j, 20) < 1e-9, (p, j)
        # functional equivalence at j = 0: identical output bits, both under gate
        for w in range(21):
            phi = 4 * np.pi * w / p
            bo = abs(qsp.reconstruct_unitary(own, phi)[1, 0]) ** 2 > 0.5
            br = abs(qsp.reconstruct_unitary(ref, phi)[1, 0]) ** 2 > 0.5
            assert bo == br
    stamp("02 own QSP synthesis", t0, 30.0)


def test_criterion_02b_synthesis_past_p61():
    """Own angles for primes past 61: pinned, failure < 1e-9 for every residue."""
    pins = {
        67: "577f19380aec934ab962bc09bf11a97b1fb49f3caf70913fd1d457a262671ec2",
        83: "0f645930035d15b56aabc7eb31214eb415b5301e21374d9dd3f188c252b23dff",
        101: "8db7072e276f2533b4d5840ed56002566bd8295920856bd229576095404b0f84",
    }
    t0 = time.perf_counter()
    for p, digest in pins.items():
        own = qsp.synthesize_mod_p(p, 0)
        words = " ".join(x.hex() for x in own.xi).encode()
        assert hashlib.sha256(words).hexdigest() == digest, p
        for j in range(p):
            assert qsp.verify_qsp(own, p, j, 2 * p + 1) < 1e-9, (p, j)
    stamp("02b synthesis past p = 61", t0, 30.0)


def test_criterion_03_mod3_protocol():
    """Five-round weight-mod-3 protocol: exact resources, deterministic."""
    t0 = time.perf_counter()
    for n in range(1, 9):
        s = mbqc.mod3_protocol(n)
        f = boolean.mod_p(3, 0, n)
        rep = mbqc.resources(s)
        assert rep.as_tuple() == (4 * n + 5, n + 2, 5, 3)
        for x in range(1 << n):
            assert sim.analytic_success(s, f, x) >= 1 - 1e-9
        exact = sim.verify_protocol(s, f, shots_per_input=0, use_exact=True)
        assert exact.min_exact > 1 - 1e-9, (n, exact.min_exact)
    assert mbqc.mod3_protocol(4).n_qubits == 21
    s1 = mbqc.mod3_protocol(1)
    f1 = boolean.mod_p(3, 0, 1)
    for x in range(2):
        assert sim.exact_distribution(s1, x)[f1(x)] == pytest.approx(1.0, abs=1e-10)
    stamp("03 mod-3 protocol", t0, 60.0)


def test_criterion_04_modp_protocol(modp_angles):
    """Constant-round mod-p protocols: resources, determinism, sampling."""
    t0 = time.perf_counter()
    for p in (3, 5, 7):
        angles = modp_angles[p]
        for n in range(1, 6):
            s = mbqc.modp_protocol(p, 0, n, angles)
            f = boolean.mod_p(p, 0, n)
            rep = mbqc.resources(s)
            assert rep.as_tuple() == ((4 * p - 2) * (n + 1) - 1, n + 2,
                                      4 * p - 2, 3)
            for x in range(1 << n):
                assert sim.analytic_success(s, f, x) >= 1 - 1e-9
            report = sim.verify_protocol(s, f, shots_per_input=200,
                                         seed=1000 + 10 * p + n,
                                         use_exact=False)
            assert report.all_shots_correct
            exact = sim.verify_protocol(s, f, shots_per_input=0,
                                        use_exact=True)
            assert exact.min_exact > 1 - 1e-9, (p, n, exact.min_exact)
    stamp("04 mod-p protocol", t0, 300.0)


def test_criterion_05_symmetric_protocol(symmetric_angles):
    """Quadratic-size symmetric protocol at n=2 for both test functions."""
    t0 = time.perf_counter()
    n = 2
    cases = [(boolean.pairwise_and(2), (0, 0, 1)),
             (boolean.mod_p(3, 1, 2), (0, 1, 0))]
    for f, prof in cases:
        s = mbqc.qsp_symmetric_protocol(f, n, symmetric_angles[prof])
        rep = mbqc.resources(s)
        assert rep.as_tuple() == (8 * n * n + 10 * n + 1, n, 8 * n + 2, 3)
        for x in range(1 << n):
            assert sim.analytic_success(s, f, x) >= 1 - 1e-9
        exact = sim.verify_protocol(s, f, shots_per_input=0, use_exact=True)
        assert exact.min_exact > 1 - 1e-9, (prof, exact.min_exact)
    stamp("05 symmetric protocol", t0, 60.0)


def test_criterion_06_ghz_lift():
    """Cluster lift reproduces nonadaptive cat-state outputs exactly."""
    t0 = time.perf_counter()
    cases = [(boolean.or_n(2), pfd.solve_pfd(boolean.or_n(2))),
             (boolean.pairwise_and(3), pfd.pairwise_and_decomposition(3))]
    for f, d in cases:
        g = mbqc.compile_pfd_to_ghz(d, f.table[0])
        lifted = mbqc.lift_ghz_to_cluster(g)
        N = g.n_qubits
        assert mbqc.resources(lifted).as_tuple() == (2 * N + 1, N, 2, 3)
        for x in range(1 << f.n):
            dg = sim.exact_distribution(g, x)
            dl = sim.exact_distribution(lifted, x)
            assert dl[0] == pytest.approx(dg[0], abs=1e-10)
            assert dl[f(x)] == pytest.approx(1.0, abs=1e-10)
    stamp("06 GHZ lift", t0, 60.0)


def test_criterion_07_or_protocol():
    """Counting reduction for OR: sampled exactness and counter support."""
    t0 = time.perf_counter()
    for n in range(2, 7):
        s = mbqc.or_protocol(n)
        f = boolean.or_n(n)
        kappa = s.meta["kappa"]
        for x in range(1 << n):
            _, ys = sim.run_schedule_batch(s, x, 200, seed=7000 + x)
            assert all(int(y) == f(x) for y in ys), (n, x)
        # exact per-bit Bernoulli marginals: the all-zero counter string has
        # probability zero on every nonzero input
        for w in range(1, n + 1):
            pr_zero = 1.0
            hit = False
            for mu in range(1, kappa + 1):
                pr_zero *= 1.0 - oracles.counter_bit_probability(mu, w)
                hit = hit or oracles.counter_bit_is_certain_one(mu, w)
            assert hit and pr_zero == 0.0
    stamp("07 OR protocol", t0, 300.0)


def test_criterion_07_or_protocol_exact():
    """Counting reduction for OR: exact certificate on 45 and 57 qubits."""
    t0 = time.perf_counter()
    for n in (4, 6):
        report = sim.verify_protocol(mbqc.or_protocol(n), boolean.or_n(n),
                                     shots_per_input=0, use_exact=True)
        assert report.min_exact > 1 - 1e-9, (n, report.min_exact)
    stamp("07b exact OR protocol", t0, 60.0)


def test_criterion_08_moore_counter():
    """Increment-mod-p unitary: all-zero readout exactly at multiples of p."""
    t0 = time.perf_counter()
    for p in (3, 5):
        for w in range(11):
            pr0 = oracles.counter_distribution(p, w)[0]
            if w % p == 0:
                assert pr0 == pytest.approx(1.0, abs=1e-12)
            else:
                assert pr0 == pytest.approx(0.0, abs=1e-12)
    stamp("08 Moore counter", t0, 10.0)


def test_criterion_09_periodic_fourier_machinery():
    """Exact inverse, certificates, and random decomposition round trips."""
    t0 = time.perf_counter()
    for n in range(1, 7):
        oracles.sierpinski_matrix(n)  # multiplies out the inverse exactly
    for n in range(1, 5):
        cert = pfd.sparsity_certificate(boolean.and_n(n))
        assert cert.all_odd
        if n >= 2:
            assert cert.non_integer_count == (1 << n) - 1
    for n in range(1, 5):
        rnd = random.Random(800 + n)
        for _ in range(50):
            f = boolean.from_table(tuple(rnd.randint(0, 1)
                                         for _ in range(1 << n)))
            ok, resid = pfd.verify_pfd(f, pfd.solve_pfd(f))
            assert ok, resid
    # the corrected uniform OR expansion holds at every size tested
    for n in range(1, 6):
        ok, _ = pfd.verify_pfd(boolean.or_n(n), pfd.or_decomposition(n))
        assert ok
    stamp("09 periodic Fourier machinery", t0, 60.0)


def test_criterion_09_or_formula_as_published():
    """The graded-magnitude OR angle table, exactly as printed, for n <= 5.

    This check is faithful to the printed closed form and FAILS for n >= 3:
    the formula leaves a phase of 2^(2-n) at any weight-one input, which is
    not an odd integer, so the cosine identity cannot hold.  See the ERRATA
    notes for the derivation and the corrected uniform expansion (which is
    verified in the companion criterion above).
    """
    t0 = time.perf_counter()
    for n in range(1, 6):
        ok, resid = pfd.verify_pfd(boolean.or_n(n),
                                   pfd.or_decomposition_published(n))
        assert ok, (f"published OR expansion fails at n={n} "
                    f"(residual {resid:.3f}); weight-one phase is 2^(2-n)")
    stamp("09b published OR formula", t0, 10.0)


def test_criterion_10_correspondence_identities():
    """Cat-state parity and chain identities as exact distribution equalities."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    from l2mbqc.mbqc import MeasurementSchedule, QubitSpec, XYBasis, cluster1d, ghz
    from oracles import rot_x, rot_z
    for N in range(2, 11):
        thetas = rng.uniform(0, 2 * np.pi, N)
        qubits = tuple(QubitSpec(i + 1, XYBasis(float(th)))
                       for i, th in enumerate(thetas))
        s = MeasurementSchedule(ghz(N), 0, qubits,
                                frozenset(range(1, N + 1)), 0)
        dist = sim.exact_distribution(s, 0)
        U = np.eye(2, dtype=complex)
        for th in thetas:
            U = rot_x(th) @ U
        assert dist[1] == pytest.approx(abs(U[1, 0]) ** 2, abs=1e-10)
    for N in (1, 3, 5):
        L = 2 * N + 1
        thetas = rng.uniform(0, 2 * np.pi, L)
        qubits = tuple(QubitSpec(i + 1, XYBasis(float(th)))
                       for i, th in enumerate(thetas))
        s = MeasurementSchedule(cluster1d(L), 0, qubits,
                                frozenset(range(1, L + 1, 2)), 0)
        norm = None
        for mm, pr in sim.branch_distribution(s, 0).items():
            U = np.eye(2, dtype=complex)
            for jq in range(1, L + 1):
                flips = sum(mm[k - 1] for k in range(1, jq) if (k - jq) % 2)
                td = (-1.0) ** flips * thetas[jq - 1]
                U = (rot_x(td) if jq % 2 else rot_z(td)) @ U
            parity = 0
            for k in range(0, L, 2):
                parity ^= mm[k]
            amp2 = abs(U[parity, 0]) ** 2
            if amp2 < 1e-14:
                assert pr < 1e-14
                continue
            norm = pr / amp2 if norm is None else norm
            assert pr / amp2 == pytest.approx(norm, abs=1e-10)
    stamp("10 correspondence identities", t0, 120.0)


def test_criterion_11_bell_bounds():
    """Deterministic quantum success strictly beats the best linear model."""
    t0 = time.perf_counter()
    f = boolean.and_n(2)
    s = mbqc.compile_pfd_to_ghz(pfd.solve_pfd(f), 0)
    score = sim.bell_score(s, f)
    assert score.classical_bound == pytest.approx(0.75, abs=1e-12)
    assert score.quantum_success == pytest.approx(1.0, abs=1e-9)
    assert score.violates

    f = boolean.pairwise_and(4)
    s = mbqc.compile_pfd_to_ghz(pfd.pairwise_and_decomposition(4), 0)
    score = sim.bell_score(s, f)
    assert score.classical_bound == pytest.approx(0.625, abs=1e-12)
    assert score.quantum_success == pytest.approx(1.0, abs=1e-9)
    assert score.violates

    # the classical side comes from the spectrum; confirm against exhaustive
    # enumeration of every affine predictor
    for f in (boolean.and_n(2), boolean.pairwise_and(4)):
        best = max(sum((f(x) == (boolean.popcount(k & x) & 1) ^ b)
                       for x in range(1 << f.n)) / (1 << f.n)
                   for k in range(1 << f.n) for b in (0, 1))
        assert boolean.nchvm_bound(f) == pytest.approx(best, abs=1e-12)
    stamp("11 Bell bounds", t0, 30.0)


def test_criterion_12_cross_engine():
    """Dense and chain marginals agree to 1e-12 on every small instance."""
    t0 = time.perf_counter()
    instances = [
        mbqc.mod3_protocol(1),
        mbqc.mod3_protocol(2),
        mbqc.compile_pfd_to_ghz(pfd.solve_pfd(boolean.and_n(2)), 0),
        mbqc.compile_pfd_to_ghz(pfd.solve_pfd(boolean.or_n(2)), 0),
        mbqc.compile_pfd_to_ghz(pfd.pairwise_and_decomposition(3), 0),
        mbqc.lift_ghz_to_cluster(
            mbqc.compile_pfd_to_ghz(pfd.solve_pfd(boolean.and_n(2)), 0)),
        mbqc.lift_ghz_to_cluster(
            mbqc.compile_pfd_to_ghz(pfd.pairwise_and_decomposition(3), 0)),
    ]
    for s in instances:
        assert s.n_qubits <= 14
        for x in range(1 << s.arity):
            assert sim.compare_engines(s, x, seed=x + 31) < 1e-12
    stamp("12 cross-engine agreement", t0, 120.0)


def test_criterion_13_anf_recurrence():
    """Counter-coefficient recurrence against the brute-force transform."""
    t0 = time.perf_counter()
    for p in (3, 5, 7):
        for n in range(1, 9):
            table = oracles.mod_p_anf_coeffs(p, n)
            assert any(table[n])  # some residue reaches degree n
            for j in range(p):
                expected = oracles.anf_weight_coefficients(
                    boolean.anf(boolean.mod_p(p, j, n)))
                assert tuple(v[j] for v in table) == expected
    stamp("13 ANF recurrence", t0, 60.0)
