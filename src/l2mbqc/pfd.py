"""Periodic Fourier decompositions of Boolean functions.

A decomposition expresses (-1)^{f(x)+f(0)} as cos(pi * sum_p (p.x) phi_p)
over nonzero masks p, with the angles phi_p kept in units of pi.  The angles
solve an integer linear system whose dyadic inverse is a superset sum, and the
phases are a Walsh-Hadamard transform of the angles: both run as exact subset-
lattice butterflies (``boolean.yates``); floats appear only in verification.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .boolean import BooleanFunction, anf, popcount, yates

# Bounds ``solve_pfd`` and the GHZ schedules that ``table1`` lays out, one
# qubit per mask.
MAX_PFD_ARITY = 6


@dataclass(frozen=True)
class PeriodicDecomposition:
    """Map from nonzero masks to angles (units of pi, exact rationals)."""

    n: int
    angles: dict[int, Fraction]

    def __post_init__(self):
        for mask, phi in self.angles.items():
            if not 0 < mask < (1 << self.n):
                raise ValueError(f"mask {mask} out of range")
            if phi == 0:
                raise ValueError("zero angles must be omitted from the support")

    @property
    def support(self) -> list[int]:
        return sorted(self.angles)

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "angles": [{"mask": m, "num": phi.numerator, "den": phi.denominator}
                       for m, phi in sorted(self.angles.items())],
        })

    @classmethod
    def from_json(cls, text: str) -> "PeriodicDecomposition":
        obj = json.loads(text)
        return cls(obj["n"], {e["mask"]: Fraction(e["num"], e["den"])
                              for e in obj["angles"]})


def solve_pfd(f: BooleanFunction,
              offsets: dict[int, int] | None = None) -> PeriodicDecomposition:
    """Angles phi = M^{-1} (a + k) with a the ANF coefficients, k even integers.

    M^{-1} is an integer superset sum S of g_y = (-1)^|y| (a_y + k_y) 2^{n-|y|}
    (g_0 = 0), scaled: phi_p = (-1)^{n-|p|+1} S[~p] / 2^{n-1}.  The canonical
    solution takes k = 0; any even offset vector gives another decomposition.
    """
    n = f.n
    if n > MAX_PFD_ARITY:
        raise ValueError(f"solve_pfd supports n <= {MAX_PFD_ARITY}")
    offsets = offsets or {}
    stray = [y for y in offsets if y not in range(1, 1 << n)]
    if stray:
        raise ValueError(f"offset keys must be masks in 1..{(1 << n) - 1}, "
                         f"got {stray}")
    monomials = anf(f).monomials
    g = [0] * (1 << n)
    for y in range(1, 1 << n):
        k = offsets.get(y, 0)
        if k % 2:
            raise ValueError("offsets must be even integers")
        w = popcount(y)
        g[y] = (-1) ** w * ((y in monomials) + k) * (1 << (n - w))
    sums = yates(g, lambda a, b: (a + b, b))
    full = (1 << n) - 1
    angles: dict[int, Fraction] = {}
    for p in range(1, 1 << n):
        phi = Fraction((-1) ** (n - popcount(p) + 1) * sums[full ^ p],
                       1 << (n - 1))
        if phi != 0:
            angles[p] = phi
    return PeriodicDecomposition(n, angles)


def verify_pfd(f: BooleanFunction, d: PeriodicDecomposition) -> tuple[bool, float]:
    """Check cos(pi * phase(x)) = (-1)^{f(x)+f(0)} on every input.

    phase(x) is (W(0) - W(x)) / 2 for W the exact Walsh-Hadamard transform of
    the angles.  The verdict is exact: every phase must be an integer with the
    parity of f(x) xor f(0).  The float residual, the largest gap between the
    cosine and the sign, is returned beside it for reports.
    """
    if f.n != d.n:
        raise ValueError("arity mismatch")
    walsh = yates([d.angles.get(m, Fraction(0)) for m in range(1 << f.n)],
                  lambda a, b: (a + b, a - b))
    f0 = f.table[0]
    ok, worst = True, 0.0
    for x in range(1 << f.n):
        phase, flip = (walsh[0] - walsh[x]) / 2, f.table[x] ^ f0
        ok = ok and phase.denominator == 1 and phase.numerator % 2 == flip
        worst = max(worst, abs(math.cos(math.pi * float(phase))
                               - (-1.0 if flip else 1.0)))
    return ok, worst


@dataclass(frozen=True)
class SparsityCertificate:
    """Integrality audit of the canonical (zero-offset) solution.

    When the full-degree ANF coefficient is 1, every scaled angle
    2^{n-1} phi_p is an odd integer; no admissible even offset can then zero
    any angle, so all 2^n - 1 masks are genuinely needed.
    """

    n: int
    non_integer_count: int
    odd_integer_flags: dict[int, bool]

    @property
    def all_odd(self) -> bool:
        return all(self.odd_integer_flags.values())


def sparsity_certificate(f: BooleanFunction) -> SparsityCertificate:
    d = solve_pfd(f)
    scale = 1 << (f.n - 1)
    flags: dict[int, bool] = {}
    non_integer = 0
    for p in range(1, 1 << f.n):
        phi = d.angles.get(p, Fraction(0))
        if phi.denominator != 1:
            non_integer += 1
        scaled = phi * scale
        flags[p] = scaled.denominator == 1 and scaled.numerator % 2 == 1
    return SparsityCertificate(f.n, non_integer, flags)


def or_decomposition(n: int) -> PeriodicDecomposition:
    """Uniform decomposition of the n-bit OR function.

    Every nonzero mask carries 2^(1-n): any nonzero input satisfies exactly
    2^(n-1) of the mask parities, so the phase is an odd multiple of pi
    exactly when some bit is set.  This is the De Morgan dual of the uniform
    alternating-sign expansion of AND.
    """
    phi = Fraction(1, 1 << (n - 1))
    return PeriodicDecomposition(n, {s: phi for s in range(1, 1 << n)})


def or_decomposition_published(n: int) -> PeriodicDecomposition:
    """Magnitude-graded OR expansion as printed in the source literature.

    Valid only for n <= 2: at a weight-one input the phase comes out to
    2^(2-n), which is not an odd integer once n >= 3, so verify_pfd rejects
    it there.  Kept for the record and for the acceptance audit.
    """
    angles = {}
    for s in range(1, 1 << n):
        k = popcount(s)
        angles[s] = Fraction((-1) ** (k - 1) * ((1 << (n - k + 1)) - 1),
                             1 << (n - 1))
    return PeriodicDecomposition(n, angles)


def pairwise_and_decomposition(n: int) -> PeriodicDecomposition:
    """Weight-(n+1) decomposition of the pairwise-AND function.

    Half-turn angles on the singletons and a compensating negative half turn
    on the full mask; direct verification fixes the sign of the full-mask
    entry.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    angles = {1 << i: Fraction(1, 2) for i in range(n)}
    angles[(1 << n) - 1] = Fraction(-1, 2)
    return PeriodicDecomposition(n, angles)
