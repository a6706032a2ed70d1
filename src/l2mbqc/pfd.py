"""Periodic Fourier decompositions of Boolean functions.

A decomposition expresses (-1)^{f(x)+f(0)} as cos(pi * sum_p (p.x) phi_p)
over nonzero masks p, with the angles phi_p kept in units of pi.  The angles
solve an integer linear system whose matrix has a closed-form dyadic inverse,
so everything here runs in exact rational arithmetic; floats appear only in
verification.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .boolean import BooleanFunction, anf, dot2, popcount

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

    def phase_in_pi(self, x: int) -> Fraction:
        """sum over masks of (p.x) phi_p, an exact rational in units of pi."""
        return sum((phi for mask, phi in self.angles.items() if dot2(mask, x)),
                   Fraction(0))

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


@dataclass(frozen=True)
class SierpinskiSystem:
    """The integer system linking ANF coefficients to decomposition angles.

    Rows and columns run over nonzero masks in increasing integer order.
    M[y][p] = 2^{|y|-1} if supp(p) meets supp(y) else 0; the inverse is
    dyadic and known in closed form, verified exactly at construction.
    """

    n: int
    matrix: tuple[tuple[int, ...], ...]
    inverse: tuple[tuple[Fraction, ...], ...]


def _chi_meets(a: int, b: int) -> int:
    return 1 if a & b else 0


@functools.cache
def sierpinski_matrix(n: int) -> SierpinskiSystem:
    """The system for arity n, built and checked once per n (it is immutable)."""
    if not 1 <= n <= MAX_PFD_ARITY:
        raise ValueError(f"n must be in 1..{MAX_PFD_ARITY}")
    masks = list(range(1, 1 << n))
    full = (1 << n) - 1
    M = tuple(tuple((1 << (popcount(y) - 1)) * _chi_meets(p, y) for p in masks)
              for y in masks)
    Minv = tuple(tuple(
        Fraction((-1) ** (dot2(p, y) + 1) * (1 - _chi_meets(p ^ full, y ^ full)),
                 1 << (popcount(y) - 1))
        for y in masks) for p in masks)
    # exact check of the closed-form inverse
    size = len(masks)
    for i in range(size):
        for k in range(size):
            acc = sum(Minv[i][j] * M[j][k] for j in range(size))
            if acc != (1 if i == k else 0):
                raise AssertionError("closed-form inverse failed exact check")
    return SierpinskiSystem(n, M, Minv)


def brute_force_matrix_entry(y: int, p: int) -> int:
    """Direct definition: number of subsets x of y with p.x odd."""
    sub = y
    count = 0
    while True:
        count += dot2(p, sub)
        if sub == 0:
            break
        sub = (sub - 1) & y
    return count


def solve_pfd(f: BooleanFunction,
              offsets: dict[int, int] | None = None) -> PeriodicDecomposition:
    """Angles phi = M^{-1} (a + k) with a the ANF coefficients, k even integers.

    The canonical solution takes k = 0.  Any even offset vector produces
    another valid decomposition of the same function.
    """
    if f.n > MAX_PFD_ARITY:
        raise ValueError(f"solve_pfd supports n <= {MAX_PFD_ARITY}")
    inverse = sierpinski_matrix(f.n).inverse
    masks = list(range(1, 1 << f.n))
    poly = anf(f)
    rhs = []
    for y in masks:
        k = (offsets or {}).get(y, 0)
        if k % 2:
            raise ValueError("offsets must be even integers")
        rhs.append((1 if y in poly.monomials else 0) + k)
    angles: dict[int, Fraction] = {}
    for i, p in enumerate(masks):
        phi = sum((inverse[i][j] * rhs[j] for j in range(len(masks))),
                  Fraction(0))
        if phi != 0:
            angles[p] = phi
    return PeriodicDecomposition(f.n, angles)


def verify_pfd(f: BooleanFunction, d: PeriodicDecomposition,
               tol: float = 1e-9) -> tuple[bool, float]:
    """Check cos(pi * phase(x)) = (-1)^{f(x)+f(0)} on every input."""
    if f.n != d.n:
        raise ValueError("arity mismatch")
    f0 = f.table[0]
    worst = 0.0
    for x in range(1 << f.n):
        lhs = math.cos(math.pi * float(d.phase_in_pi(x)))
        rhs = -1.0 if (f.table[x] ^ f0) else 1.0
        worst = max(worst, abs(lhs - rhs))
    return worst < tol, worst


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
