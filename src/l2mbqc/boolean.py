"""Boolean functions on n bits and the classical analyses performed on them.

Truth tables are packed lists of bits indexed by the integer whose binary
expansion is the input string with x_1 as the least significant bit.  That
convention is fixed repo-wide: bit i of a mask corresponds to input variable
x_{i+1}.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Sequence

MAX_ARITY = 20


def parse_input(x: "int | str | Sequence[int]", n: int) -> int:
    """Normalize an input to its integer index.

    Strings are read left to right as x_1 x_2 ... x_n; sequences likewise.
    Integers of any integral type (numpy's too, and 0-d integer arrays) are
    taken as already-packed indices; a bool, numpy's included, is neither an
    index nor a bit string and is refused.
    """
    if isinstance(x, str):
        if len(x) != n or any(ch not in "01" for ch in x):
            raise ValueError(f"input string {x!r} is not {n} bits")
        return sum(1 << i for i, ch in enumerate(x) if ch == "1")
    if isinstance(x, bool):
        raise ValueError(f"input {x!r} is a bool, not an index or bit string")
    if isinstance(x, numbers.Integral):
        x = int(x)
        if not 0 <= x < (1 << n):
            raise ValueError(f"input index {x} out of range for arity {n}")
        return x
    if getattr(x, "ndim", None) == 0:  # a numpy scalar or 0-d array
        return parse_input(x.item(), n)
    bits = list(x)
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise ValueError("input bit sequence has wrong length or non-bits")
    return sum(1 << i for i, b in enumerate(bits) if b)


def popcount(x: int) -> int:
    return bin(x).count("1")


def _check_arity(n: int) -> None:
    if not 1 <= n <= MAX_ARITY:
        raise ValueError(f"arity must be in 1..{MAX_ARITY}, got {n}")


def _weight_profile(n: int, bits: Sequence[int]) -> tuple[int, ...] | None:
    """Entry w is the common value of ``bits[x]`` over the masks x of Hamming
    weight w, for 2^n bits indexed by mask; None if some weight class
    disagrees."""
    prof: dict[int, int] = {}
    for x, b in enumerate(bits):
        if prof.setdefault(popcount(x), b) != b:
            return None
    return tuple(prof[w] for w in range(n + 1))


@dataclass(frozen=True)
class BooleanFunction:
    """A function F_2^n -> F_2 stored as a truth table.

    ``symmetric_profile`` is derived from the table, not passed in: it is
    present iff the function depends only on the Hamming weight of the
    input, and entry w is the value at weight w.
    """

    n: int
    table: tuple[int, ...]
    kind: str = "custom"
    params: dict = field(default_factory=dict, compare=False)
    symmetric_profile: tuple[int, ...] | None = field(init=False, compare=False)

    def __post_init__(self):
        _check_arity(self.n)
        if len(self.table) != 1 << self.n:
            raise ValueError("truth table length must be 2^n")
        if any(b not in (0, 1) for b in self.table):
            raise ValueError("truth table entries must be bits")
        object.__setattr__(self, "symmetric_profile",
                           _weight_profile(self.n, self.table))

    def __call__(self, x: "int | str | Sequence[int]") -> int:
        return self.table[parse_input(x, self.n)]

    @property
    def is_symmetric(self) -> bool:
        return self.symmetric_profile is not None

    def zero_anchored_profile(self) -> tuple[list[int], int]:
        """Weight profile complemented to read 0 at weight 0, plus the flip bit.

        Rotation sequences read 0 at zero phase, so a symmetric function with
        f(0) = 1 is synthesized as its complement with the output flipped.
        """
        if self.symmetric_profile is None:
            raise ValueError("function is not symmetric")
        f0 = self.symmetric_profile[0]
        return [v ^ f0 for v in self.symmetric_profile], f0

    def to_json(self) -> str:
        table_int = sum(b << i for i, b in enumerate(self.table))
        width = -(-len(self.table) // 4)
        return json.dumps({
            "n": self.n,
            "kind": self.kind,
            "params": self.params,
            "table_hex": format(table_int, f"0{width}x"),
        })

    @classmethod
    def from_json(cls, text: str) -> "BooleanFunction":
        obj = json.loads(text)
        n = obj["n"]
        table_int = int(obj["table_hex"], 16)
        table = tuple((table_int >> i) & 1 for i in range(1 << n))
        return cls(n, table, kind=obj.get("kind", "custom"),
                   params=obj.get("params", {}))


def from_profile(profile: Sequence[int], n: int, kind: str = "custom",
                 params: dict | None = None) -> BooleanFunction:
    """Build a symmetric function from its Hamming-weight profile."""
    _check_arity(n)
    if len(profile) != n + 1:
        raise ValueError("profile needs n+1 entries")
    table = tuple(profile[popcount(x)] for x in range(1 << n))
    return BooleanFunction(n, table, kind=kind, params=params or {})


def mod_p(p: int, j: int, n: int) -> BooleanFunction:
    """0 iff the Hamming weight is congruent to j mod p, else 1."""
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd integer >= 3")
    if not 0 <= j < p:
        raise ValueError("j must satisfy 0 <= j < p")
    prof = [0 if (w % p) == j else 1 for w in range(n + 1)]
    return from_profile(prof, n, kind="mod_p", params={"p": p, "j": j})


def and_n(n: int) -> BooleanFunction:
    prof = [1 if w == n else 0 for w in range(n + 1)]
    return from_profile(prof, n, kind="and")


def or_n(n: int) -> BooleanFunction:
    prof = [0 if w == 0 else 1 for w in range(n + 1)]
    return from_profile(prof, n, kind="or")


def pairwise_and(n: int) -> BooleanFunction:
    """1 iff the Hamming weight is 2 or 3 mod 4 (second least significant bit)."""
    prof = [(w >> 1) & 1 for w in range(n + 1)]
    return from_profile(prof, n, kind="pairwise_and")


def parity_n(n: int) -> BooleanFunction:
    prof = [w & 1 for w in range(n + 1)]
    return from_profile(prof, n, kind="parity")


def constant(b: int, n: int) -> BooleanFunction:
    return from_profile([b] * (n + 1), n, kind=f"const{b}")


def from_table(table: Iterable[int], kind: str = "custom") -> BooleanFunction:
    table = tuple(table)
    n = (len(table) - 1).bit_length()
    if 1 << n != len(table):
        raise ValueError("table length must be a power of two")
    return BooleanFunction(n, table, kind=kind)


def build(kind: str, n: int) -> BooleanFunction:
    """Dispatch by kind name; used by the CLI function-spec parser."""
    factories = {"and": and_n, "or": or_n, "parity": parity_n}
    if kind in factories:
        return factories[kind](n)
    if kind in ("const0", "const1"):
        return constant(int(kind[-1]), n)
    raise ValueError(f"unknown function kind {kind!r}")


@dataclass(frozen=True)
class AnfPolynomial:
    """Algebraic normal form: the set of monomial masks with coefficient 1."""

    n: int
    monomials: frozenset[int]

    @property
    def degree(self) -> int:
        return max((popcount(m) for m in self.monomials), default=0)


def yates(vals: list, kernel) -> list:
    """In-place Yates butterfly over the subset lattice: for each bit, each pair
    (v[x], v[x | bit]) with x lacking the bit becomes kernel(v[x], v[x | bit]),
    e.g. (a, a ^ b) for the Moebius transform, (a + b, b) for the superset sum."""
    step = 1
    while step < len(vals):
        for lo in range(0, len(vals), step << 1):
            for i in range(lo, lo + step):
                vals[i], vals[i + step] = kernel(vals[i], vals[i + step])
        step <<= 1
    return vals


def anf(f: BooleanFunction) -> AnfPolynomial:
    """Moebius transform over the subset lattice."""
    coef = yates(list(f.table), lambda a, b: (a, a ^ b))
    return AnfPolynomial(f.n, frozenset(m for m, c in enumerate(coef) if c))


def walsh_spectrum(f: BooleanFunction) -> list[float]:
    """All 2^n Fourier coefficients via the fast transform."""
    vals = yates([(-1) ** b for b in f.table], lambda a, b: (a + b, a - b))
    return [v / len(vals) for v in vals]


def f_max(f: BooleanFunction) -> float:
    """Largest absolute Fourier coefficient; distance to the best linear guess."""
    return max(abs(v) for v in walsh_spectrum(f))


def nchvm_bound(f: BooleanFunction) -> float:
    """Best success probability of any mod-2 linear (noncontextual) strategy."""
    return (1.0 + f_max(f)) / 2.0
