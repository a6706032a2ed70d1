"""Test oracles: direct restatements of what the pipeline claims.

No stage of l2mbqc calls these.  Each is written from its definition, not
from the library code it checks: a program is a product of dense 2x2
rotation matrices, the Sierpinski system is built entry by entry, and the
older constructions the paper reviews (the increment-mod-p counter, the
binary counter bits, the mod-p ANF recurrence) are stated in closed form.
"""
import math
from fractions import Fraction

import numpy as np

from l2mbqc.boolean import from_table, parse_input, popcount
from l2mbqc.qsp import FAILURE_TOL_OWN

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# rotation by -2pi/3 about the (1,1,1) axis; conjugation sends Z->X->Y->Z
CLIFFORD_CYCLE = (math.cos(math.pi / 3) * I2
                  - 1j * math.sin(math.pi / 3) * (X + Y + Z) / math.sqrt(3))


def rot_x(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * X


def rot_z(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * Z


def dot2(mask: int, x: int) -> int:
    """Mod-2 dot product of two packed bit vectors."""
    return popcount(mask & x) & 1


# -- one-qubit programs ------------------------------------------------------

def gate_angle(gate, x: int) -> float:
    """The angle a conditioned gate rotates by at the packed input x."""
    if gate.cond.kind == "none":
        return gate.angle
    if gate.cond.kind == "select":
        return gate.angle if dot2(gate.cond.mask, x) else 0.0
    return -gate.angle if dot2(gate.cond.mask, x) ^ gate.cond.bias else gate.angle


def program_unitary(prog, x) -> np.ndarray:
    """Product of the program's rotation matrices at input x."""
    xi = parse_input(x, prog.n)
    U = I2
    for g in prog.gates:
        U = (rot_x if g.axis == "X" else rot_z)(gate_angle(g, xi)) @ U
    return U


def readout(prog, x) -> tuple[float, float]:
    """Z-readout distribution at input x, with the output flip applied."""
    p1 = abs(program_unitary(prog, x)[1, 0]) ** 2
    return (p1, 1.0 - p1) if prog.flip_output else (1.0 - p1, p1)


def output_bit(prog, x) -> int | None:
    """The bit read out with certainty at input x, or None."""
    dist = readout(prog, x)
    return next((b for b in (0, 1) if dist[b] >= 1.0 - FAILURE_TOL_OWN), None)


def truth_table(prog) -> tuple:
    return tuple(output_bit(prog, x) for x in range(1 << prog.n))


# -- counters ----------------------------------------------------------------

def counter_bit_probability(mu: int, weight: int) -> float:
    """Chance that binary counter bit mu reads 1: sin^2(pi |x| / 2^mu)."""
    return math.sin(math.pi * weight / (1 << mu)) ** 2


def counter_bit_is_certain_one(mu: int, weight: int) -> bool:
    """Exact test for probability 1: weight = 2^(mu-1) mod 2^mu."""
    return weight % (1 << mu) == 1 << (mu - 1)


def moore_counter(p: int) -> np.ndarray:
    """Increment-mod-p unitary on ceil(log2 p) qubits, DFT * D * DFT^dag.

    D is a tensor product of single-qubit Z rotations, so the DFT
    conjugation is the only entangling layer.
    """
    kappa = math.ceil(math.log2(p))
    dft = np.eye(1 << kappa, dtype=complex)
    a = np.arange(p)
    dft[:p, :p] = np.exp(-2j * np.pi * np.outer(a, a) / p) / np.sqrt(p)
    diag = np.ones(1, dtype=complex)
    for jq in range(1, kappa + 1):
        half = (1 << jq) * np.pi / p / 2
        # qubit jq carries counter bit jq-1 (LSB first): kron in reversed order
        diag = np.kron([np.exp(-1j * half), np.exp(1j * half)], diag)
    return dft @ np.diag(diag) @ dft.conj().T


def counter_distribution(p: int, w: int) -> np.ndarray:
    """Counter-state distribution after w increments of |0>."""
    return np.abs(np.linalg.matrix_power(moore_counter(p), w)[:, 0]) ** 2


# -- Boolean analysis --------------------------------------------------------

def walsh_hadamard(f, k: int) -> float:
    """Fourier coefficient 2^-n sum_x (-1)^(f(x) + k.x), summed directly."""
    return sum((-1) ** (f.table[x] ^ dot2(k, x))
               for x in range(1 << f.n)) / (1 << f.n)


def anf_value(poly, x: int) -> int:
    """The ANF evaluated at x: the parity of the monomials x contains."""
    return sum(m & x == m for m in poly.monomials) & 1


def anf_weight_coefficients(poly) -> tuple[int, ...] | None:
    """Per-degree coefficients if the ANF is symmetric, else None."""
    return from_table([int(m in poly.monomials)
                       for m in range(1 << poly.n)]).symmetric_profile


def mod_p_anf_coeffs(p: int, n: int) -> list[tuple[int, ...]]:
    """Entry [mu][j]: the coefficient of the complete degree-mu symmetric
    monomial sum in the function that is 0 iff the weight is j mod p.

    Base case (0, 1, ..., 1); each degree adds the cyclic shift of the
    previous vector over F_2.
    """
    vecs = [tuple(int(j != 0) for j in range(p))]
    for _ in range(n):
        prev = vecs[-1]
        vecs.append(tuple(prev[j] ^ prev[j - 1] for j in range(p)))
    return vecs


# -- periodic Fourier decompositions -----------------------------------------

def sierpinski_matrix(n: int):
    """(M, M^-1) over nonzero masks in increasing order, the inverse in
    closed form and multiplied out exactly.

    M[y][p] = 2^(|y|-1) if p meets y, else 0, and the dyadic inverse is
    M^-1[p][y] = (-1)^(p.y + 1) [p | y is full] / 2^(|y|-1).
    """
    masks = range(1, 1 << n)
    full = (1 << n) - 1
    M = tuple(tuple((1 << (popcount(y) - 1)) * bool(p & y) for p in masks)
              for y in masks)
    Minv = tuple(tuple(Fraction((-1) ** (dot2(p, y) + 1) * ((p | y) == full),
                                1 << (popcount(y) - 1))
                       for y in masks) for p in masks)
    size = len(masks)
    for i in range(size):
        for k in range(size):
            if sum(Minv[i][j] * M[j][k] for j in range(size)) != (i == k):
                raise AssertionError("closed-form inverse failed exact check")
    return M, Minv


def brute_force_matrix_entry(y: int, p: int) -> int:
    """Direct definition of M[y][p]: the subsets x of y with p.x odd."""
    return sum(dot2(p, x) for x in range(y + 1) if x & y == x)
