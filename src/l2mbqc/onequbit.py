"""Single-qubit programs conditioned on mod-2 linear functions of the input.

This is the intermediate representation between angle synthesis and the
measurement-schedule compiler: an ordered list of X/Z rotations whose angles
are switched on or sign-flipped by parities of the input bits, measured in
the Z basis at the end.  An optional classical output flip accounts for
functions with value 1 on the all-zero input, which no rotation sequence of
this form can produce at zero phase.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .boolean import BooleanFunction, dot2, parse_input
from .qsp import (FAILURE_TOL_OWN, QspAngles, rotation_product, verify_qsp,
                  verify_symmetric)

DETERMINISM_TOL = 1e-9

ALPHA = math.acos(1.0 / math.sqrt(3.0))  # frame angle of the three-cycle Clifford


@dataclass(frozen=True)
class Condition:
    """none: always apply; select: angle * l(x); sign: angle * (-1)^(l(x) xor bias)."""

    kind: str = "none"
    mask: int = 0
    bias: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "select", "sign"):
            raise ValueError(f"bad condition kind {self.kind!r}")
        if self.kind == "none" and (self.mask or self.bias):
            raise ValueError("unconditioned gates carry no mask or bias")


UNCONDITIONED = Condition()


@dataclass(frozen=True)
class Gate:
    axis: str
    angle: float
    cond: Condition = UNCONDITIONED

    def __post_init__(self):
        if self.axis not in ("X", "Z"):
            raise ValueError("axis must be X or Z")

    def effective_angle(self, x: int) -> float:
        if self.cond.kind == "none":
            return self.angle
        if self.cond.kind == "select":
            return self.angle if dot2(self.cond.mask, x) else 0.0
        s = dot2(self.cond.mask, x) ^ self.cond.bias
        return -self.angle if s else self.angle


@dataclass(frozen=True)
class EvalResult:
    unitary: np.ndarray
    distribution: tuple[float, float]
    deterministic_bit: int | None


@dataclass(frozen=True)
class OneQubitProgram:
    n: int
    gates: tuple[Gate, ...]
    flip_output: int = 0
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def to_json(self) -> str:
        import json
        return json.dumps({
            "n": self.n,
            "flip_output": self.flip_output,
            "gates": [{"axis": g.axis, "theta": g.angle,
                       "cond": {"type": g.cond.kind, "mask": g.cond.mask,
                                "bias": g.cond.bias}}
                      for g in self.gates],
        })

    @classmethod
    def from_json(cls, text: str) -> "OneQubitProgram":
        import json
        obj = json.loads(text)
        gates = tuple(Gate(g["axis"], g["theta"],
                           Condition(g["cond"]["type"], g["cond"].get("mask", 0),
                                     g["cond"].get("bias", 0)))
                      for g in obj["gates"])
        return cls(obj["n"], gates, obj.get("flip_output", 0))

    def unitary(self, x) -> np.ndarray:
        xi = parse_input(x, self.n) if self.n else 0
        return rotation_product([(g.axis, g.effective_angle(xi))
                                 for g in self.gates])[0]


def evaluate(prog: OneQubitProgram, x) -> EvalResult:
    """Exact product unitary and Z-readout distribution, with the output flip."""
    U = prog.unitary(x)
    p1 = abs(U[1, 0]) ** 2
    if prog.flip_output:
        dist = (p1, 1.0 - p1)
    else:
        dist = (1.0 - p1, p1)
    det = None
    if dist[0] >= 1.0 - DETERMINISM_TOL:
        det = 0
    elif dist[1] >= 1.0 - DETERMINISM_TOL:
        det = 1
    return EvalResult(U, dist, det)


def truth_table(prog: OneQubitProgram) -> tuple[int, ...]:
    """Deterministic output on every input; raises if any input is random."""
    out = []
    for x in range(1 << prog.n):
        res = evaluate(prog, x)
        if res.deterministic_bit is None:
            raise ValueError(f"program is not deterministic on input {x:0{prog.n}b}")
        out.append(res.deterministic_bit)
    return tuple(out)


def _clifford_cycle_unitary() -> np.ndarray:
    """The order-3 Clifford rotation mapping Z, X, Y cyclically (Z to X)."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    axis = (X + Y + Z) / math.sqrt(3.0)
    # rotation by -2pi/3 about the (1,1,1) axis sends Z->X->Y->Z
    return np.cos(np.pi / 3) * np.eye(2) - 1j * np.sin(np.pi / 3) * axis


CLIFFORD_CYCLE = _clifford_cycle_unitary()


def build_mod3_clifford(n: int) -> OneQubitProgram:
    """Weight-mod-3 test via the order-3 Clifford conjugation circuit.

    The abstract circuit is n conditioned cycle gates, one Z, and n inverse
    cycle gates (2n+1 gates); the stored form is its X/Z expansion with the
    global-phase frame rotations dropped, which evaluates identically and
    feeds the cluster compiler directly.
    """
    if n < 1:
        raise ValueError("n >= 1")
    theta = 2 * math.pi / 3
    gates = [Gate("X", ALPHA)]
    gates += [Gate("Z", -theta, Condition("select", 1 << k)) for k in range(n)]
    gates += [Gate("X", -2 * ALPHA)]
    gates += [Gate("Z", theta, Condition("select", 1 << k)) for k in range(n)]
    gates += [Gate("X", ALPHA)]
    return OneQubitProgram(n, tuple(gates),
                           meta={"abstract_gate_count": 2 * n + 1,
                                 "builder": "mod3_clifford"})


def _weight_program(n: int, angles: QspAngles, shift: int, flip: int,
                    meta: dict) -> OneQubitProgram:
    """QSP weight program: 2q-1 blocks rotating by 4*pi*(|x| - shift)/q about
    X between the axis changes, q = ``angles.grid_period``.

    Each block is n conditioned gates plus, for a nonzero shift, one
    unconditioned offset rotation.
    """
    step = 4 * math.pi / angles.grid_period
    L = angles.length
    gates: list[Gate] = [Gate("Z", angles.xi[0])]
    for mu in range(L):
        if shift:
            gates.append(Gate("X", -step * shift))
        gates += [Gate("X", step, Condition("select", 1 << k)) for k in range(n)]
        if mu < L - 1:
            gates.append(Gate("Z", angles.xi[mu + 1] - angles.xi[mu]))
    gates.append(Gate("Z", -angles.xi[L - 1]))
    return OneQubitProgram(n, tuple(gates), flip_output=flip, meta=meta)


def build_qsp_program(p: int, j: int, n: int, angles: QspAngles) -> OneQubitProgram:
    """Phase-processed weight-counting program from verified angles.

    The weight program at q = p shifted by the residue j: for j = 0 the gate
    count is exactly (2p-1)n + 2p, and a nonzero residue adds one
    unconditioned offset rotation per block.
    """
    if n < 1:
        raise ValueError("n >= 1")
    if angles.grid_period != p or angles.length != 2 * p - 1:
        raise ValueError("angles do not match the requested modulus")
    worst = verify_qsp(angles, p, j, max(n, p))
    if worst > FAILURE_TOL_OWN:
        raise ValueError(f"angles fail verification ({worst:.2e})")
    return _weight_program(n, angles, j, 0,
                           {"builder": "qsp_mod_p", "p": p, "j": j})


def build_symmetric_program(f: BooleanFunction, n: int,
                            angles: QspAngles) -> OneQubitProgram:
    """Program for an arbitrary symmetric function from its synthesized angles.

    Uses 4n+1 weight-rotation blocks of n conditioned gates plus 4n+2 axis
    rotations (4n^2 + 5n + 2 gates).  A function with value 1 at weight 0 is
    synthesized as its complement with the classical output flipped.
    """
    if not f.is_symmetric or f.n != n:
        raise ValueError("need a symmetric function of matching arity")
    if angles.grid_period != 2 * n + 1 or angles.length != 4 * n + 1:
        raise ValueError("angles do not match this arity")
    profile, f0 = f.zero_anchored_profile()
    worst = verify_symmetric(angles, profile)
    if worst > FAILURE_TOL_OWN:
        raise ValueError(f"angles fail verification ({worst:.2e})")
    return _weight_program(n, angles, 0, f0,
                           {"builder": "qsp_symmetric",
                            "profile": list(f.symmetric_profile)})


def build_commuting_program(d) -> OneQubitProgram:
    """Commuting X-rotations realizing a periodic Fourier decomposition.

    Output equals f(x) xor f(0); the constant is restored downstream by the
    schedule's output bit.
    """
    gates = tuple(Gate("X", math.pi * float(phi), Condition("select", mask))
                  for mask, phi in sorted(d.angles.items()))
    return OneQubitProgram(d.n, gates, meta={"builder": "commuting_pfd"})


def normalize_sign_form(prog: OneQubitProgram) -> OneQubitProgram:
    """Rewrite select conditioning as sign conditioning.

    Each select gate of angle t splits into a signed half rotation and an
    unconditioned half; unconditioned residues of a same-axis run commute and
    merge into a single trailing rotation, preserving the exact unitary.  The
    residue is summed with ``math.fsum``, so it is rounded once.
    """
    out: list[Gate] = []
    for axis, run in itertools.groupby(prog.gates, key=lambda g: g.axis):
        signed: list[Gate] = []
        parts: list[float] = []
        for g in run:
            if g.cond.kind == "select":
                signed.append(Gate(axis, g.angle / 2,
                                   Condition("sign", g.cond.mask, 1)))
                parts.append(g.angle / 2)
            elif g.cond.kind == "none":
                parts.append(g.angle)
            else:
                signed.append(g)
        residue = math.fsum(parts)
        out += signed
        if signed or residue != 0.0:
            out.append(Gate(axis, residue))
    return OneQubitProgram(prog.n, tuple(out), prog.flip_output,
                           meta={**prog.meta, "sign_form": True})


def or_reduction_bank(n: int) -> list[OneQubitProgram]:
    """Binary weight-counter programs reducing OR_n to OR over kappa bits.

    Program mu rotates by 2*pi*|x|/2^mu; the sampled output bits a satisfy
    OR(a) = OR_n(x) with certainty.  kappa = ceil(log2(n+1)) rather than
    ceil(log2 n) so that weight n never aliases to the all-zero counter
    when n is a power of two.
    """
    if n < 1:
        raise ValueError("n >= 1")
    kappa = math.ceil(math.log2(n + 1))
    bank = []
    for mu in range(1, kappa + 1):
        half = math.pi / (1 << mu)
        gates = [Gate("X", half, Condition("sign", 1 << k, 1)) for k in range(n)]
        gates.append(Gate("X", n * half))
        bank.append(OneQubitProgram(n, tuple(gates),
                                    meta={"builder": "or_reduction", "mu": mu}))
    return bank


def counter_bit_probability(n: int, mu: int, weight: int) -> float:
    """Closed-form chance that counter bit mu reads 1 at the given weight."""
    return math.sin(math.pi * weight / (1 << mu)) ** 2


def counter_bit_is_certain_one(mu: int, weight: int) -> bool:
    """Exact (integer) test for probability exactly 1: weight = 2^(mu-1) mod 2^mu."""
    return weight % (1 << mu) == (1 << (mu - 1))


@dataclass(frozen=True)
class MooreCounter:
    """Increment-mod-p unitary on kappa qubits, diagonalized by the DFT."""

    p: int
    kappa: int
    matrix: np.ndarray

    def counter_distribution(self, w: int) -> np.ndarray:
        """Measurement distribution over counter states after w increments of |0>."""
        dim = 1 << self.kappa
        state = np.zeros(dim, dtype=complex)
        state[0] = 1.0
        state = np.linalg.matrix_power(self.matrix, w) @ state
        return np.abs(state) ** 2


def moore_counter(p: int, n: int) -> MooreCounter:
    """Dense increment-mod-p unitary built as DFT * diagonal * DFT-adjoint.

    The diagonal is a tensor product of single-qubit Z rotations, so the
    conjugation is the only entangling layer.  Capped at four counter qubits.
    """
    if p < 2:
        raise ValueError("p >= 2")
    kappa = math.ceil(math.log2(p))
    if kappa > 4:
        raise ValueError("counter register capped at 4 qubits")
    dim = 1 << kappa
    dft = np.eye(dim, dtype=complex)
    block = np.array([[np.exp(-2j * np.pi * a * b / p) for b in range(p)]
                      for a in range(p)]) / np.sqrt(p)
    dft[:p, :p] = block
    diag = np.ones(1, dtype=complex)
    for jq in range(1, kappa + 1):
        theta = (1 << jq) * np.pi / p
        rzd = np.array([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        # qubit jq carries counter bit jq-1 (LSB first): kron in reversed order
        diag = np.kron(rzd, diag)
    M = dft @ np.diag(diag) @ dft.conj().T
    mc = MooreCounter(p, kappa, M)
    if np.max(np.abs(M @ M.conj().T - np.eye(dim))) > 1e-12:
        raise AssertionError("counter unitary failed unitarity check")
    return mc


def check_mod3_cycle() -> float:
    """Deviation of the stored cycle gate from its exponential form."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    dev = 0.0
    for src, dst in ((Z, X), (X, Y), (Y, Z)):
        dev = max(dev, float(np.max(np.abs(
            CLIFFORD_CYCLE @ src @ CLIFFORD_CYCLE.conj().T - dst))))
    return dev
