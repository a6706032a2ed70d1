"""Exact simulation of measurement schedules.

Every schedule adapts a qubit only on outcomes of lower-id qubits (the
schedule checks this when it is built), and measurements on different qubits
commute, so the joint outcome distribution is sampled site by site in id
order.  Two engines step through that order: a dense state-vector oracle
(up to 20 qubits, and branch enumeration up to 14) and a bond-2 chain for
GHZ states, 1D clusters and composites of those.  The chain tensors are
right-canonical, so the unmeasured sites need no environment: one left
vector per batch row carries the state, and a batch row is one
(input, shot) pair.  Outcomes are drawn by inverse CDF on exact marginals
from a seeded generator (numpy's default PCG64 stream), one uniform per row
per site in id order, so runs are reproducible bit for bit across platforms.

The analytic path resolves the canonical adaptation symbolically: a compiled
schedule simulates a branch-independent single-qubit circuit whose rotation
angles depend only on the input, so success probabilities come from a
product of 2x2 matrices rather than from sampling.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .boolean import BooleanFunction, nchvm_bound, parse_input
from .mbqc import (MeasurementSchedule, PauliZBasis, QubitSpec, Resource,
                   ResourceReport, resources)
from .qsp import rot_x, rot_z

DENSE_CAP = 20
ENUM_CAP = 14
MARGINAL_TOL = 1e-12
SAMPLE_CHUNK = 1024  # rows per chain sweep in verify_protocol; bounds memory


def parity(v) -> np.ndarray:
    """Bit parity of non-negative integers below 2**63, elementwise."""
    v = np.asarray(v, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        v = v ^ (v >> shift)
    return v & 1


def _ids(qids) -> np.ndarray:
    return np.fromiter(qids, dtype=np.intp, count=len(qids))


def setting_bits(q: QubitSpec, xs, outcomes: np.ndarray) -> np.ndarray:
    """Setting bit P.x xor A.m of qubit q for every batch row.

    ``xs`` holds one input per row; row k of the uint8 array ``outcomes``
    holds qubit k's outcomes (row 0 is unused, so ids index rows).
    """
    return parity(q.p_mask & np.asarray(xs)) ^ np.bitwise_xor.reduce(
        outcomes[_ids(q.a_ids)], axis=0)


def output_bits(s: MeasurementSchedule, outcomes: np.ndarray) -> np.ndarray:
    """Output parity c xor O.m for every batch row."""
    return s.c ^ np.bitwise_xor.reduce(outcomes[_ids(s.o_ids)], axis=0)


def _angles(q: QubitSpec, setting: np.ndarray) -> np.ndarray:
    sign = 1.0 - 2.0 * ((setting ^ q.basis.bias) & 1)
    return q.basis.offset + sign * q.basis.theta


def xy_basis_vectors(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of cos(t)X + sin(t)Y for outcomes 0 and 1, batched."""
    e_minus = np.exp(-0.5j * angles)
    e_plus = np.exp(0.5j * angles)
    v0 = np.stack([e_minus, e_plus], axis=-1) / math.sqrt(2)
    v1 = np.stack([e_minus, -e_plus], axis=-1) / math.sqrt(2)
    return v0, v1


def _measurement_vectors(q: QubitSpec, setting: np.ndarray):
    if isinstance(q.basis, PauliZBasis):
        B = setting.shape[0]
        v0 = np.zeros((B, 2), dtype=complex)
        v1 = np.zeros((B, 2), dtype=complex)
        v0[:, 0] = 1.0
        v1[:, 1] = 1.0
        return v0, v1
    return xy_basis_vectors(_angles(q, setting))


# ---------------------------------------------------------------------------
# dense engine


def dense_state(resource: Resource) -> np.ndarray:
    """State vector with site i on axis i-1 of the reshaped tensor."""
    if resource.kind == "composite":
        state = np.ones(1, dtype=complex)
        for part in resource.parts:
            state = np.kron(state, dense_state(part))
        return state
    N = resource.n_qubits
    if N == 0:
        return np.ones(1, dtype=complex)
    if N > DENSE_CAP:
        raise ValueError(f"dense engine capped at {DENSE_CAP} qubits")
    if resource.kind == "ghz":
        state = np.zeros(1 << N, dtype=complex)
        state[0] = state[-1] = 1 / math.sqrt(2)
        return state
    idx = np.arange(1 << N)
    # site i corresponds to bit (N - i) counted from the LSB
    sign = np.zeros(1 << N, dtype=np.int64)
    for i in range(1, N):
        b1 = (idx >> (N - i)) & 1
        b2 = (idx >> (N - i - 1)) & 1
        sign += b1 * b2
    return ((-1.0) ** sign).astype(complex) / math.sqrt(1 << N)


class DenseEngine:
    """Exact statevector with single-site projective measurement."""

    def __init__(self, resource: Resource, state: np.ndarray | None = None,
                 live: set[int] | None = None):
        self.resource = resource
        self.state = dense_state(resource) if state is None else state
        self.live = (set(range(1, resource.n_qubits + 1))
                     if live is None else live)

    def copy(self) -> "DenseEngine":
        return DenseEngine(self.resource, self.state.copy(), set(self.live))

    def _amp(self, qid: int, v: np.ndarray) -> np.ndarray:
        axis = sorted(self.live).index(qid)
        t = self.state.reshape(1 << axis, 2, -1)
        return (v.conj() @ t).reshape(-1)

    def marginal(self, qid: int, v0: np.ndarray, v1: np.ndarray):
        a0 = self._amp(qid, v0[0] if v0.ndim == 2 else v0)
        a1 = self._amp(qid, v1[0] if v1.ndim == 2 else v1)
        p0 = float(np.sum(np.abs(a0) ** 2))
        p1 = float(np.sum(np.abs(a1) ** 2))
        return np.array([p0]), np.array([p1])

    def project(self, qid: int, v: np.ndarray, prob: np.ndarray) -> None:
        amp = self._amp(qid, v[0] if v.ndim == 2 else v)
        p = float(prob[0])
        if p <= 0:
            raise ZeroDivisionError("projection onto a zero-probability branch")
        self.live.discard(qid)
        self.state = amp / math.sqrt(p)


# ---------------------------------------------------------------------------
# chain engine (batched)


def _ghz_tensors(N: int) -> list[np.ndarray]:
    if N == 1:
        t = np.zeros((1, 2, 1), dtype=complex)
        t[0, :, 0] = 1 / math.sqrt(2)
        return [t]
    first = np.zeros((1, 2, 2), dtype=complex)
    first[0, 0, 0] = first[0, 1, 1] = 1 / math.sqrt(2)
    mid = np.zeros((2, 2, 2), dtype=complex)
    mid[0, 0, 0] = mid[1, 1, 1] = 1.0
    last = np.zeros((2, 2, 1), dtype=complex)
    last[0, 0, 0] = last[1, 1, 0] = 1.0
    return [first] + [mid] * (N - 2) + [last]


def _cluster_tensors(N: int) -> list[np.ndarray]:
    if N == 1:
        t = np.zeros((1, 2, 1), dtype=complex)
        t[0, :, 0] = 1 / math.sqrt(2)
        return [t]
    first = np.zeros((1, 2, 2), dtype=complex)
    first[0, 0, 0] = first[0, 1, 1] = 1 / math.sqrt(2)
    mid = np.zeros((2, 2, 2), dtype=complex)
    for a in range(2):
        for s in range(2):
            mid[a, s, s] = (-1.0) ** (a * s) / math.sqrt(2)
    last = np.zeros((2, 2, 1), dtype=complex)
    for a in range(2):
        for s in range(2):
            last[a, s, 0] = (-1.0) ** (a * s) / math.sqrt(2)
    return [first] + [mid] * (N - 2) + [last]


def _chain_tensors(resource: Resource) -> list[np.ndarray]:
    """Right-canonical (left, physical, right) tensors of sites 1..N.

    Parts of a composite join at bonds of dimension 1, so their tensors
    concatenate into one chain.
    """
    if resource.kind == "composite":
        return [t for part in resource.parts for t in _chain_tensors(part)]
    if resource.n_qubits == 0:
        return []
    if resource.kind == "ghz":
        return _ghz_tensors(resource.n_qubits)
    return _cluster_tensors(resource.n_qubits)


class ChainEngine:
    """Bond-2 chain measured site by site in id order, batched over rows.

    Right-canonical tensors make the identity the right environment of
    every site, so the (rows, bond) left vector is the whole state and a
    branch's probability is the squared norm of its next left vector.
    """

    def __init__(self, resource: Resource, batch: int = 1):
        self.tensors = _chain_tensors(resource)
        self.left = np.ones((batch, 1), dtype=complex)
        self.next = 1

    def _branch(self, qid: int, v: np.ndarray) -> np.ndarray:
        if qid != self.next:
            raise ValueError(f"chain measures qubit {self.next} next, not {qid}")
        A = self.tensors[qid - 1]
        l, _, r = A.shape
        t = self.left @ A.reshape(l, 2 * r)  # [:, :r] is s = 0, [:, r:] is s = 1
        v = v.conj()
        return v[:, :1] * t[:, :r] + v[:, 1:] * t[:, r:]

    def marginal(self, qid: int, v0: np.ndarray, v1: np.ndarray):
        # a matrix product, because numpy's sums over a length-2 axis are slow
        return tuple((np.abs(m) ** 2) @ np.ones(m.shape[1])
                     for m in (self._branch(qid, v0), self._branch(qid, v1)))

    def project(self, qid: int, v: np.ndarray, prob: np.ndarray) -> None:
        self.left = self._branch(qid, v) / np.sqrt(prob)[:, None]
        self.next += 1


# ---------------------------------------------------------------------------
# running schedules


def _drive(engines, s: MeasurementSchedule, xs: np.ndarray, rng):
    """Measure every qubit in id order on each engine, one row per input in xs.

    Outcomes are drawn from the first engine's marginals, one uniform per
    row per site, and forced on the others.  Returns the uint8 outcome rows
    (see ``setting_bits``) and the largest marginal disagreement between
    the first engine and the others.
    """
    outcomes = np.zeros((s.n_qubits + 1, len(xs)), dtype=np.uint8)
    gap = 0.0
    for q in sorted(s.qubits, key=lambda q: q.id):
        v0, v1 = _measurement_vectors(q, setting_bits(q, xs, outcomes))
        marginals = [eng.marginal(q.id, v0, v1) for eng in engines]
        p0, p1 = marginals[0]
        if np.max(np.abs(p0 + p1 - 1.0)) > MARGINAL_TOL:
            raise AssertionError("per-measurement marginals do not sum to 1")
        for m0, m1 in marginals[1:]:
            gap = max(gap, float(np.max(np.abs(m0 - p0))),
                      float(np.max(np.abs(m1 - p1))))
        out = rng.random(len(xs)) >= p0
        v = np.where(out[:, None], v1, v0)
        for eng, (m0, m1) in zip(engines, marginals):
            eng.project(q.id, v, np.where(out, m1, m0))
        outcomes[q.id] = out
    return outcomes, gap


def chain_sample(s: MeasurementSchedule, xs, rng) -> np.ndarray:
    """Sample one run per entry of xs (packed inputs) in a single chain sweep.

    Returns uint8 outcome rows: row k holds qubit k's outcomes, row 0 is
    unused.
    """
    xs = np.asarray(xs, dtype=np.int64)
    return _drive([ChainEngine(s.resource, len(xs))], s, xs, rng)[0]


def run_schedule_batch(s: MeasurementSchedule, x, shots: int, seed: int,
                       engine: str = "auto"):
    """Sample shots runs at one input, measuring in id order.

    Returns (outcome arrays keyed by qubit id, output bits), each of shape
    (shots,).  Identical seeds reproduce identical runs, and the dense and
    chain engines consume the seed's stream identically.
    """
    xi = parse_input(x, s.arity) if s.arity else 0
    if engine == "auto":
        engine = "mps" if (shots > 1 or s.n_qubits > DENSE_CAP) else "dense"
    if engine == "mps":
        eng = ChainEngine(s.resource, shots)
    elif engine == "dense":
        if shots != 1:
            raise ValueError("dense runs are single-shot")
        eng = DenseEngine(s.resource)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    xs = np.full(shots, xi, dtype=np.int64)
    outcomes, _ = _drive([eng], s, xs, np.random.default_rng(seed))
    return ({qid: outcomes[qid] for qid in range(1, s.n_qubits + 1)},
            output_bits(s, outcomes))


def run_shot(s: MeasurementSchedule, x, seed: int,
             engine: str = "auto") -> tuple[dict[int, int], int]:
    """Single seeded shot; returns the outcome record and the output bit."""
    if engine == "auto":
        engine = "dense" if s.n_qubits <= DENSE_CAP else "mps"
    outcomes, y = run_schedule_batch(s, x, 1, seed, engine)
    return {qid: int(v[0]) for qid, v in outcomes.items()}, int(y[0])


def _walk(eng: DenseEngine, order, xs, outcomes, weight: float, key, result):
    """Depth-first over outcome branches; adds leaf weights to result[key]."""
    if weight <= 1e-300:
        return
    if not order:
        k = key(outcomes)
        result[k] = result.get(k, 0.0) + weight
        return
    q = order[0]
    v0, v1 = _measurement_vectors(q, setting_bits(q, xs, outcomes))
    p0, p1 = eng.marginal(q.id, v0, v1)
    if abs(float(p0[0] + p1[0]) - 1.0) > MARGINAL_TOL:
        raise AssertionError("branch marginals do not sum to 1")
    for out, v, p in ((0, v0, p0), (1, v1, p1)):
        if p[0] <= 1e-300:
            continue
        sub = eng.copy()
        sub.project(q.id, v, p)
        outcomes[q.id] = out
        _walk(sub, order[1:], xs, outcomes, weight * float(p[0]), key, result)


def _enumerate(s: MeasurementSchedule, x, key) -> dict:
    """Born weights of all outcome branches in id order, summed by key."""
    if s.n_qubits > ENUM_CAP:
        raise ValueError(f"branch enumeration capped at {ENUM_CAP} qubits")
    xs = np.array([parse_input(x, s.arity) if s.arity else 0])
    outcomes = np.zeros((s.n_qubits + 1, 1), dtype=np.uint8)
    result: dict = {}
    _walk(DenseEngine(s.resource), sorted(s.qubits, key=lambda q: q.id), xs,
          outcomes, 1.0, key, result)
    return result


def exact_distribution(s: MeasurementSchedule, x) -> dict[int, float]:
    """Output distribution by summing Born weights over all outcome branches."""
    return {0: 0.0, 1: 0.0} | _enumerate(
        s, x, lambda outcomes: int(output_bits(s, outcomes)[0]))


def branch_distribution(s: MeasurementSchedule, x) -> dict[tuple[int, ...], float]:
    """Probability of every full outcome string (dense enumeration)."""
    return _enumerate(s, x, lambda outcomes: tuple(outcomes[1:, 0].tolist()))


# ---------------------------------------------------------------------------
# analytic effective circuit


@dataclass(frozen=True)
class EffectiveCircuit:
    unitary: np.ndarray
    output_distribution: tuple[float, float]  # over y, constant folded in


def effective_unitaries(s: MeasurementSchedule, xs) -> np.ndarray:
    """Effective-circuit unitaries of a compiled schedule, one per input.

    Canonical adaptation makes the sign corrections cancel symbolically, so
    the rotation at each site is offset + (-1)^(P.x xor bias) * theta; on a
    chain, odd sites rotate about X and even sites about Z, and the output
    parity follows the final state's Z readout.  Returns shape (len(xs), 2, 2).
    """
    if not s.compiled:
        raise ValueError("schedule is not tagged as compiler-generated")
    kind = s.resource.kind
    if kind == "composite":
        raise ValueError("no effective circuit for composite schedules")
    xs = np.asarray(xs, dtype=np.int64)
    U = np.tile(np.eye(2, dtype=complex), (len(xs), 1, 1))
    for q in sorted(s.qubits, key=lambda q: q.id):
        if isinstance(q.basis, PauliZBasis):
            raise ValueError("no effective circuit with Pauli-Z cuts")
        delta = _angles(q, parity(q.p_mask & xs))[:, None, None]
        about_x = kind == "ghz" or q.id % 2 == 1
        U = (rot_x(delta) if about_x else rot_z(delta)) @ U
    return U


def effective_circuit(s: MeasurementSchedule, x) -> EffectiveCircuit:
    """Branch-independent circuit of a compiled schedule at a given input."""
    U = effective_unitaries(s, [parse_input(x, s.arity) if s.arity else 0])[0]
    p1 = float(abs(U[1, 0]) ** 2)
    dist = (p1, 1.0 - p1) if s.c else (1.0 - p1, p1)
    return EffectiveCircuit(U, dist)


def analytic_success(s: MeasurementSchedule, f: BooleanFunction, x) -> float:
    eff = effective_circuit(s, x)
    return eff.output_distribution[f(x)]


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class InputRecord:
    x: int
    target: int
    analytic_success: float | None
    exact_success: float | None
    shots: int
    correct: int


@dataclass(frozen=True)
class SimulationReport:
    function: str
    arity: int
    records: tuple[InputRecord, ...]
    resources: ResourceReport
    seed: int

    @property
    def min_analytic(self) -> float | None:
        vals = [r.analytic_success for r in self.records
                if r.analytic_success is not None]
        return min(vals) if vals else None

    @property
    def min_exact(self) -> float | None:
        vals = [r.exact_success for r in self.records
                if r.exact_success is not None]
        return min(vals) if vals else None

    @property
    def empirical_rate(self) -> float:
        total = sum(r.shots for r in self.records)
        good = sum(r.correct for r in self.records)
        return good / total if total else 1.0

    @property
    def all_shots_correct(self) -> bool:
        return all(r.correct == r.shots for r in self.records)

    def to_json(self) -> str:
        return json.dumps({
            "function": self.function,
            "arity": self.arity,
            "seed": self.seed,
            "resources": {"l_q": self.resources.l_q, "l_c": self.resources.l_c,
                          "t_q": self.resources.t_q, "t_c": self.resources.t_c,
                          "volume": self.resources.volume},
            "min_analytic": self.min_analytic,
            "min_exact": self.min_exact,
            "empirical_rate": self.empirical_rate,
            "inputs": [{"x": r.x, "target": r.target,
                        "analytic": r.analytic_success, "exact": r.exact_success,
                        "shots": r.shots, "correct": r.correct}
                       for r in self.records],
        }, indent=1)

    def to_csv(self) -> str:
        lines = ["x,target,analytic,exact,shots,correct"]
        for r in self.records:
            analytic = "" if r.analytic_success is None else f"{r.analytic_success:.12g}"
            exact = "" if r.exact_success is None else f"{r.exact_success:.12g}"
            lines.append(f"{r.x},{r.target},{analytic},{exact},{r.shots},{r.correct}")
        return "\n".join(lines) + "\n"


def verify_protocol(s: MeasurementSchedule, f: BooleanFunction,
                    shots_per_input: int = 100, seed: int = 2024,
                    use_exact: bool | None = None) -> SimulationReport:
    """Score a schedule against its target on every input.

    Runs the analytic effective circuit when the schedule supports it, branch
    enumeration when the register is small enough, and seeded sampling
    always.  Sampling is a smoke test; the determinism claims rest on the
    analytic values.  The sampled rows are input-major (every shot of input
    0, then of input 1, ...) and share one generator seeded with ``seed``,
    swept SAMPLE_CHUNK rows at a time.
    """
    if f.n != s.arity:
        raise ValueError("arity mismatch")
    if use_exact is None:
        use_exact = s.n_qubits <= ENUM_CAP
    inputs = np.arange(1 << f.n)
    targets = np.array(f.table, dtype=np.int64)
    analytic = [None] * len(inputs)
    if s.compiled and s.resource.kind != "composite" and not any(
            isinstance(q.basis, PauliZBasis) for q in s.qubits):
        p1 = np.abs(effective_unitaries(s, inputs)[:, 1, 0]) ** 2
        analytic = np.where(targets ^ s.c, p1, 1.0 - p1).tolist()
    correct = np.zeros(len(inputs), dtype=np.int64)
    if shots_per_input:
        rows = np.repeat(inputs, shots_per_input)
        rng = np.random.default_rng(seed)
        for start in range(0, len(rows), SAMPLE_CHUNK):
            xs = rows[start:start + SAMPLE_CHUNK]
            ys = output_bits(s, chain_sample(s, xs, rng))
            correct += np.bincount(xs[ys == targets[xs]], minlength=len(inputs))
    records = []
    for x in range(len(inputs)):
        target = int(targets[x])
        exact = None
        if use_exact and s.n_qubits <= ENUM_CAP:
            exact = exact_distribution(s, x)[target]
        for val in (analytic[x], exact):
            if val is not None and not -1e-12 <= val <= 1 + 1e-12:
                raise AssertionError(f"success probability {val} out of range")
        records.append(InputRecord(x, target, analytic[x], exact,
                                   shots_per_input, int(correct[x])))
    return SimulationReport(f.kind, f.n, tuple(records), resources(s), seed)


@dataclass(frozen=True)
class BellScore:
    quantum_success: float
    classical_bound: float
    best_linear_success: float

    @property
    def violates(self) -> bool:
        return self.quantum_success > self.classical_bound + 1e-12


def bell_score(s: MeasurementSchedule, f: BooleanFunction,
               shots_per_input: int = 0, seed: int = 7) -> BellScore:
    """Quantum success versus the exact best-linear (hidden-variable) bound.

    The classical side is computed from the Fourier spectrum, never sampled:
    the best mod-2 linear strategy succeeds on exactly (1 + max |coeff|)/2
    of the inputs.
    """
    beta = nchvm_bound(f)
    report = verify_protocol(s, f, shots_per_input, seed)
    if report.min_analytic is not None:
        quantum = report.min_analytic
    elif report.min_exact is not None:
        quantum = report.min_exact
    else:
        quantum = report.empirical_rate
    return BellScore(quantum, beta, beta)


def compare_engines(s: MeasurementSchedule, x, seed: int = 11) -> float:
    """Drive the dense and chain engines through one run in id order.

    Outcomes are drawn from the dense marginals and forced on the chain.
    Returns the largest per-measurement marginal disagreement.
    """
    xs = np.array([parse_input(x, s.arity) if s.arity else 0])
    engines = [DenseEngine(s.resource), ChainEngine(s.resource)]
    return _drive(engines, s, xs, np.random.default_rng(seed))[1]
