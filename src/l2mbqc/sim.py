"""Exact simulation of measurement schedules.

Every schedule adapts a qubit only on outcomes of lower-id qubits (the
schedule checks this when it is built), and measurements on different qubits
commute, so the joint outcome distribution is sampled site by site in id
order.  The sampler and the exact DP run on one bond-2 chain for GHZ
states, 1D clusters and composites of those, whose right-canonical tensors
need no environment.  The side processor sends each qubit one setting bit,
so each site's four (setting, outcome) projections of its tensor are
tabulated once per schedule (``_site_table``), and a sweep first computes
the input parities P.x of each distinct input mask, which many sites share.
One step (``_branches``) measures a site on a stack of bond factors, held
as float64 with (re, im) pairs side by side, by one real matrix product
with its table entry and a gather at the (state, setting) rows its caller
passes, returning both outcome branches, contiguous, and their weights and
checking that those weights sum to the state's weight:

- sampling keeps one normalised factor per batch row, a row being one
  (input, shot) pair, and draws its branch by inverse CDF from a seeded
  generator (numpy's default PCG64 stream), one uniform per row per site
  in id order, so runs are reproducible bit for bit across platforms;
- exact output distributions, at any size, keep one factor per (input,
  key): the side processor is mod-2 linear, so branches that agree on the
  parities the rest of the run still reads merge exactly, and which key a
  branch leads to is the same on every input, so one sweep with one key
  list serves a whole batch of inputs.

A dense state-vector engine (at most ENUM_CAP qubits) steps through the
same order, checks its own marginals and serves only as the independent
oracle; enumerating every outcome string is a dense walk on it.

The analytic path resolves the canonical adaptation symbolically: on a
schedule that ``mbqc`` derives as compiled, a branch-independent 2x2 circuit
with input-dependent angles gives the success probabilities, not sampling.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .boolean import BooleanFunction, nchvm_bound, parse_input
from .mbqc import (MeasurementSchedule, PauliZBasis, QubitSpec, Resource,
                   ResourceReport, XYBasis, resources)
from .qsp import FAILURE_TOL_OWN, rotation_product

ENUM_CAP = 14  # qubits; caps the dense engine and branch enumeration
MARGINAL_TOL = 1e-12
SAMPLE_CHUNK = 1024  # rows per chain sweep in verify_protocol; bounds memory


def parity(v) -> np.ndarray:
    """Bit parity of non-negative integers below 2**63, elementwise, as
    uint8 like the outcome rows it is XORed with."""
    return np.bitwise_count(np.asarray(v, dtype=np.int64)) & 1


def _id_rows(qids) -> np.ndarray:
    """Qubit ids as a sorted index array into outcome rows."""
    return np.array(sorted(qids), dtype=np.intp)


def _row_parity(outcomes: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """XOR of the outcome rows at the qubit ids ``rows`` (see
    ``chain_sample``), per batch row."""
    return np.bitwise_xor.reduce(outcomes[rows], axis=0)


def input_parities(qubits, xs) -> dict[int, np.ndarray]:
    """The input parities P.x of each distinct ``p_mask`` among qubits, for
    the packed inputs xs.  They depend only on the mask and the inputs, so a
    sweep computes them once, not once per site."""
    xs = np.asarray(xs, dtype=np.int64)
    return {m: parity(m & xs) for m in {q.p_mask for q in qubits}}


def setting_bits(q: QubitSpec, px: dict[int, np.ndarray], adapt) -> np.ndarray:
    """Setting bit P.x xor A.m of qubit q for every batch row.

    ``px`` holds the rows' input parities by mask (``input_parities``) and
    ``adapt`` the parity A.m of the row's outcomes on ``q.a_ids``.
    """
    return px[q.p_mask] ^ adapt


def output_bits(s: MeasurementSchedule, outcomes: np.ndarray) -> np.ndarray:
    """Output parity c xor O.m for every batch row."""
    return s.c ^ _row_parity(outcomes, _id_rows(s.o_ids))


def xy_basis_vectors(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of cos(t)X + sin(t)Y for outcomes 0 and 1, batched."""
    e_minus = np.exp(-0.5j * angles)
    e_plus = np.exp(0.5j * angles)
    v0 = np.stack([e_minus, e_plus], axis=-1) / math.sqrt(2)
    v1 = np.stack([e_minus, -e_plus], axis=-1) / math.sqrt(2)
    return v0, v1


# ---------------------------------------------------------------------------
# dense engine


def dense_state(resource: Resource) -> np.ndarray:
    """State vector with site i on axis i-1 of the reshaped tensor."""
    N = resource.n_qubits
    if N > ENUM_CAP:
        raise ValueError(f"dense engine capped at {ENUM_CAP} qubits, "
                         f"got {N}")
    if resource.kind == "composite":
        state = np.ones(1, dtype=complex)
        for part in resource.parts:
            state = np.kron(state, dense_state(part))
        return state
    if N == 0:
        return np.ones(1, dtype=complex)
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
    """Exact state vector, measured one site at a time in id order.

    The state holds the unmeasured sites first..N; ``marginal`` reads any of
    them, ``project`` only the next.  Vectors are (1, 2) batch rows, and
    ``marginal`` checks that its two probabilities sum to 1.
    """

    def __init__(self, resource: Resource, state: np.ndarray | None = None,
                 first: int = 1):
        self.resource = resource
        self.state = dense_state(resource) if state is None else state
        self.first = first

    def copy(self) -> "DenseEngine":
        return DenseEngine(self.resource, self.state.copy(), self.first)

    def _amp(self, qid: int, v: np.ndarray) -> np.ndarray:
        t = self.state.reshape(1 << (qid - self.first), 2, -1)
        return (v[0].conj() @ t).reshape(-1)

    def marginal(self, qid: int, v0: np.ndarray, v1: np.ndarray):
        p0, p1 = (np.array([float(np.sum(np.abs(self._amp(qid, v)) ** 2))])
                  for v in (v0, v1))
        if abs(float(p0[0] + p1[0]) - 1.0) > MARGINAL_TOL:
            raise AssertionError("dense marginals do not sum to 1")
        return p0, p1

    def project(self, qid: int, v: np.ndarray, prob: np.ndarray) -> None:
        if qid != self.first:
            raise ValueError(f"dense engine measures qubit {self.first} next, "
                             f"not {qid}")
        p = float(prob[0])
        if p <= 0:
            raise ZeroDivisionError("projection onto a zero-probability branch")
        self.state = self._amp(qid, v) / math.sqrt(p)
        self.first += 1


# ---------------------------------------------------------------------------
# chain


def _chain_tensors(resource: Resource) -> list[np.ndarray]:
    """Right-canonical (left, physical, right) tensors of sites 1..N.

    The bond carries the previous site's Z value.  GHZ sites copy it; cluster
    sites apply the CZ sign (-1)^(a s) and 1/sqrt(2).  The last site sums
    its right index out.  Parts of a composite join at bonds of dimension 1,
    so their tensors concatenate into one chain.
    """
    if resource.kind == "composite":
        return [t for part in resource.parts for t in _chain_tensors(part)]
    N = resource.n_qubits
    if N == 0:
        return []
    first = np.zeros((1, 2, 2), dtype=complex)
    first[0, 0, 0] = first[0, 1, 1] = 1 / math.sqrt(2)
    if N == 1:
        return [first.sum(axis=2, keepdims=True)]
    mid = np.zeros((2, 2, 2), dtype=complex)
    if resource.kind == "ghz":
        mid[0, 0, 0] = mid[1, 1, 1] = 1.0
    else:
        mid[:, 0, 0] = 1 / math.sqrt(2)
        mid[:, 1, 1] = np.array([1.0, -1.0]) / math.sqrt(2)
    return [first] + [mid] * (N - 2) + [mid.sum(axis=2, keepdims=True)]


class SiteTable(NamedTuple):
    """A schedule's per-site data, sites in id order (``_site_table``)."""
    angles: np.ndarray   # (N, setting)
    vectors: np.ndarray  # (N, setting, outcome, 2)
    kernels: np.ndarray  # (N, 2 * l, setting * outcome * r * 2), real
    a_rows: tuple[np.ndarray, ...]  # each site's a_ids as an intp array


def _site_table(s: MeasurementSchedule) -> SiteTable:
    """The schedule's site table, built on first use and kept on the
    schedule: it is a pure function of the frozen fields, and a sweep, the
    analytic path and ``compare_engines`` all read it.  Its arrays are
    read-only, as every holder of the schedule shares them."""
    table = s.__dict__.get("_site_table")
    if table is None:
        table = _build_site_table(s)
        object.__setattr__(s, "_site_table", table)
    return table


def _build_site_table(s: MeasurementSchedule) -> SiteTable:
    """The (N, setting) angles offset + (-1)^(setting xor bias) * theta,
    their (N, setting, outcome, 2) eigenvectors (the Z basis on Pauli-Z
    sites), the kernels v^H A, bonds padded to 2, and each site's a_ids as
    an index array.

    A kernel K is the complex (l, setting * outcome * r) matrix v^H A,
    stored as the real (2l, 2 * setting * outcome * r) matrix that acts on
    (re, im) pairs: for a complex F, ``F.view(float) @ kernel`` equals
    ``(F @ K).view(float)``, so the chain step is one real GEMM."""
    z = np.array([isinstance(q.basis, PauliZBasis) for q in s.qubits], bool)
    xy = [XYBasis(0.0) if zq else q.basis for zq, q in zip(z, s.qubits)]
    bias = np.array([b.bias for b in xy], dtype=np.int64)[:, None]
    sign = 1.0 - 2.0 * ((np.arange(2) ^ bias) & 1)
    angles = (np.array([b.offset for b in xy], dtype=float)[:, None]
              + sign * np.array([b.theta for b in xy], dtype=float)[:, None])
    vectors = np.stack(xy_basis_vectors(angles), axis=2)
    vectors[z] = np.eye(2)
    A = np.zeros((s.n_qubits, 2, 2, 2), dtype=complex)
    for a, T in zip(A, _chain_tensors(s.resource)):
        a[:T.shape[0], :, :T.shape[2]] = T
    # einsum, not a BLAS product, keeps exactly cancelling branches at 0
    K = np.einsum("isoc,ilcr->ilsor", vectors.conj(), A).reshape(-1, 2, 8)
    # F_c K = re(F_c) K + im(F_c) iK: row 2c of the real kernel is K[c] and
    # row 2c + 1 is iK[c], each as (re, im) floats
    kernels = (K[:, :, None] * np.array([[1], [1j]])).view(np.float64)
    table = SiteTable(angles, vectors, kernels.reshape(-1, 4, 16),
                      tuple(_id_rows(q.a_ids) for q in s.qubits))
    for a in (table.angles, table.vectors, table.kernels, *table.a_rows):
        a.flags.writeable = False
    return table


_ONES = np.ones(8)  # the float64 length of a (bond, bond) complex block
_ONES.flags.writeable = False


def _sq_norms(T: np.ndarray) -> np.ndarray:
    """Squared norm over the last two axes of a float64 stack of bond
    blocks, at most (2, 4): a complex (2, 2) block with (re, im) pairs
    side by side.  Summed by a matrix product, because numpy's sums over
    short axes are slow."""
    size = T.shape[-2] * T.shape[-1]
    f = T.reshape(-1, size)
    return ((f * f) @ _ONES[:size]).reshape(T.shape[:-2])


def _branches(F: np.ndarray, K: np.ndarray, at: np.ndarray):
    """Both outcomes of measuring the next site, on a stack of states.

    State i is the (k, l) complex factor F[i] of the bond matrix F^H F,
    held as float64 with (re, im) pairs side by side, so F is (states, k,
    2l); its weight is the squared norm of F[i], as the tensors are
    right-canonical.  K is the site's real kernel (``_site_table``); the
    product F @ K has two rows per factor row j, one per setting, and
    ``at`` picks row 2j + setting for each factor row in order.  Returns
    the (states, 2, k, 2r) branches as one C-contiguous array, so branch m
    of state i is row 2i + m of ``B.reshape(2 * states, k, 2 * r)``, their
    (states, 2) weights, and per state the gap between its weight and its
    branches' sum and the weight itself.  Each gap must stay within
    MARGINAL_TOL times the weight: a NaN fails, and a dead row (0 <= 0)
    passes.
    """
    n, k, l = F.shape
    c = K.shape[1] // 4  # floats in a branch's factor row
    t = (F.reshape(n * k, l) @ K).reshape(2 * n * k, 2 * c)  # row, setting
    # a copy only at k > 1 (the DP); at k = 1 the swap is already contiguous
    B = np.ascontiguousarray(
        t.take(at, axis=0).reshape(n, k, 2, c).swapaxes(1, 2))
    w = _sq_norms(B)
    total = _sq_norms(F)
    dev = np.abs(w[:, 0] + w[:, 1] - total)
    if not (dev <= MARGINAL_TOL * total).all():
        raise AssertionError("branch weights do not sum to the state weight")
    return B, w, dev, total


# ---------------------------------------------------------------------------
# running schedules


def _drive(s: MeasurementSchedule, xs: np.ndarray, rng,
           dense: DenseEngine | None = None):
    """Sample one run per input in xs by one chain sweep in id order.

    Each row keeps a normalised (1, bond) factor, on floats as in
    ``_branches``, and one uniform per site picks its branch: outcome m of
    row i is flat branch 2i + m of the contiguous ``_branches`` output, one
    ``take`` on branches and weights alike.  Given a dense engine, outcomes
    are drawn from its marginals and forced on both.  Returns the outcome
    rows (see ``chain_sample``) and the largest dense-chain marginal gap.
    """
    table = _site_table(s)
    px = input_parities(s.qubits, xs)
    rows2 = 2 * np.arange(len(xs))
    outcomes = np.zeros((s.n_qubits + 1, len(xs)), dtype=np.uint8)
    F = np.zeros((len(xs), 1, 4)) + (1, 0, 0, 0)
    gap = 0.0
    for q, K, V, a in zip(s.qubits, table.kernels, table.vectors,
                          table.a_rows):
        setting = setting_bits(q, px, _row_parity(outcomes, a))
        B, w, *_ = _branches(F, K, rows2 + setting)
        p = w if dense is None else np.column_stack(
            dense.marginal(q.id, V[setting, 0], V[setting, 1]))
        out = (rng.random(len(xs)) >= p[:, 0]).view(np.uint8)
        pick = rows2 + out
        if dense is not None:
            gap = max(gap, float(np.max(np.abs(w - p))))
            dense.project(q.id, V[setting, out], p.reshape(-1).take(pick))
        F = B.reshape(-1, *B.shape[2:]).take(pick, axis=0)
        F *= (1 / np.sqrt(w.reshape(-1).take(pick)))[:, None, None]
        outcomes[q.id] = out
    return outcomes, gap


def chain_sample(s: MeasurementSchedule, xs, rng) -> np.ndarray:
    """Sample one run per entry of xs (packed inputs) in a single chain sweep.

    Returns uint8 outcome rows: row k holds qubit k's outcomes, row 0 is
    unused, so qubit ids index rows.
    """
    return _drive(s, np.asarray(xs, dtype=np.int64), rng)[0]


def run_schedule_batch(s: MeasurementSchedule, x, shots: int, seed: int):
    """Sample shots runs at one input in one chain sweep.

    Returns (outcome arrays keyed by qubit id, output bits), each of shape
    (shots,).  Identical seeds reproduce identical runs.
    """
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    xi = parse_input(x, s.arity)
    outcomes = chain_sample(s, np.full(shots, xi),
                            np.random.default_rng(seed))
    return ({qid: outcomes[qid] for qid in range(1, s.n_qubits + 1)},
            output_bits(s, outcomes))


def run_shot(s: MeasurementSchedule, x,
             seed: int) -> tuple[dict[int, int], int]:
    """Single seeded shot; returns the outcome record and the output bit."""
    outcomes, y = run_schedule_batch(s, x, 1, seed)
    return {qid: int(v[0]) for qid, v in outcomes.items()}, int(y[0])


def _walk(eng: DenseEngine, order, px, outcomes, weight: float, result):
    """Depth-first over outcome branches; adds leaf weights to result.
    ``order`` holds the unmeasured qubits with their site-table vectors and
    adaptation rows, and ``px`` the input parities (``input_parities``)."""
    if weight <= 1e-300:
        return
    if not order:
        k = tuple(outcomes[1:, 0].tolist())
        result[k] = result.get(k, 0.0) + weight
        return
    q, V, a = order[0]
    v = V[setting_bits(q, px, _row_parity(outcomes, a))]
    for out, p in enumerate(eng.marginal(q.id, v[:, 0], v[:, 1])):
        if p[0] <= 1e-300:
            continue
        sub = eng.copy()
        sub.project(q.id, v[:, out], p)
        outcomes[q.id] = out
        _walk(sub, order[1:], px, outcomes, weight * float(p[0]), result)


def branch_distribution(s: MeasurementSchedule, x) -> dict[tuple[int, ...], float]:
    """Probability of every full outcome string, by a dense walk in id order.

    It lists up to 2^N strings on the dense engine, so it is capped at
    ENUM_CAP qubits.  It shares no state representation with the chain,
    which makes it the independent oracle for ``exact_distribution`` and
    ``chain_sample``.
    """
    xs = np.array([parse_input(x, s.arity)])
    outcomes = np.zeros((s.n_qubits + 1, 1), dtype=np.uint8)
    result: dict = {}
    table = _site_table(s)
    _walk(DenseEngine(s.resource),
          list(zip(s.qubits, table.vectors, table.a_rows)),
          input_parities(s.qubits, xs), outcomes, 1.0, result)
    return result


class OutputDistribution(dict):
    """{y: probability} of the output bit, with the counters of the DP.

    ``peak_states`` is the largest number of DP keys held at once (one key
    list serves every input of a sweep), and ``marginal_dev`` the worst gap
    between a state's weight and the sum of its two outcome weights,
    relative to that weight.
    """
    peak_states: int = 0
    marginal_dev: float = 0.0


def exact_distributions(s: MeasurementSchedule, xs) -> list[OutputDistribution]:
    """Output distributions of the packed inputs xs by one parity-keyed DP.

    The side processor only adds outcomes mod 2, so the rest of a run sees
    the past outcomes only through a few parities: for each unmeasured
    qubit, the parity of its measured ``a_ids``, and for the output, the
    parity of its measured ``o_ids``.  One sweep in id order keys the DP
    states on those parities (bit q for qubit q, bit 0 for the output) and
    holds an unnormalised bond x bond density matrix rho per (input, key).
    Branches with equal keys merge exactly, because every later weight is
    linear in rho, and the right-canonical chain makes a state's weight its
    trace.  Which key an outcome leads to does not depend on the input, so
    all inputs share one key list; only the setting bit P.x xor key bit
    does.  A branch of weight at most 1e-300 on an input is zeroed on that
    input, and a key is dropped once it is dead on every input.

    rho is held as a square factor F with rho = F^H F, on floats as in
    ``_branches``, so it is measured as a sampled row is and every weight
    is a sum of squares; a merged stack of factors is squared up again by
    QR on its complex view.  A density matrix stored as such would let a
    zero-weight branch carry rounding noise far above its own trace.  Each
    distribution carries the whole sweep's counters.
    """
    xs = np.asarray(xs, dtype=np.int64)
    flips = [0] * (s.n_qubits + 1)  # key bits that outcome 1 on qubit k toggles
    for q in s.qubits:
        for a in q.a_ids:
            flips[a] |= 1 << q.id
    for o in s.o_ids:
        flips[o] |= 1
    keys = [0]
    # (inputs, keys, bond, 2 * bond), bonds padded to 2 as in the kernels
    F = np.zeros((len(xs), 1, 1, 4)) + (1, 0, 0, 0)
    peak, dev = 1, 0.0
    px = input_parities(s.qubits, xs[:, None])
    for q, kernel in zip(s.qubits, _site_table(s).kernels):
        n, K, k, l = F.shape
        bits = np.array([(key >> q.id) & 1 for key in keys], dtype=np.uint8)
        setting = setting_bits(q, px, bits).reshape(-1)
        B, w, gap, total = _branches(F.reshape(n * K, k, l), kernel,
                                     2 * np.arange(n * K * k)
                                     + setting.repeat(k))
        # relative to the state's weight; a row zeroed on its input has none
        dev = max(dev, float(np.divide(gap, total, out=np.zeros(n * K),
                                       where=total > 0).max(initial=0.0)))
        r = B.shape[-1] // 2
        alive = w.reshape(n, K, 2) > 1e-300
        B = np.where(alive[..., None, None], B.reshape(n, K, 2, k, 2 * r), 0)
        live = alive.any(axis=0).tolist()
        drop = ~(1 << q.id)
        groups: dict[int, list[np.ndarray]] = {}
        for i, key in enumerate(keys):
            for m, nk in ((0, key & drop), (1, (key ^ flips[q.id]) & drop)):
                if live[i][m]:
                    groups.setdefault(nk, []).append(B[:, i, m])
        keys = list(groups)
        rows = k * max(map(len, groups.values()), default=0)
        F = np.zeros((n, len(keys), max(rows, r), 2 * r))
        for j, g in enumerate(groups.values()):
            F[:, j, :k * len(g)] = np.concatenate(g, axis=1)
        if rows > r:
            F = np.linalg.qr(F.view(complex), mode="r").view(np.float64)
        peak = max(peak, len(keys))
    y1 = np.array([s.c ^ (key & 1) for key in keys], dtype=bool)
    weights = _sq_norms(F)  # (inputs, keys)
    dists = []
    for p0, p1 in zip(weights[:, ~y1].sum(axis=1), weights[:, y1].sum(axis=1)):
        dists.append(OutputDistribution({0: float(p0), 1: float(p1)}))
        dists[-1].peak_states, dists[-1].marginal_dev = peak, dev
    return dists


def exact_distribution(s: MeasurementSchedule, x) -> OutputDistribution:
    """Output distribution at one input, by ``exact_distributions``."""
    return exact_distributions(s, [parse_input(x, s.arity)])[0]


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
    parity follows the final state's Z readout.  Returns shape (len(xs), 2, 2),
    or (1, 2, 2) for a schedule without qubits.
    """
    if not s.compiled:
        raise ValueError("only compiled schedules (canonical adaptation on a "
                         "GHZ or odd cluster chain) have an effective circuit")
    xs = np.asarray(xs, dtype=np.int64)
    ghz_chain = s.resource.kind == "ghz"
    px = input_parities(s.qubits, xs)
    return rotation_product([("X" if ghz_chain or q.id % 2 else "Z",
                              a[setting_bits(q, px, 0)])
                             for q, a in zip(s.qubits, _site_table(s).angles)])


def effective_circuit(s: MeasurementSchedule, x) -> EffectiveCircuit:
    """Branch-independent circuit of a compiled schedule at a given input."""
    U = effective_unitaries(s, [parse_input(x, s.arity)])[0]
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
    # exact_peak_states: most DP states (keys shared by a sweep's inputs);
    # exact_marginal_dev: the worst relative marginal-sum gap; both None
    # when no exact work ran
    stats: dict = field(default_factory=dict, compare=False)

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
    def empirical_rate(self) -> float | None:
        total = sum(r.shots for r in self.records)
        good = sum(r.correct for r in self.records)
        return good / total if total else None

    @property
    def all_shots_correct(self) -> bool:
        return all(r.correct == r.shots for r in self.records)

    @property
    def failure(self) -> str | None:
        """Why the run is no determinism certificate, or None: one must have
        run (zero shots is none), and each that ran must agree: analytic and
        exact success above 1 - FAILURE_TOL_OWN on every input, every shot
        correct."""
        if (self.min_analytic is None and self.min_exact is None
                and self.empirical_rate is None):
            return "no certificate: no analytic or exact result and no shots"
        bad = [f"{k} {v}" for k, v in (("min_analytic", self.min_analytic),
                                       ("min_exact", self.min_exact))
               if v is not None and not v > 1 - FAILURE_TOL_OWN]
        if not self.all_shots_correct:
            bad.append(f"empirical_rate {self.empirical_rate}")
        return "not deterministic: " + ", ".join(bad) if bad else None

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
            "stats": self.stats,
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

    Runs the analytic effective circuit when the schedule supports it, the
    exact DP when ``use_exact`` is set (by default on registers of at most
    ENUM_CAP qubits, at any size when asked; one sweep per SAMPLE_CHUNK
    inputs), and seeded sampling always.
    Sampling counts as a certificate in ``SimulationReport.failure``: a run
    with neither the analytic nor the exact value (a non-compiled schedule
    above ENUM_CAP qubits without ``use_exact``) passes on every shot being
    correct alone (ROADMAP item 13 plans exact certificates in its place).
    The sampled rows are input-major (every shot of input 0, then of input
    1, ...) and share one generator seeded with ``seed``, swept SAMPLE_CHUNK
    rows at a time.
    """
    if f.n != s.arity:
        raise ValueError("arity mismatch")
    if shots_per_input < 0:
        raise ValueError(f"shots_per_input must be >= 0, got {shots_per_input}")
    if use_exact is None:
        use_exact = s.n_qubits <= ENUM_CAP
    inputs = np.arange(1 << f.n)
    targets = np.array(f.table, dtype=np.int64)
    analytic = [None] * len(inputs)
    if s.compiled:
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
    dists = []
    if use_exact:
        for start in range(0, len(inputs), SAMPLE_CHUNK):
            dists += exact_distributions(s, inputs[start:start + SAMPLE_CHUNK])
    records = []
    for x in range(len(inputs)):
        target = int(targets[x])
        exact = dists[x][target] if use_exact else None
        for val in (analytic[x], exact):
            if val is not None and not -1e-12 <= val <= 1 + 1e-12:
                raise AssertionError(f"success probability {val} out of range")
        records.append(InputRecord(x, target, analytic[x], exact,
                                   shots_per_input, int(correct[x])))
    stats = {"exact_peak_states": max((d.peak_states for d in dists),
                                      default=None),
             "exact_marginal_dev": max((d.marginal_dev for d in dists),
                                       default=None)}
    return SimulationReport(f.kind, f.n, tuple(records), resources(s), seed,
                            stats)


@dataclass(frozen=True)
class BellScore:
    quantum_success: float
    classical_bound: float

    @property
    def violates(self) -> bool:
        return self.quantum_success > self.classical_bound + 1e-12


def bell_score(s: MeasurementSchedule, f: BooleanFunction,
               shots_per_input: int = 0, seed: int = 7) -> BellScore:
    """Quantum success versus the exact best-linear (hidden-variable) bound.

    The classical side is computed from the Fourier spectrum, never sampled:
    the best mod-2 linear strategy succeeds on exactly (1 + max |coeff|)/2
    of the inputs.  The quantum side is the first certificate that ran:
    analytic, exact, then sampled; with none a ValueError is raised.
    """
    report = verify_protocol(s, f, shots_per_input, seed)
    quantum = next((v for v in (report.min_analytic, report.min_exact,
                                report.empirical_rate) if v is not None), None)
    if quantum is None:
        raise ValueError(report.failure)
    return BellScore(quantum, nchvm_bound(f))


def compare_engines(s: MeasurementSchedule, x, seed: int = 11) -> float:
    """Drive the dense and chain engines through one run in id order.

    Outcomes are drawn from the dense marginals and forced on the chain.
    Returns the largest per-measurement marginal disagreement.
    """
    xs = np.array([parse_input(x, s.arity)])
    return _drive(s, xs, np.random.default_rng(seed),
                  DenseEngine(s.resource))[1]
