"""Measurement schedules on GHZ and 1D cluster resources, and their compilers.

A schedule lists, per physical qubit, the measurement round, the basis, a
mask over the classical input bits, and the set of earlier qubits whose
outcomes flip the basis sign; those come earlier both in round order and
in id order.  The measured observable of an XY-plane qubit with setting bit
s = P.x xor A.m is X(offset + (-1)^(s xor bias) * theta); Pauli-Z qubits
carry no conditioning.  The computational output is the parity of the
outcomes selected by ``o_ids`` plus the constant ``c``.

All compilers here emit canonical adaptation rows (every earlier
opposite-parity site of the chain), which is what lets the simulator resolve
the adapted signs symbolically into a branch-independent effective circuit.
Sites whose base angle is an integer multiple of pi are exempt: the sign
flip only changes a global phase, so their rows are dropped and they can be
measured in the first round.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .boolean import BooleanFunction, dot2
from .onequbit import (Gate, OneQubitProgram, build_mod3_clifford,
                       build_qsp_program, build_symmetric_program,
                       normalize_sign_form, or_reduction_bank)
from .pfd import PeriodicDecomposition, or_decomposition
from .qsp import QspAngles

PI_MULTIPLE_TOL = 1e-12
PREP_DEPTH = 3  # Hadamard layer plus two interleaved entangling layers


@dataclass(frozen=True)
class Resource:
    kind: str  # "ghz" | "cluster1d" | "composite"
    n_qubits: int
    parts: tuple["Resource", ...] = ()

    def __post_init__(self):
        if self.kind not in ("ghz", "cluster1d", "composite"):
            raise ValueError(f"unknown resource kind {self.kind!r}")
        if self.kind == "composite":
            if sum(p.n_qubits for p in self.parts) != self.n_qubits:
                raise ValueError("composite size must equal the sum of parts")
        elif self.parts:
            raise ValueError("only composite resources have parts")


def ghz(n: int) -> Resource:
    return Resource("ghz", n)


def cluster1d(n: int) -> Resource:
    return Resource("cluster1d", n)


def composite(*parts: Resource) -> Resource:
    return Resource("composite", sum(p.n_qubits for p in parts), tuple(parts))


@dataclass(frozen=True)
class XYBasis:
    theta: float
    bias: int = 0
    offset: float = 0.0
    exact: str | None = None  # audit tag, e.g. "pi*1/3" or "alpha"

    kind = "xy"


@dataclass(frozen=True)
class PauliZBasis:
    kind = "z"


def is_pi_multiple(theta: float, offset: float = 0.0) -> bool:
    if offset != 0.0:
        return False
    r = math.remainder(theta, math.pi)
    return abs(r) < PI_MULTIPLE_TOL


@dataclass(frozen=True)
class QubitSpec:
    id: int
    round: int
    basis: "XYBasis | PauliZBasis"
    p_mask: int = 0
    a_ids: frozenset[int] = frozenset()

    def measured_angle(self, x: int, outcome_parity: int) -> float:
        if isinstance(self.basis, PauliZBasis):
            raise ValueError("Pauli-Z qubits have no measurement angle")
        s = dot2(self.p_mask, x) ^ outcome_parity
        sign = -1.0 if (s ^ self.basis.bias) else 1.0
        return self.basis.offset + sign * self.basis.theta


@dataclass(frozen=True)
class MeasurementSchedule:
    resource: Resource
    arity: int
    qubits: tuple[QubitSpec, ...]
    o_ids: frozenset[int]
    c: int
    declared_l_c: int | None = None
    compiled: bool = False
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        ids = [q.id for q in self.qubits]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate qubit ids")
        if set(ids) != set(range(1, self.resource.n_qubits + 1)):
            raise ValueError("qubit ids must cover 1..n_qubits")
        rounds = {q.id: q.round for q in self.qubits}
        for q in self.qubits:
            if q.round < 1:
                raise ValueError("rounds start at 1")
            for a in q.a_ids:
                if a not in rounds:
                    raise ValueError(f"qubit {q.id} adapts on unknown qubit {a}")
                if rounds[a] >= q.round:
                    raise ValueError(
                        f"qubit {q.id} (round {q.round}) adapts on qubit {a} "
                        f"(round {rounds[a]}): violates causal ordering")
            if isinstance(q.basis, PauliZBasis) and (q.p_mask or q.a_ids):
                raise ValueError("Pauli-Z qubits carry no conditioning")
        # the simulator measures in id order, so adaptation must point down
        for q in self.qubits:
            top = max(q.a_ids, default=0)
            if top > q.id:
                raise ValueError(f"qubit {q.id} adapts on qubit {top}, "
                                 f"which is not lower in id order")
        if not self.o_ids <= set(ids):
            raise ValueError("output mask references unknown qubits")

    @property
    def n_qubits(self) -> int:
        return self.resource.n_qubits

    def qubit(self, qid: int) -> QubitSpec:
        for q in self.qubits:
            if q.id == qid:
                return q
        raise KeyError(qid)

    def to_json(self) -> str:
        def enc_resource(r: Resource):
            out = {"type": r.kind, "n_qubits": r.n_qubits}
            if r.parts:
                out["parts"] = [enc_resource(p) for p in r.parts]
            return out

        def enc_basis(b):
            if isinstance(b, PauliZBasis):
                return {"type": "z"}
            out = {"type": "xy", "theta": b.theta, "bias": b.bias}
            if b.offset:
                out["offset"] = b.offset
            if b.exact:
                out["exact"] = b.exact
            return out

        return json.dumps({
            "resource": enc_resource(self.resource),
            "arity": self.arity,
            "qubits": [{"id": q.id, "round": q.round, "basis": enc_basis(q.basis),
                        "p_mask": q.p_mask, "a_ids": sorted(q.a_ids)}
                       for q in sorted(self.qubits, key=lambda q: q.id)],
            "o_ids": sorted(self.o_ids),
            "c": self.c,
            "l_c": self.declared_l_c,
            "compiled": self.compiled,
            "meta": {k: v for k, v in self.meta.items()
                     if isinstance(v, (str, int, float, bool))},
        }, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "MeasurementSchedule":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed schedule JSON at position {exc.pos}: "
                             f"{exc.msg}") from exc

        def dec_resource(o):
            parts = tuple(dec_resource(p) for p in o.get("parts", []))
            return Resource(o["type"] if o["type"] != "cluster1d" else "cluster1d",
                            o["n_qubits"], parts)

        def dec_basis(o):
            if o["type"] == "z":
                return PauliZBasis()
            return XYBasis(o["theta"], o.get("bias", 0), o.get("offset", 0.0),
                           o.get("exact"))

        qubits = tuple(QubitSpec(q["id"], q["round"], dec_basis(q["basis"]),
                                 q.get("p_mask", 0), frozenset(q.get("a_ids", [])))
                       for q in obj["qubits"])
        return cls(dec_resource(obj["resource"]), obj["arity"], qubits,
                   frozenset(obj["o_ids"]), obj["c"], obj.get("l_c"),
                   obj.get("compiled", False), obj.get("meta", {}))


@dataclass(frozen=True)
class ResourceReport:
    l_q: int
    l_c: int
    t_q: int
    t_c: int
    structural_l_c: int

    @property
    def volume(self) -> int:
        return (self.l_q + self.l_c) * (self.t_q + self.t_c)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.l_q, self.l_c, self.t_c, self.t_q)


def resources(s: MeasurementSchedule) -> ResourceReport:
    """Resource tuple: qubit count, classical bits, prep depth, and rounds.

    The round count is the highest round index (the output parity is formed
    in the final measurement round).  The classical-bit count is the value
    declared by the protocol constructor when present; the structural count
    of distinct nonzero input masks is always reported alongside.
    """
    l_q = s.n_qubits
    t_c = max((q.round for q in s.qubits), default=0)
    t_q = PREP_DEPTH if s.qubits else 0
    structural = len({q.p_mask for q in s.qubits if q.p_mask})
    l_c = s.declared_l_c if s.declared_l_c is not None else structural
    return ResourceReport(l_q, l_c, t_q, t_c, structural)


# ---------------------------------------------------------------------------
# compilers


def _angle_tag(angle: float) -> str | None:
    from .onequbit import ALPHA
    for mult in (1, 2):
        if abs(angle - mult * ALPHA) < 1e-12:
            return "alpha" if mult == 1 else "2*alpha"
        if abs(angle + mult * ALPHA) < 1e-12:
            return "-alpha" if mult == 1 else "-2*alpha"
    frac = Fraction(angle / math.pi).limit_denominator(720)
    if abs(angle - float(frac) * math.pi) < 1e-12:
        return f"pi*{frac}"
    return None


def compile_to_cluster(prog: OneQubitProgram,
                       exempt_pi_multiples: bool = True) -> MeasurementSchedule:
    """Lay a sign-form program onto a 1D chain with canonical adaptation.

    Odd sites carry the X rotations and even sites the Z rotations; filler
    zero rotations keep the alternation, and leading or trailing Z rotations
    are dropped since they only dephase the preparation or the readout.
    """
    prog = normalize_sign_form(prog)
    gates = list(prog.gates)
    while gates and gates[0].axis == "Z":
        gates.pop(0)
    while gates and gates[-1].axis == "Z":
        gates.pop()
    if not gates:
        return MeasurementSchedule(cluster1d(0), prog.n, (), frozenset(),
                                   prog.flip_output, compiled=True,
                                   meta={"source": prog.meta})

    slots: list[Gate] = []
    for g in gates:
        want = "X" if len(slots) % 2 == 0 else "Z"
        if g.axis != want:
            slots.append(Gate(want, 0.0))
        slots.append(g)
    if len(slots) % 2 == 0:
        slots.append(Gate("X", 0.0))

    qubits: list[QubitSpec] = []
    rounds: dict[int, int] = {}
    for idx, g in enumerate(slots):
        qid = idx + 1
        exempt = exempt_pi_multiples and is_pi_multiple(g.angle) and \
            g.cond.kind != "select"
        if exempt:
            basis = XYBasis(g.angle, 0, exact=_angle_tag(g.angle))
            a_ids: frozenset[int] = frozenset()
            p_mask = 0
        else:
            bias = g.cond.bias if g.cond.kind == "sign" else 0
            p_mask = g.cond.mask if g.cond.kind == "sign" else 0
            basis = XYBasis(g.angle, bias, exact=_angle_tag(g.angle))
            a_ids = frozenset(a for a in range(1, qid) if (a - qid) % 2)
        rnd = 1 + max((rounds[a] for a in a_ids), default=0)
        rounds[qid] = rnd
        qubits.append(QubitSpec(qid, rnd, basis, p_mask, a_ids))

    o_ids = frozenset(q.id for q in qubits if q.id % 2 == 1)
    return MeasurementSchedule(cluster1d(len(slots)), prog.n, tuple(qubits),
                               o_ids, prog.flip_output, compiled=True,
                               meta={"source": prog.meta.get("builder")})


def compile_pfd_to_ghz(d: PeriodicDecomposition, f0: int) -> MeasurementSchedule:
    """Nonadaptive schedule: one qubit per mask in the decomposition support.

    The setting bit selects between measuring at angle zero and at the full
    angle, realized by splitting each angle into an offset half plus a
    signed half.
    """
    masks = d.support
    qubits = []
    for t, mask in enumerate(masks, 1):
        half = math.pi * float(d.angles[mask]) / 2
        tag = _angle_tag(2 * half)
        qubits.append(QubitSpec(t, 1, XYBasis(half, bias=1, offset=half,
                                              exact=tag), mask, frozenset()))
    return MeasurementSchedule(ghz(len(masks)), d.n, tuple(qubits),
                               frozenset(range(1, len(masks) + 1)), f0 & 1,
                               declared_l_c=len(masks), compiled=True,
                               meta={"builder": "pfd_ghz"})


def lift_ghz_to_cluster(s: MeasurementSchedule) -> MeasurementSchedule:
    """Two-round cluster realization of a nonadaptive GHZ schedule.

    Even sites are measured in the Pauli-X basis first; odd site t then
    carries half of GHZ qubit t's full angle with sign adaptation on the
    even outcomes, and the final site absorbs the summed halves.
    """
    if s.resource.kind != "ghz":
        raise ValueError("input must be a GHZ schedule")
    if any(q.a_ids or q.round != 1 for q in s.qubits):
        raise ValueError("input schedule must be nonadaptive")
    N = s.n_qubits
    if N == 0:
        return MeasurementSchedule(cluster1d(0), s.arity, (), frozenset(), s.c,
                                   declared_l_c=0, compiled=True)
    src = sorted(s.qubits, key=lambda q: q.id)
    # GHZ qubit t measures mid + (-1)^(s+1) * halfdiff; the odd cluster site
    # carries the signed half and the final site absorbs the accumulated mids
    mids, halves = [], []
    for q in src:
        mids.append(q.basis.offset)
        halves.append(q.basis.theta if q.basis.bias else -q.basis.theta)
    qubits: list[QubitSpec] = []
    for t, q in enumerate(src):
        odd_id = 2 * t + 1
        evens = frozenset(range(2, odd_id, 2))
        qubits.append(QubitSpec(odd_id, 2, XYBasis(halves[t], bias=1),
                                q.p_mask, evens))
        qubits.append(QubitSpec(2 * t + 2, 1, XYBasis(0.0)))
    last = 2 * N + 1
    qubits.append(QubitSpec(last, 2, XYBasis(sum(mids), bias=0), 0,
                            frozenset(range(2, last, 2))))
    o_ids = frozenset(range(1, last + 1, 2))
    return MeasurementSchedule(cluster1d(last), s.arity, tuple(qubits), o_ids,
                               s.c, declared_l_c=N, compiled=True,
                               meta={"builder": "ghz_lift"})


# ---------------------------------------------------------------------------
# named protocols


def mod3_protocol(n: int) -> MeasurementSchedule:
    """Five-round cluster protocol for the weight-mod-3 test on 4n+5 qubits."""
    s = compile_to_cluster(build_mod3_clifford(n))
    assert s.n_qubits == 4 * n + 5
    rep = resources(s)
    assert rep.t_c == 5, rep
    return replace(s, declared_l_c=n + 2,
                   meta={"builder": "mod3_protocol", "n": n})


def modp_protocol(p: int, j: int, n: int, angles: QspAngles) -> MeasurementSchedule:
    """Constant-round cluster protocol for the weight-mod-p functions.

    One global round of Pauli-X spacers, then alternating block rounds:
    (4p-2)(n+1) - 1 qubits and 4p-2 rounds for any input size.
    """
    s = compile_to_cluster(build_qsp_program(p, j, n, angles))
    assert s.n_qubits == (4 * p - 2) * (n + 1) - 1
    rep = resources(s)
    assert rep.t_c == 4 * p - 2, rep
    return replace(s, declared_l_c=n + 2,
                   meta={"builder": "modp_protocol", "p": p, "j": j, "n": n})


def qsp_symmetric_protocol(f: BooleanFunction, n: int,
                           angles: QspAngles) -> MeasurementSchedule:
    """Cluster protocol for an arbitrary symmetric function, 8n+2 rounds."""
    s = compile_to_cluster(build_symmetric_program(f, n, angles))
    assert s.n_qubits == 8 * n * n + 10 * n + 1
    rep = resources(s)
    assert rep.t_c == 8 * n + 2, rep
    return replace(s, declared_l_c=n,
                   meta={"builder": "qsp_symmetric_protocol", "n": n})


def or_protocol(n: int) -> MeasurementSchedule:
    """Three-round protocol for OR via binary weight counting on one chain.

    kappa counter blocks and a final parity-strategy block live on a single
    chain, separated by Pauli-Z cut sites; cutting leaves Z byproducts on
    the segment boundary sites, which is accounted for by toggling the cut
    outcome into every consumer of a flipped boundary outcome.
    """
    if n < 2:
        raise ValueError("n >= 2")
    kappa = math.ceil(math.log2(n + 1))
    blocks = [compile_to_cluster(prog) for prog in or_reduction_bank(n)]
    seg_len = blocks[0].n_qubits
    assert seg_len == 2 * n + 1

    qubits: list[QubitSpec] = []
    block_outputs: list[frozenset[int]] = []
    cut_ids: list[int] = []
    offset = 0
    for blk in blocks:
        id_of = {q.id: q.id + offset for q in blk.qubits}
        for q in sorted(blk.qubits, key=lambda q: q.id):
            qubits.append(QubitSpec(id_of[q.id], q.round, q.basis, q.p_mask,
                                    frozenset(id_of[a] for a in q.a_ids)))
        block_outputs.append(frozenset(id_of[o] for o in blk.o_ids))
        cut = offset + seg_len + 1
        qubits.append(QubitSpec(cut, 1, PauliZBasis()))
        cut_ids.append(cut)
        offset = cut

    # boundary byproducts: the cut flips the last outcome of the left block
    # and the first outcome of the right segment
    consumers_toggle: dict[int, set[int]] = {b: set() for b in range(kappa)}
    for b in range(kappa):
        consumers_toggle[b].add(cut_ids[b])          # right cut, last site
        if b > 0:
            consumers_toggle[b].add(cut_ids[b - 1])  # left cut, first site

    stage2_base = offset
    strategy = or_decomposition(kappa)
    masks = strategy.support
    K = len(masks)
    stage2: list[QubitSpec] = []
    for t, mask in enumerate(masks):
        odd_id = stage2_base + 2 * t + 1
        evens = frozenset(range(stage2_base + 2, odd_id, 2))
        wired = set(evens)
        for b in range(kappa):
            if (mask >> b) & 1:
                wired ^= block_outputs[b]
                wired ^= consumers_toggle[b]
        half = math.pi * float(strategy.angles[mask]) / 2
        stage2.append(QubitSpec(odd_id, 3, XYBasis(half, bias=1), 0,
                                frozenset(wired)))
        stage2.append(QubitSpec(odd_id + 1, 1, XYBasis(0.0)))
    last = stage2_base + 2 * K + 1
    total_half = math.pi * float(sum(strategy.angles.values())) / 2
    stage2.append(QubitSpec(last, 2, XYBasis(total_half, bias=0), 0,
                            frozenset(range(stage2_base + 2, last, 2))))
    qubits.extend(stage2)

    # the last cut flips stage-2's first outcome, which feeds the output parity
    o_ids = set(range(stage2_base + 1, last + 1, 2))
    o_ids ^= {cut_ids[-1]}
    total = last
    assert total == 2 * kappa * (n + 1) + (1 << (kappa + 1)) - 1
    return MeasurementSchedule(
        cluster1d(total), n, tuple(qubits), frozenset(o_ids), 0,
        declared_l_c=(n + 2) * kappa + (1 << kappa), compiled=False,
        meta={"builder": "or_protocol", "n": n, "kappa": kappa,
              "block_outputs": [sorted(b) for b in block_outputs],
              "cut_ids": cut_ids})
