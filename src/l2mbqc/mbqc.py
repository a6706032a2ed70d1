"""Measurement schedules on GHZ and 1D cluster resources, and their compilers.

A schedule lists, per physical qubit, the basis, a mask over the classical
input bits, and the set of lower-id qubits whose outcomes flip the basis
sign; id order and those sets are its only statement of causality, and a
qubit's measurement round is derived as its depth in the adaptation DAG.
The measured observable of an XY-plane qubit with setting bit s = P.x xor
A.m is X(offset + (-1)^(s xor bias) * theta), with both angles stored as
float radians and nothing else; Pauli-Z qubits carry no conditioning.  The
computational output is the parity of the outcomes selected by ``o_ids``
plus the constant ``c``.

Canonical adaptation (``canonical_a_ids``) cancels every byproduct, which
leaves a branch-independent single-qubit circuit; a schedule derives its
``compiled`` flag from that structure, and no input can set it.
``compile_to_cluster`` is the one chain layout: the GHZ lift and the stage
2 of ``or_protocol`` go through it.  Sites whose base angle is an integer
multiple of pi are exempt: the sign flip only changes a global phase, so
the compiler drops their rows and measures them first, on lifts too.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

from .boolean import BooleanFunction
from .onequbit import (Condition, Gate, OneQubitProgram, build_mod3_clifford,
                       build_qsp_program, build_symmetric_program,
                       normalize_sign_form, or_reduction_bank)
from .pfd import PeriodicDecomposition, or_decomposition
from .qsp import QspAngles

PI_MULTIPLE_TOL = 1e-12
MAX_ARITY = 63  # inputs and masks are packed into int64
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


@dataclass(frozen=True)
class PauliZBasis:
    """Pauli-Z measurement: no angle, no input mask, no adaptation."""


def is_pi_multiple(theta: float, offset: float = 0.0) -> bool:
    if offset != 0.0:
        return False
    r = math.remainder(theta, math.pi)
    return abs(r) < PI_MULTIPLE_TOL


def canonical_a_ids(qid: int) -> range:
    """Chain sites whose byproducts flip site qid's sign: the lower sites of
    opposite parity (one-way byproduct propagation)."""
    return range(qid - 1, 0, -2)


@dataclass(frozen=True)
class QubitSpec:
    id: int
    basis: "XYBasis | PauliZBasis"
    p_mask: int = 0
    a_ids: frozenset[int] = frozenset()


@dataclass(frozen=True)
class MeasurementSchedule:
    resource: Resource
    arity: int
    qubits: tuple[QubitSpec, ...]
    o_ids: frozenset[int]
    c: int
    declared_l_c: int | None = None
    compiled: bool = field(init=False, compare=False)  # see _canonical
    rounds: tuple[int, ...] = field(init=False, compare=False)  # by id - 1
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.arity > MAX_ARITY:
            raise ValueError(f"schedule field 'arity' must be at most "
                             f"{MAX_ARITY}, got {self.arity}")
        ids = [q.id for q in self.qubits]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate qubit ids")
        if (len(ids) != self.resource.n_qubits
                or set(ids) != set(range(1, len(ids) + 1))):
            raise ValueError("qubit ids must cover 1..n_qubits")
        for i, q in enumerate(self.qubits):
            # the simulator packs these into numpy arrays, which would take a
            # float mask or bias silently (bias 2 would act as bias 0)
            _check(q.p_mask, "a non-negative integer", f"qubits[{i}].p_mask")
            if isinstance(q.basis, XYBasis):
                _check(q.basis.bias, "0 or 1", f"qubits[{i}].basis.bias")
                for name in ("theta", "offset"):
                    _check(getattr(q.basis, name), "a finite number",
                           f"qubits[{i}].basis.{name}")
            if not q.p_mask < 1 << self.arity:
                raise ValueError(f"schedule field 'qubits[{i}].p_mask' must be "
                                 f"in [0, 2**arity = 2**{self.arity}), got "
                                 f"{q.p_mask}")
            if isinstance(q.basis, PauliZBasis) and (q.p_mask or q.a_ids):
                raise ValueError("Pauli-Z qubits carry no conditioning")
        # the simulator measures in id order, so adaptation must point down;
        # a qubit's round is one past the latest round it waits on
        qubits = tuple(sorted(self.qubits, key=lambda q: q.id))
        depth = [0] * (len(qubits) + 1)
        for q in qubits:
            if q.a_ids and not 0 < min(q.a_ids) <= max(q.a_ids) < q.id:
                bad = next(a for a in sorted(q.a_ids) if not 0 < a < q.id)
                raise ValueError(f"qubit {q.id} adapts on qubit {bad}, which "
                                 f"is not lower: violates causal ordering")
            depth[q.id] = 1 + max(map(depth.__getitem__, q.a_ids), default=0)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "rounds", tuple(depth[1:]))
        if not self.o_ids <= set(ids):
            raise ValueError("output mask references unknown qubits")
        object.__setattr__(self, "compiled", self._canonical())

    def _canonical(self) -> bool:
        """Whether canonical adaptation leaves a branch-independent circuit:
        a GHZ chain read out on every site, or an odd-length cluster chain
        read out on its odd sites without offsets; no Pauli-Z site; and the
        canonical a_ids (none on GHZ) on every site but pi multiples."""
        kind, N = self.resource.kind, self.n_qubits
        on_ghz = kind == "ghz"
        if kind == "composite" or (not on_ghz and N % 2 == 0 and N > 0) or \
                self.o_ids != frozenset(range(1, N + 1, 1 if on_ghz else 2)):
            return False
        for q in self.qubits:  # O(sum |a_ids|): `in` on a range is O(1)
            b, want = q.basis, (range(0) if on_ghz else canonical_a_ids(q.id))
            if isinstance(b, PauliZBasis) or (b.offset and not on_ghz):
                return False
            if not (is_pi_multiple(b.theta, b.offset)
                    or (len(q.a_ids) == len(want)
                        and all(a in want for a in q.a_ids))):
                return False
        return True

    @property
    def n_qubits(self) -> int:
        return self.resource.n_qubits

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
            return out

        return json.dumps({
            "resource": enc_resource(self.resource),
            "arity": self.arity,
            "qubits": [{"id": q.id, "round": r, "basis": enc_basis(q.basis),
                        "p_mask": q.p_mask, "a_ids": sorted(q.a_ids)}
                       for q, r in zip(self.qubits, self.rounds)],
            "o_ids": sorted(self.o_ids),
            "c": self.c,
            "l_c": self.declared_l_c,
            "compiled": self.compiled,
            "meta": {k: v for k, v in self.meta.items()
                     if isinstance(v, (str, int, float, bool))},
        }, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "MeasurementSchedule":
        """Decode schedule JSON; any malformed input raises ValueError.

        Field types, ``c`` and the finiteness of angles are checked here,
        and the message names the offending field; the structural rules,
        the width of ``p_mask`` and the types of the masks, biases and
        angles that the simulator packs into arrays are the constructor's.
        ``round`` and ``compiled`` are derived, so they are not read; nor
        is a basis ``exact`` key, which older files carry.
        """
        try:
            return cls._decode(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed schedule JSON at position {exc.pos}: "
                             f"{exc.msg}") from exc
        except RecursionError as exc:
            raise ValueError("schedule JSON is nested too deeply") from exc

    @classmethod
    def _decode(cls, obj) -> "MeasurementSchedule":
        if not isinstance(obj, dict):
            raise ValueError(f"schedule JSON must be an object, got {obj!r:.60}")
        arity = _field(obj, "arity", "a non-negative integer")
        qubits = tuple(_decode_qubit(q, f"qubits[{i}]") for i, q in
                       enumerate(_field(obj, "qubits", "a list")))
        return cls(_decode_resource(_field(obj, "resource", "an object"),
                                    "resource"),
                   arity, qubits,
                   frozenset(_field(obj, "o_ids", "a list of positive integers")),
                   _field(obj, "c", "0 or 1"),
                   _field(obj, "l_c", "a non-negative integer or null",
                          default=None),
                   _field(obj, "meta", "an object", default={}))


def _is_finite(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


# what a schedule JSON field must be -> the test; bool is not an integer here
_CHECKS = {
    "an object": lambda v: isinstance(v, dict),
    "a list": lambda v: isinstance(v, list),
    "a non-negative integer": lambda v: type(v) is int and v >= 0,
    "a positive integer": lambda v: type(v) is int and v >= 1,
    "0 or 1": lambda v: type(v) is int and v in (0, 1),
    "a finite number": _is_finite,
    "a non-negative integer or null":
        lambda v: v is None or (type(v) is int and v >= 0),
    "a list of positive integers":
        lambda v: isinstance(v, list) and all(type(a) is int and a >= 1
                                              for a in v),
    "ghz, cluster1d or composite":
        lambda v: v in ("ghz", "cluster1d", "composite"),
    "xy or z": lambda v: v in ("xy", "z"),
}
_MISSING = object()


def _check(value, want: str, name: str):
    if not _CHECKS[want](value):
        raise ValueError(f"schedule field {name!r} must be {want}, "
                         f"got {value!r:.60}")
    return value


def _field(obj: dict, key: str, want: str, path: str = "", default=_MISSING):
    """obj[key] checked against ``want`` (a key of _CHECKS)."""
    name = f"{path}.{key}" if path else key
    if key not in obj:
        if default is _MISSING:
            raise ValueError(f"schedule field {name!r} is missing")
        return default
    return _check(obj[key], want, name)


def _decode_resource(o: dict, path: str) -> Resource:
    parts = tuple(_decode_resource(_check(p, "an object", f"{path}.parts[{j}]"),
                                   f"{path}.parts[{j}]")
                  for j, p in enumerate(_field(o, "parts", "a list", path, [])))
    return Resource(_field(o, "type", "ghz, cluster1d or composite", path),
                    _field(o, "n_qubits", "a non-negative integer", path), parts)


def _decode_qubit(o, path: str) -> QubitSpec:
    _check(o, "an object", path)
    b = _field(o, "basis", "an object", path)
    bpath = f"{path}.basis"
    if _field(b, "type", "xy or z", bpath) == "z":
        basis = PauliZBasis()
    else:
        basis = XYBasis(float(_field(b, "theta", "a finite number", bpath)),
                        _field(b, "bias", "0 or 1", bpath, 0),
                        float(_field(b, "offset", "a finite number", bpath, 0.0)))
    return QubitSpec(_field(o, "id", "a positive integer", path), basis,
                     _field(o, "p_mask", "a non-negative integer", path, 0),
                     frozenset(_field(o, "a_ids", "a list of positive integers",
                                      path, [])))


@dataclass(frozen=True)
class ResourceReport:
    l_q: int
    l_c: int
    t_q: int
    t_c: int

    @property
    def volume(self) -> int:
        return (self.l_q + self.l_c) * (self.t_q + self.t_c)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.l_q, self.l_c, self.t_c, self.t_q)


def resources(s: MeasurementSchedule) -> ResourceReport:
    """Resource tuple: qubit count, classical bits, prep depth, and rounds.

    The round count is the depth of the adaptation DAG, the highest derived
    round (the output parity is formed in the final measurement round).  The
    classical-bit count is the value declared by the protocol constructor
    when present, else the number of distinct nonzero input masks.
    """
    l_q = s.n_qubits
    t_c = max(s.rounds, default=0)
    t_q = PREP_DEPTH if s.qubits else 0
    masks = {q.p_mask for q in s.qubits if q.p_mask}
    l_c = s.declared_l_c if s.declared_l_c is not None else len(masks)
    return ResourceReport(l_q, l_c, t_q, t_c)


# ---------------------------------------------------------------------------
# compilers


def compile_to_cluster(prog: OneQubitProgram, declared_l_c: int | None = None,
                       meta: dict | None = None) -> MeasurementSchedule:
    """Lay a sign-form program onto a 1D chain with canonical adaptation.

    Odd sites carry the X rotations and even sites the Z rotations; filler
    zero rotations keep the alternation, and leading or trailing Z rotations
    are dropped since they only dephase the preparation or the readout.
    ``declared_l_c`` and ``meta`` go to the schedule, so that a named
    protocol is built once; an empty ``meta`` records the program's source.
    """
    prog = normalize_sign_form(prog)
    gates = list(prog.gates)
    while gates and gates[0].axis == "Z":
        gates.pop(0)
    while gates and gates[-1].axis == "Z":
        gates.pop()
    slots: list[Gate] = []
    for g in gates:
        want = "X" if len(slots) % 2 == 0 else "Z"
        if g.axis != want:
            slots.append(Gate(want, 0.0))
        slots.append(g)
    if slots and len(slots) % 2 == 0:
        slots.append(Gate("X", 0.0))

    qubits: list[QubitSpec] = []
    for qid, g in enumerate(slots, 1):
        exempt = is_pi_multiple(g.angle)
        bias, mask = (0, 0) if exempt else (g.cond.bias, g.cond.mask)
        a_ids = frozenset(() if exempt else canonical_a_ids(qid))
        qubits.append(QubitSpec(qid, XYBasis(g.angle, bias), mask, a_ids))

    o_ids = frozenset(q.id for q in qubits if q.id % 2 == 1)
    return MeasurementSchedule(cluster1d(len(slots)), prog.n, tuple(qubits),
                               o_ids, prog.flip_output, declared_l_c,
                               meta=meta or {"source": prog.meta.get("builder")})


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
        qubits.append(QubitSpec(t, XYBasis(half, 1, half), mask))
    return MeasurementSchedule(ghz(len(masks)), d.n, tuple(qubits),
                               frozenset(range(1, len(masks) + 1)), f0 & 1,
                               declared_l_c=len(masks),
                               meta={"builder": "pfd_ghz"})


def lift_ghz_to_cluster(s: MeasurementSchedule) -> MeasurementSchedule:
    """Cluster realization of a compiled GHZ schedule in at most two rounds.

    GHZ qubit t measures offset + (-1)^(s xor bias) * theta: its signed half
    becomes a sign-conditioned X rotation and the offsets one final rotation,
    so ``compile_to_cluster`` lays the chain out, with Pauli-X spacers measured
    first and pi-multiple halves exempt.  The offsets are summed with
    ``math.fsum`` so that the absorbing angle is rounded once.
    """
    if s.resource.kind != "ghz" or not s.compiled:
        raise ValueError("input must be a compiled GHZ schedule: every site "
                         "read out, adaptation only on pi-multiple sites")
    gates = [Gate("X", q.basis.theta, Condition("sign", q.p_mask, q.basis.bias))
             for q in s.qubits]
    gates.append(Gate("X", math.fsum(q.basis.offset for q in s.qubits)))
    prog = OneQubitProgram(s.arity, tuple(gates), s.c)
    return compile_to_cluster(prog, s.n_qubits, {"builder": "ghz_lift"})


# ---------------------------------------------------------------------------
# named protocols


def mod3_protocol(n: int) -> MeasurementSchedule:
    """Five-round cluster protocol for the weight-mod-3 test on 4n+5 qubits."""
    s = compile_to_cluster(build_mod3_clifford(n), n + 2,
                           {"builder": "mod3_protocol", "n": n})
    assert s.n_qubits == 4 * n + 5
    rep = resources(s)
    assert rep.t_c == 5, rep
    return s


def _weight_protocol(prog: OneQubitProgram, q: int, l_c: int,
                     meta: dict) -> MeasurementSchedule:
    """Cluster schedule of a QSP weight program on the grid of period q.

    One global round of Pauli-X spacers, then alternating block rounds:
    (4q-2)(n+1) - 1 qubits and at most 4q-2 rounds.  A block whose angle is
    a multiple of pi (a residue rotation of 2*pi, the 0/pi padding of a
    deflated target) is measured in round 1, which can leave fewer rounds.
    """
    s = compile_to_cluster(prog, l_c, meta)
    assert s.n_qubits == (4 * q - 2) * (prog.n + 1) - 1
    rep = resources(s)
    assert rep.t_c <= 4 * q - 2, rep
    return s


def modp_protocol(p: int, j: int, n: int, angles: QspAngles) -> MeasurementSchedule:
    """Constant-round cluster protocol for the weight-mod-p functions:
    (4p-2)(n+1) - 1 qubits and at most 4p-2 rounds for any input size."""
    return _weight_protocol(build_qsp_program(p, j, n, angles), p, n + 2,
                            {"builder": "modp_protocol", "p": p, "j": j, "n": n})


def qsp_symmetric_protocol(f: BooleanFunction, n: int,
                           angles: QspAngles) -> MeasurementSchedule:
    """Cluster protocol for an arbitrary symmetric function, at most 8n+2
    rounds.  The meta records the weight profile f(0)..f(n) as a bit string."""
    prog = build_symmetric_program(f, n, angles)
    profile = "".join(str(v) for v in f.symmetric_profile)
    return _weight_protocol(prog, 2 * n + 1, n,
                            {"builder": "qsp_symmetric_protocol", "n": n,
                             "profile": profile})


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
        for q in blk.qubits:
            qubits.append(QubitSpec(q.id + offset, q.basis, q.p_mask,
                                    frozenset(a + offset for a in q.a_ids)))
        block_outputs.append(frozenset(o + offset for o in blk.o_ids))
        cut = offset + seg_len + 1
        qubits.append(QubitSpec(cut, PauliZBasis()))
        cut_ids.append(cut)
        offset = cut

    # boundary byproducts: the cut flips the last outcome of the left block
    # and the first outcome of the right segment
    consumers_toggle: dict[int, set[int]] = {b: set() for b in range(kappa)}
    for b in range(kappa):
        consumers_toggle[b].add(cut_ids[b])          # right cut, last site
        if b > 0:
            consumers_toggle[b].add(cut_ids[b - 1])  # left cut, first site

    # stage 2 is the lifted GHZ strategy for OR over the kappa counter bits;
    # a site's mask bit b becomes adaptation on block b's output parity
    stage2_base = offset
    lifted = lift_ghz_to_cluster(compile_pfd_to_ghz(or_decomposition(kappa), 0))
    for q in lifted.qubits:
        wired = {a + stage2_base for a in q.a_ids}
        for b in range(kappa):
            if (q.p_mask >> b) & 1:
                wired ^= block_outputs[b]
                wired ^= consumers_toggle[b]
        qubits.append(QubitSpec(q.id + stage2_base, q.basis, 0,
                                frozenset(wired)))
    total = stage2_base + lifted.n_qubits

    # the last cut flips stage-2's first outcome, which feeds the output parity
    o_ids = {o + stage2_base for o in lifted.o_ids} ^ {cut_ids[-1]}
    assert total == 2 * kappa * (n + 1) + (1 << (kappa + 1)) - 1
    return MeasurementSchedule(
        cluster1d(total), n, tuple(qubits), frozenset(o_ids), 0,
        declared_l_c=(n + 2) * kappa + (1 << kappa),
        meta={"builder": "or_protocol", "n": n, "kappa": kappa,
              "block_outputs": [sorted(b) for b in block_outputs],
              "cut_ids": cut_ids})
