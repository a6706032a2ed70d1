import hashlib
import json
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l2mbqc import boolean, mbqc, pfd, qsp, sim
from l2mbqc.mbqc import (MeasurementSchedule, PauliZBasis, QubitSpec, Resource,
                         XYBasis, canonical_a_ids, cluster1d,
                         compile_pfd_to_ghz, compile_to_cluster, composite, ghz,
                         lift_ghz_to_cluster, mod3_protocol, modp_protocol,
                         or_protocol, qsp_symmetric_protocol, resources)
from l2mbqc.onequbit import (Condition, Gate, OneQubitProgram,
                             build_commuting_program, build_mod3_clifford)

DATA = pathlib.Path(__file__).parent / "data"

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12)


@st.composite
def random_schedules(draw):
    """Valid schedules: adaptation on lower ids."""
    n = draw(st.integers(0, 7))
    arity = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["ghz", "cluster1d", "composite"]))
    if kind == "composite":
        cut = draw(st.integers(0, n))
        resource = composite(ghz(cut), cluster1d(n - cut))
    else:
        resource = Resource(kind, n)
    angles = st.floats(-10, 10, allow_nan=False)
    qubits = []
    for qid in range(1, n + 1):
        if draw(st.booleans()):
            qubits.append(QubitSpec(qid, PauliZBasis()))
            continue
        a_ids = draw(st.sets(st.integers(1, qid - 1))) if qid > 1 else set()
        basis = XYBasis(draw(angles), draw(st.integers(0, 1)), draw(angles))
        qubits.append(QubitSpec(qid, basis,
                                draw(st.integers(0, (1 << arity) - 1)),
                                frozenset(a_ids)))
    o_ids = draw(st.sets(st.integers(1, n))) if n else set()
    return MeasurementSchedule(
        resource, arity, tuple(qubits), frozenset(o_ids), draw(st.integers(0, 1)),
        draw(st.none() | st.integers(0, 50)),
        draw(st.dictionaries(st.text(max_size=4), st.integers(), max_size=2)))


def chain_schedule(on_ghz, specs, arity=0, c=0, o_ids=None):
    """Schedule on a GHZ or cluster chain from one (basis, p_mask, a_ids) per
    site; the readout defaults to every site on GHZ and the odd sites on a
    cluster."""
    qubits = tuple(QubitSpec(qid, basis, p_mask, frozenset(a_ids))
                   for qid, (basis, p_mask, a_ids) in enumerate(specs, 1))
    n = len(specs)
    if o_ids is None:
        o_ids = range(1, n + 1, 1 if on_ghz else 2)
    return MeasurementSchedule((ghz if on_ghz else cluster1d)(n), arity,
                               qubits, frozenset(o_ids), c)


@st.composite
def canonical_schedules(draw):
    """Schedules the canonical rule marks compiled.

    GHZ chains of any length with any offsets, and cluster chains of odd
    length or 0 without offsets, with canonical a_ids; pi-multiple sites
    carry any lower a_ids instead.
    """
    on_ghz = draw(st.booleans())
    n = draw(st.integers(0, 7) if on_ghz else st.sampled_from([0, 1, 3, 5, 7]))
    arity = draw(st.integers(0, 3))
    angles = st.floats(-10, 10, allow_nan=False)
    specs = []
    for qid in range(1, n + 1):
        if draw(st.booleans()):
            basis = XYBasis(math.pi * draw(st.integers(-3, 3)),
                            draw(st.integers(0, 1)))
            a_ids = draw(st.sets(st.integers(1, qid - 1))) if qid > 1 else ()
        else:
            basis = XYBasis(draw(angles), draw(st.integers(0, 1)),
                            draw(angles) if on_ghz else 0.0)
            a_ids = () if on_ghz else canonical_a_ids(qid)
        specs.append((basis, draw(st.integers(0, (1 << arity) - 1)), a_ids))
    return chain_schedule(on_ghz, specs, arity, draw(st.integers(0, 1)))


def generic_specs(n, on_ghz=False):
    """Canonical specs with angles far from multiples of pi."""
    return [(XYBasis(0.3 + 0.4 * q, q % 2, 0.2 if on_ghz else 0.0), q % 2,
             () if on_ghz else canonical_a_ids(q)) for q in range(1, n + 1)]


def with_site(specs, qid, spec):
    return [spec if i == qid else s for i, s in enumerate(specs, 1)]


class TestScheduleModel:
    def test_duplicate_ids_rejected(self):
        qs = (QubitSpec(1, XYBasis(0.0)), QubitSpec(1, XYBasis(0.0)))
        with pytest.raises(ValueError):
            MeasurementSchedule(cluster1d(2), 1, qs, frozenset(), 0)

    def test_causality_violation_rejected(self):
        qs = (QubitSpec(1, XYBasis(1.0), 0, frozenset({2})),
              QubitSpec(2, XYBasis(0.0)))
        with pytest.raises(ValueError, match="causal"):
            MeasurementSchedule(cluster1d(2), 1, qs, frozenset({1}), 0)

    def test_upward_adaptation_rejected(self):
        # qubit 1 adapts on the higher id 2
        qs = (QubitSpec(1, XYBasis(1.0), 0, frozenset({2})),
              QubitSpec(2, XYBasis(0.0)))
        with pytest.raises(ValueError, match="qubit 1 adapts on qubit 2"):
            MeasurementSchedule(cluster1d(2), 1, qs, frozenset({1}), 0)

    @pytest.mark.parametrize("a_ids", [{2}, {1, 2}, {0}, {-2, 1}, {3}])
    def test_self_and_unknown_adaptation_rejected(self, a_ids):
        qs = (QubitSpec(1, XYBasis(0.3)),
              QubitSpec(2, XYBasis(1.0), 0, frozenset(a_ids)))
        with pytest.raises(ValueError, match="causal"):
            MeasurementSchedule(cluster1d(2), 1, qs, frozenset({1}), 0)

    def test_unsorted_qubits_build_the_same_schedule(self):
        s = or_protocol(3)
        shuffled = s.qubits[1::2] + s.qubits[::2]
        t = MeasurementSchedule(s.resource, s.arity, shuffled, s.o_ids, s.c,
                                s.declared_l_c, s.meta)
        assert t == s and t.rounds == s.rounds

    def test_bad_field_named_at_the_callers_index(self):
        # qubit 1 sits at index 1 of the caller's tuple, and is named so
        qs = (QubitSpec(2, XYBasis(0.3)), QubitSpec(1, XYBasis(0.3), p_mask=4))
        with pytest.raises(ValueError, match=r"'qubits\[1\]\.p_mask'"):
            MeasurementSchedule(cluster1d(2), 1, qs, frozenset({1}), 0)

    @pytest.mark.parametrize("p_mask", [1 << 70, 4, -1])
    def test_p_mask_width_checked(self, p_mask):
        # inputs are packed into int64: a mask wider than the arity (or
        # negative) would fail only later, inside the simulator
        qs = (QubitSpec(1, XYBasis(0.3), p_mask=3),
              QubitSpec(2, XYBasis(0.3), p_mask=p_mask))
        with pytest.raises(ValueError, match=r"'qubits\[1\]\.p_mask'"):
            MeasurementSchedule(cluster1d(2), 2, qs, frozenset({1}), 0)

    @pytest.mark.parametrize("edit, field", [
        (dict(p_mask=1.0), r"'qubits\[1\]\.p_mask'"),
        (dict(p_mask=True), r"'qubits\[1\]\.p_mask'"),
        (dict(basis=XYBasis(0.3, bias=1.0)), r"'qubits\[1\]\.basis\.bias'"),
        (dict(basis=XYBasis(0.3, bias=2)), r"'qubits\[1\]\.basis\.bias'"),
        (dict(basis=XYBasis(0.3, bias=True)), r"'qubits\[1\]\.basis\.bias'"),
        (dict(basis=XYBasis(math.nan)), r"'qubits\[1\]\.basis\.theta'"),
        (dict(basis=XYBasis(0.3j)), r"'qubits\[1\]\.basis\.theta'"),
        (dict(basis=XYBasis("0.3")), r"'qubits\[1\]\.basis\.theta'"),
        (dict(basis=XYBasis(0.3, offset=-math.inf)),
         r"'qubits\[1\]\.basis\.offset'"),
    ])
    def test_field_types_checked(self, edit, field):
        # the simulator packs masks, biases and angles into numpy arrays,
        # which would coerce these silently (a float mask, bias 2 as bias 0)
        qs = (QubitSpec(1, XYBasis(0.3), p_mask=1),
              replace(QubitSpec(2, XYBasis(0.3), p_mask=1), **edit))
        with pytest.raises(ValueError, match=field):
            MeasurementSchedule(cluster1d(2), 1, qs, frozenset({1}), 0)

    def test_real_angles_of_any_type_accepted(self):
        qs = (QubitSpec(1, XYBasis(np.float64(0.3), 1, 2)),
              QubitSpec(2, XYBasis(np.float32(0.5), offset=np.int64(1))))
        dist = sim.exact_distribution(
            MeasurementSchedule(cluster1d(2), 0, qs, frozenset({1}), 0), 0)
        assert dist[0] + dist[1] == pytest.approx(1.0, abs=1e-12)

    def test_pauli_z_carries_no_conditioning(self):
        qs = (QubitSpec(1, PauliZBasis(), p_mask=1),)
        with pytest.raises(ValueError):
            MeasurementSchedule(cluster1d(1), 1, qs, frozenset(), 0)

    def test_measured_angle(self):
        # offset + (-1)^(s xor bias) * theta with s = P.x xor A.m, per row;
        # rows: (x=1, m1=0), (x=0, m1=0), (x=1, m1=1)
        q = QubitSpec(2, XYBasis(0.5, bias=1, offset=0.5), p_mask=1,
                      a_ids=frozenset({1}))
        outcomes = np.array([[0, 0, 0], [0, 0, 1]], dtype=np.uint8)
        px = sim.input_parities([q], [1, 0, 1])
        setting = sim.setting_bits(q, px, outcomes[1])
        assert setting.tolist() == [1, 0, 0]
        s = MeasurementSchedule(cluster1d(2), 1,
                                (QubitSpec(1, XYBasis(0.2)), q),
                                frozenset({1}), 0)
        angles = sim._site_table(s).angles  # (qubit, setting)
        assert angles[1, setting] == pytest.approx([1.0, 0.0, 0.0])


class TestCompiled:
    @settings(max_examples=80, deadline=None)
    @given(canonical_schedules())
    def test_canonical_schedules_have_exact_effective_circuit(self, s):
        assert s.compiled
        for x in range(1 << s.arity):
            analytic = sim.effective_circuit(s, x).output_distribution
            exact = sim.exact_distribution(s, x)
            assert exact[0] == pytest.approx(analytic[0], abs=1e-12)
            assert exact[1] == pytest.approx(analytic[1], abs=1e-12)

    def test_generic_bases_are_compiled(self):
        assert chain_schedule(False, generic_specs(5), 1).compiled
        assert chain_schedule(True, generic_specs(3, True), 1).compiled

    @pytest.mark.parametrize("build", [
        lambda: replace(chain_schedule(False, generic_specs(5), 1),
                        resource=composite(cluster1d(5))),
        lambda: chain_schedule(False, with_site(generic_specs(5), 3,
                                                (PauliZBasis(), 0, ())), 1),
        lambda: chain_schedule(False, generic_specs(5), 1, o_ids={1, 3}),
        lambda: chain_schedule(False, generic_specs(5), 1, o_ids={1, 2, 3, 5}),
        lambda: chain_schedule(True, generic_specs(3, True), 1, o_ids={1, 2}),
        lambda: chain_schedule(False, generic_specs(6), 1),
        lambda: chain_schedule(False, with_site(
            generic_specs(5), 3, (XYBasis(1.5, 1, 0.2), 1, {2})), 1),
        lambda: chain_schedule(False, with_site(
            generic_specs(5), 5, (XYBasis(2.3), 1, {4})), 1),
        lambda: chain_schedule(False, with_site(
            generic_specs(5), 5, (XYBasis(2.3), 1, {2, 3, 4})), 1),
        lambda: chain_schedule(True, with_site(
            generic_specs(3, True), 2, (XYBasis(1.1, 0, 0.2), 0, {1})), 1),
    ], ids=["composite", "pauli_z", "cluster_o_ids_short",
            "cluster_o_ids_even_site", "ghz_o_ids", "even_cluster",
            "cluster_offset", "a_ids_missing", "a_ids_extra", "ghz_adapted"])
    def test_single_violation_is_not_compiled(self, build):
        s = build()
        assert not s.compiled
        with pytest.raises(ValueError, match="only compiled"):
            sim.effective_circuit(s, 0)

    def test_forged_flag_is_ignored(self):
        obj = json.loads(mod3_protocol(2).to_json())
        for q in obj["qubits"]:
            q["a_ids"] = []
        assert obj["compiled"] is True
        s = MeasurementSchedule.from_json(json.dumps(obj))
        assert s.compiled is False
        report = sim.verify_protocol(s, boolean.mod_p(3, 0, 2),
                                     shots_per_input=0)
        assert report.min_analytic is None and report.min_exact < 0.5
        assert report.failure.startswith("not deterministic: min_exact")


class TestSerialization:
    def test_round_trip(self):
        s = mod3_protocol(2)
        s2 = MeasurementSchedule.from_json(s.to_json())
        assert s2.qubits == s.qubits
        assert s2.o_ids == s.o_ids and s2.c == s.c
        assert s2.declared_l_c == s.declared_l_c
        assert s2.compiled == s.compiled

    def test_golden_file(self):
        golden = (DATA / "mod3_n4_schedule.json").read_text()
        assert mod3_protocol(4).to_json() + "\n" == golden

    def test_rejects_backward_adaptation(self):
        obj = json.loads(mod3_protocol(1).to_json())
        # point a round-1 qubit at a later-round outcome
        later = max(q["id"] for q in obj["qubits"] if q["round"] == 5)
        obj["qubits"][0]["a_ids"] = [later]
        with pytest.raises(ValueError, match="causal"):
            MeasurementSchedule.from_json(json.dumps(obj))

    def test_malformed_json_position(self):
        with pytest.raises(ValueError, match="position"):
            MeasurementSchedule.from_json("{not json")

    def test_golden_file_loads(self):
        s = MeasurementSchedule.from_json(
            (DATA / "mod3_n4_schedule.json").read_text())
        assert s == mod3_protocol(4)

    @pytest.mark.parametrize("forged", [99, "x", None])
    def test_round_is_output_only(self, forged):
        # rounds are derived from a_ids, so a forged round can neither
        # inflate nor hide T_C; None drops the key
        s = or_protocol(3)
        obj = json.loads(s.to_json())
        for q in obj["qubits"]:
            if forged is None:
                del q["round"]
            else:
                q["round"] = forged
        t = MeasurementSchedule.from_json(json.dumps(obj))
        assert t == s and t.rounds == s.rounds
        assert resources(t) == resources(s)
        assert t.to_json() == s.to_json()

    @pytest.mark.parametrize("tag", ["pi*1/3", None, 7, 0.5, [1], {"x": 1}])
    def test_old_exact_tags_are_ignored(self, tag):
        # older files carry a per-site `exact` key; it loads as nothing
        s = or_protocol(3)
        obj = json.loads(s.to_json())
        for q in obj["qubits"]:
            if q["basis"]["type"] == "xy":
                q["basis"]["exact"] = tag
        t = MeasurementSchedule.from_json(json.dumps(obj))
        assert t == s
        assert t.to_json() == s.to_json()
        assert '"exact"' not in t.to_json()

    @pytest.mark.parametrize("edit, field", [
        (lambda o: o.update(c=5), "'c'"),
        (lambda o: o.update(c=True), "'c'"),
        (lambda o: o["qubits"][0]["basis"].update(theta="NaN"),
         r"'qubits\[0\].basis.theta'"),
        (lambda o: o["qubits"][0]["basis"].update(theta=math.nan),
         r"'qubits\[0\].basis.theta'"),
        (lambda o: o["qubits"][1]["basis"].update(offset=math.inf),
         r"'qubits\[1\].basis.offset'"),
        (lambda o: o["qubits"][2].update(p_mask=2), r"'qubits\[2\].p_mask'"),
        (lambda o: o["qubits"][2].update(p_mask=-1), r"'qubits\[2\].p_mask'"),
        (lambda o: o["qubits"][3].update(id=0), r"'qubits\[3\].id'"),
        (lambda o: o["qubits"][3].update(a_ids=[1, "2"]), r"'qubits\[3\].a_ids'"),
        (lambda o: o["qubits"][3]["basis"].update(type="y"),
         r"'qubits\[3\].basis.type'"),
        (lambda o: o.pop("qubits"), "'qubits' is missing"),
        (lambda o: o["resource"].update(n_qubits="9"), "'resource.n_qubits'"),
        (lambda o: o["resource"].update(type="ring"), "'resource.type'"),
        (lambda o: o.update(o_ids=7), "'o_ids'"),
        (lambda o: o.update(meta=[]), "'meta'"),
    ])
    def test_rejects_malformed_field(self, edit, field):
        obj = json.loads(mod3_protocol(1).to_json())
        edit(obj)
        with pytest.raises(ValueError, match=field):
            MeasurementSchedule.from_json(json.dumps(obj))

    @pytest.mark.parametrize("text", ["[]", "null", "3", '"schedule"'])
    def test_rejects_non_object(self, text):
        with pytest.raises(ValueError, match="must be an object"):
            MeasurementSchedule.from_json(text)

    def test_rejects_deep_nesting(self):
        with pytest.raises(ValueError):
            MeasurementSchedule.from_json("[" * 100000 + "]" * 100000)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_round_trip_random_schedules(self, data):
        s = data.draw(random_schedules())
        assert MeasurementSchedule.from_json(s.to_json()) == s

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_garbage_fields_raise_only_value_error(self, data):
        obj = json.loads(data.draw(random_schedules()).to_json())
        # overwrite one node of the JSON tree with arbitrary JSON
        node, key = obj, data.draw(st.sampled_from(sorted(obj)))
        while isinstance(node[key], (dict, list)) and node[key] and \
                data.draw(st.booleans()):
            node = node[key]
            key = data.draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
        node[key] = data.draw(json_values)
        try:
            MeasurementSchedule.from_json(json.dumps(obj))
        except ValueError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.text(), json_values.map(json.dumps)))
    def test_garbage_text_raises_only_value_error(self, text):
        try:
            MeasurementSchedule.from_json(text)
        except ValueError:
            pass


class TestCompileToCluster:
    def test_single_rotation_minimal_chain(self):
        prog = OneQubitProgram(1, (Gate("X", math.pi / 3),))
        s = compile_to_cluster(prog)
        assert s.resource.n_qubits == 1
        assert all(not q.a_ids for q in s.qubits)
        assert resources(s).t_c == 1

    def test_empty_chain_records_builder_name(self):
        # an all-Z program compiles to no site; its meta names the builder
        # as every other compiled program's does
        prog = OneQubitProgram(1, (Gate("Z", 0.3),), meta={"builder": "zz", "k": 1})
        s = compile_to_cluster(prog)
        assert s.n_qubits == 0
        assert json.loads(s.to_json())["meta"] == {"source": "zz"}

    def test_commuting_or2_two_rounds(self):
        prog = build_commuting_program(pfd.solve_pfd(boolean.or_n(2)))
        s = compile_to_cluster(prog)
        assert resources(s).t_c == 2

    def test_mod3_generic_compile_simulates(self):
        s = compile_to_cluster(build_mod3_clifford(2))
        f = boolean.mod_p(3, 0, 2)
        for x in range(4):
            assert sim.exact_distribution(s, x)[f(x)] == pytest.approx(1.0, abs=1e-10)

    def test_alternation_structure(self):
        s = compile_to_cluster(build_mod3_clifford(1))
        assert s.n_qubits == 9
        assert s.o_ids == frozenset(range(1, 10, 2))

    def test_effective_circuit_matches_program_unitary(self):
        # compiler soundness: the schedule's branch-independent circuit is the
        # program's unitary up to a global phase (trace criterion)
        for prog in (build_mod3_clifford(2),
                     build_commuting_program(pfd.solve_pfd(boolean.or_n(2)))):
            s = compile_to_cluster(prog)
            for x in range(1 << prog.n):
                V = sim.effective_circuit(s, x).unitary
                U = prog.unitary(x)
                assert abs(abs(np.trace(U.conj().T @ V)) - 2) < 1e-12

    def test_random_programs_compile_soundly(self):
        # end-to-end soak: arbitrary conditioned programs keep their exact
        # output distribution through compilation and branch enumeration
        import random
        rnd = random.Random(33)
        from l2mbqc.onequbit import evaluate
        for _ in range(40):
            n = rnd.randint(1, 2)
            gates = []
            for _ in range(rnd.randint(1, 5)):
                axis = rnd.choice("XZ")
                angle = rnd.uniform(-3, 3)
                kind = rnd.choice(["none", "select", "sign"])
                if kind == "none":
                    cond = Condition()
                elif kind == "select":
                    cond = Condition("select", rnd.randint(1, (1 << n) - 1))
                else:
                    cond = Condition("sign", rnd.randint(1, (1 << n) - 1),
                                     rnd.randint(0, 1))
                gates.append(Gate(axis, angle, cond))
            prog = OneQubitProgram(n, tuple(gates), flip_output=rnd.randint(0, 1))
            s = compile_to_cluster(prog)
            if s.n_qubits > 13:
                continue
            for x in range(1 << n):
                want = evaluate(prog, x).distribution
                got = sim.exact_distribution(s, x)
                assert got[0] == pytest.approx(want[0], abs=1e-9)


class TestGhzCompile:
    def test_and2_all_inputs_exact(self):
        f = boolean.and_n(2)
        s = compile_pfd_to_ghz(pfd.solve_pfd(f), f.table[0])
        assert s.n_qubits == 3
        for x in range(4):
            assert sim.exact_distribution(s, x)[f(x)] == pytest.approx(1.0, abs=1e-10)

    def test_pairwise_and_3_four_qubits(self):
        f = boolean.pairwise_and(3)
        s = compile_pfd_to_ghz(pfd.pairwise_and_decomposition(3), 0)
        assert s.n_qubits == 4
        for x in range(8):
            assert sim.exact_distribution(s, x)[f(x)] == pytest.approx(1.0, abs=1e-10)

    def test_constant_function_empty_schedule(self):
        f = boolean.constant(1, 2)
        s = compile_pfd_to_ghz(pfd.solve_pfd(f), 1)
        assert s.n_qubits == 0 and s.c == 1
        assert sim.exact_distribution(s, 0) == {0: 0.0, 1: 1.0}

    def test_nonadaptive(self):
        s = compile_pfd_to_ghz(pfd.solve_pfd(boolean.or_n(2)), 0)
        assert all(r == 1 and not q.a_ids for q, r in zip(s.qubits, s.rounds))


@st.composite
def ghz_schedules(draw):
    """Compiled GHZ schedules of 1 to 6 sites: every site read out, nonzero
    offsets, any bias and mask (mask 0 too), and half-angles at pi, at zero
    or anywhere."""
    n = draw(st.integers(1, 6))
    arity = draw(st.integers(0, 3))
    thetas = st.sampled_from([math.pi, 0.0]) | st.floats(-4, 4)
    offsets = st.floats(0.05, 4) | st.floats(-4, -0.05)
    specs = [(XYBasis(draw(thetas), draw(st.integers(0, 1)), draw(offsets)),
              draw(st.integers(0, (1 << arity) - 1)), ())
             for _ in range(n)]
    return chain_schedule(True, specs, arity, draw(st.integers(0, 1)))


class TestLift:
    @settings(max_examples=60, deadline=None)
    @given(ghz_schedules())
    def test_lift_preserves_outputs(self, g):
        lifted = lift_ghz_to_cluster(g)
        xs = range(1 << g.arity)
        for want, got in zip(sim.exact_distributions(g, xs),
                             sim.exact_distributions(lifted, xs)):
            assert abs(got[1] - want[1]) < 1e-12
        rep = resources(lifted)
        N = g.n_qubits
        assert (rep.l_q, rep.l_c) == (2 * N + 1, N) and rep.t_c <= 2

    def test_pi_multiple_site_exempt(self):
        # parity_2 has angle 2 on mask 3: its half-angle is pi, so the lifted
        # site measures the same observable on either sign and waits on none
        f = boolean.parity_n(2)
        lifted = lift_ghz_to_cluster(compile_pfd_to_ghz(pfd.solve_pfd(f), 0))
        site = lifted.qubits[4]
        assert site.id == 5 and site.basis.theta == pytest.approx(math.pi)
        assert (site.p_mask, site.a_ids, lifted.rounds[4]) == (0, frozenset(), 1)
        assert lifted.compiled
        for x, d in enumerate(sim.exact_distributions(lifted, range(4))):
            assert d[f(x)] > 1 - 1e-9

    def test_single_qubit_lift(self):
        f = boolean.parity_n(1)
        g = compile_pfd_to_ghz(pfd.solve_pfd(f), 0)
        assert g.n_qubits == 1
        lifted = lift_ghz_to_cluster(g)
        assert lifted.n_qubits == 3
        for x in range(2):
            assert sim.exact_distribution(lifted, x)[f(x)] == pytest.approx(
                1.0, abs=1e-10)

    def test_or2_lift_outputs(self):
        f = boolean.or_n(2)
        g = compile_pfd_to_ghz(pfd.solve_pfd(f), 0)
        lifted = lift_ghz_to_cluster(g)
        assert lifted.n_qubits == 7
        for x in range(4):
            assert sim.exact_distribution(lifted, x)[f(x)] == pytest.approx(
                1.0, abs=1e-10)

    def test_resource_tuple(self):
        g = compile_pfd_to_ghz(pfd.solve_pfd(boolean.and_n(2)), 0)
        rep = resources(lift_ghz_to_cluster(g))
        assert rep.as_tuple() == (7, 3, 2, 3)

    def test_adaptive_input_rejected(self):
        with pytest.raises(ValueError):
            lift_ghz_to_cluster(mod3_protocol(1))

    def test_partial_readout_rejected(self):
        # without its last site in o_ids the GHZ output is uniform; a lift
        # that ignored o_ids would certify another function
        g = compile_pfd_to_ghz(pfd.solve_pfd(boolean.pairwise_and(3)), 0)
        partial = replace(g, o_ids=g.o_ids - {g.n_qubits})
        assert sim.exact_distribution(partial, 0)[0] == pytest.approx(0.5)
        with pytest.raises(ValueError, match="compiled GHZ"):
            lift_ghz_to_cluster(partial)


class TestNamedProtocols:
    def test_mod3_resources(self):
        for n in (1, 2, 4, 6):
            rep = resources(mod3_protocol(n))
            assert rep.as_tuple() == (4 * n + 5, n + 2, 5, 3)

    def test_mod3_n4_is_21_qubits(self):
        assert mod3_protocol(4).n_qubits == 21

    def test_mod3_n1_exact(self):
        s = mod3_protocol(1)
        f = boolean.mod_p(3, 0, 1)
        for x in range(2):
            assert sim.exact_distribution(s, x)[f(x)] == pytest.approx(1.0, abs=1e-10)

    def test_modp_resources(self, modp_angles):
        s = modp_protocol(3, 0, 4, modp_angles[3])
        rep = resources(s)
        assert rep.l_q == 10 * 5 - 1 == 49
        assert rep.as_tuple() == (49, 6, 10, 3)

    def test_modp_p5_sampling(self, modp_angles):
        s = modp_protocol(5, 0, 3, modp_angles[5])
        f = boolean.mod_p(5, 0, 3)
        report = sim.verify_protocol(s, f, shots_per_input=200, seed=41)
        assert report.all_shots_correct
        assert report.min_analytic > 1 - 1e-9

    def test_symmetric_resources(self, symmetric_angles):
        f = boolean.pairwise_and(2)
        s = qsp_symmetric_protocol(f, 2, symmetric_angles[(0, 0, 1)])
        assert resources(s).as_tuple() == (53, 2, 18, 3)

    def test_symmetric_outputs(self, symmetric_angles):
        f = boolean.pairwise_and(2)
        s = qsp_symmetric_protocol(f, 2, symmetric_angles[(0, 0, 1)])
        for x in range(4):
            assert sim.analytic_success(s, f, x) > 1 - 1e-9

    @pytest.mark.parametrize("build", [
        lambda: mod3_protocol(4),
        lambda: modp_protocol(5, 2, 3, qsp.reference_angles(5)),
    ], ids=["mod3-4", "modp-5-2-3"])
    def test_schedule_is_built_once(self, monkeypatch, build):
        # every field check, the id sort and the round derivation run once
        calls = []
        real = MeasurementSchedule.__post_init__

        def counting(self):
            calls.append(self.n_qubits)
            real(self)

        monkeypatch.setattr(MeasurementSchedule, "__post_init__", counting)
        s = build()
        assert calls == [s.n_qubits]
        assert s.declared_l_c is not None and s.meta["builder"]


class TestOrProtocol:
    def test_zero_input_always_zero(self):
        s = or_protocol(4)
        _, ys = sim.run_schedule_batch(s, 0, 100, seed=1)
        assert not ys.any()

    def test_qubit_count_formula(self):
        for n in (2, 3, 4, 6):
            kappa = math.ceil(math.log2(n + 1))
            assert or_protocol(n).n_qubits == 2 * kappa * (n + 1) + 2 ** (kappa + 1) - 1

    def test_three_rounds(self):
        assert resources(or_protocol(4)).t_c == 3

    def test_counter_randomness_output_determinism(self):
        # the counter string varies shot to shot; the output never does
        s = or_protocol(3)
        f = boolean.or_n(3)
        kappa = s.meta["kappa"]
        for x in (1, 5, 7):
            outcomes, ys = sim.run_schedule_batch(s, x, 50, seed=x)
            assert all(int(y) == f(x) for y in ys)
        counters = set()
        outcomes, _ = sim.run_schedule_batch(s, 7, 50, seed=99)
        for shot in range(50):
            bits = []
            for b in range(kappa):
                par = 0
                for qid in s.meta["block_outputs"][b]:
                    par ^= int(outcomes[qid][shot])
                bits.append(par)
            counters.add(tuple(bits))
        assert len(counters) > 1


class TestResources:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_rounds_are_adaptation_depth(self, data):
        s = data.draw(random_schedules())
        for q, r in zip(s.qubits, s.rounds):
            assert r == 1 + max((s.rounds[a - 1] for a in q.a_ids), default=0)
        assert resources(s).t_c == max(s.rounds, default=0)

    def test_empty_schedule(self):
        s = MeasurementSchedule(cluster1d(0), 1, (), frozenset(), 0)
        rep = resources(s)
        assert (rep.l_q, rep.l_c, rep.t_q, rep.t_c) == (0, 0, 0, 0)

    def test_structural_count_distinct_masks(self):
        # with no declared count, L_C is the number of distinct input masks
        s = compile_pfd_to_ghz(pfd.solve_pfd(boolean.or_n(2)), 0)
        assert resources(replace(s, declared_l_c=None)).l_c == 3

    def test_volume(self):
        rep = resources(mod3_protocol(4))
        assert rep.volume == (21 + 6) * (5 + 3)


def _pfd_and3():
    f = boolean.build("and", 3)
    return compile_pfd_to_ghz(pfd.solve_pfd(f), f.table[0])


class TestPinnedBuilders:
    """Resource tuples and schedule JSON of every builder, pinned bit for bit
    so that a change to schedule construction shows in what it emits."""

    @pytest.mark.parametrize("build, tup, digest", [
        (lambda: mod3_protocol(4), (21, 6, 5, 3),
         "9eacf5c7d392220eb74c4329f8592cbee2549c7fcce39f55af603c5fb35396f1"),
        (lambda: modp_protocol(5, 2, 3, qsp.reference_angles(5)),
         (71, 5, 18, 3),
         "c939df27826e96a3dcfaaa31cbb65409bfbf6b30da068f9dc4996c6cbbe2021f"),
        (lambda: qsp_symmetric_protocol(
            boolean.from_profile([0, 1, 1], 2), 2,
            qsp.synthesize_symmetric([0, 1, 1], 2)), (53, 2, 18, 3),
         "6ab724a460d6a3b20849cf536a7b1ef0561145b782ca3ab7bbfb1c6d1108173d"),
        (lambda: or_protocol(6), (57, 32, 3, 3),
         "4ef1be04716e844d942bc4750ec253a5faac0f8351ab4fc3be64d7b9d9ddc7bb"),
        (_pfd_and3, (7, 7, 1, 3),
         "266a06f220764d4559c8c158fdeef23364f556e9f505a7bfd7314d39b390b9df"),
        # site 1 waits on no outcome, so its round is 1
        (lambda: lift_ghz_to_cluster(_pfd_and3()), (15, 7, 2, 3),
         "0a32a6f692bafa3aaf1f6a8c4cec15cc7637e03d92f5f14c21ee5e2955d5a9c0"),
    ], ids=["mod3-4", "modp-5-2-3", "symmetric-011", "or-6", "pfd-and3",
            "lift-and3"])
    def test_resources_and_json_digest(self, build, tup, digest):
        s = build()
        assert resources(s).as_tuple() == tup
        assert hashlib.sha256(s.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize("n, digest", [
        (6, "4ef1be04716e844d942bc4750ec253a5faac0f8351ab4fc3be64d7b9d9ddc7bb"),
        (8, "28a59c6e533f5216dad813dbd8ef174af1d31846c098a6f904aecc2233c0e533"),
        (20, "89d7f894e1b982e4d1641ee43a9c828112c02298e90849c1c9abc62f5da0fc39"),
        (63, "120771ec460d393c16404ec55396c92cf17dd1673fdd94693f85409ce8f2120b"),
    ])
    def test_or_protocol_digest_without_audit_tags(self, n, digest):
        # every angle, mask, adaptation set and the output parity, bit for
        # bit; the `exact` audit tags are left out of the digest
        obj = json.loads(or_protocol(n).to_json())
        for q in obj["qubits"]:
            q["basis"].pop("exact", None)
        text = json.dumps(obj, indent=1)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestCompositeResource:
    def test_composite_sizes(self):
        r = composite(ghz(3), cluster1d(5))
        assert r.n_qubits == 8
        assert Resource("composite", 8, (ghz(3), cluster1d(5))) == r

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Resource("composite", 7, (ghz(3), cluster1d(5)))
