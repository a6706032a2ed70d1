"""The single QSP weight construction behind the mod-p and symmetric paths.

The mod-p target is the symmetric profile 0 1 ... 1 on the grid of period
q = p, so synthesis, the one-qubit program and the cluster schedule of the
two paths come from one construction.  The digests below pin the program
and schedule JSON that construction emits.
"""
import hashlib
import itertools
import json

import pytest

from l2mbqc import boolean, qsp, sim
from l2mbqc.mbqc import modp_protocol, qsp_symmetric_protocol, resources
from l2mbqc.onequbit import build_qsp_program, build_symmetric_program


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode() + b"\n")
    return h.hexdigest()


def _schedule_json(s):
    # everything but meta.profile, the symmetric target as a bit string,
    # which the CLI tests check: the digests hold for schedules without it
    obj = json.loads(s.to_json())
    obj["meta"].pop("profile", None)
    return json.dumps(obj, indent=1)


def _modp_outputs(p):
    out = []
    for j in (0, 1):
        angles = qsp.synthesize_mod_p(p, j)
        for n in (1, 3):
            out.append(build_qsp_program(p, j, n, angles).to_json())
            out.append(_schedule_json(modp_protocol(p, j, n, angles)))
    return out


def _symmetric_outputs(n):
    out = []
    for bits in itertools.product((0, 1), repeat=n + 1):
        if len(set(bits)) == 1:
            continue
        f = boolean.from_profile(bits, n)
        angles = qsp.synthesize_symmetric(f.zero_anchored_profile()[0], n)
        out.append(build_symmetric_program(f, n, angles).to_json())
        out.append(_schedule_json(qsp_symmetric_protocol(f, n, angles)))
    return out


@pytest.mark.parametrize("build, digest", [
    (lambda: _modp_outputs(3),
     "821a29cd1fe6bd2a08eb6a050ff2f57db430e1026f27aabf17dd6e1784d91841"),
    (lambda: _modp_outputs(5),
     "5089cf092bbf331061a898296a2f3fcc7713d0a328ce6bad10871679d1d403fe"),
    (lambda: _modp_outputs(7),
     "cb5eb99d598636ab57f7b0920f54a844160ee757438d8ef4626f70ec6c7b976c"),
    (lambda: _symmetric_outputs(2),
     "2a5d84ec0b528807492ae216d98cd191e7aa3ec90185a9b1b9a04825bc8cb1de"),
], ids=["modp-p3", "modp-p5", "modp-p7", "symmetric-n2"])
def test_pinned_program_and_schedule_json(build, digest):
    assert _digest(build()) == digest


@pytest.mark.parametrize("p", [3, 5, 7])
def test_mod_p_is_the_symmetric_construction_at_q_equal_p(p):
    h = (p - 1) // 2
    sym = qsp.synthesize_symmetric([0] + [1] * h, h)
    assert sym.grid_period == p
    for j in range(p):
        modp = qsp.synthesize_mod_p(p, j)
        assert [x.hex() for x in modp.xi] == [x.hex() for x in sym.xi]
        assert modp.stats == sym.stats


def _assert_exact_certificate(s, f):
    report = sim.verify_protocol(s, f, shots_per_input=10, seed=1,
                                 use_exact=True)
    assert report.failure is None
    assert report.min_analytic > 1 - 1e-12
    assert report.min_exact > 1 - 1e-12


# schedules with blocks whose angle is a multiple of pi measure those sites
# in round 1 and finish in fewer than 4q - 2 rounds


@pytest.mark.parametrize("p", [3, 5, 7])
def test_residue_past_half_at_one_input_bit(p):
    # the merged unconditioned rotation of every block is
    # 2*pi*(n - 2j)/p = -2*pi at n = 1, j = (p+1)/2
    j = (p + 1) // 2
    s = modp_protocol(p, j, 1, qsp.synthesize_mod_p(p, j))
    assert resources(s).t_c == 4 * p - 3
    _assert_exact_certificate(s, boolean.mod_p(p, j, 1))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("b", [0, 1])
def test_constant_profiles(b, n):
    # the constant target deflates to 0/pi padding: four rounds at any n
    f = boolean.constant(b, n)
    s = qsp_symmetric_protocol(f, n, qsp.synthesize_symmetric([0] * (n + 1), n))
    assert resources(s).t_c == 4
    _assert_exact_certificate(s, f)
