"""Quantum-signal-processing synthesis for symmetric Boolean functions.

A sequence of L rotations R_Z(xi_j) R_X(phi) R_Z(xi_j)^dag applied to |0>
realizes a unitary whose Pauli components are Laurent polynomials in
z = e^{i phi/2} of degree at most L with fixed parity.  Synthesis proceeds in
three exact stages:

1. interpolate the I and X components (cosine and sine series) on a grid of
   phase values so the measured bit equals the target function there, with
   zero slope so the remainder has double zeros on the circle; on the
   equispaced grid this is a closed-form cosine/sine transform, not a solve,
   in mpmath at SYNTHESIS_DPS digits;
2. complete the pair to a unitary by spectral factorization of the
   remainder 1 - A^2 - B^2, a polynomial in w = z^2: its double grid zeros
   are divided out exactly, and the roots of the self-reciprocal quotient
   inside the circle are polished by Newton's method from float seeds;
3. extract the rotation angles by peeling rank-one projector factors off
   the matrix Laurent polynomial.

Every series coefficient is bounded by 1 in modulus, so stages 2 and 3 run
in fixed point: the interpolant is rounded once to Python ints at scale
2^F (``_FRAC_BITS``, the bits of SYNTHESIS_DPS digits plus guard bits), and
the remainder, the division, the root polish, the root-factor product, the
identity check and the peel are int products and shifts.  mpmath computes
the interpolant and one arctangent per peeled layer.

The grid is phi_w = 4*pi*w/q with an odd period q and L = 2q-1: q = 2n+1
for a symmetric profile on n bits, and the weight-counting functions are
the profile 0 1 ... 1 at q = p.  Both the truth table and the series have
period q in the weight, which is what makes the reduced system square.

mpmath is imported inside the synthesis functions, so that loading the
package (and the simulator, which needs only the float rotation helpers)
does not pay for it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

SYNTHESIS_DPS = 50
SOLVE_RESIDUAL_TOL = 1e-12
COMPLETION_TOL = 1e-12
RECIPROCAL_TOL = 1e-30
FAILURE_TOL_OWN = 1e-9
FAILURE_TOL_REFERENCE = 1e-10
# completion and peeling run on Python ints at scale 2^_FRAC_BITS: the bits
# of SYNTHESIS_DPS digits plus 20 guard bits
_GUARD_BITS = 20
_FRAC_BITS = int(SYNTHESIS_DPS * math.log2(10)) + _GUARD_BITS
_ONE = 1 << _FRAC_BITS
# Newton doubles the correct bits of a root each step: from one correct bit
# it reaches _FRAC_BITS in _FRAC_BITS.bit_length() steps, and one more step
# shows the step has dropped into the guard bits
_POLISH_STEPS = _FRAC_BITS.bit_length() + 1


class SynthesisError(RuntimeError):
    """Interpolation residual, feasibility, or completion failure."""


@dataclass(frozen=True, eq=False)
class LaurentPair:
    """Real cosine/sine series for the I and X components of the target.

    ``a`` and ``b`` are object arrays of exact ``mpf`` coefficients, one per
    odd harmonic: index j multiplies cos((2j+1)*phi/2) in A and
    sin((2j+1)*phi/2) in B, so the degree, 2 len(a) - 1, is odd by
    construction.  ``grid_period`` is q: grid points sit at phi_w =
    4*pi*w/q.
    """

    a: np.ndarray
    b: np.ndarray
    grid_period: int
    target_values: tuple[int, ...]
    residual: float

    def __post_init__(self):
        a, b = (np.asarray(c, dtype=object) for c in (self.a, self.b))
        if a.ndim != 1 or b.shape != a.shape:
            raise ValueError("series need one coefficient per odd harmonic")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def degree(self) -> int:
        return 2 * len(self.a) - 1

    def a_value(self, phi):
        return sum(float(c) * np.cos((2 * j + 1) * phi / 2)
                   for j, c in enumerate(self.a))

    def b_value(self, phi):
        return sum(float(c) * np.sin((2 * j + 1) * phi / 2)
                   for j, c in enumerate(self.b))

    def min_remainder(self, samples: int = 2048) -> float:
        """min over the circle of 1 - A^2 - B^2 (feasibility check)."""
        phis = np.linspace(0.0, 4 * np.pi, samples, endpoint=False)
        return float(np.min(1.0 - self.a_value(phis) ** 2 - self.b_value(phis) ** 2))


@dataclass(frozen=True)
class QspAngles:
    """Rotation-axis angles; xi[0] belongs to the first rotation applied.

    The rotation count ``length`` is ``len(xi)`` and ``residual`` is
    ``stats["reconstruction_residual"]`` (0.0 without it); both are derived,
    so the ``L`` and ``residual`` keys of ``to_json`` are output only.
    ``stats`` is the synthesis certificate (empty for loaded tables):
    ``interp_residual``, ``grid_zeros`` (circle zeros divided out, 2q),
    ``quotient_degree`` (2d; its d roots inside the circle are polished),
    ``division_remainder`` (relative), ``reciprocal_dev`` (relative gap
    between the quotient and its reversal), ``root_seed_dev`` (largest
    distance of a polished root from its float seed, a companion-matrix
    root from ``_seed_roots``, both mapped to u = w + 1/w),
    ``peel_residual`` (see ``_peel_angles``)
    and ``reconstruction_residual``.
    """

    xi: tuple[float, ...]
    grid_period: int
    target: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def length(self) -> int:
        return len(self.xi)

    @property
    def residual(self) -> float:
        return self.stats.get("reconstruction_residual", 0.0)

    def to_json(self) -> str:
        return json.dumps({"L": self.length, "xi": list(self.xi),
                           "target": self.target, "residual": self.residual,
                           "grid_period": self.grid_period, "stats": self.stats})

    @classmethod
    def from_json(cls, text: str) -> "QspAngles":
        obj = json.loads(text)
        return cls(tuple(obj["xi"]), obj.get("grid_period", 0),
                   obj.get("target", {}), obj.get("stats", {}))


def reference_angles(p: int) -> QspAngles:
    """Checked-in published angle table for the weight-counting functions."""
    data = json.loads(resources.files("l2mbqc.data")
                      .joinpath("reference_angles.json").read_text())
    if str(p) not in data["angles"]:
        raise ValueError(f"no reference angles for p={p}; published tables "
                         f"cover p = {', '.join(data['angles'])}")
    xi = tuple(data["angles"][str(p)])
    return QspAngles(xi, p, target={"p": p, "j": 0, "source": "reference"})


# ---------------------------------------------------------------------------
# stage 1: interpolation


def _interp_system(q: int, avals, bvals):
    """The interpolant in closed form, in extended precision.

    Value rows pin A at w = 0..(q-1)/2 and B at w = 1..(q-1)/2; zero-slope
    rows on the other grid points give the completion remainder its double
    zeros.  Harmonics h < q and h' = 2q - h share cos(2*pi*h*w/q) and have
    opposite sines, and h = q is constant on the grid.  So the value rows
    are a cosine transform of the even extension of A's values (a sine
    transform of the odd one of B's) in the pair sums s_h, and the slope
    rows split each sum: h a_h = h' a_h' and h b_h = -h' b_h', with
    a_q the mean and b_q = 0.  Every angle is 2*pi*k/q, read from one
    table.  Returns the two coefficient arrays (``LaurentPair`` layout) and
    the 2-norm of the value and slope rows evaluated on them.
    """
    import mpmath as mp

    half = (q - 1) // 2
    grid = range(-half, half + 1)
    cos = [mp.cospi(mp.mpf(2 * k) / q) for k in range(q)]
    sin = [mp.sinpi(mp.mpf(2 * k) / q) for k in range(q)]

    def split(table, ext, sign):
        # harmonic h at index (h - 1) / 2, its partner 2q - h at q - 1 - that
        out = np.full(q, mp.mpf(0), dtype=object)
        for j in range(half):
            h = 2 * j + 1
            s = 2 * mp.fsum(v * table[h * w % q] for w, v in zip(grid, ext)) / q
            out[j] = s * (2 * q - h) / (2 * q)
            out[q - 1 - j] = sign * s * h / (2 * q)
        return out

    def residual(coeffs, value, slope, values, first):
        # value rows on w = first..half, zero-slope rows on the other grid
        harms = range(1, 2 * q, 2)
        rows = [mp.fsum(c * value[h * w % q] for h, c in zip(harms, coeffs))
                - values[w] for w in range(first, half + 1)]
        rows += [mp.fsum(h * c * slope[h * w % q] for h, c in zip(harms, coeffs))
                 for w in range(1 - first, half + 1)]
        return mp.norm(rows)

    a = split(cos, [avals[abs(w)] for w in grid], 1)
    a[half] = mp.fsum(avals[abs(w)] for w in grid) / q
    b = split(sin, [bvals[w] if w >= 0 else -bvals[-w] for w in grid], -1)
    res = residual(a, cos, sin, avals, 0) + residual(b, sin, cos, bvals, 1)
    return a, b, float(res)


def _make_pair(q: int, values: list[int], target_desc: tuple[int, ...]) -> LaurentPair:
    import mpmath as mp

    with mp.workdps(SYNTHESIS_DPS):
        a, b, residual = _interp_system(q, [1 - v for v in values], list(values))
    if residual > SOLVE_RESIDUAL_TOL:
        raise SynthesisError(f"interpolation residual {residual:.2e}")
    return LaurentPair(a, b, q, target_desc, residual)


def solve_mod_p_coeffs(p: int, j: int = 0) -> LaurentPair:
    """Series of degree 2p-1 whose measured bit is the weight-mod-p indicator.

    This is the symmetric construction at q = p: the profile 0 1 ... 1 over
    weights 0..(p-1)/2.  The residue j enters later as a constant shift of
    the rotation phase (the truth table is invariant under weight shifts by
    p, so shifting the phase grid re-aims the same series).
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd integer >= 3")
    if not 0 <= j < p:
        raise ValueError("j out of range")
    half = (p - 1) // 2
    return solve_symmetric_coeffs([0] + [1] * half, half)


def solve_symmetric_coeffs(profile, n: int) -> LaurentPair:
    """Series of degree 4n+1 computing an arbitrary symmetric profile.

    The profile must have value 0 at weight 0 (complement and flip the
    classical output bit otherwise).  Weights are read modulo q = 2n+1 on
    the grid, which is aliasing-free since 0..n are distinct residues.
    """
    profile = list(profile)
    if len(profile) != n + 1:
        raise ValueError("profile needs n+1 entries")
    if profile[0] != 0:
        raise SynthesisError("profile must start at 0; complement first")
    q = 2 * n + 1
    return _make_pair(q, profile, tuple(profile))


# ---------------------------------------------------------------------------
# stage 2 + 3: completion and angle extraction


def _fixed(x, bits: int = _FRAC_BITS) -> int:
    """round(x * 2^bits) for an mpf x, read exactly off its mantissa."""
    man, exp = x.man_exp  # man is |mantissa|
    man = -man if x < 0 else man
    shift = exp + bits
    return man << shift if shift >= 0 else (man + (1 << (-shift - 1))) >> -shift


def _abs(re, im) -> int:
    """|re + i im| of a fixed-point complex number, rounded down."""
    return math.isqrt(re * re + im * im)


def _cmul(x, y):
    """x y for fixed-point complex pairs (re, im): y at scale 2^F, x y at
    the scale of x."""
    return ((x[0] * y[0] - x[1] * y[1]) >> _FRAC_BITS,
            (x[0] * y[1] + x[1] * y[0]) >> _FRAC_BITS)


def _z_series(coeffs, sign: int) -> np.ndarray:
    """sum_h c_h (z^h + sign z^-h) / 2 for a ``LaurentPair`` series of degree L.

    The one coefficient layout of completion and peeling: an object array
    of Python ints at scale 2^F (F = ``_FRAC_BITS``), each c_h / 2 rounded
    once, with z^e (e odd, |e| <= L) at index (e + L) // 2.  ``np.convolve``
    of two such arrays holds w^m, w = z^2, at index m + L, exactly, at
    scale 2^(2F).
    """
    import mpmath as mp

    half = np.array([_fixed(mp.mpf(c), _FRAC_BITS - 1) for c in coeffs],
                    dtype=object)
    return np.concatenate([sign * half[::-1], half])


def _divide_grid_zeros(poly, q: int):
    """Divide a real polynomial by (w^q - 1)^2 = w^(2q) - 2 w^q + 1.

    ``poly`` lists coefficients from the constant term up; on the integers
    of the fixed-point layout the division is exact.  Returns the quotient
    in the same order and the 2q low coefficients left over, which vanish
    when every q-th root of unity is a double zero of ``poly``.
    """
    rest = list(poly)
    quot = [0] * max(len(rest) - 2 * q, 0)
    for k in range(len(rest) - 1, 2 * q - 1, -1):
        c = rest[k]
        quot[k - 2 * q] = c
        rest[k - q] += 2 * c
        rest[k - 2 * q] -= c
    return quot, rest[:2 * q]


def _horner(coeffs, t):
    """sum_k coeffs[k] t^k for fixed-point complex pairs (re, im).

    The coefficients share one scale, which the value keeps; t is at scale
    2^F.
    """
    acc = (0, 0)
    for re, im in reversed(coeffs):
        acc = _cmul(acc, t)
        acc = (acc[0] + re, acc[1] + im)
    return acc


def _seed_roots(quot) -> np.ndarray:
    """Float seeds for ``_polish_root``: the roots of ``quot`` inside the circle.

    ``quot`` is the self-reciprocal quotient of ``_complete``, from the
    constant term up.  ``np.roots`` finds its float roots as the eigenvalues
    of the companion matrix, a backward-stable method, after each
    coefficient is divided by the largest one (int / int, rounded once).
    The roots s with |s| < 1 (which also drops any NaN) are the seeds.
    """
    top = max(map(abs, quot))
    s = np.roots([c / top for c in quot[::-1]])
    return s[np.abs(s) < 1]


def _polish_root(quot, seed: complex):
    """Newton's method on ``quot`` from a float seed, in the fixed-point layout.

    ``quot`` lists integer coefficients from the constant term up; Q and Q'
    are complex Horner sums (``_horner``) at the coefficients' scale, and
    the step Q/Q' is one exact int division to scale 2^F.  The polish stops
    once a step falls below 2^_GUARD_BITS units, within ``_POLISH_STEPS``
    steps.  Returns the root as a (re, im) pair at scale 2^F.
    """
    coeffs = [(c, 0) for c in quot]
    slopes = [(k * c, 0) for k, c in enumerate(quot)][1:]
    w = (round(seed.real * _ONE), round(seed.imag * _ONE))
    for _ in range(_POLISH_STEPS):
        (vr, vi), (dr, di) = _horner(coeffs, w), _horner(slopes, w)
        n = dr * dr + di * di
        if not n:
            break
        step = (((vr * dr + vi * di) << _FRAC_BITS) // n,
                ((vi * dr - vr * di) << _FRAC_BITS) // n)
        w = (w[0] - step[0], w[1] - step[1])
        if step[0] ** 2 + step[1] ** 2 < 1 << 2 * _GUARD_BITS:
            return w
    raise SynthesisError(f"root polish did not converge within "
                         f"{_POLISH_STEPS} steps")


def _complete(pair: LaurentPair):
    """Spectral factorization of the remainder into the Y and Z components.

    The remainder 1 - A^2 - B^2 = 1 - A^2 + (iB)^2 is two convolutions of
    ``_z_series`` arrays, a series in w = z^2 whose integer coefficients at
    scale 2^(2F) are exact.  It vanishes doubly at each grid point, the
    q-th roots of unity, so it is divided exactly by (w^q - 1)^2 first.  The
    quotient, of degree 2d (``quotient_degree``), is real and
    self-reciprocal, so its roots, simple and off the circle, come in pairs
    w, 1/w: d of them lie inside the circle.  Their companion-matrix roots
    (``_seed_roots``) seed one Newton polish each on the integer quotient
    (``_polish_root``), in (re, im) int pairs at scale 2^F.  The factor
    takes those d roots plus one copy of each grid point, the exact factor
    w^q - 1: the product sigma = (w^q - 1) prod (w - r) is formed in int
    pairs at scale 2^(2F), since its low coefficients are as small as
    prod |r|, and scaled by the integer square root of qc[-1] / (sigma_top
    sigma_0).  Conjugation symmetry of the root set keeps the factor real,
    and the double grid zeros make the readout deterministic.  The factor
    is checked against the remainder by complex Horner at two points off
    the circle; no mpmath arithmetic is left here.  Returns (G, stats):
    the real factor G laid out like A, then the division certificate,
    ``reciprocal_dev`` (the relative gap between the quotient and its
    reversal) and ``root_seed_dev``, the largest distance from u = r + 1/r
    of a polished root r (exact, rounded once) to its nearest float seed
    s + 1/s.
    """
    L = pair.degree
    q = pair.grid_period
    A = _z_series(pair.a, 1)
    iB = _z_series(pair.b, -1)
    rho = np.convolve(iB, iB) - np.convolve(A, A)  # w^m at index m + L
    rho[L] += _ONE * _ONE
    G = np.zeros(L + 1, dtype=object)
    tiny = _ONE * _ONE // 10 ** (SYNTHESIS_DPS - 10)
    if all(abs(c) < tiny for c in rho):
        # exactly unitary pair: nothing to complete
        return G, {"grid_zeros": 0, "quotient_degree": 0,
                   "division_remainder": 0.0, "reciprocal_dev": 0.0,
                   "root_seed_dev": 0.0}
    # the remainder may deflate below the full degree budget (for instance a
    # pure-cosine interpolant leaves sin^2 of a single harmonic)
    deg = max(abs(k - L) for k, c in enumerate(rho) if abs(c) > tiny)
    qc = rho[L - deg:L + deg + 1]
    quot, rest = _divide_grid_zeros(qc, q)
    leftover = float(max(abs(c) for c in rest) / max(abs(c) for c in qc))
    if leftover > COMPLETION_TOL:
        raise SynthesisError(f"remainder lacks its double grid zeros "
                             f"(division remainder {leftover:.1e})")
    gap = float(max(abs(x - y) for x, y in zip(quot, quot[::-1]))
                / max(abs(c) for c in quot))
    if gap > RECIPROCAL_TOL:
        raise SynthesisError(f"quotient is not self-reciprocal "
                             f"(relative gap {gap:.1e})")
    qdeg = len(quot) - 1
    d = qdeg // 2
    seeds = _seed_roots(quot)
    if len(seeds) != d:
        raise SynthesisError(f"{len(seeds)} of the quotient's {qdeg} "
                             f"companion roots lie inside the circle, not {d}")
    roots = [_polish_root(quot, s) for s in seeds]
    for i, (wr, wi) in enumerate(roots):
        if abs(_abs(wr, wi) - _ONE) * 10 ** 15 < _ONE:
            raise SynthesisError("remainder has a zero on the circle off the grid")
        # roots closer than 2^(-F/2) are one root: its two seeds converged
        if any((wr - xr) ** 2 + (wi - xi) ** 2 < _ONE for xr, xi in roots[:i]):
            raise SynthesisError("two seeds converged to one root")

    def u_of(wr, wi):
        # w + 1/w from the exact ints, each part one int / int, rounded once
        n = wr * wr + wi * wi
        return complex(wr * (n + _ONE * _ONE) / (_ONE * n),
                       wi * (n - _ONE * _ONE) / (_ONE * n))

    us = np.array([u_of(*r) for r in roots], dtype=complex)
    gaps = np.abs(us[:, None] - (seeds + 1 / seeds))
    seed_dev = float(np.max(np.min(gaps, axis=1, initial=np.inf), initial=0.0))

    # (w^q - 1) prod (w - r) as (re, im) int arrays at scale 2^(2F); at 2^F
    # the small low coefficients lose ~32 digits by p = 1009
    sr = np.array([-_ONE * _ONE] + [0] * (q - 1) + [_ONE * _ONE], dtype=object)
    si = np.zeros(q + 1, dtype=object)
    for rr, ri in roots:
        sr, si = (np.append(0, sr) - np.append((sr * rr - si * ri) >> _FRAC_BITS, 0),
                  np.append(0, si) - np.append((sr * ri + si * rr) >> _FRAC_BITS, 0))
    # scale by sqrt(qc[-1] / (sigma_top sigma_0)); qc is at scale 2^(2F), so
    # the factor comes out at 2^F, imaginary if the ratio is negative
    ratio = (qc[-1] << 4 * _FRAC_BITS) // (sr[-1] * sr[0])
    scale = (math.isqrt(ratio), 0) if ratio >= 0 else (0, math.isqrt(-ratio))
    ghat = [tuple(x >> _FRAC_BITS for x in _cmul(c, scale)) for c in zip(sr, si)]
    shift = -(deg + 1) // 2  # ghat[k] multiplies w^(k + shift)

    def at(coeffs, low, t, t_inv):
        # sum_k coeffs[k] t^(k + low) for low <= 0
        acc = _horner(coeffs, t)
        for _ in range(-low):
            acc = _cmul(acc, t_inv)
        return acc

    for t in ((7311 * _ONE // 10000, 211 * _ONE // 1000),
              (13917 * _ONE // 10000, -4101 * _ONE // 10000)):
        n = t[0] * t[0] + t[1] * t[1]
        t_inv = (t[0] * _ONE * _ONE // n, -t[1] * _ONE * _ONE // n)
        lhs = _cmul(at(ghat, shift, t, t_inv), at(ghat, shift, t_inv, t))
        rhs = [x >> _FRAC_BITS for x in at([(c, 0) for c in rho], -L, t, t_inv)]
        if (_abs(lhs[0] - rhs[0], lhs[1] - rhs[1]) * 10 ** 25
                > _ONE + _abs(*rhs)):
            raise SynthesisError("spectral factor failed identity check")
    max_imag = max(abs(im) for _, im in ghat)
    if max_imag > _ONE // 10 ** 25:
        raise SynthesisError(f"completion not real (imag {max_imag / _ONE:.1e}); "
                             "remainder is negative somewhere on the circle")
    lo = (L + 1) // 2 + shift
    G[lo:lo + deg + 1] = [re for re, _ in ghat]
    return G, {"grid_zeros": 2 * q, "quotient_degree": qdeg,
               "division_remainder": leftover, "reciprocal_dev": gap,
               "root_seed_dev": seed_dev}


def _peel_angles(pair: LaurentPair, G):
    """Factor the matrix Laurent polynomial into XY-plane rotation layers.

    Every 2x2 coefficient has the SU(2) shape [[P, Q*], [Q, P*]], with P =
    A + iD and Q = iB + iC from A, iB (``_z_series``) and the even and odd
    parts D, C of G; so have the XY-plane projectors v v^H = [[1/2, c*],
    [c, 1/2]] (c = v1 v0*) and all products.  Only the real and imaginary
    parts of ``P[i]`` and ``Q[i]``, at z^(2i - m) for the current degree m,
    are carried, as four int series at scale 2^F: stripping a layer,
    E[1:] + (E[:-1] - E[1:]) v v^H, is P[1:] + dP/2 + c dQ* and Q[1:] +
    dQ/2 + c dP*, with dP = P[:-1] - P[1:] and dQ alike, in int products
    and shifts.  Each layer takes one ``mp.atan2`` for its angle.  Returns
    the float angles and the peel residual: the largest clearing residue of
    a layer or deviation of the last layer from the identity.
    """
    import mpmath as mp

    L = pair.degree
    # Re P, Im P, Re Q, Im Q
    PQ = [_z_series(pair.a, 1), (G + G[::-1]) >> 1,
          _z_series(pair.b, -1), (G - G[::-1]) >> 1]

    def times_projector(pr, pi, qr, qi, cr, ci):
        # [[p, q*], [q, p*]] v v^H = (p/2 + q* c, q/2 + p* c)
        return ((pr >> 1) + ((qr * cr + qi * ci) >> _FRAC_BITS),
                (pi >> 1) + ((qr * ci - qi * cr) >> _FRAC_BITS),
                (qr >> 1) + ((pr * cr + pi * ci) >> _FRAC_BITS),
                (qi >> 1) + ((pr * ci - pi * cr) >> _FRAC_BITS))

    tiny = _ONE // 10 ** (SYNTHESIS_DPS - 12)
    # deflated targets factor into fewer genuine layers; identity pairs of
    # opposed axes pad the sequence back to the declared rotation count
    pr, pi, qr, qi = PQ
    norms = np.maximum(pr * pr + pi * pi, qr * qr + qi * qi)
    eff = max((abs(2 * i - L) for i, n in enumerate(norms) if n > tiny * tiny),
              default=0)
    if (L - eff) % 2:
        raise SynthesisError("degree deflation changed parity")
    PQ = [x[(L - eff) // 2:(L + eff) // 2 + 1] for x in PQ]
    xis, worst = [], 0
    for m in range(eff, 0, -1):
        pr, pi, qr, qi = (x[-1] for x in PQ)
        p2 = pr * pr + pi * pi
        n2 = p2 + qr * qr + qi * qi
        if math.isqrt(n2) < _ONE // 10 ** 30:  # nv, v = (-P*, Q) / nv
            raise SynthesisError(f"vanishing leading coefficient at degree {m}")
        if abs(2 * p2 - n2) * 10 ** 18 > 2 * n2:  # | |v0|^2 - 1/2 | > 1e-18
            raise SynthesisError("rotation axis left the XY plane during peeling")
        # c = v1 v0* = -P Q / nv^2
        cr = -((pr * qr - pi * qi) << _FRAC_BITS) // n2
        ci = -((pr * qi + pi * qr) << _FRAC_BITS) // n2
        xis.append(-mp.atan2(-ci, cr))  # -arg(c*)
        # the layer must clear z^(-m-1) and z^(m+1) exactly
        low = times_projector(*(x[0] for x in PQ), cr, ci)
        clear = [x[0] - y for x, y in zip(PQ, low)]
        clear += times_projector(pr, pi, qr, qi, cr, ci)
        resid = max(map(_abs, clear[::2], clear[1::2]))
        if resid > _ONE // 10 ** 18:
            raise SynthesisError(f"peel residue {resid / _ONE:.1e} at degree {m}")
        worst = max(worst, resid)
        dPQ = times_projector(*(x[:-1] - x[1:] for x in PQ), cr, ci)
        PQ = [x[1:] + d for x, d in zip(PQ, dPQ)]
    pr, pi, qr, qi = (x[0] for x in PQ)
    dev = max(_abs(pr - _ONE, pi), _abs(qr, qi))
    if dev > _ONE // 10 ** 18:
        raise SynthesisError("nonidentity residual layer after peeling")
    out = list(reversed(xis)) + [mp.mpf(0), mp.pi] * ((L - eff) // 2)
    return tuple(float(x) for x in out), max(worst, dev) / _ONE


def complete_and_extract_angles(pair: LaurentPair) -> QspAngles:
    """Unitary completion plus angle extraction, verified on a dense circle grid."""
    import mpmath as mp

    with mp.workdps(SYNTHESIS_DPS):
        feas = pair.min_remainder()
        if feas < -1e-12:
            raise SynthesisError(f"pair is infeasible: min remainder {feas:.3e}")
        G, stats = _complete(pair)
        xi, peel_residual = _peel_angles(pair, G)
    worst = _reconstruction_residual(xi, pair)
    if worst > 1e-10:
        raise SynthesisError(f"reconstruction residual {worst:.2e}")
    return QspAngles(xi, pair.grid_period,
                     target={"values": list(pair.target_values)},
                     stats={"interp_residual": pair.residual, **stats,
                            "peel_residual": peel_residual,
                            "reconstruction_residual": worst})


def _reconstruction_residual(xi, pair: LaurentPair, samples: int = 1024) -> float:
    phis = np.linspace(0.0, 4 * np.pi, samples, endpoint=False)
    U = _rotation_product(xi, phis)
    A = (U[:, 0, 0] + U[:, 1, 1]).real / 2
    B = (U[:, 0, 1] + U[:, 1, 0]).imag / 2
    return float(max(np.max(np.abs(A - pair.a_value(phis))),
                     np.max(np.abs(B - pair.b_value(phis)))))


def rotation_product(gates) -> np.ndarray:
    """Product of X/Z rotations over a batch, shape (k, 2, 2).

    ``gates`` lists (axis, angle) pairs in the order they act, axis "X" or
    "Z"; each angle is a scalar or an array of k angles, one per batch
    entry.  With scalar angles only, k = 1.

    Every gate is in SU(2), so the running product is carried as its
    Cayley-Klein pair (alpha, beta), U = [[alpha, -beta*], [beta, alpha*]].
    With c = cos(theta/2) and s = sin(theta/2), an X rotation by theta maps
    the pair to (c alpha - i s beta, -i s alpha + c beta) and a Z rotation
    to (e^(-i theta/2) alpha, e^(i theta/2) beta).  The matrices are
    assembled once, at the end.
    """
    alpha, beta = np.ones(1, dtype=complex), np.zeros(1, dtype=complex)
    for axis, angle in gates:
        half = np.reshape(angle, -1) / 2
        if axis == "X":
            c, i_s = np.cos(half), 1j * np.sin(half)
            alpha, beta = c * alpha - i_s * beta, c * beta - i_s * alpha
        elif axis == "Z":
            phase = np.exp(-1j * half)
            alpha, beta = phase * alpha, phase.conj() * beta
        else:
            raise ValueError(f"rotation axis must be 'X' or 'Z', got {axis!r}")
    U = np.empty((len(alpha), 2, 2), dtype=complex)
    U[:, 0, 0], U[:, 0, 1] = alpha, -beta.conj()
    U[:, 1, 0], U[:, 1, 1] = beta, alpha.conj()
    return U


def _rotation_product(xi, phis, xi0: float | None = None) -> np.ndarray:
    """Conjugated X-rotation products, shape (k, 2, 2), for k phases."""
    gates = [] if xi0 is None else [("Z", xi0)]
    for x in xi:
        gates += [("Z", -x), ("X", phis), ("Z", x)]
    return rotation_product(gates)


def reconstruct_unitary(angles: QspAngles, phi, xi0: float | None = None) -> np.ndarray:
    """Product of the conjugated X-rotations at a rotation phase.

    A scalar ``phi`` gives one 2x2 matrix; an array of k phases gives shape
    (k, 2, 2).
    """
    U = _rotation_product(angles.xi, phi, xi0)
    return U[0] if np.ndim(phi) == 0 else U


def _worst_readout(angles: QspAngles, phis, targets) -> float:
    U = reconstruct_unitary(angles, phis)
    return float(np.max(1.0 - np.abs(U[np.arange(len(targets)), targets, 0]) ** 2))


def verify_qsp(angles: QspAngles, p: int, j: int, n: int) -> float:
    """Worst failure probability of the mod-p readout over weights 0..n.

    The residue shift j enters as a constant offset of the rotation phase:
    the circuit rotates by 4*pi*(w - j)/p instead of 4*pi*w/p.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    w = np.arange(n + 1)
    return _worst_readout(angles, 4 * np.pi * (w - j) / p, (w % p != j % p).astype(int))


def verify_symmetric(angles: QspAngles, profile) -> float:
    """Worst failure probability of a symmetric-profile readout on its grid."""
    q = angles.grid_period
    w = np.arange(len(profile))
    return _worst_readout(angles, 4 * np.pi * w / q, np.asarray(profile, dtype=int))


def synthesize_mod_p(p: int, j: int = 0) -> QspAngles:
    """End-to-end synthesis for the weight-counting functions."""
    angles = complete_and_extract_angles(solve_mod_p_coeffs(p, j))
    return replace(angles, target={**angles.target, "p": p, "j": j})


def synthesize_symmetric(profile, n: int) -> QspAngles:
    """End-to-end synthesis for a symmetric profile with f(0) = 0."""
    angles = complete_and_extract_angles(solve_symmetric_coeffs(profile, n))
    return replace(angles, target={**angles.target, "profile": list(profile)})
