"""Quantum-signal-processing synthesis for symmetric Boolean functions.

A sequence of L rotations R_Z(xi_j) R_X(phi) R_Z(xi_j)^dag applied to |0>
realizes a unitary whose Pauli components are Laurent polynomials in
z = e^{i phi/2} of degree at most L with fixed parity.  Synthesis proceeds in
three exact stages, all in extended precision:

1. interpolate the I and X components (cosine and sine series) on a grid of
   phase values so the measured bit equals the target function there, with
   zero slope so the remainder has double zeros on the circle; on the
   equispaced grid this is a closed-form cosine/sine transform, not a solve;
2. complete the pair to a unitary by spectral factorization of the
   remainder 1 - A^2 - B^2;
3. extract the rotation angles by peeling rank-one projector factors off
   the matrix Laurent polynomial.

The grid is phi_w = 4*pi*w/q with an odd period q and L = 2q-1: q = 2n+1
for a symmetric profile on n bits, and the weight-counting functions are
the profile 0 1 ... 1 at q = p.  Both the truth table and the series have
period q in the weight, which is what makes the reduced system square.

mpmath is imported inside the synthesis functions, so that loading the
package (and the simulator, which needs only the float rotation helpers)
does not pay for it.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

SYNTHESIS_DPS = 50
SOLVE_RESIDUAL_TOL = 1e-12
COMPLETION_TOL = 1e-12
FAILURE_TOL_OWN = 1e-9
FAILURE_TOL_REFERENCE = 1e-10

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class SynthesisError(RuntimeError):
    """Interpolation residual, feasibility, or completion failure."""


def rot_x(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * _I2 - 1j * np.sin(theta / 2) * _X


def rot_z(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * _I2 - 1j * np.sin(theta / 2) * _Z


@dataclass(frozen=True, eq=False)
class LaurentPair:
    """Real cosine/sine series for the I and X components of the target.

    ``a`` and ``b`` are object arrays of exact ``mpf`` coefficients, one per
    odd harmonic up to the odd ``degree``: index j multiplies
    cos((2j+1)*phi/2) in A and sin((2j+1)*phi/2) in B.  ``grid_period`` is
    q: grid points sit at phi_w = 4*pi*w/q.
    """

    degree: int
    a: np.ndarray
    b: np.ndarray
    grid_period: int
    target_values: tuple[int, ...]
    residual: float

    def __post_init__(self):
        if self.degree % 2 == 0:
            raise ValueError("degree must be odd")
        for name in ("a", "b"):
            coeffs = np.asarray(getattr(self, name), dtype=object)
            if coeffs.shape != ((self.degree + 1) // 2,):
                raise ValueError("series need one coefficient per odd "
                                 "harmonic <= degree")
            object.__setattr__(self, name, coeffs)

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

    ``stats`` is the synthesis certificate (empty for loaded tables):
    ``interp_residual``, ``grid_zeros`` (circle zeros divided out, 2q),
    ``quotient_degree`` (handed to the root finder), ``division_remainder``
    (relative), ``root_seed_dev`` (largest distance of a root from its seed),
    ``peel_residual`` (see ``_peel_angles``) and ``reconstruction_residual``.
    """

    length: int
    xi: tuple[float, ...]
    grid_period: int
    target: dict = field(default_factory=dict)
    residual: float = 0.0
    stats: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if len(self.xi) != self.length:
            raise ValueError("angle count must equal length")

    def to_json(self) -> str:
        return json.dumps({"L": self.length, "xi": list(self.xi),
                           "target": self.target, "residual": self.residual,
                           "grid_period": self.grid_period, "stats": self.stats})

    @classmethod
    def from_json(cls, text: str) -> "QspAngles":
        obj = json.loads(text)
        return cls(obj["L"], tuple(obj["xi"]), obj.get("grid_period", 0),
                   obj.get("target", {}), obj.get("residual", 0.0),
                   obj.get("stats", {}))


def reference_angles(p: int) -> QspAngles:
    """Checked-in published angle table for the weight-counting functions."""
    data = json.loads(resources.files("l2mbqc.data")
                      .joinpath("reference_angles.json").read_text())
    key = str(p)
    if key not in data["angles"]:
        raise KeyError(f"no reference angles for p={p}")
    xi = tuple(data["angles"][key])
    return QspAngles(len(xi), xi, p, target={"p": p, "j": 0, "source": "reference"})


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
    return LaurentPair(2 * q - 1, a, b, q, target_desc, residual)


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


def _z_series(coeffs, sign: int) -> np.ndarray:
    """sum_h c_h (z^h + sign z^-h) / 2 for a ``LaurentPair`` series of degree L.

    The one coefficient layout of completion and peeling: an object array
    with z^e (e odd, |e| <= L) at index (e + L) // 2.  ``np.convolve`` of
    two such arrays holds w^m, w = z^2, at index m + L.
    """
    return np.concatenate([sign * coeffs[::-1], coeffs]) / 2


def _divide_grid_zeros(poly, q: int):
    """Divide a real polynomial by (w^q - 1)^2 = w^(2q) - 2 w^q + 1.

    ``poly`` lists coefficients from the constant term up.  Returns the
    quotient in the same order and the 2q low coefficients left over, which
    vanish when every q-th root of unity is a double zero of ``poly``.
    """
    import mpmath as mp

    rest = list(poly)
    quot = [mp.mpf(0)] * max(len(rest) - 2 * q, 0)
    for k in range(len(rest) - 1, 2 * q - 1, -1):
        c = rest[k]
        quot[k - 2 * q] = c
        rest[k - q] += 2 * c
        rest[k - 2 * q] -= c
    return quot, rest[:2 * q]


def _seed_roots(coeffs) -> np.ndarray:
    """Float starting points for ``mp.polyroots`` on ``coeffs`` (highest
    degree first): a Weierstrass (Jacobi Durand-Kerner) iteration in
    complex128, started on the unit circle off the real axis.  mpmath's own
    start spirals in from 1 and needs tens of sweeps at 400 extra bits; from
    these it needs a few.
    """
    c = np.array([complex(x) for x in coeffs])
    c /= c[0]
    d = len(c) - 1
    z = np.exp(1j * (2 * np.pi * np.arange(d) / d + 0.4))
    with np.errstate(all="ignore"):
        for _ in range(200):
            diff = z[:, None] - z
            np.fill_diagonal(diff, 1)
            step = np.polyval(c, z) / np.prod(diff, axis=1)
            z = z - step
            if np.all(np.abs(step) <= 1e-14 * (1 + np.abs(z))):
                break
    return z


def _complete(pair: LaurentPair):
    """Spectral factorization of the remainder into the Y and Z components.

    The remainder 1 - A^2 - B^2 = 1 - A^2 + (iB)^2 is two convolutions of
    ``_z_series`` arrays, a series in w = z^2.  It vanishes doubly at each
    grid point, the q-th roots of unity, so it is divided exactly by
    (w^q - 1)^2 first.  The root finder then sees only the quotient, whose
    roots are simple and off the circle; the factor takes its roots
    strictly inside the unit circle plus one copy of each grid point.
    Conjugation symmetry of that set keeps the factor real, and the double
    grid zeros make the readout deterministic.  Returns (G, stats): the
    real factor G laid out like A, then the division certificate and
    ``root_seed_dev``, the largest distance from a polished root to its
    nearest float seed (``_seed_roots``).
    """
    import mpmath as mp

    L = pair.degree
    q = pair.grid_period
    A = _z_series(pair.a, 1)
    iB = _z_series(pair.b, -1)
    rho = np.convolve(iB, iB) - np.convolve(A, A)  # w^m at index m + L
    rho[L] += 1
    G = np.full(L + 1, mp.mpf(0), dtype=object)
    tiny = mp.mpf(10) ** (-SYNTHESIS_DPS + 10)
    if all(abs(c) < tiny for c in rho):
        # exactly unitary pair: nothing to complete
        return G, {"grid_zeros": 0, "quotient_degree": 0,
                   "division_remainder": 0.0, "root_seed_dev": 0.0}
    # the remainder may deflate below the full degree budget (for instance a
    # pure-cosine interpolant leaves sin^2 of a single harmonic)
    deg = max(abs(k - L) for k, c in enumerate(rho) if abs(c) > tiny)
    qc = rho[L - deg:L + deg + 1]
    quot, rest = _divide_grid_zeros(qc, q)
    leftover = float(max(abs(c) for c in rest) / max(abs(c) for c in qc))
    if leftover > COMPLETION_TOL:
        raise SynthesisError(f"remainder lacks its double grid zeros "
                             f"(division remainder {leftover:.1e})")
    qdeg = len(quot) - 1
    # the seeds move only where the polish starts, not what it converges
    # to; mpmath starts the roots of dropped non-finite seeds at its defaults
    seeds = _seed_roots(quot[::-1])
    seeds = seeds[np.isfinite(seeds)]
    roots = mp.polyroots(quot[::-1], maxsteps=600, extraprec=60,
                         roots_init=[mp.mpc(s) for s in seeds]) if qdeg else []
    gaps = np.abs(np.array(roots, dtype=complex)[:, None] - seeds)
    seed_dev = float(np.max(np.min(gaps, axis=1, initial=np.inf), initial=0.0))
    if any(abs(abs(r) - 1) < mp.mpf("1e-15") for r in roots):
        raise SynthesisError("remainder has a zero on the circle off the grid")
    selected = [r for r in roots if abs(r) < 1]
    if 2 * len(selected) != qdeg:
        raise SynthesisError(f"{len(selected)} quotient roots inside the circle, "
                             f"expected {qdeg // 2}")
    selected += [mp.expjpi(mp.mpf(2 * k) / q) for k in range(q)]

    sigma = functools.reduce(np.convolve, ([-r, 1] for r in selected), [mp.mpc(1)])
    ghat = sigma * mp.sqrt(qc[-1] / (sigma[deg] * sigma[0]))
    shift = -(deg + 1) // 2  # ghat[k] multiplies w^(k + shift)

    def at(coeffs, low, t):
        return mp.polyval(list(coeffs[::-1]), t) * t ** low

    for ut in (mp.mpc("0.7311", "0.211"), mp.mpc("1.3917", "-0.4101")):
        lhs = at(ghat, shift, ut) * at(ghat, shift, 1 / ut)
        rhs = at(rho, -L, ut)
        if abs(lhs - rhs) > mp.mpf("1e-25") * (1 + abs(rhs)):
            raise SynthesisError("spectral factor failed identity check")
    max_imag = max(abs(mp.im(c)) for c in ghat)
    if max_imag > mp.mpf("1e-25"):
        raise SynthesisError(f"completion not real (imag {float(max_imag):.1e}); "
                             "remainder is negative somewhere on the circle")
    lo = (L + 1) // 2 + shift
    G[lo:lo + deg + 1] = [mp.re(c) for c in ghat]
    return G, {"grid_zeros": 2 * q, "quotient_degree": qdeg,
               "division_remainder": leftover, "root_seed_dev": seed_dev}


def _peel_angles(pair: LaurentPair, G):
    """Factor the matrix Laurent polynomial into XY-plane rotation layers.

    Every 2x2 coefficient has the SU(2) shape [[P, Q*], [Q, P*]], with P =
    A + iD and Q = iB + iC from A, iB (``_z_series``) and the even and odd
    parts D, C of G; so have the XY-plane projectors v v^H = [[1/2, c*],
    [c, 1/2]] (c = v1 v0*) and all products.  Only ``P[i]`` and ``Q[i]``, at
    z^(2i - m) for the current degree m, are carried: stripping a layer,
    E[1:] + (E[:-1] - E[1:]) v v^H, is P[1:] + dP/2 + c dQ* and Q[1:] +
    dQ/2 + c dP*, with dP = P[:-1] - P[1:] and dQ alike.  Returns the float
    angles and the peel residual: the largest clearing residue of a layer or
    deviation of the last layer from the identity.
    """
    import mpmath as mp

    L = pair.degree
    D, C = (G + G[::-1]) / 2, (G - G[::-1]) / 2
    P, Q = _z_series(pair.a, 1) + 1j * D, _z_series(pair.b, -1) + 1j * C

    def times_projector(p, q, c):
        # [[p, q*], [q, p*]] v v^H; array first (mpc * ndarray reprs it)
        return p / 2 + np.conj(q) * c, q / 2 + np.conj(p) * c

    tiny = mp.mpf(10) ** (-SYNTHESIS_DPS + 12)
    # deflated targets factor into fewer genuine layers; identity pairs of
    # opposed axes pad the sequence back to the declared rotation count
    eff = max((abs(2 * i - L) for i, pq in enumerate(zip(P, Q))
               if max(map(abs, pq)) > tiny), default=0)
    if (L - eff) % 2:
        raise SynthesisError("degree deflation changed parity")
    P, Q = (x[(L - eff) // 2:(L + eff) // 2 + 1] for x in (P, Q))
    xis, worst = [], mp.mpf(0)
    for m in range(eff, 0, -1):
        nv = mp.sqrt(abs(P[-1]) ** 2 + abs(Q[-1]) ** 2)  # v = (-P*, Q) / nv
        if nv < mp.mpf("1e-30"):
            raise SynthesisError(f"vanishing leading coefficient at degree {m}")
        v0, v1 = -mp.conj(P[-1]) / nv, Q[-1] / nv
        if abs(abs(v0) ** 2 - mp.mpf("0.5")) > mp.mpf("1e-18"):
            raise SynthesisError("rotation axis left the XY plane during peeling")
        c = v1 * mp.conj(v0)
        xis.append(-mp.arg(mp.conj(c)))
        # the layer must clear z^(-m-1) and z^(m+1) exactly
        low = times_projector(P[0], Q[0], c)
        resid = max(abs(P[0] - low[0]), abs(Q[0] - low[1]),
                    *map(abs, times_projector(P[-1], Q[-1], c)))
        if resid > mp.mpf("1e-18"):
            raise SynthesisError(f"peel residue {float(resid):.1e} at degree {m}")
        worst = max(worst, resid)
        dP, dQ = times_projector(P[:-1] - P[1:], Q[:-1] - Q[1:], c)
        P, Q = P[1:] + dP, Q[1:] + dQ
    dev = max(abs(P[0] - 1), abs(Q[0]))
    if dev > mp.mpf("1e-18"):
        raise SynthesisError("nonidentity residual layer after peeling")
    out = list(reversed(xis)) + [mp.mpf(0), mp.pi] * ((L - eff) // 2)
    return tuple(float(x) for x in out), float(max(worst, dev))


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
    return QspAngles(pair.degree, xi, pair.grid_period,
                     target={"values": list(pair.target_values)}, residual=worst,
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


def unitarity_deviation(angles: QspAngles, phi: float) -> float:
    U = reconstruct_unitary(angles, phi)
    return float(np.max(np.abs(U.conj().T @ U - _I2)))


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
