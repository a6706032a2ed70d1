"""Command-line surface: analyze, pfd, qsp, compile, simulate, table1, table2.

Schedules flow between ``compile`` and ``simulate`` as JSON on stdout/stdin,
so the two compose in a shell pipe.  Exit codes: 0 on success, 1 when a
verification fails, 2 on usage errors (argparse's convention).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import pathlib
import re
import sys

from . import boolean, mbqc, pfd, qsp, sim


def parse_function_spec(spec: str, n: int) -> boolean.BooleanFunction:
    """Parse --fn specs: and, or, parity, c2, const0, const1, mod<p>[:<j>].

    A malformed spec raises a ValueError that names --fn.
    """
    key = spec.strip().lower()
    mod = re.fullmatch(r"mod([0-9]+)(?::([0-9]+))?", key)
    if mod:
        try:
            return boolean.mod_p(int(mod[1]), int(mod[2] or 0), n)
        except ValueError as exc:
            raise ValueError(f"--fn {spec!r}: {exc}") from None
    if key == "c2":
        return boolean.pairwise_and(n)
    if key in ("and", "or", "parity", "const0", "const1"):
        return boolean.build(key, n)
    raise ValueError(f"--fn {spec!r} is not one of and, or, parity, c2, "
                     f"const0, const1, mod<p>[:<j>]")


def parse_profile(text: str) -> list[int]:
    """Parse a --profile bit string f(0)..f(n); f(0) must be 0."""
    if not re.fullmatch(r"0[01]*", text):
        raise ValueError(f"--profile {text!r} is not a bit string "
                         f"f(0)..f(n) with f(0) = 0")
    return [int(ch) for ch in text]


def emit(payload: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, indent=1) + "\n")
        return
    # list and dict values as JSON text, so the flat formats read back
    row = [json.dumps(v) if isinstance(v, (list, dict)) else v
           for v in payload.values()]
    if fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows([payload, row])
    else:
        width = max(len(k) for k in payload)
        for k, v in zip(payload, row):
            out.write(f"{k:<{width}}  {v}\n")


def cmd_analyze(args, out) -> int:
    f = parse_function_spec(args.fn, args.n)
    poly = boolean.anf(f)
    monomials = sorted(poly.monomials)
    spectrum = boolean.walsh_spectrum(f)
    fmax = max(abs(v) for v in spectrum)
    payload = {
        "function": args.fn,
        "n": args.n,
        "anf_degree": poly.degree,
        "anf_monomials": " ".join(format(m, f"0{args.n}b")[::-1] for m in monomials)
                          or "0",
        "f_max": round(fmax, 12),
        "nchvm_bound": round((1 + fmax) / 2, 12),
    }
    if args.spectrum:
        payload["spectrum"] = " ".join(f"{v:+.6f}" for v in spectrum)
    emit(payload, args.format, out)
    return 0


def cmd_pfd(args, out) -> int:
    f = parse_function_spec(args.fn, args.n)
    code = 0
    payload: dict = {"function": args.fn, "n": args.n}
    d = pfd.solve_pfd(f)
    ok, resid = pfd.verify_pfd(f, d)
    cert = pfd.sparsity_certificate(f)
    payload["support_size"] = len(d.angles)
    payload["max_residual"] = f"{resid:.3e}"
    payload["verified"] = ok
    payload["non_integer_angles"] = cert.non_integer_count
    payload["all_odd_certificate"] = cert.all_odd
    payload["angles"] = json.loads(d.to_json())["angles"]
    if not ok:
        code = 1
    if args.check_paper:
        if f.kind == "or":
            ref = pfd.or_decomposition_published(args.n)
        elif f.kind == "pairwise_and":
            ref = pfd.pairwise_and_decomposition(args.n)
        else:
            print("--check-paper supports only or and c2", file=sys.stderr)
            return 2
        ok2, resid2 = pfd.verify_pfd(f, ref)
        payload["reference_verified"] = ok2
        payload["reference_residual"] = f"{resid2:.3e}"
        if not ok2:
            code = 1
    emit(payload, args.format, out)
    return code


QSP_DEFAULTS = {"p": 3, "j": 0, "sweep": 20}
SIMULATE_DEFAULTS = {"shots": 100}


def _mode_options(args, options: tuple[str, ...], mode: str, used: set[str],
                  defaults: dict) -> None:
    """Refuse one of ``options`` that the chosen mode, named as in "with
    --phi", would not read (any value but the parser's None or False);
    then fill in the defaults."""
    for name in options:
        value = getattr(args, name)
        if name not in used and value is not None and value is not False:
            raise ValueError(f"--{name} is not used {mode}")
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _matches_reference(worst_ref: float, worst_own: float) -> bool:
    """The reference check of ``qsp --table2`` and ``table2``: the published
    angles fail below FAILURE_TOL_REFERENCE and the synthesized ones below
    FAILURE_TOL_OWN."""
    return (worst_ref < qsp.FAILURE_TOL_REFERENCE
            and worst_own < qsp.FAILURE_TOL_OWN)


def cmd_qsp(args, out) -> int:
    code = 0
    mode, used = (("with --profile", {"profile"}) if args.profile is not None
                  else ("with --phi", {"phi", "p"}) if args.phi is not None
                  else ("", {"p", "j", "sweep", "table2"}))
    _mode_options(args, ("p", "j", "phi", "sweep", "table2"), mode, used,
                  QSP_DEFAULTS)
    if args.profile is not None:
        profile = parse_profile(args.profile)
        n = len(profile) - 1
        angles = qsp.synthesize_symmetric(profile, n)
        worst = qsp.verify_symmetric(angles, profile)
        payload = json.loads(angles.to_json())
        payload["worst_failure"] = f"{worst:.3e}"
        if worst > qsp.FAILURE_TOL_OWN:
            code = 1
    else:
        if args.phi is not None:
            if not math.isfinite(args.phi):
                raise ValueError(f"--phi {args.phi}: must be a finite phase")
            ref = qsp.reference_angles(args.p)
            U = qsp.reconstruct_unitary(ref, args.phi)
            emit({"p": args.p, "phi": args.phi,
                  "pr_output_0": f"{abs(U[0, 0]) ** 2:.12f}",
                  "pr_output_1": f"{abs(U[1, 0]) ** 2:.12f}"},
                 args.format, out)
            return 0
        angles = qsp.synthesize_mod_p(args.p, args.j)
        try:
            worst = qsp.verify_qsp(angles, args.p, args.j, args.sweep)
        except ValueError as exc:
            raise ValueError(f"--sweep {args.sweep}: {exc}") from None
        payload = json.loads(angles.to_json())
        payload["worst_failure"] = f"{worst:.3e}"
        if worst > qsp.FAILURE_TOL_OWN:
            code = 1
        if args.table2:
            worst_ref = qsp.verify_qsp(qsp.reference_angles(args.p), args.p, 0,
                                       args.sweep)
            agree = _matches_reference(worst_ref, worst)
            payload["reference_failure"] = f"{worst_ref:.3e}"
            payload["functionally_equivalent"] = agree
            if not agree:
                code = 1
    emit(payload, args.format, out)
    return code


def _build_protocol(args) -> mbqc.MeasurementSchedule:
    if args.protocol == "mod3":
        return mbqc.mod3_protocol(args.n)
    if args.protocol == "modp":
        angles = qsp.synthesize_mod_p(args.p, args.j)
        return mbqc.modp_protocol(args.p, args.j, args.n, angles)
    if args.protocol == "symmetric":
        f = parse_function_spec(args.fn, args.n)
        if not f.is_symmetric:
            raise ValueError("symmetric protocol needs a symmetric function")
        profile, _ = f.zero_anchored_profile()
        angles = qsp.synthesize_symmetric(profile, args.n)
        return mbqc.qsp_symmetric_protocol(f, args.n, angles)
    if args.protocol == "or":
        return mbqc.or_protocol(args.n)
    if args.protocol == "ghz-pfd":
        f = parse_function_spec(args.fn, args.n)
        d = pfd.solve_pfd(f)
        return mbqc.compile_pfd_to_ghz(d, f.table[0])
    if args.protocol == "ghz-lift":
        f = parse_function_spec(args.fn, args.n)
        d = pfd.solve_pfd(f)
        return mbqc.lift_ghz_to_cluster(mbqc.compile_pfd_to_ghz(d, f.table[0]))
    raise ValueError(f"unknown protocol {args.protocol!r}")


def cmd_compile(args, out) -> int:
    s = _build_protocol(args)
    rep = mbqc.resources(s)
    print(f"resources: L_Q={rep.l_q} L_C={rep.l_c} T_Q={rep.t_q} T_C={rep.t_c} "
          f"volume={rep.volume}", file=sys.stderr)
    text = s.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        out.write(text + "\n")
    return 0


def _target_function(s: mbqc.MeasurementSchedule, spec: str | None):
    if spec:
        return parse_function_spec(spec, s.arity)
    meta = s.meta or {}
    builder = meta.get("builder")
    if builder == "mod3_protocol":
        return boolean.mod_p(3, 0, s.arity)
    if builder == "modp_protocol":
        p, j = meta.get("p"), meta.get("j")
        if type(p) is not int or type(j) is not int:
            raise ValueError("schedule meta of a modp_protocol needs integer "
                             "p and j; pass --fn")
        return boolean.mod_p(p, j, s.arity)
    if builder == "qsp_symmetric_protocol":
        profile = meta.get("profile")
        if not (isinstance(profile, str) and len(profile) == s.arity + 1
                and re.fullmatch(r"[01]*", profile)):
            raise ValueError(f"schedule meta.profile of a qsp_symmetric_protocol "
                             f"must be a string of arity + 1 = {s.arity + 1} "
                             f"bits, got {profile!r:.60}; pass --fn")
        return boolean.from_profile([int(ch) for ch in profile], s.arity)
    if builder == "or_protocol":
        return boolean.or_n(s.arity)
    raise ValueError("cannot infer the target function; pass --fn")


def cmd_simulate(args, out) -> int:
    mode, used = (("with --all", {"exact", "fn", "shots"}) if args.all
                  else ("without --all", {"x"}))
    _mode_options(args, ("exact", "fn", "shots", "x"), mode, used,
                  SIMULATE_DEFAULTS)
    text = (pathlib.Path(args.schedule).read_text() if args.schedule
            else sys.stdin.read())
    s = mbqc.MeasurementSchedule.from_json(text)
    seed = args.seed
    if args.all:
        f = _target_function(s, args.fn)
        report = sim.verify_protocol(s, f, args.shots, seed,
                                     use_exact=True if args.exact else None)
        payload = json.loads(report.to_json())
        if args.format == "csv":
            out.write(report.to_csv())
        else:
            emit({"function": payload["function"],
                  "inputs": len(payload["inputs"]),
                  "min_analytic": payload["min_analytic"],
                  "min_exact": payload["min_exact"],
                  "empirical_rate": payload["empirical_rate"],
                  "resources": json.dumps(payload["resources"]),
                  "all_correct": report.all_shots_correct,
                  "stats": json.dumps(payload["stats"])},
                 args.format, out)
        if report.failure:
            raise ValueError(report.failure)
        return 0
    x = args.x or "0" * s.arity
    outcomes, y = sim.run_shot(s, x, seed)
    emit({"x": x, "y": int(y),
          "outcomes": "".join(str(outcomes[q]) for q in sorted(outcomes))},
         args.format, out)
    return 0


def cmd_table1(args, out) -> int:
    """Concrete resource tuples of every protocol at the requested size."""
    rows = []
    n, p = args.n, args.p
    if n <= pfd.MAX_PFD_ARITY:
        f = boolean.mod_p(p, 0, n)
        d = pfd.solve_pfd(f)
        g = mbqc.compile_pfd_to_ghz(d, f.table[0])
        rows.append(("nonadaptive-ghz", mbqc.resources(g)))
        rows.append(("ghz-lift", mbqc.resources(mbqc.lift_ghz_to_cluster(g))))
    angles = qsp.synthesize_mod_p(p, 0)
    rows.append(("modp-cluster", mbqc.resources(mbqc.modp_protocol(p, 0, n, angles))))
    if p == 3:
        rows.append(("mod3-cluster", mbqc.resources(mbqc.mod3_protocol(n))))
    f = boolean.mod_p(p, 0, n)
    sym = qsp.synthesize_symmetric(f.zero_anchored_profile()[0], n)
    rows.append(("symmetric-cluster",
                 mbqc.resources(mbqc.qsp_symmetric_protocol(f, n, sym))))
    if n >= 2:
        rows.append(("or-reduction", mbqc.resources(mbqc.or_protocol(n))))
    header = f"{'protocol':<20}{'L_Q':>6}{'L_C':>6}{'T_Q':>6}{'T_C':>6}{'volume':>8}"
    out.write(header + "\n")
    for name, rep in rows:
        out.write(f"{name:<20}{rep.l_q:>6}{rep.l_c:>6}{rep.t_q:>6}{rep.t_c:>6}"
                  f"{rep.volume:>8}\n")
    return 0


def cmd_table2(args, out) -> int:
    code = 0
    header = f"{'p':>3}{'L':>5}{'reference':>14}{'synthesized':>14}{'match':>7}"
    out.write(header + "\n")
    for p in (3, 5, 7, 9):
        ref = qsp.reference_angles(p)
        own = qsp.synthesize_mod_p(p, 0)
        wr = qsp.verify_qsp(ref, p, 0, 20)
        wo = qsp.verify_qsp(own, p, 0, 20)
        match = _matches_reference(wr, wo)
        out.write(f"{p:>3}{ref.length:>5}{wr:>14.2e}{wo:>14.2e}"
                  f"{'yes' if match else 'NO':>7}\n")
        if not match:
            code = 1
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="l2mbqc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="table")
        p.add_argument("--seed", type=int, default=2024)

    p = sub.add_parser("analyze", help="ANF, Fourier spectrum, linear bound")
    p.add_argument("--fn", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--spectrum", action="store_true")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pfd", help="periodic decomposition and certificates")
    p.add_argument("--fn", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check-paper", action="store_true", dest="check_paper")
    common(p)
    p.set_defaults(func=cmd_pfd)

    p = sub.add_parser("qsp", help="angle synthesis and failure sweeps")
    p.add_argument("--p", type=int, help=f"default {QSP_DEFAULTS['p']}")
    p.add_argument("--j", type=int, help=f"default {QSP_DEFAULTS['j']}")
    p.add_argument("--profile", help="bit string f(0)..f(n); synthesizes it "
                   "and takes no other qsp option")
    p.add_argument("--table2", action="store_true")
    p.add_argument("--phi", type=float, help="report the reference unitary "
                   "of --p at one phase; takes no --j, --sweep or --table2")
    p.add_argument("--sweep", type=int, help=f"default {QSP_DEFAULTS['sweep']}")
    common(p)
    p.set_defaults(func=cmd_qsp)

    p = sub.add_parser("compile", help="emit a schedule as JSON")
    p.add_argument("--protocol", required=True,
                   choices=("mod3", "modp", "symmetric", "or", "ghz-pfd",
                            "ghz-lift"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--fn")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate", help="run a schedule from JSON")
    p.add_argument("--schedule", help="path; stdin when omitted")
    p.add_argument("--all", action="store_true")
    p.add_argument("--exact", action="store_true",
                   help="with --all, run the exact DP at any register size")
    p.add_argument("--shots", type=int, help="with --all; default "
                   f"{SIMULATE_DEFAULTS['shots']} per input")
    p.add_argument("--x", help="without --all; default all zeros")
    p.add_argument("--fn", help="with --all; default from the schedule meta")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("table1", help="resource tuples of all protocols")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--p", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("table2", help="reference angles vs own synthesis")
    common(p)
    p.set_defaults(func=cmd_table2)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
