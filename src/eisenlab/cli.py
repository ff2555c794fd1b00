"""Command-line surface: invariants, hecke, sweep, stats, verify,
massey-selftest.

Exit codes: 0 success, 2 usage error, 3 computation error, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from .records import append_records, encode_valuation, read_records
from .sweep import (
    compute_record,
    run_sweep,
    stats_from_records,
    verify_records,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3
EXIT_VERIFY = 4


def _fmt_ord(v) -> str:
    if isinstance(v, dict):
        return f">={v['geq']}"
    return str(v)


def _print_record_human(rec, full: bool):
    print(f"N = {rec.N}, p = {rec.p}, t = v_p(N-1) = {rec.t}")
    if rec.t == 0:
        print("  p does not divide N-1: Eisenstein completion is zero (e = 0)")
        return
    print(f"  Merel number: {rec.merel_value}")
    for s, v in sorted(rec.merel_is_power_s.items(), key=lambda kv: int(kv[0])):
        print(f"    p^{s}-th power mod N: {v}")
    for s, v in sorted(rec.ord_zeta_s.items(), key=lambda kv: int(kv[0])):
        print(f"  ord_{s}(zeta) = {_fmt_ord(v)} (cap {rec.ord_cap})")
    print(f"  discrete-log identities: {'ok' if rec.lecouturier_ok else 'FAILED'}")
    if not full:
        return
    print(f"  e = rank of the cuspidal Eisenstein completion = {rec.e}")
    print(f"  good prime used: {rec.ell_used}; precision p^{rec.precision}")
    print(f"  t-sequence (t_1..t_{{e+1}}): {rec.t_seq}")
    verts = ", ".join(f"({i},{v})" for i, v in rec.np_vertices)
    print(f"  Newton polygon vertices: {{{verts}}}")
    comps = ", ".join(
        f"(slope {a}/{b}, degree {c['degree']}{'' if c['resolved'] else ', unresolved'})"
        for c in rec.components
        for a, b in [c["slope"]]
    )
    print(f"  components: {comps}")
    degs = tuple(sorted(c["degree"] for c in rec.components))
    print(f"  component ranks: {degs}")
    # deformation-theoretic consequences of the t-sequence
    for n in range(1, rec.e + 1):
        tn1 = rec.t_seq[n] if n < len(rec.t_seq) else 0
        if tn1 > 0:
            print(
                f"  derived: the Massey power <M>^{n + 1} of the deformation matrix "
                f"vanishes mod p^s exactly for s <= {tn1}"
            )
        else:
            print(f"  derived: the Massey power <M>^{n + 1} does not vanish mod p")


def cmd_record(args) -> int:
    """``invariants`` and ``hecke``: one record, with the Hecke data only for
    ``hecke``; each subparser sets the options the other one lacks."""
    rec = compute_record(
        args.N, args.p, with_hecke=args.with_hecke, ell=args.ell, precision=args.precision, s_max=args.s_max
    )
    if args.out:
        append_records(args.out, [rec])
    if args.json:
        print(rec.to_json())
    else:
        _print_record_human(rec, full=args.with_hecke)
    return EXIT_OK


def _interrupt_once(signum, frame):
    """SIGINT handler: KeyboardInterrupt, then ignore SIGINT, so that a
    second Ctrl-C cannot cut short the shutdown of the sweep's pool."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise KeyboardInterrupt


def cmd_sweep(args) -> int:
    previous = signal.signal(signal.SIGINT, _interrupt_once)
    try:
        n = run_sweep(
            args.p,
            args.max_N,
            args.out,
            resume=args.resume,
            workers=args.workers,
            log=lambda msg: print(msg, flush=True),
        )
    finally:
        signal.signal(signal.SIGINT, previous)
    print(f"wrote {n} new records to {args.out}")
    return EXIT_OK


def cmd_stats(args) -> int:
    table = stats_from_records(read_records(args.infile))
    if args.json:
        print(
            json.dumps(
                {
                    "p": table.p,
                    "n": table.n,
                    "r": table.r,
                    "g": table.g,
                    "counts": table.counts,
                }
            )
        )
        return EXIT_OK
    print(f"p = {table.p}   n = {table.n}")
    print(f"{'d':>3}  {'r(d)':>7}  {'g(d)':>7}  {'count':>6}")
    for d in sorted(table.r):
        print(f"{d:>3}  {table.r[d]:>7}  {table.g[d]:>7}  {table.counts.get(d, 0):>6}")
    return EXIT_OK


def cmd_verify(args) -> int:
    records = read_records(args.infile)
    report = verify_records(records, recheck_lecouturier=args.recheck_logs)
    if args.json:
        print(
            json.dumps(
                {
                    "checked": report.checked,
                    "ok": report.ok,
                    "fatal": report.fatal_failures,
                    "informational": report.informational,
                    "rank_ord_exceptions": [
                        [N, p, e, _fmt_ord(encode_valuation(o))]
                        for (N, p, e, o) in report.rank_ord_exceptions
                    ],
                    "conjecture_rank2_violations": report.conjecture_rank2_violations,
                }
            )
        )
    else:
        print(f"checked {report.checked} records with Hecke data")
        print(f"  rank/Merel/ord equivalences, re-derived Hecke data: {'pass' if report.ok else 'FAIL'}")
        for msg in report.fatal_failures:
            print(f"  FATAL: {msg}")
        if report.rank_ord_exceptions:
            print("  rows with e != ord_1 (expected, cross-checked against the published list):")
            for (N, p, e, o) in report.rank_ord_exceptions:
                print(f"    ({N},{p}): e={e}, ord_1={o}")
        if report.conjecture_rank2_violations:
            print(f"  rank-2 conjecture violations: {report.conjecture_rank2_violations}")
        else:
            print("  rank-2 conjecture (e=2 iff ord_1=2): no violations")
        for msg in report.informational:
            print(f"  note: {msg}")
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_massey_selftest(args) -> int:
    from .massey.selftest import run_selftest

    res = run_selftest(seed=args.seed, quick=args.quick)
    if args.json:
        print(
            json.dumps(
                {
                    "seed": res.seed,
                    "ok": res.ok,
                    "passed": res.passed,
                    "failed": res.failed,
                    "counts": res.counts,
                }
            )
        )
    else:
        print(f"seed: {res.seed}")
        for name in res.passed:
            print(f"  PASS {name} (n={res.counts.get(name)})")
        for name in res.failed:
            print(f"  FAIL {name}")
        ks = {k: v for k, v in res.counts.items() if k.startswith("defining systems")}
        if ks:
            print(f"  defining-system counts: {ks}")
    return EXIT_OK if res.ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="eisenlab",
        description="Arithmetic invariants attached to a pair of primes (N, p).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="Merel number and zeta-element order")
    p_inv.add_argument("--N", type=int, required=True)
    p_inv.add_argument("--p", type=int, required=True)
    p_inv.add_argument("--s-max", type=int, default=None, dest="s_max")
    p_inv.add_argument("--out", default=None, help="append the JSON record here")
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(func=cmd_record, with_hecke=False, ell=None, precision=None)

    p_hec = sub.add_parser("hecke", help="Eisenstein-local Hecke data (rank, polygon)")
    p_hec.add_argument("--N", type=int, required=True)
    p_hec.add_argument("--p", type=int, required=True)
    p_hec.add_argument("--ell", type=int, default=None)
    p_hec.add_argument("--precision", type=int, default=None)
    p_hec.add_argument("--out", default=None)
    p_hec.add_argument("--json", action="store_true")
    p_hec.set_defaults(func=cmd_record, with_hecke=True, s_max=None)

    p_sw = sub.add_parser("sweep", help="compute records for all N = 1 mod p below a bound")
    p_sw.add_argument("--p", type=int, required=True)
    p_sw.add_argument("--max-N", type=int, required=True, dest="max_N")
    p_sw.add_argument("--out", required=True)
    p_sw.add_argument("--resume", action="store_true")
    p_sw.add_argument("--workers", type=int, default=None)
    p_sw.set_defaults(func=cmd_sweep)

    p_st = sub.add_parser("stats", help="rank distribution r(d) vs heuristic g(d)")
    p_st.add_argument("--in", required=True, dest="infile")
    p_st.add_argument("--json", action="store_true")
    p_st.set_defaults(func=cmd_stats)

    p_vf = sub.add_parser("verify", help="cross-check proved equivalences on records")
    p_vf.add_argument("--in", required=True, dest="infile")
    p_vf.add_argument("--recheck-logs", action="store_true")
    p_vf.add_argument("--json", action="store_true")
    p_vf.set_defaults(func=cmd_verify)

    p_ms = sub.add_parser("massey-selftest", help="run the Massey calculus suite")
    p_ms.add_argument("--seed", type=int, default=20250809)
    p_ms.add_argument("--quick", action="store_true")
    p_ms.add_argument("--json", action="store_true")
    p_ms.set_defaults(func=cmd_massey_selftest)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:  # every Hecke failure is an ArithmeticError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
