"""Sweep orchestration, statistics, and the verification battery."""

from __future__ import annotations

import ctypes
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import sympy

from .corering.zmod import AtLeast, valuation_p
from .hecke.eisenstein import eisenstein_local_factor, rank_consistency_check
from .invariants import check_pair, lecouturier_check, merel_report, zeta_report
from .records import ResultRecord, append_records, encode_valuation, existing_keys

# (N, p) rows where the paper's full N < 10000 tables report rank != ord;
# used as an informational cross-reference by the verifier.
KNOWN_RANK_ORD_EXCEPTIONS = {
    (3001, 5),
    (3671, 5),
    (4159, 7),
    (4229, 7),
    (5651, 5),
    (6761, 13),
    (7673, 7),
}


def sweep_primes(p: int, max_N: int):
    """Primes N < max_N with N = 1 mod p."""
    out = []
    k = 1
    while True:
        N = k * p + 1
        if N >= max_N:
            break
        if sympy.isprime(N):
            out.append(N)
        k += 1
    return out


def compute_record(
    N: int,
    p: int,
    with_hecke: bool = True,
    ell: int | None = None,
    precision: int | None = None,
    s_max: int | None = None,
) -> ResultRecord:
    """Assemble the full persisted row for one (N, p)."""
    start = time.perf_counter()
    check_pair(N, p)
    if s_max is not None and s_max < 1:
        raise ValueError(f"s_max = {s_max} must be >= 1")
    t = valuation_p(N - 1, p)
    rec = ResultRecord(N=N, p=p, t=t)
    flags = []
    if t > 0:
        s_top = min(s_max, t) if s_max else t
        mer = merel_report(N, p, s_top)
        rec.merel_value = mer.merel_value
        rec.merel_is_power_s = {str(s): bool(v) for s, v in mer.is_power_s.items()}
        rec.merel_log_sum_s = {str(s): int(v) for s, v in mer.log_sum_s.items()}
        zet = zeta_report(N, p, s_top)
        rec.ord_zeta_s = {str(s): encode_valuation(v) for s, v in zet.ord_s.items()}
        rec.ord_cap = zet.cap
        if zet.sylow_zero:
            flags.append("sylow-projection-zero")
        # the identities mod p^s_top imply them mod every lower p^s
        rec.lecouturier_ok = lecouturier_check(N, p, s_top)
    else:
        rec.merel_value = None
        rec.lecouturier_ok = None
    if with_hecke:
        rep = eisenstein_local_factor(N, p, ell=ell, precision=precision)
        ok, diag = rank_consistency_check(N, p, rep)
        if not ok:
            flags.append("rank-consistency-failed")
            rec.diagnostics["rank_consistency"] = {k: str(v) for k, v in diag.items()}
        rec.e = rep.e
        rec.ell_used = rep.ell_used
        rec.precision = rep.M or None
        if rep.f is not None:
            rec.f_coeffs = [int(c) for c in rep.f.coeffs]
            rec.t_seq = [int(v) for v in rep.t_seq]
            rec.np_vertices = [[int(i), int(v)] for i, v in rep.np_vertices]
            rec.components = [c.as_dict() for c in rep.components]
        else:
            rec.t_seq = []
            rec.np_vertices = []
            rec.components = []
        rec.diagnostics.update(
            {
                "f0_valuation": rep.diagnostics.get("f0_valuation"),
                "localization": rep.diagnostics.get("localization"),
                "generator_checks": {
                    str(k): bool(v)
                    for k, v in rep.diagnostics.get("generator_checks", {}).items()
                },
            }
        )
    rec.flags = flags
    rec.elapsed = round(time.perf_counter() - start, 4)
    return rec


def _openblas_function(names: tuple[str, ...]):
    """The first of ``names`` exported by an OpenBLAS loaded in this process
    (numpy's bundled one), or None when there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                return fn
    return None


def _one_blas_thread() -> None:
    """Pool initializer: one OpenBLAS thread per worker, so that workers
    times BLAS threads does not oversubscribe the cores.  A no-op without
    OpenBLAS."""
    fn = _openblas_function(
        ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads")
    )
    if fn is not None:
        fn.argtypes = [ctypes.c_int]
        fn.restype = None
        fn(1)


def _worker(args) -> ResultRecord:
    N, p, precision = args
    return compute_record(N, p, with_hecke=True, precision=precision)


def _computed(tasks: list, workers: int):
    """Records for the tasks: in order on one worker, as they finish on a pool."""
    if workers == 1:
        yield from map(_worker, tasks)
        return
    with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
        for fut in as_completed([pool.submit(_worker, task) for task in tasks]):
            yield fut.result()


def run_sweep(
    p: int,
    max_N: int,
    out_path: str,
    resume: bool = False,
    workers: int | None = None,
    precision: int | None = None,
    log=None,
) -> int:
    """Compute records for all primes N = 1 mod p below max_N.

    Appends JSON lines as tasks complete (single writer); with resume=True,
    keys already present in the output file are skipped.  Returns the
    number of newly written records.
    """
    targets = sweep_primes(p, max_N)
    done = existing_keys(out_path) if resume else set()
    todo = [N for N in targets if (N, p) not in done]
    if not todo:
        return 0
    written = 0
    for rec in _computed([(N, p, precision) for N in todo], workers or os.cpu_count() or 1):
        append_records(out_path, [rec])
        written += 1
        if log:
            log(f"  {rec.N}: e={rec.e} ord_1={rec.ord_zeta_s.get('1')} [{rec.elapsed}s]")
    return written


# -- statistics ---------------------------------------------------------------


@dataclass
class StatsTable:
    p: int
    max_N: int | None
    n: int
    r: dict[int, str]  # rank d -> observed fraction, three decimals
    g: dict[int, str]  # rank d -> heuristic (1/p)^(d-1) * (p-1)/p
    counts: dict[int, int] = field(default_factory=dict)


def _three_decimals(x: Decimal) -> str:
    return str(x.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def stats_from_records(records: list[ResultRecord]) -> StatsTable:
    ps = {rec.p for rec in records}
    if len(ps) != 1:
        raise ValueError(f"records mix several p: {sorted(ps)}")
    p = ps.pop()
    ranked = [rec for rec in records if rec.e is not None]
    if not ranked:
        raise ValueError("no records with Hecke rank data")
    n = len(ranked)
    counts: dict[int, int] = {}
    for rec in ranked:
        counts[rec.e] = counts.get(rec.e, 0) + 1
    dmax = max(counts)
    r = {d: _three_decimals(Decimal(counts.get(d, 0)) / Decimal(n)) for d in range(1, dmax + 1)}
    g = {
        d: _three_decimals(
            (Decimal(1) / Decimal(p)) ** (d - 1) * (Decimal(p - 1) / Decimal(p))
        )
        for d in range(1, dmax + 1)
    }
    return StatsTable(p=p, max_N=max(rec.N for rec in ranked) + 1, n=n, r=r, g=g, counts=counts)


# -- verification -------------------------------------------------------------


@dataclass
class VerificationReport:
    checked: int
    fatal_failures: list[str]
    informational: list[str]
    rank_ord_exceptions: list[tuple[int, int, int, object]]
    conjecture_rank2_violations: list[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return not self.fatal_failures


def verify_records(records: list[ResultRecord], recheck_lecouturier: bool = False) -> VerificationReport:
    """Cross-check the proved equivalences on computed rows.

    Fatal: (a) e >= 2 iff Merel's number is a p-th power; (b) e = 1 iff
    ord_1 = 1; (e) the discrete-log identity suite holds.  Informational:
    (c) e = 2 iff ord_1 = 2 (conjectural); (d) tally of rows with
    e != ord_1 against the published exception list.
    """
    fatal: list[str] = []
    info: list[str] = []
    exceptions: list[tuple[int, int, int, object]] = []
    violations: list[tuple[int, int]] = []
    checked = 0
    for rec in records:
        if rec.e is None or rec.t == 0:
            continue
        checked += 1
        tag = f"(N,p)=({rec.N},{rec.p})"
        ord1 = rec.ord_1()
        ord1_num = None if ord1 is None else (ord1.bound if isinstance(ord1, AtLeast) else ord1)
        is_pow = rec.merel_is_power_s.get("1")
        if is_pow is None or ord1 is None:
            fatal.append(f"{tag}: record is missing invariants data")
            continue
        if (rec.e >= 2) != is_pow:
            fatal.append(f"{tag}: e={rec.e} but Merel p-th power status is {is_pow}")
        if (rec.e == 1) != (ord1_num == 1):
            fatal.append(f"{tag}: e={rec.e} but ord_1={ord1}")
        if rec.lecouturier_ok is False:
            fatal.append(f"{tag}: discrete-log identity suite failed")
        elif recheck_lecouturier:
            if not lecouturier_check(rec.N, rec.p, rec.t):
                fatal.append(f"{tag}: discrete-log identity recheck failed")
        if rec.e >= 2:
            if (rec.e == 2) != (ord1_num == 2):
                violations.append((rec.N, rec.p))
        if ord1_num != rec.e:
            exceptions.append((rec.N, rec.p, rec.e, ord1))
            if (rec.N, rec.p) not in KNOWN_RANK_ORD_EXCEPTIONS:
                info.append(f"{tag}: e={rec.e} != ord_1={ord1} (not in the published list)")
    if violations:
        info.append(f"rank-2 conjecture violations: {violations}")
    return VerificationReport(
        checked=checked,
        fatal_failures=fatal,
        informational=info,
        rank_ord_exceptions=exceptions,
        conjecture_rank2_violations=violations,
    )
