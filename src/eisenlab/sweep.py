"""Sweep orchestration, statistics, and the verification battery."""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

import sympy

from .corering.zmod import AtLeast, Modulus, PadicPoly, valuation_p
from .hecke.eisenstein import (
    _ell_objection,
    _generator_check_primes,
    _polygon_data,
    eisenstein_local_factor,
)
from .invariants import check_p, check_pair, is_good_prime, lecouturier_check, merel_report, zeta_report
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
    """Primes N < max_N with N = 1 mod p; ValueError unless p is a prime > 3."""
    check_p(p)  # N = k p + 1 never reaches max_N for p <= 0
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


def _hecke_fields(f: PadicPoly | None, t_seq, vertices, components) -> dict:
    """A row's f_coeffs, t_seq, np_vertices and components, as JSON values:
    what ``compute_record`` writes and what the verifier compares a row with."""
    return {
        "f_coeffs": None if f is None else [int(c) for c in f.coeffs],
        "t_seq": [int(v) for v in t_seq],
        "np_vertices": [[int(i), int(v)] for i, v in vertices],
        "components": [c.as_dict() for c in components],
    }


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
        rec.lecouturier_ok = mer.identities_ok
    else:
        rec.merel_value = None
        rec.lecouturier_ok = None
    if with_hecke:
        rep = eisenstein_local_factor(N, p, ell=ell, precision=precision)
        rec.e = rep.e
        rec.ell_used = rep.ell_used
        rec.precision = rep.M or None
        for name, value in _hecke_fields(rep.f, rep.t_seq, rep.np_vertices, rep.components).items():
            setattr(rec, name, value)
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


def pool_size(workers: int | None) -> int:
    """Worker processes for a sweep: None means one per core; below 1 is refused."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers = {workers} must be >= 1")
    return workers


def _worker(args) -> ResultRecord:
    N, p = args
    return compute_record(N, p, with_hecke=True)


def _computed(tasks: list, workers: int):
    """Records for the tasks: in order on one worker, as they finish on a
    pool.  Leaving early (a failed pair, an interrupt) terminates the workers
    and cancels the pending pairs; a dead worker raises BrokenProcessPool."""
    if workers == 1:
        yield from map(_worker, tasks)
        return
    # not as_completed: an interrupt can leave a future's Condition held,
    # and the pool's manager thread then hangs on it at exit
    finished = queue.SimpleQueue()
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        for task in tasks:
            pool.submit(_worker, task).add_done_callback(finished.put)
        for _ in tasks:
            yield finished.get().result()
    except BaseException:
        for proc in list(pool._processes.values()):
            proc.terminate()
        # join the pool's thread here, not at exit, where an interrupt
        # of the join can leave the interpreter hung on the pool's lock
        pool.shutdown(cancel_futures=True)
        raise
    pool.shutdown()


def _interrupt_once(signum, frame):
    """SIGINT handler: KeyboardInterrupt, then ignore SIGINT, so that a
    second Ctrl-C cannot cut short the shutdown of the sweep's pool."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    raise KeyboardInterrupt


def run_sweep(
    p: int,
    max_N: int,
    out_path: str,
    resume: bool = False,
    workers: int | None = None,
    log=None,
) -> int:
    """Compute records for all primes N = 1 mod p below max_N.

    Appends JSON lines as tasks complete (single writer); with resume=True,
    keys already present in the output file are skipped.  Returns the
    number of newly written records.  ``workers=None`` uses every core.
    ``log`` gets a header, once the inputs are valid, and a line per record.

    A caller in the main thread whose SIGINT handler is Python's default
    gets ``_interrupt_once`` for the length of the call; any other caller
    keeps its own handling of SIGINT.
    """
    workers = pool_size(workers)
    targets = sweep_primes(p, max_N)
    if log:
        log(f"sweep p={p}, N < {max_N}: {len(targets)} primes")
    done = existing_keys(out_path) if resume else set()
    todo = [N for N in targets if (N, p) not in done]
    if not todo:
        return 0
    # asyncio.Runner's rule for taking over SIGINT
    guard = (
        threading.current_thread() is threading.main_thread()
        and signal.getsignal(signal.SIGINT) is signal.default_int_handler
    )
    if guard:
        signal.signal(signal.SIGINT, _interrupt_once)
    written = 0
    try:
        for rec in _computed([(N, p) for N in todo], workers):
            append_records(out_path, [rec])
            written += 1
            if log:
                log(f"  {rec.N}: e={rec.e} ord_1={rec.ord_zeta_s.get('1')} [{rec.elapsed}s]")
    finally:
        if guard:
            signal.signal(signal.SIGINT, signal.default_int_handler)
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
    if not records:
        raise ValueError("no records")
    ps = {rec.p for rec in records}
    if len(ps) != 1:
        raise ValueError(f"records mix several p: {sorted(ps)}")
    p = ps.pop()
    # the rows verify_records checks: a row with t = 0 has no Eisenstein rank
    ranked = [rec for rec in records if rec.e is not None and rec.t > 0]
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


def _pair_failures(rec: ResultRecord, tag: str) -> list[str]:
    """The lines for a row whose N is not prime or p not a prime > 3, whose
    t is not v_p(N - 1), or whose t = 0 comes with a rank: the re-derivation
    ties e, f and the t-sequence to the stored t, so this ties them to N."""
    try:
        t = valuation_p(rec.N - 1, rec.p)
    except ValueError as exc:  # N = 1, or p < 2
        return [f"{tag}: t = {rec.t} but v_p(N - 1) is undefined ({exc})"]
    out = []
    try:
        check_pair(rec.N, rec.p)
    except ValueError as exc:
        out.append(f"{tag}: {exc}")
    if rec.t != t:
        out.append(f"{tag}: t = {rec.t} but v_p(N - 1) = {t}")
    if rec.t == 0 and rec.e not in (None, 0):
        out.append(f"{tag}: t = 0 but e = {rec.e}")
    return out


def _rederivation_failures(rec: ResultRecord, tag: str) -> list[str]:
    """One line per Hecke field of ``rec`` that its f_coeffs and precision do
    not reproduce: f must be a reduced distinguished polynomial of degree e
    with v_p(f(0)) = t, and the row's Hecke fields must be what
    ``compute_record`` would write for that f."""
    if rec.precision is None or rec.f_coeffs is None:
        missing = "precision" if rec.precision is None else "f_coeffs"
        return [f"{tag}: {missing} is missing, so the Hecke data cannot be re-derived"]
    try:
        f = PadicPoly(rec.f_coeffs, Modulus(rec.p, rec.precision))
        if f.coeffs != rec.f_coeffs or not f.is_distinguished():
            return [f"{tag}: f_coeffs is not a reduced distinguished polynomial mod {rec.p}^{rec.precision}"]
        derived = _hecke_fields(f, *_polygon_data(f))
    except (ArithmeticError, ValueError) as exc:
        return [f"{tag}: f_coeffs at precision {rec.precision} cannot be re-derived ({type(exc).__name__}: {exc})"]
    out = []
    if f.degree != rec.e:
        out.append(f"{tag}: e = {rec.e} but f_coeffs has degree {f.degree}")
    f0_valuation = f.modulus.valuation(f.coeffs[0])
    if f0_valuation != rec.t:
        out.append(f"{tag}: f_coeffs has v_p(f(0)) = {f0_valuation}, not t = {rec.t}")
    for name, want in derived.items():
        if getattr(rec, name) != want:
            out.append(f"{tag}: {name} = {getattr(rec, name)} but f_coeffs gives {want}")
    return out


def _good_prime_failures(rec: ResultRecord, tag: str) -> list[str]:
    """The lines for a Hecke row whose ``ell_used`` is not a good prime for
    (N, p), or whose ``diagnostics.generator_checks`` does not hold exactly
    the primes 2, 3, 5, 7 other than N, each with Mazur's verdict: T_ell' -
    ell' - 1 generates the Eisenstein ideal iff ell' is a good prime.  The
    pair must be valid, with p | N - 1."""
    out = []
    ell = rec.ell_used
    if ell is None:
        out.append(f"{tag}: ell_used is missing")
    elif _ell_objection(ell, rec.N, rec.p):
        out.append(f"{tag}: ell_used = {ell} is not a good prime for (N, p)")
    checks = rec.diagnostics.get("generator_checks")
    if not isinstance(checks, dict):
        return out + [f"{tag}: diagnostics.generator_checks is missing"]
    want = {str(q): is_good_prime(q, rec.N, rec.p) for q in _generator_check_primes(rec.N)}
    if checks.keys() != want.keys():
        out.append(f"{tag}: generator_checks holds {sorted(checks)}, not {sorted(want)}")
    for q in sorted(checks.keys() & want.keys()):
        if checks[q] is not want[q]:
            out.append(f"{tag}: generator_checks[{q}] = {checks[q]!r} but is_good_prime gives {want[q]}")
    return out


def verify_records(records: list[ResultRecord], recheck_lecouturier: bool = False) -> VerificationReport:
    """Cross-check the proved equivalences on computed rows.

    Fatal: (a) e >= 2 iff Merel's number is a p-th power; (b) e = 1 iff
    ord_1 = 1; (e) the discrete-log identity suite holds; (f) the Hecke
    fields re-derive from f_coeffs and precision (deg f = e,
    v_p(f(0)) = t, and the stored t_seq, np_vertices and components), one
    line naming the field per mismatch, or one for a row that cannot be
    re-derived; (g) on every row, N is prime, p is a prime > 3,
    t = v_p(N - 1), and a row with t = 0 has e None or 0; (k) on a valid
    pair, ell_used is a good prime for (N, p), and the stored generator
    checks are exactly Mazur's verdicts at 2, 3, 5, 7 other than N.
    Informational: (c) e = 2 iff ord_1 = 2 (conjectural); (d) tally of rows
    with e != ord_1 against the published exception list.  Rows with t = 0
    or no Hecke data are not counted in ``checked``.
    """
    fatal: list[str] = []
    info: list[str] = []
    exceptions: list[tuple[int, int, int, object]] = []
    violations: list[tuple[int, int]] = []
    checked = 0
    for rec in records:
        tag = f"(N,p)=({rec.N},{rec.p})"
        pair_failures = _pair_failures(rec, tag)
        fatal += pair_failures
        if rec.e is None or rec.t == 0:
            continue
        checked += 1
        fatal += _rederivation_failures(rec, tag)
        if not pair_failures:
            fatal += _good_prime_failures(rec, tag)
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
        elif recheck_lecouturier and not pair_failures:  # the recheck needs a valid pair
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
