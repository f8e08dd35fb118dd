"""Prime-survey engine: per-prime invariant records with built-in checks,
the reference CM module, and exact density estimates.

Records are plain text/int/bool data so they serialize identically across
runs and can cross process boundaries under --jobs; emission order is always
(degree, lexicographic prime) regardless of completion order.
"""

from __future__ import annotations

import dataclasses
import logging
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod
from typing import Iterable, Iterator

from .config import SurveyOptions
from .errors import (
    BadReductionError,
    DrinfeldError,
    EvenCharacteristicError,
    RankError,
    StrictModeError,
)
from .fields import FieldTower
from .invariants import (
    b_invariants,
    end_lattice_reduced,
    invariant_factors_from_lattice,
    rank2_invariants_reduced,
    weil_motive,
)
from .division import abhyankar_splits_reduced, module_structure_reduced
from .modules import DrinfeldModule, reduce_at
from .polys import Poly, count_monic_irreducibles, enumerate_monic_irreducibles, powint
from .textio import poly_to_text, fq_to_text
from .torsion import module_structure_oracle_reduced

REQUIRED_CHECKS = ("weil_identity", "structure_oracle")

logger = logging.getLogger(__name__)


@dataclass
class SurveyRecord:
    q: int
    psi: list[str]
    p: str
    deg_p: int
    a_p: str | None
    u_p: str | None
    b_invariants: list[str]
    delta_p: str | None
    supersingular: bool | None
    d1: str | None
    d2: str | None
    splits_abhyankar: bool | None
    checks_passed: list[str]
    warnings: list[str] = field(default_factory=list)
    skipped: str | None = None

    def to_dict(self) -> dict:
        """The fields in ``CSV_COLUMNS`` order, as ``dataclasses.asdict``
        gives them: the list fields (lists of str) are copied, so nothing
        aliases the record."""
        out = {}
        for name in CSV_COLUMNS:
            value = getattr(self, name)
            out[name] = value.copy() if type(value) is list else value
        return out


CSV_COLUMNS = [f.name for f in dataclasses.fields(SurveyRecord)]


def compute_record(psi: DrinfeldModule, p: Poly, options: SurveyOptions) -> SurveyRecord:
    """One record for the prime p.  The reduction at p and the invariants are
    computed once and shared by every check.  A failure becomes the record
    warning ``error: ...``, so one bad prime never aborts a survey; an
    unexpected exception also logs its traceback."""
    tower = psi.tower
    psi_texts = [poly_to_text(g) for g in psi.g]
    base = psi.base
    rec = SurveyRecord(
        q=tower.q,
        psi=psi_texts,
        p=poly_to_text(p),
        deg_p=p.degree(),
        a_p=None,
        u_p=None,
        b_invariants=[],
        delta_p=None,
        supersingular=None,
        d1=None,
        d2=None,
        splits_abhyankar=None,
        checks_passed=[],
    )
    try:
        red = reduce_at(psi, p)
        inv = rank2_invariants_reduced(red) if psi.rank == 2 and tower.q % 2 else None
        weil = inv.weil if inv is not None else weil_motive(red)
        if psi.rank >= 2:  # c_(r-1); in rank 1, c_0 = u_p p is all there is
            rec.a_p = poly_to_text(weil.coeffs[-1])
        rec.u_p = fq_to_text(weil.unit, tower)
        checks = ["weil_identity"]  # asserted inside weil_motive
        bfac = [inv.b_p] if inv is not None else b_invariants(red, weil)
        rec.b_invariants = [poly_to_text(b) for b in bfac]
        if inv is not None:
            rec.delta_p = poly_to_text(inv.delta_p)
            rec.supersingular = inv.supersingular
            if 2 * inv.a_p.degree() <= p.degree():
                checks.append("rh_bound")
            if inv.d == inv.b_p * inv.b_p * inv.delta_p:
                checks.append("disc_factorization")
            ms = module_structure_reduced(red, inv)
            rec.d1 = poly_to_text(ms.d1)
            rec.d2 = poly_to_text(ms.d2)
            oracle = module_structure_oracle_reduced(red)
            mine = [f for f in (ms.d1, ms.d2) if f.degree() >= 1]
            if [f.coeffs for f in oracle] == [f.coeffs for f in mine]:
                checks.append("structure_oracle")
        else:
            if all(
                (bfac[i + 1] % bfac[i]).is_zero() for i in range(len(bfac) - 1)
            ):
                checks.append("divisibility_chain")
            # F_p is A/d_1 x ... x A/d_k with k <= r and d_1 ... d_k = P(1) up to a unit
            oracle = module_structure_oracle_reduced(red)
            chi = sum(weil.coeffs, Poly.one(base)).monic()
            if len(oracle) <= psi.rank and prod(oracle, start=Poly.one(base)) == chi:
                checks.append("structure_oracle")
        if options.with_lattice_checks:
            if invariant_factors_from_lattice(end_lattice_reduced(red)).factors == bfac:
                checks.append("b_lattice_agreement")
            else:
                rec.warnings.append("lattice b disagrees with record b")
        # the b_{p,1} criteria of the Abhyankar stage need rank >= 2
        if options.with_abhyankar and psi.rank >= 2 and p != Poly.x(base):
            rec.splits_abhyankar, _ = abhyankar_splits_reduced(red, bfac[0], weil)
            checks.append("abhyankar_consistency")
        rec.checks_passed = checks
        for required in REQUIRED_CHECKS:
            if required not in checks:
                rec.warnings.append(f"required check failed: {required}")
    except BadReductionError:
        rec.skipped = "bad_reduction"
    except DrinfeldError as exc:
        rec.warnings.append(f"error: {exc}")
    except Exception as exc:
        logger.exception("unexpected error in the survey record for p=%s", rec.p)
        rec.warnings.append(f"error: {type(exc).__name__}: {exc}")
    return rec


# -- worker-pool plumbing -------------------------------------------------------

_WORKER_STATE: dict = {}


def _worker_init(q: int, max_degree: int, g_codes: list[list[int]], opt_kwargs: dict):
    tower = FieldTower(q, max_degree=max_degree)
    base = tower.base_field
    gs = [Poly(base, [base.dec_elem(c) for c in codes]) for codes in g_codes]
    _WORKER_STATE["psi"] = DrinfeldModule(tower, gs)
    _WORKER_STATE["options"] = SurveyOptions(**opt_kwargs)


def _worker_run(p_codes: list[int]) -> dict:
    psi = _WORKER_STATE["psi"]
    base = psi.base
    p = Poly(base, [base.dec_elem(c) for c in p_codes])
    rec = compute_record(psi, p, _WORKER_STATE["options"])
    return rec.to_dict()


def run_survey(
    psi: DrinfeldModule,
    degrees: Iterable[int],
    options: SurveyOptions | None = None,
) -> Iterator[SurveyRecord]:
    """One record per monic prime of each requested degree, in (degree, lex)
    order; bad-reduction primes carry a skip marker."""
    options = options or SurveyOptions()
    degs = sorted(set(degrees))
    if not degs:
        raise DrinfeldError("no degrees requested")
    primes: list[Poly] = []
    for x in degs:
        primes.extend(enumerate_monic_irreducibles(psi.base, x))
    if options.jobs <= 1:
        for p in primes:
            rec = compute_record(psi, p, options)
            _strict_gate(rec, options)
            yield rec
        return
    g_codes = [[c.int_code() for c in g.coeffs] for g in psi.g]
    tasks = [[c.int_code() for c in p.coeffs] for p in primes]
    opt_kwargs = dataclasses.asdict(dataclasses.replace(options, jobs=1))
    with ProcessPoolExecutor(
        max_workers=min(options.jobs, len(primes)),
        initializer=_worker_init,
        initargs=(psi.tower.q, psi.tower.max_degree, g_codes, opt_kwargs),
    ) as pool:
        # map yields the results in task order, each as soon as it and those
        # before it are done
        for d in pool.map(_worker_run, tasks):
            rec = SurveyRecord(**d)
            _strict_gate(rec, options)
            yield rec


def _strict_gate(rec: SurveyRecord, options: SurveyOptions):
    if options.strict and rec.skipped is None and rec.warnings:
        raise StrictModeError(
            f"strict mode: record for p={rec.p} failed checks: {rec.warnings}"
        )


# ---------------------------------------------------------------------------
# reference CM module


def cm_example(
    q: int, tower: FieldTower | None = None, verify_primes: int = 20
) -> tuple[DrinfeldModule, int]:
    """Rank-2 module with CM by the order in F(sqrt(T)): j = (U + U^q)^(q+1)
    rewritten in T = U^2, realized as g_1 = j, g_2 = j^q; c_K = 1."""
    if q % 2 == 0:
        raise EvenCharacteristicError("the CM example needs odd q")
    tower = tower or FieldTower(q)
    base = tower.base_field
    T = Poly.x(base)
    one = Poly.one(base)
    j = powint(T, (q + 1) // 2) * powint(one + powint(T, (q - 1) // 2), q + 1)
    psi = DrinfeldModule(tower, [j, powint(j, q)])
    # spot-check: ordinary primes share one discriminant ideal, supersingular
    # primes have unit conductor
    rng = random.Random(0xD21F ^ q)
    candidates: list[Poly] = []
    for d in range(1, 5):
        candidates.extend(
            p for p in enumerate_monic_irreducibles(base, d) if not (psi.g[-1] % p).is_zero()
        )
    sample = rng.sample(candidates, min(verify_primes, len(candidates)))
    deltas = set()
    for p in sample:
        inv = rank2_invariants_reduced(reduce_at(psi, p))
        if inv.supersingular:
            if not inv.b_p.is_one():
                raise DrinfeldError("supersingular prime with nonunit conductor")
        else:
            deltas.add(inv.delta_monic.coeffs)
    if len(deltas) > 1:
        raise DrinfeldError("ordinary discriminant ideal is not constant")
    return psi, 1


# ---------------------------------------------------------------------------
# densities


@dataclass
class DensityEstimate:
    kind: str
    x_or_max_deg: int
    observed_count: int
    predicted: Fraction
    tolerance_note: str


def pgl2_order_mod_prime(q: int, d: int) -> int:
    """#PGL_2(A/lA) for a prime l of degree d."""
    return q**d * (q ** (2 * d) - 1)


def pgl_order(q: int, r: int) -> int:
    """#PGL_r(F_q)."""
    out = 1
    for i in range(r):
        out *= q**r - q**i
    return out // (q - 1)


def noncm_truncated_sum(q: int, max_deg: int) -> Fraction:
    """sum over squarefree monic m of deg <= max_deg of mu(m)/#PGL_2(A/mA),
    exactly, using multiplicativity; a truncated estimator, not the density."""
    if max_deg < 0:
        raise DrinfeldError("max_deg must be >= 0")
    acc = [Fraction(0)] * (max_deg + 1)
    acc[0] = Fraction(1)
    for d in range(1, max_deg + 1):
        n_d = count_monic_irreducibles(q, d)
        m_d = pgl2_order_mod_prime(q, d)
        factor = [Fraction(0)] * (max_deg + 1)
        k = 0
        while k * d <= max_deg:
            factor[k * d] = Fraction(comb(n_d, k) * (-1) ** k, m_d**k)
            k += 1
        new = [Fraction(0)] * (max_deg + 1)
        for i, a in enumerate(acc):
            if a == 0:
                continue
            for jd in range(0, max_deg - i + 1):
                if factor[jd] != 0:
                    new[i + jd] += a * factor[jd]
        acc = new
    return sum(acc, Fraction(0))


def density_report(
    records: list[SurveyRecord] | None,
    kind: str,
    q: int | None = None,
    max_deg: int | None = None,
    c_k: int = 1,
) -> DensityEstimate:
    if c_k < 1:
        raise DrinfeldError(f"c_K must be a positive integer, not {c_k}")
    if kind in ("noncm", "noncm_truncated_sum"):
        if q is None or max_deg is None:
            raise DrinfeldError("noncm estimator needs q and max_deg")
        val = noncm_truncated_sum(q, max_deg)
        return DensityEstimate(
            kind="noncm_truncated_sum",
            x_or_max_deg=max_deg,
            observed_count=0,
            predicted=val,
            tolerance_note=(
                "truncated inclusion-exclusion under the full-image assumption; "
                "an estimator, not the exact density"
            ),
        )
    if not records:
        raise DrinfeldError("this density kind needs survey records")
    live = [r for r in records if r.skipped is None]
    if not live:
        raise DrinfeldError(f"no prime of good reduction among the {len(records)} surveyed primes")
    q = live[0].q
    rank = len(live[0].psi)
    degrees = sorted({r.deg_p for r in records})
    if kind in ("cm_supersingular", "bp_equals_one"):
        if len(degrees) != 1:
            raise DrinfeldError(f"{kind} needs records of a single degree")
        x = degrees[0]
        ck_x = c_k if x % c_k == 0 else 0
        predicted = Fraction(ck_x * q**x, 2 * x)
        if kind == "cm_supersingular":
            # the records say whether a_p = 0 only in rank 2 at odd q
            if rank != 2:
                raise RankError("cm_supersingular needs rank-2 records")
            if q % 2 == 0:
                raise EvenCharacteristicError("cm_supersingular needs odd q")
            observed = sum(1 for r in live if r.supersingular)
            note = (
                "main term c_K(x)/2 * q^x/x for supersingular counts; the error "
                "term is of size q^(x/2) with an ineffective constant"
            )
        else:
            observed = sum(
                1 for r in live if r.b_invariants and all(b == "1" for b in r.b_invariants)
            )
            note = (
                "unit-conductor count: supersingular main term plus at most "
                "O(q^(x/2)) ordinary primes"
            )
        return DensityEstimate(
            kind=kind,
            x_or_max_deg=x,
            observed_count=observed,
            predicted=predicted,
            tolerance_note=note,
        )
    if kind == "abhyankar_split":
        observed = sum(1 for r in live if r.splits_abhyankar)
        total = sum(count_monic_irreducibles(q, x) for x in degrees)
        predicted = Fraction(total, pgl_order(q, rank))
        return DensityEstimate(
            kind=kind,
            x_or_max_deg=max(degrees),
            observed_count=observed,
            predicted=predicted,
            tolerance_note=(
                "Dirichlet-density prediction #primes/#PGL_r(F_q); finite-level "
                "fluctuation expected"
            ),
        )
    raise DrinfeldError(f"unknown density kind {kind!r}")
