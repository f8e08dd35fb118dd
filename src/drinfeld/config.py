"""Configuration of the prime-survey engine."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SurveyOptions:
    """Options for the prime-survey engine."""

    strict: bool = False  # fail fast on a required per-record check
    # cross-validate the record's b's (b_p at odd q in rank 2, from a
    # squarefree d or the motive gcd; the motive b's elsewhere) against the
    # endomorphism lattice's
    with_lattice_checks: bool = False
    with_abhyankar: bool = True  # test whether the Abhyankar polynomial splits mod p
    jobs: int = 1
