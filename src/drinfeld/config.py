"""Configuration of the prime-survey engine."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SurveyOptions:
    """Options for the prime-survey engine."""

    strict: bool = False  # fail fast on a required per-record check
    # cross-validate the record's b's (``invariants.b_invariants``: 1 from a
    # squarefree rank-2 d, else the motive Smith form) against the
    # endomorphism lattice's
    with_lattice_checks: bool = False
    with_abhyankar: bool = True  # test whether the Abhyankar polynomial splits mod p
    jobs: int = 1
