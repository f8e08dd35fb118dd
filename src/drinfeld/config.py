"""Configuration of the prime-survey engine."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SurveyOptions:
    """Options for the prime-survey engine."""

    strict: bool = False  # fail fast on a required per-record check
    with_lattice_checks: bool = False  # cross-validate b_p via the SNF path
    with_abhyankar: bool = True  # test whether the Abhyankar polynomial splits mod p
    jobs: int = 1
