"""Dataclass configuration knobs shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TorsionConfig:
    """Caps for the brute-force torsion oracle."""

    max_splitting_steps: int = 10_000  # cap on the splitting-extension search


@dataclass(frozen=True)
class SurveyOptions:
    """Options for the prime-survey engine."""

    strict: bool = False  # fail fast on a required per-record check
    with_lattice_checks: bool = False  # cross-validate b_p via the SNF path
    with_abhyankar: bool = True  # test whether the Abhyankar polynomial splits mod p
    jobs: int = 1
