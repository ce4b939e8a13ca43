"""Workload definitions: one capture, one pipeline and one encoding each.

Each workload is described once, as the flags the `eccrng` CLI takes.  The
in-process job (jobs.py) and the reference pipeline (oracle.py) read the
same description, so the three paths cannot drift apart.  Why each workload
was chosen is said once, in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    source: tuple[str, ...]              # generate flags choosing the source
    bits: int                            # capture length
    encoding: str                        # "packed" or "ascii", input and output
    stages: tuple[tuple[str, str], ...]  # (kind, value) in pipeline order
    battery_bits: int | None = None      # test only this prefix of the output (None: all of it)

    def source_kind(self) -> tuple[str, str]:
        flag, value = self.source
        return flag.lstrip("-"), value

    def stage_flags(self) -> list[str]:
        flags: list[str] = []
        for kind, value in self.stages:
            flags += [f"--{kind}"] + ([value] if value else [])
        return flags

    def label(self) -> str:
        return " -> ".join(f"{k}({v})" if v else k for k, v in self.stages)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "default-lfsr",
            ("--preset", "data-b"),
            4_000_000,
            "packed",
            (("lfsr", "3,1,0"), ("ecc", "31,16,3")),
        ),
        # The von Neumann yield makes the output length depend on the seed
        # (about 2,299,000 +- 1,500 bits), and the spectral test's FFT costs
        # 0.1 s or 1 s depending on how that length factors, which would
        # make runs on different seeds incomparable.  The battery therefore
        # reads a fixed prefix.  2,280,011 is prime, so the FFT always takes
        # the slow path, as about half of the seeds' full outputs do, and a
        # spectral-test speed-up shows here.
        Workload(
            "rejection-wide",
            ("--markov", "0.36,0.2"),
            16_000_000,
            "packed",
            (("rejection", ""), ("ecc", "127,99,4")),
            battery_bits=2_280_011,
        ),
        Workload(
            "ascii-cli",
            ("--preset", "data-a"),
            2_000_000,
            "ascii",
            (("ecc", "7,4,1"),),
        ),
    )
}

# Defaults of the CLI flags the workloads leave unset; the in-process job
# and the oracle must use the same values.
LFSR_SEED = 1
PRESET_CALIBRATION_TOL = 1e-12
