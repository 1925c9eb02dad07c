"""Job kinds, seeded job streams and output checks for the gfenum benchmark.

A job is a tuple whose first field names its kind.  Library jobs call
gfenum's public functions in this process; CLI jobs run ``python -m
gfenum.cli`` as a child process.  Every job's output is reduced to a
canonical value whose digest must match the one recorded in
``digests.json``; a missing digest counts as a mismatch, so the check
fails closed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

# Size grids the seeded generators draw from; digests.json holds one entry
# per point.  Each range is the one a cold kernel finishes in about a
# second or less at the recorded baseline.
DEEP_GRIDS = {
    "beta_table": list(range(80, 121)),
    "p_from_b": list(range(80, 121)),
    "euler_pair": list(range(160, 321, 4)),
    "mzv_counts": list(range(60, 101)),
    "series_constant": list(range(8000, 20001, 300)),
}
# A deep round draws every kind once from each of DEEP_STRATA equal slices
# of its grid, in seeded order.  Every round then holds the same spread of
# sizes whatever the seed, and runs are made of whole rounds, so neither
# the seed nor the machine's speed changes the mix a run measures.
DEEP_STRATA = 16

SWEEP_TOP = 60
SWEEP_REVISITS = 3
SWEEP_KINDS = ("beta_row", "p_from_b", "primitive_counts", "mzv_counts")
SWEEP_FIRST = {"beta_row": 0, "p_from_b": 1, "primitive_counts": 1, "mzv_counts": 3}

CLI_COMMANDS = {
    "verify": ["verify"],
    "beta": ["beta"],
    "primitives": ["primitives"],
    "knots": ["knots"],
    "framed": ["framed"],
    "mzv": ["mzv"],
    "mzv-euler-sums": ["mzv", "--euler-sums"],
    "asymptote": ["asymptote"],
    "verify-mutated": ["verify"],
}
CLI_FORMATS = ("tsv", "json")
JOB_TIMEOUT_S = 60


class SourceMissing(RuntimeError):
    """The checkout holds no gfenum sources to benchmark."""


def require_source() -> None:
    """Make ``import gfenum`` load the checkout's own sources, or raise."""
    if not (SRC / "gfenum" / "__init__.py").is_file():
        raise SourceMissing(f"no gfenum package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gfenum

    if SRC.resolve() not in Path(gfenum.__file__).resolve().parents:
        raise SourceMissing(f"gfenum was imported from {gfenum.__file__}, not {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("GFENUM_DATA", None)
    return env


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:20]


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def job_key(job: tuple) -> str:
    return ":".join(str(field) for field in job)


# --- library jobs -----------------------------------------------------------


def _mzv_table(counts) -> tuple:
    return tuple(sorted(counts.mzv.items())), tuple(sorted(counts.euler.items()))


def call_library(job: tuple):
    """Run one library job; return (seconds, canonical output)."""
    import gfenum

    kind, size = job
    start = time.perf_counter()
    if kind == "beta_table":
        table = gfenum.beta_table(size)
        elapsed = time.perf_counter() - start
        return elapsed, tuple(sorted(table.entries.items()))
    if kind == "beta_row":
        table = gfenum.beta_table(size)
        row = tuple(table.get(size, u) for u in range(0, size + 1, 2))
        return time.perf_counter() - start, row
    if kind == "p_from_b":
        series = gfenum.p_from_b(size)
        return time.perf_counter() - start, series.coeffs
    if kind == "primitive_counts":
        counts = gfenum.primitive_counts(size)
        return time.perf_counter() - start, tuple(counts)
    if kind == "euler_pair":
        exponents = {m + 1: p for m, p in enumerate(gfenum.primitive_counts(size))}
        knots = gfenum.euler_expand(exponents, 2, size)
        framed = gfenum.euler_expand(exponents, 1, size)
        return time.perf_counter() - start, (knots.coeffs, framed.coeffs)
    if kind == "mzv_counts":
        counts = gfenum.mzv_counts(size)
        elapsed = time.perf_counter() - start
        return elapsed, _mzv_table(counts)
    if kind == "series_constant":
        constant = gfenum.growth_constant_from_series(terms=size)
        return time.perf_counter() - start, constant
    raise ValueError(f"unknown library job kind {kind!r}")


# --- CLI jobs ---------------------------------------------------------------


REFERENCE = SRC / "gfenum" / "data" / "reference.tsv"


def reference_claims() -> list[str]:
    """The id of every claim in the packaged reference file."""
    lines = REFERENCE.read_text(encoding="utf-8").splitlines()
    return [line.split("\t")[0] for line in lines if line.strip() and not line.startswith("#")]


def mutate_claim(line: str) -> str:
    """The same claim with its expected value changed so it must fail."""
    claim_id, location, kind, payload = line.split("\t")
    if kind == "sequence":
        values = payload.split(",")
        values[-1] = str(int(values[-1]) + 1)
        payload = ",".join(values)
    elif kind == "decimal_constant":
        value, tolerance = payload.split(",")
        payload = f"{float(value) + 1.0!r},{tolerance}"
    else:
        payload = str(int(payload) + 1)
    return "\t".join((claim_id, location, kind, payload))


def write_mutated_reference(claim_id: str, workdir: Path) -> Path:
    lines = REFERENCE.read_text(encoding="utf-8").splitlines()
    out = [mutate_claim(line) if line.split("\t")[0] == claim_id else line for line in lines]
    target = workdir / "reference-mutated.tsv"
    target.write_text("\n".join(out) + "\n", encoding="utf-8")
    return target


def cli_argv(job: tuple, workdir: Path) -> list[str]:
    _, name, fmt = job[:3]
    argv = list(CLI_COMMANDS[name]) + ["--format", fmt]
    if name == "verify-mutated":
        argv += ["--data", str(write_mutated_reference(job[3], workdir))]
    return argv


def _failing_claims(stdout: str, fmt: str) -> list[str]:
    if fmt == "json":
        rows = json.loads(stdout)["rows"]
    else:
        rows = [line.split("\t") for line in stdout.splitlines()[1:]]
    return [row[0] for row in rows if row[1] == "fail"]


def check_cli(job: tuple, code: int, stdout: str, stderr: str, digests: dict) -> str | None:
    """None when the output is right, else a one-line reason."""
    name, fmt = job[1], job[2]
    if name == "verify-mutated":
        if code != 1:
            return f"exit code {code}, expected 1"
        failing = _failing_claims(stdout, fmt)
        if failing != [job[3]]:
            return f"failing claims {failing}, expected [{job[3]}]"
        if not stderr.rstrip().endswith(", 1 failed"):
            return "summary does not report exactly one failure"
    elif code != 0:
        return f"exit code {code}, expected 0"
    if digests.get(job_key(job)) != digest(stdout):
        return "output digest mismatch"
    return None


def run_cli(job: tuple, workdir: Path, prefix: list[str]) -> tuple[float, int, str, str]:
    """Run one CLI job to completion; return (seconds, exit code, stdout, stderr)."""
    argv = cli_argv(job, workdir)
    start = time.perf_counter()
    proc = subprocess.run(
        prefix + argv,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=JOB_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    return elapsed, proc.returncode, proc.stdout, proc.stderr


UNTRACED_CLI = [sys.executable, "-m", "gfenum.cli"]


# --- seeded job streams -------------------------------------------------------


def deep_rounds(seed: int):
    """Endless rounds of deep jobs: every kind once per slice of its grid."""
    rng = random.Random(f"deep:{seed}")
    while True:
        round_jobs = []
        for kind, grid in DEEP_GRIDS.items():
            width = len(grid) / DEEP_STRATA
            for i in range(DEEP_STRATA):
                part = grid[round(i * width): round((i + 1) * width)]
                round_jobs.append((kind, rng.choice(part)))
        rng.shuffle(round_jobs)
        yield round_jobs


def sweep_rounds(seed: int):
    """Endless sweep passes; each walks sizes upward with seeded revisits."""
    rng = random.Random(f"sweep:{seed}")
    while True:
        batch = []
        for size in range(SWEEP_TOP + 1):
            fresh = [(kind, size) for kind in SWEEP_KINDS if size >= SWEEP_FIRST[kind]]
            rng.shuffle(fresh)
            batch += fresh
            for _ in range(SWEEP_REVISITS):
                kind = rng.choice(SWEEP_KINDS)
                if size > SWEEP_FIRST[kind]:
                    batch.append((kind, rng.randrange(SWEEP_FIRST[kind], size)))
        yield batch


def cli_rounds(seed: int):
    """Endless rounds running every subcommand once, in seeded order and format."""
    rng = random.Random(f"cli:{seed}")
    claim_ids = reference_claims()
    while True:
        batch = []
        for name in CLI_COMMANDS:
            job = ("cli", name, rng.choice(CLI_FORMATS))
            if name == "verify-mutated":
                job += (rng.choice(claim_ids),)
            batch.append(job)
        rng.shuffle(batch)
        yield batch


ROUNDS = {"cli": cli_rounds, "deep": deep_rounds, "sweep": sweep_rounds}


def all_jobs() -> list[tuple]:
    """Every job the seeded generators can draw: the digests.json key set."""
    out = [(kind, size) for kind, grid in DEEP_GRIDS.items() for size in grid]
    for kind in SWEEP_KINDS:
        for size in range(SWEEP_FIRST[kind], SWEEP_TOP + 1):
            if (kind, size) not in out:
                out.append((kind, size))
    for name in CLI_COMMANDS:
        for fmt in CLI_FORMATS:
            if name == "verify-mutated":
                out += [("cli", name, fmt, claim_id) for claim_id in reference_claims()]
            else:
                out.append(("cli", name, fmt))
    return out
