"""Seeded input generators for the benchmark workloads.

Every file is a pure function of the seed, so two runs with one seed feed the
program byte-identical CSVs. Run as a script to write one workload's inputs:

    python3 perfbench/gen.py --workload cox-synth --seed 1 --out DIR

The program under test never sees the seed or the generator; it receives only
the CSV paths.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

# Files per workload; a workload's inputs are fixed by its name and the seed.
FILES = {"cox-synth": 32, "linear-large": 3}

COX_SUBJECT_SIZES = (100, 200, 400, 800)
COX_COLUMNS = ("id", "year", "age", "died", "surgery", "posttran", "t1")

LINEAR_ROWS = 200_000
LINEAR_COLUMNS = ("y", "x1", "x2", "x3", "x4")
# log10 of the target NF for x1. File k of n draws from the k-th of n equal
# slices of this range, so every seed spans it and run-to-run means agree.
LINEAR_LOG10_NF = (2.3, 3.7)
T_975 = 1.959964  # two-sided 5% critical value of t at ~10^5+ df


def cox_synth_csv(rng: np.random.Generator, n_subjects: int) -> str:
    """One last-observation CSV in the layout of the bundled stan30 extract.

    Covariates are at raw scale (age in years, two-digit calendar year) and
    fixed per subject; times are whole days so event times tie. About 40% of
    subjects carry two records. True effects are drawn near zero, so the
    weight-1 LR test ranges from significant to needing dozens of copies.
    """
    age = rng.integers(18, 71, n_subjects).astype(float)
    year = rng.integers(67, 75, n_subjects).astype(float)
    surgery = (rng.random(n_subjects) < 0.2).astype(float)
    posttran = (rng.random(n_subjects) < 0.5).astype(float)
    x = np.column_stack([age, posttran, surgery, year])
    beta = rng.normal(0.0, 0.02, 4) / x.std(axis=0).clip(min=1e-9)
    eta = (x - x.mean(axis=0)) @ beta
    event_time = np.ceil(rng.exponential(300.0, n_subjects) * np.exp(-eta))
    censor_time = rng.integers(30, 1500, n_subjects).astype(float)
    died = event_time <= censor_time
    t_last = np.maximum(np.where(died, event_time, censor_time), 2.0)
    two_records = rng.random(n_subjects) < 0.4
    t_first = np.floor(rng.random(n_subjects) * (t_last - 1.0)) + 1.0

    lines = [",".join(COX_COLUMNS)]
    for i in range(n_subjects):
        fixed = f"{int(year[i])},{int(age[i])}"
        rest = f"{int(surgery[i])},{int(posttran[i])}"
        if two_records[i]:
            lines.append(f"{i + 1},{fixed},0,{rest},{int(t_first[i])}")
        lines.append(f"{i + 1},{fixed},{int(died[i])},{rest},{int(t_last[i])}")
    return "\n".join(lines) + "\n"


def linear_large_csv(rng: np.random.Generator, log10_nf: tuple[float, float],
                     n_rows: int = LINEAR_ROWS) -> str:
    """A WLS input whose x1 effect puts the NF between 10^2 and 10^4.

    The noise is made orthogonal to the design, so least squares recovers the
    coefficients exactly and x1's weight-1 t-statistic is set by construction:
    with t_1 = 1.96/sqrt(NF) the Wald test at weight W has t ~ t_1*sqrt(W)
    and crosses the 5% point near the drawn NF.
    """
    x = rng.normal(0.0, 1.0, (n_rows, 4)) * np.array([1.0, 2.0, 0.5, 3.0])
    design = np.column_stack([np.ones(n_rows), x])
    noise = rng.normal(0.0, 1.0, n_rows)
    noise -= design @ np.linalg.lstsq(design, noise, rcond=None)[0]
    gram_inv = np.linalg.inv(design.T @ design)
    se_x1 = np.sqrt(noise @ noise / (n_rows - 5) * gram_inv[1, 1])
    target_nf = 10.0 ** rng.uniform(*log10_nf)
    coef = np.array([1.0, T_975 / np.sqrt(target_nf) * se_x1, 0.3, -0.2, 0.1])
    y = design @ coef + noise
    table = np.column_stack([y, x])
    body = "\n".join(",".join(f"{v:.17g}" for v in row) for row in table.tolist())
    return ",".join(LINEAR_COLUMNS) + "\n" + body + "\n"


def _cox_plan(rng: np.random.Generator, files: int) -> list[int]:
    sizes = [COX_SUBJECT_SIZES[i % len(COX_SUBJECT_SIZES)] for i in range(files)]
    return [sizes[i] for i in rng.permutation(files)]


def write_workload(workload: str, seed: int, out: Path) -> list[str]:
    """Write the inputs of ``workload`` under ``out``; return their paths."""
    if workload not in FILES:
        raise ValueError(f"no generator for workload {workload!r}")
    files = FILES[workload]
    rng = np.random.default_rng([seed, 0x6E66])
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    if workload == "cox-synth":
        for k, n_subjects in enumerate(_cox_plan(rng, files)):
            path = out / f"cox-{k:02d}-{n_subjects}.csv"
            path.write_text(cox_synth_csv(rng, n_subjects))
            paths.append(str(path))
    else:
        low, high = LINEAR_LOG10_NF
        edges = np.linspace(low, high, files + 1)
        for k in range(files):
            path = out / f"linear-{k:02d}.csv"
            path.write_text(linear_large_csv(rng, (edges[k], edges[k + 1])))
            paths.append(str(path))
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    paths = write_workload(args.workload, args.seed, args.out)
    print(json.dumps(paths))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
