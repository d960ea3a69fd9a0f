"""What each workload runs, and the checks on every output it produces.

A workload is a list of ``betahmm`` command lines over the inputs that
``gen.py`` wrote. The checks read only files and standard output, so they
apply unchanged to a child process and to an in-process traced call.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Op:
    name: str
    argv: list


@dataclass
class Outcome:
    attempted: int
    failed: int
    values: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def load_truth(work_dir: str) -> dict:
    with open(os.path.join(work_dir, "truth.json")) as fh:
        return json.load(fh)


def operations(workload: str, work_dir: str) -> list:
    """The user commands of one cycle, as arguments after ``betahmm``."""
    truth = load_truth(work_dir)
    if workload == "sweep":
        return [Op("sweep", [
            "benchmark", "--lengths", *(str(n) for n in truth["lengths"]),
            "--trials", str(truth["trials"]), "--seed", str(truth["sweep_seed"]),
            # one thread: threaded per-fit seconds measure contention, not the algorithm
            "--threads", "1", "--out-dir", os.path.join(work_dir, "sweep"),
        ])]
    tsv = os.path.join(work_dir, "counts.tsv")
    model = os.path.join(work_dir, "model.json")
    fit = ["fit", "--data", tsv, "--out", model, "--algo", "ftd",
           "--states", str(truth["num_states"])]
    if workload == "two-cell":
        fit += ["--granularity", "12"]
    return [Op("fit", fit), Op("eval", ["eval", "--model", model, "--data", tsv])]


def _matched_error(truth: dict, est: np.ndarray) -> tuple[float, np.ndarray]:
    """Hungarian-matched sum over cells and states of |p_true - p_est|.

    Returns the total and, for each true state, its matched estimated state.
    """
    from betahmm import solve_assignment

    p_true = np.asarray(truth["meth_probs"], dtype=np.float64)
    est = np.atleast_2d(np.asarray(est, dtype=np.float64))
    cost = np.abs(p_true[:, :, None] - est[:, None, :]).sum(axis=0)
    sigma, total = solve_assignment(cost)
    return float(total), np.asarray(sigma)


def _check_model(work_dir: str, truth: dict) -> tuple[dict, list]:
    from betahmm import load_model

    model = load_model(os.path.join(work_dir, "model.json"))
    problems = []
    col_sums = np.asarray(model.transition).sum(axis=0)
    if not np.allclose(col_sums, 1.0, rtol=0.0, atol=1e-9):
        problems.append(f"transition columns sum to {col_sums.tolist()}")
    total, sigma = _matched_error(truth, model.meth_probs)
    return {"ftd_err": total, "matched": sigma.tolist()}, problems


def _check_eval(stdout: str, work_dir: str, truth: dict) -> tuple[dict, list]:
    result = json.loads(stdout)
    ll = float(result["per_position"])
    problems = [] if math.isfinite(ll) else [f"held-out log-likelihood is {ll}"]
    values = {"heldout_ll": ll}
    if "divergent_state" in truth:
        target = _check_model(work_dir, truth)[0]["matched"][truth["divergent_state"]]
        flagged = result.get("differential_states")
        values["flagged"] = flagged
        if flagged != [target]:
            problems.append(f"flagged {flagged}, planted divergent state maps to {target}")
    return values, problems


def _check_sweep(work_dir: str, truth: dict, expected: int) -> Outcome:
    with open(os.path.join(work_dir, "sweep", "report.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = [r for r in rows if r["status"] != "ok"]
    failed = len(bad) + max(0, expected - len(rows))
    problems = [f"sweep: {r['algorithm']} length {r['length']} trial {r['trial']}: {r['status']}"
                for r in bad]
    if len(rows) != expected:
        problems.append(f"sweep: report.csv has {len(rows)} rows, expected {expected}")
    longest = str(max(truth["lengths"]))
    values = {}
    for algo in ("ftd", "em"):
        errs = [float(r["error"]) for r in rows
                if r["algorithm"] == algo and r["length"] == longest and r["status"] == "ok"]
        values[f"{algo}_err"] = float(np.mean(errs)) if errs else math.nan
    return Outcome(max(expected, len(rows)), failed, values, problems)


def check(workload: str, op: Op, returncode, stdout: str, work_dir: str) -> Outcome:
    """Check one operation's outputs; any failure counts the operation as failed."""
    from betahmm import BetaHmmError

    truth = load_truth(work_dir)
    attempted = len(truth["lengths"]) * truth["trials"] * 2 if workload == "sweep" else 1
    if returncode != 0:
        return Outcome(attempted, attempted, problems=[f"{op.name}: exit code {returncode}"])
    try:
        if workload == "sweep":
            return _check_sweep(work_dir, truth, attempted)
        if op.name == "fit":
            values, problems = _check_model(work_dir, truth)
        else:
            values, problems = _check_eval(stdout, work_dir, truth)
    except (OSError, ValueError, KeyError, BetaHmmError) as exc:
        return Outcome(attempted, attempted, problems=[f"{op.name}: unreadable output: {exc!r}"])
    return Outcome(1, 1 if problems else 0, values, [f"{op.name}: {p}" for p in problems])
