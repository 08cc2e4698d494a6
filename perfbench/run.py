"""Benchmark for the `collate` CLI: time per command, end to end.

    python3 perfbench/run.py --workload pipeline-10k --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Each operation is one `collate` command in a fresh interpreter, run
one at a time as a user runs them, with BLAS pinned to one thread:

- set-up: `gen-data` five times; `setup_s` is the median;
- one round: `train-tsadm`, `score-llm`, `train-collab`, `detect`, `eval`,
  then the workload's `rest`: `ablate`, `verify` and repeats of the shorter
  commands. Rounds repeat until `--seconds` have passed, and every round is
  completed. Each `<command>_s` metric is the median over all runs of that
  command.

Host speed: on a shared host the same command's wall time drifts by a
third over minutes, and whole runs drift together. So the process and its
commands are pinned to one CPU, and a fixed reference job (reference.py,
which calls no `collate` code) is timed right before and right after every
command. Each end-to-end time is reported in reference seconds: wall
seconds x REFERENCE_S / (mean of the two reference timings), i.e. the time
the command would take on a host where the reference job takes REFERENCE_S.
A change to the program moves these times exactly as it moves wall time; a
change of host speed that both see cancels. The run record keeps the wall
seconds and every reference timing.

After each round every command's outputs are checked (see checks.py), and
the output fingerprints of every round must equal those of the first. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it is a record of the
run (every timing, fingerprints, F1, theory pass flags, environment), also
appended to `.perfbench_runs/results.jsonl`. With `--trace 1` every command
of a round, `gen-data` included, runs once under tracer.py, and the metrics
are the per-layer counts of one round and self times (median over rounds).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# `rest`: what a round runs after the five pipeline commands. Every command
# of a round is timed once per round, so repeats give a command more samples
# spread over the run.
WORKLOADS = {
    # the everyday reproduction run: fixed per-step and start-up costs dominate
    "pipeline-10k": {"length": 10_000, "contextual": 10, "point": 10,
                     "rest": ("ablate", "score-llm", "detect", "eval",
                              "verify", "score-llm", "detect", "eval")},
    # twice the slots, same anomaly share: costs that grow faster than the
    # input (best-F1 scan, fixture re-reads) show here. A run fits one round,
    # so `train-tsadm`, `ablate` and `verify` run twice in it.
    "pipeline-20k": {"length": 20_000, "contextual": 20, "point": 20,
                     "rest": ("ablate", "score-llm", "detect", "verify", "train-tsadm",
                              "ablate", "score-llm", "detect", "verify")},
}
SETUP_REPEATS = 5
ROUND_COMMANDS = ("train-tsadm", "score-llm", "train-collab", "detect", "eval", "ablate", "verify")
PIPELINE_COMMANDS = ROUND_COMMANDS[:5]
# `verify` exits 1 by design while theorem2's unit-box reading fails; it
# counts as done when its reports pass their check.
ACCEPTED_EXIT = {"verify": (0, 1)}
# `ablate` and `verify` build their own inputs from the seed alone. They run
# at the CLI's default seed in every run: across seeds 0-7, theorem2's
# brute force alone takes 126k to 292k descent steps, which would swamp a
# timing change. The workload seed varies the pipeline's data.
FIXED_SEED = {"ablate": 0, "verify": 0}

PER_LAYER = [
    "tsadm.TsadmModel.loss_and_grads.calls", "tsadm.TsadmModel.loss_and_grads.s",
    "tsadm.TsadmModel.score.calls", "tsadm.TsadmModel.score.s",
    "optim.Adam.step.calls", "optim.Adam.step.s",
    "collab.train_collab.s",
    "collab.ConditionalNetParams.forward.calls", "collab.ConditionalNetParams.forward.s",
    "collab.ConditionalNetParams.backward.s",
    "alignment.MonotoneMapping.forward.s", "alignment.MonotoneMapping.backward.s",
    "alignment.alignment_loss_grad.s", "alignment.kl_histogram.s",
    "core.patch_weights.s", "core.PatchWeights.calls",
    "collab.collaborative_loss_grad.calls", "collab.collaborative_loss_grad.s",
    "collab.detect.s", "collab.FusionPipeline.load.s",
    "llm.load_fixture.calls", "llm.load_fixture.s", "llm.load_fixture.bytes",
    "llm.build_prompt.s", "llm.request_scores.calls",
    "data.load_csv.calls", "data.load_csv.s",
    "data.save_csv.s", "data.gen_mackey_glass.s", "benchmark.build_benchmark.s",
    "evaluate.best_f1_threshold.s", "evaluate.prf1.calls", "evaluate.prf1.s",
    "evaluate.score_overlay_svg.s", "evaluate.emit_report.s",
    "theory.check_theorem1.s", "theory.check_theorem2.s",
    "theory.brute_force_optimal.calls", "theory.brute_force_optimal.s",
    "theory.check_lemma1.s", "theory.lipschitz_report.s",
    "theory.check_alignment_equivalence.s",
    "cli.write_manifest.s", "cli.startup.s",
    # not named in the layer map, but among the largest self times of a round
    "core.sigmoid.calls", "core.sigmoid.s", "tsadm.TsadmModel.forward.s",
]
UNITS = {"calls": "count", "s": "s", "bytes": "B"}
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# nominal time of the reference job, about its median on the 2-core host
# the reference figures in README.md come from
REFERENCE_S = 0.21


def reference(env: dict) -> float:
    """Wall seconds of one run of reference.py in a fresh interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "reference.py")], env=env, check=True)
    return time.perf_counter() - t0


class Runner:
    """Spawns one `collate` command at a time and records its wall time and
    (untraced) its time in reference seconds."""

    def __init__(self, work: Path, seed: int, trace: bool):
        self.work, self.seed, self.trace = work, seed, trace
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.traces: list[dict] = []
        # command, wall s, reference s before it, reference s after it
        self.wall: list[tuple[str, float, float, float]] = []
        self.last_reference: float | None = None  # taken right after the last command

    def run(self, command: str, out: Path, *args: str, cwd: Path | None = None) -> float | None:
        """Run one command; return its time in reference seconds (wall
        seconds when tracing), or None if it failed."""
        self.attempted += 1
        seed = FIXED_SEED.get(command, self.seed)
        argv = ["--seed", str(seed), "--out", str(out), command, *args]
        trace_file = out.parent / f"{out.name}.trace.json"
        if self.trace:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_file), *argv]
        else:
            argv = [sys.executable, "-m", "collate.cli", *argv]
        before = None if self.trace else self.last_reference or reference(self.env)
        spawned = time.time()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=cwd or self.work, env=self.env,
                              capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        if not self.trace:
            self.last_reference = reference(self.env)
            self.wall.append((command, elapsed, before, self.last_reference))
            elapsed *= 2.0 * REFERENCE_S / (before + self.last_reference)
        if proc.returncode not in ACCEPTED_EXIT.get(command, (0,)):
            self.fail(f"{command} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return None
        if self.trace:
            trace = json.loads(trace_file.read_text())
            trace["startup"] = trace["import_done"] - spawned
            self.traces.append(trace)
        return elapsed

    def pause(self) -> None:
        """Mark that other work ran since the last command, so the next
        command takes a fresh reference timing before it starts."""
        self.last_reference = None

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def checked(self, what: str, check, *args) -> tuple[bool, object]:
        """Run an output check; a failed check fails its operation."""
        self.pause()
        try:
            return True, check(*args)
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            self.fail(f"{what}: {exc}")
            return False, None


def gen_data(runner: Runner, workload: dict, out: Path) -> float | None:
    t = runner.run("gen-data", out, "--length", str(workload["length"]),
                   "--contextual", str(workload["contextual"]), "--point", str(workload["point"]))
    if t is not None and not runner.checked("gen-data", checks.check_gen_data, out,
                                            workload["contextual"], workload["point"])[0]:
        return None
    return t


def one_round(runner: Runner, data: Path, out: Path, length: int, rest: tuple,
              first: bool) -> dict:
    """The five pipeline commands, then `rest`, then the output checks.
    Returns the times of every run per command (None where one failed) and
    the round's findings."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    csv_path = str(data / "data.csv")
    llm = str(out / "llm" / "llm_scores.jsonl")
    commands = {
        "train-tsadm": (out / "tsadm", "--data", csv_path),
        "score-llm": (out / "llm", "--data", csv_path),
        "train-collab": (out / "collab", "--data", csv_path,
                         "--tsadm", str(out / "tsadm" / "tsadm.json"), "--llm-scores", llm),
        "detect": (out / "detect", "--data", csv_path,
                   "--pipeline", str(out / "collab" / "pipeline.json"), "--llm-scores", llm),
        "eval": (out / "eval", "--data", csv_path,
                 "--collated", str(out / "detect" / "collated.csv"),
                 "--metadata", str(data / "metadata.json")),
        "ablate": (out / "ablate",),
        "verify": (out / "verify",),
    }
    times: dict[str, list | None] = {command: [] for command in ROUND_COMMANDS}
    runner.pause()
    for command in (*PIPELINE_COMMANDS, *rest):
        # mock scoring resolves its fixture against the working directory
        cwd = data if command == "score-llm" else None
        t = runner.run(command, *commands[command], cwd=cwd)
        if times[command] is not None:
            times[command] = None if t is None else times[command] + [t]

    found = {}
    step_checks = {
        "train-tsadm": (checks.check_train_tsadm, data, out / "tsadm"),
        "score-llm": (checks.check_score_llm, data, out / "llm"),
        "train-collab": (checks.check_train_collab, out / "collab"),
        "detect": (checks.check_detect, out / "detect", length),
        "eval": (checks.check_eval, data, out / "detect", out / "eval"),
        "ablate": (checks.check_ablate, out / "ablate"),
        "verify": (checks.check_verify, out / "verify"),
    }
    for command, (check, *args) in step_checks.items():
        if times[command] is None:
            continue
        ok, found[command] = runner.checked(command, check, *args)
        if ok and command == "verify" and first:
            ok, _ = runner.checked(command, checks.check_brute_force, runner.seed)
        if not ok:
            times[command] = None
    if all(t is not None for t in times.values()):
        found["fingerprints"] = checks.fingerprints(out)
    return {"times": times, "found": found}


def environment() -> dict:
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        git = proc.stdout.strip() or None
    return {
        "git_sha": git,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_ENV,
    }


def end_to_end(setup: list[float], rounds: list[dict]) -> dict:
    """Median reference seconds per command over every run of it; `pipeline_s`
    is the sum of the five pipeline commands' medians."""
    metrics = {"setup_s": median(setup)}
    for command in ROUND_COMMANDS:
        samples = [t for r in rounds for t in r["times"][command]]
        metrics[command.replace("-", "_") + "_s"] = median(samples)
    metrics["pipeline_s"] = sum(metrics[c.replace("-", "_") + "_s"] for c in PIPELINE_COMMANDS)
    # the reference job's peak (about 34 MB) is far below any command's
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = peak_kb / 1024.0
    units = {"peak_rss_mb": "MB"}
    return {k: {"value": v, "unit": units.get(k, "s")} for k, v in metrics.items()}


def per_layer(round_traces: list[list[dict]]) -> dict:
    """Counts of one round (they repeat exactly) and median self times."""
    field_at = {"calls": 0, "s": 1, "bytes": 2}
    totals = []
    for traces in round_traces:
        acc: dict[str, list] = {}
        for trace in traces:
            for name, stat in trace["stats"].items():
                slot = acc.setdefault(name, [0, 0.0, 0])
                for i in range(3):
                    slot[i] += stat[i]
        acc["cli.startup"] = [len(traces), sum(t["startup"] for t in traces), 0]
        totals.append(acc)
    metrics = {}
    for metric in PER_LAYER:
        name, field = metric.rsplit(".", 1)
        values = [acc.get(name, [0, 0.0, 0])[field_at[field]] for acc in totals]
        value = median(values) if field == "s" else values[0]
        metrics[metric] = {"value": value, "unit": UNITS[field]}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "collate" / "cli.py").is_file():
        print(f"error: no collate sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the checks that use collate itself
    # one CPU for this process and every command it starts, so that each
    # reference timing measures the CPU its command runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workload = WORKLOADS[args.workload]
    base = ROOT / ".perfbench_runs"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, args.seed, bool(args.trace))

    setup = []
    data = work / "data"
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(data, ignore_errors=True)
            t = gen_data(runner, workload, data)
            if t is not None:
                setup.append(t)

    rounds, round_traces = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        runner.traces = []
        if args.trace:
            shutil.rmtree(data, ignore_errors=True)
            gen_data(runner, workload, data)
        rest = ("ablate", "verify") if args.trace else workload["rest"]
        rounds.append(one_round(runner, data, work / "round", workload["length"], rest,
                                not rounds))
        round_traces.append(runner.traces)

    prints = [r["found"].get("fingerprints") for r in rounds]
    if None not in prints and any(p != prints[0] for p in prints):
        runner.problems.append("outputs differ between rounds of identical inputs")
    correct = not runner.problems

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds),
        "command_s": [r["times"] for r in rounds],
        "setup_s": setup,
        "wall_and_reference_s": runner.wall,
        "eval_f1": rounds[0]["found"].get("eval"),
        "ablate_f1": rounds[0]["found"].get("ablate"),
        "verify_pass": rounds[0]["found"].get("verify"),
        "fingerprints": prints[0],
        "environment": environment(),
        "problems": runner.problems,
    }
    with (base / "results.jsonl").open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    shutil.rmtree(work, ignore_errors=True)

    if correct:
        metrics = per_layer(round_traces) if args.trace else end_to_end(setup, rounds)
    else:
        metrics = {}
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
