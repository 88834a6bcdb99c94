#!/usr/bin/env python3
"""Benchmark of the bosonsim CLI as a user runs it.

    python3 perfbench/run.py --workload boson_dist --seed 1 --seconds 54 --trace 0

One closed-loop client runs one ``python -m bosonsim.cli`` subprocess at a
time (``src`` on PYTHONPATH, ``BOSONSIM_THREADS`` removed, no ``--threads``,
``--perm-guard`` or ``--cap``).  Each pass runs a no-op call (the set-up
probe) and then each of the workload's commands once; passes repeat for
``--seconds`` and the report gives medians over them.  Every output is
checked against the benchmark's own reference outside the timed region.
Metric names and units are the ones BENCHMARK.json declares.

Shared hosts change speed by up to 2x within minutes, which no median over
a run of this length removes.  So every call is bracketed by a fixed
pure-Python calibration loop run in this process, and its wall time is
reported scaled to a host on which that loop takes CAL_NOMINAL_S
(``at_nominal_speed``).  The loop is the benchmark's own code, so no change
to bosonsim moves it.  Unscaled medians are kept in the result file.

With ``--trace 1`` one subprocess pass runs, then the same commands run
in-process through ``bosonsim.cli.main(argv)`` in pairs of passes, one
untraced and one with spans around every public bosonsim function (see
tracing.py); the per-layer metrics come from those spans.  ``--workload all`` runs every workload and prints them all.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

import tracing
import workloads
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

#: a CLI call that does no numerical work: interpreter start plus imports
SETUP_ARGV = ["basis", "--d", "1", "--n", "0"]
SETUP_STDOUT = "|0⟩\n".encode()
SETUP_CALLS_TRACED = 3
#: the calibration loop: fixed pure-Python work, about 0.1 s on the reference
#: host (2 vCPU Xeon, Python 3.11); wall times are reported scaled to it
CAL_LOOPS = 1_000_000
CAL_NOMINAL_S = 0.1
#: inputs whose stdout digests are compared against the recorded ones
DIGEST_SEED = 0
CHILD_TIMEOUT_S = 150

# what each workload's two commands are, for the printed report
COMMAND_NAMES = {
    "boson_dist": ("distribution_s", "sample_s"),
    "fermion_dist": ("distribution_s", "distribution_csv_s"),
    "big_perm": ("permanent_s", "amplitude_s"),
}


@dataclass
class Call:
    """One CLI op: how it ended, what it printed, what it cost."""

    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float = 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BOSONSIM_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], workdir: Path, env: dict) -> Call:
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    cmd = [sys.executable, "-m", "bosonsim.cli", *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=workdir)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall,
                usage.ru_maxrss / 1024.0)


def import_program() -> None:
    """Import bosonsim from src, outside any timed call, as a child would see it."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("BOSONSIM_THREADS", None)
    import bosonsim.cli  # noqa: F401


def run_inprocess(argv: list[str]) -> Call:
    import bosonsim.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed op, not a crashed benchmark
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    return Call(code, out.getvalue().encode(), err.getvalue().encode(), wall)


def evaluate(op, call: Call) -> tuple[list[str], float]:
    """Why an op failed (exit code, stderr output, its output check), and its
    deviation from the reference."""
    if call.code != 0:
        return [f"exit code {call.code}: {call.stderr.decode(errors='replace')[-300:]}"], 0.0
    problems = [f"stderr: {call.stderr.decode(errors='replace')[:300]}"] if call.stderr else []
    try:
        errors, deviation = op.check(call.stdout.decode())
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return problems + [f"unreadable output: {exc!r}"], 0.0
    return problems + errors, deviation


class Ledger:
    """Counts attempted and failed ops and keeps the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{label}: {'; '.join(problems)}")


def setup_probe(workdir: Path, env: dict, ledger: Ledger) -> float:
    """Wall time of one CLI call that does no numerical work."""
    call = run_child(SETUP_ARGV, workdir, env)
    ok = call.code == 0 and not call.stderr and call.stdout == SETUP_STDOUT
    ledger.add("setup", [] if ok else [f"no-op call ended {call.code} {call.stderr!r}"])
    return call.wall_s


def timed_passes(run_pass, seconds: float) -> list:
    """Repeat run_pass while another one is expected to end within ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_pass())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop in this process: the host's speed now."""
    start = time.perf_counter()
    x = 0
    for i in range(CAL_LOOPS):
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - start


def subprocess_pass(wl: Workload, workdir: Path, env: dict, ledger: Ledger):
    """A no-op setup probe, then each of the workload's commands once, each
    call bracketed by calibration loops."""
    cals = [calibrate()]
    setup = setup_probe(workdir, env, ledger)
    cals.append(calibrate())
    calls = []
    for op in wl.ops:
        calls.append(run_child(op.argv, workdir, env))
        cals.append(calibrate())
    return setup, calls, cals


def check_passes(wl: Workload, passes: list[list[Call]], ledger: Ledger, label: str) -> None:
    """Check every op's output, and that repeated passes printed identical bytes."""
    for k, op in enumerate(wl.ops):
        first = hashlib.sha256(passes[0][k].stdout).hexdigest()
        for calls in passes:
            problems, _ = evaluate(op, calls[k])
            if hashlib.sha256(calls[k].stdout).hexdigest() != first:
                problems.append("stdout differs between passes of the same inputs")
            ledger.add(f"{label} {op.name}", problems)


def end_to_end(passes, scale) -> dict:
    """Medians over passes; ``scale(wall, before, after)`` maps a wall time."""
    med = statistics.median
    timed = [[scale(setup, cals[0], cals[1])]
             + [scale(c.wall_s, cals[k + 1], cals[k + 2]) for k, c in enumerate(calls)]
             for setup, calls, cals in passes]
    return {
        "setup_s": med(t[0] for t in timed),
        "workload_s": med(sum(t[1:]) for t in timed),
        "cmd1_s": med(t[1] for t in timed),
        "cmd2_s": med(t[2] for t in timed),
        "peak_rss_mb": med(max(c.rss_mb for c in calls) for _, calls, _ in passes),
    }


def at_nominal_speed(wall: float, cal_before: float, cal_after: float) -> float:
    """A wall time scaled to a host on which the calibration loop takes CAL_NOMINAL_S."""
    return wall * CAL_NOMINAL_S / ((cal_before + cal_after) / 2)


#: spans counted per op, by function name; any permanents.permanent_* is a
#: permanent kernel (Ryser today)
COUNTED = {"permanents.determinant": "det", "fock.enumerate_basis": "basis",
           "fermionic.enumerate_fermion_basis": "basis", "sampling.sample": "sample"}


def layer_counts(wl: Workload, first_op: int, summary: dict) -> dict:
    """Exact counts from one traced pass, and how many disagree with the inputs."""
    by_op = [{"perm": [], "det": [], "basis": [], "sample": []} for _ in wl.ops]
    for name, rec in summary["names"].items():
        kind = "perm" if name.startswith("permanents.permanent") else COUNTED.get(name)
        for span in rec["spans"] if kind else ():
            by_op[span[tracing.OP] - first_op][kind].append(span)
    perm_calls = gray = mult = dets = states = draws = mismatches = 0
    for op, spans in zip(wl.ops, by_op):
        perm = spans["perm"]
        op_states = sum(s[tracing.OUT_LEN] for s in spans["basis"])
        perm_calls += len(perm)
        gray += sum(2 ** s[tracing.ARG_N] - 1 for s in perm if s[tracing.ARG_N] > 0)
        mult += len(perm) * workloads.multiplicity_steps(op.perm_cols)
        dets += len(spans["det"])
        states += op_states
        draws += len(spans["sample"]) * op.draws
        mismatches += sum([len(perm) != op.perm_calls, len(spans["det"]) != op.det_calls,
                           op_states != op.basis_states,
                           any(s[tracing.ARG_N] != op.particles for s in perm)])
    return {
        "permanents.ryser_calls": perm_calls,
        "permanents.gray_steps": gray,
        "permanents.multiplicity_steps": mult,
        "permanents.useful_step_ratio": mult / gray if gray else 0.0,
        "permanents.determinant_calls": dets,
        "fock.basis_states": states,
        "sampling.draws": draws,
        "trace.count_mismatches": mismatches,
    }


def layer_times(summary: dict) -> dict:
    names = summary["names"]

    def busy(*keys):
        return sum(names[k]["s"] for k in keys if k in names)

    return {
        "permanents.ryser_s": busy(*(k for k in names if k.startswith("permanents.permanent"))),
        "permanents.determinant_s": busy("permanents.determinant"),
        "fock.enumerate_basis_s": busy("fock.enumerate_basis"),
        "fermionic.enumerate_basis_s": busy("fermionic.enumerate_fermion_basis"),
        "bosonic.output_distribution_s": busy("bosonic.output_distribution"),
        "bosonic.to_jsonable_s": busy("bosonic.distribution_to_jsonable",
                                      "bosonic.distribution_to_csv"),
        "formatting.render_s": summary["busy_s"]["formatting"],
        "sampling.sample_s": busy("sampling.sample"),
        "sampling.chi_square_s": busy("sampling.chi_square_gof"),
        "transforms.load_s": summary["busy_s"]["transforms"],
        "trace.total_s": summary["total_s"],
        **{f"{layer}.self_s": summary["self_s"][layer] for layer in tracing.LAYERS},
    }


def recorded_digests() -> dict:
    try:
        return json.loads(DIGESTS.read_text())["digests"]
    except (OSError, ValueError, KeyError):
        return {}


def digest_pass(name: str, workdir: Path) -> dict:
    """sha256 of each op's stdout on the DIGEST_SEED inputs, run in-process."""
    wl = workloads.build(name, DIGEST_SEED, workdir)
    return {op.name: hashlib.sha256(run_inprocess(op.argv).stdout).hexdigest() for op in wl.ops}


@contextmanager
def scratch_dir(name: str):
    """A work directory for inputs and child output, removed afterwards."""
    path = OUT / f"work-{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path)


def per_layer(wl: Workload, seed: int, seconds: float, workdir: Path, env: dict,
              ledger: Ledger) -> tuple[dict, int, dict]:
    start = time.perf_counter()
    setup = [setup_probe(workdir, env, ledger) for _ in range(SETUP_CALLS_TRACED - 1)]
    probe, sub_calls, _ = subprocess_pass(wl, workdir, env, ledger)
    setup.append(probe)
    import_program()

    tracer = tracing.Tracer()
    untraced, traced = [], []  # (calls, first op id)

    def pair():
        untraced.append([run_inprocess(op.argv) for op in wl.ops])
        first = len(traced) * len(wl.ops)
        tracer.install()
        try:
            calls = []
            for k, op in enumerate(wl.ops):
                tracer.op = first + k
                calls.append(run_inprocess(op.argv))
        finally:
            tracer.uninstall()
        traced.append((calls, first))

    timed_passes(pair, seconds - (time.perf_counter() - start))
    check_passes(wl, [sub_calls] + untraced + [c for c, _ in traced], ledger, "trace run")

    summaries = [tracing.summarize(tracer.spans, set(range(f, f + len(wl.ops))))
                 for _, f in traced]
    counts = [layer_counts(wl, f, s) for (_, f), s in zip(traced, summaries)]
    values = dict(counts[0])
    values["trace.count_mismatches"] += sum(c != counts[0] for c in counts[1:])
    # times from the traced pass with the median total, so its layer self
    # times still add up to the reported total
    by_total = sorted(range(len(summaries)), key=lambda i: summaries[i]["total_s"])
    pick = by_total[(len(by_total) - 1) // 2]
    values.update(layer_times(summaries[pick]))
    self_sum = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    if abs(self_sum - values["trace.total_s"]) > 1e-9 * values["trace.total_s"]:
        raise RuntimeError(f"layer self times add up to {self_sum}, not the traced total")
    untraced_total = statistics.median(sum(c.wall_s for c in calls) for calls in untraced)
    setup_s = statistics.median(setup)
    gray = values["permanents.gray_steps"]
    values["permanents.step_ns"] = values["permanents.ryser_s"] / gray * 1e9 if gray else 0.0
    values["permanents.max_rel_error"] = max(evaluate(op, c)[1]
                                             for op, c in zip(wl.ops, sub_calls))
    values["formatting.bytes_out"] = sum(len(c.stdout) for c in traced[pick][0])
    sub_wall = sum(c.wall_s for c in sub_calls)
    values["cli.overhead_s"] = sub_wall - len(wl.ops) * setup_s - values["trace.total_s"]
    values["trace.overhead_frac"] = values["trace.total_s"] / untraced_total - 1.0

    want = recorded_digests().get(wl.name, {})
    (workdir / "digest").mkdir()
    got = (digest_pass(wl.name, workdir / "digest") if seed != DIGEST_SEED else
           {op.name: hashlib.sha256(c.stdout).hexdigest() for op, c in zip(wl.ops, sub_calls)})
    values["cli.stdout_digest_changes"] = sum(want.get(k) != v for k, v in got.items())

    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{wl.name}-seed{seed}.json")
    detail = {"setup_s": setup, "subprocess_pass_s": sub_wall,
              "untraced_inprocess_s": untraced_total, "traced_passes": len(traced),
              "stdout_sha256": got}
    return values, len(traced), detail


def run_metadata() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    try:
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "bosonsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    with scratch_dir(name) as workdir:
        wl = workloads.build(name, seed, workdir)
        env = child_env()
        ledger = Ledger()
        if trace:
            values, samples, detail = per_layer(wl, seed, seconds, workdir, env, ledger)
        else:
            setup_probe(workdir, env, ledger)  # warm-up: file cache, bytecode
            passes = timed_passes(lambda: subprocess_pass(wl, workdir, env, ledger), seconds)
            check_passes(wl, [calls for _, calls, _ in passes], ledger, "subprocess")
            values, samples = end_to_end(passes, at_nominal_speed), len(passes)
            detail = {"raw_medians": end_to_end(passes, lambda wall, *_: wall),
                      "setup_s": [setup for setup, _, _ in passes],
                      "cmd_s": [[c.wall_s for c in calls] for _, calls, _ in passes],
                      "cal_s": [cals for _, _, cals in passes]}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        raise RuntimeError("metrics differ from those BENCHMARK.json declares: "
                           f"{sorted({m['name'] for m in declared} ^ set(values))}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commands": [[Path(a).name if a.startswith(str(workdir)) else a for a in op.argv]
                     for op in wl.ops],
        "grid": wl.grid, "meta": run_metadata(), "detail": detail, "samples": samples,
        "failures": ledger.reasons,
        "result": {"correct": ledger.failed == 0, "attempted": ledger.attempted,
                   "failed": ledger.failed, "metrics": metrics},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1))
    print_report(report)
    return report["result"]


def print_report(report: dict) -> None:
    name = report["workload"]
    print(f"# {name}  seed={report['seed']}  seconds={report['seconds']}  "
          f"trace={report['trace']}  grid={json.dumps(report['grid'])}")
    print(f"# meta {json.dumps(report['meta'])}")
    aliases = dict(zip(("cmd1_s", "cmd2_s"), COMMAND_NAMES[name]))
    res = report["result"]
    for key, m in res["metrics"].items():
        label = f"{key} ({aliases[key]})" if key in aliases else key
        print(f"#   {label:<34} {m['value']:>16.6g} {m['unit']:<6} n={report['samples']}")
    if "raw_medians" in report["detail"]:
        raw = report["detail"]["raw_medians"]
        print("# unscaled wall-time medians: "
              + "  ".join(f"{k}={v:.6g}" for k, v in raw.items() if k.endswith("_s")))
    print(f"# ops attempted={res['attempted']} failed={res['failed']}")
    for reason in report["failures"]:
        print(f"# FAILED {reason}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=54.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bosonsim" / "cli.py").is_file():
        print(f"perfbench: no bosonsim package under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
