"""qsheaf benchmark: seeded workloads through the public API, answers checked.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N      # every workload, both modes
    python3 bench/run.py --selftest                   # trace counts repeat exactly

One client, closed loop: each pass runs the workload's tasks one after
another in a fresh interpreter (`passrun.py`), and passes never overlap.
A run makes as many passes as `--seconds` holds at the workload's nominal
pass time, at least one, then a few repeat passes over the tasks near the
median, which `task_ms_p50` needs.  `--trace 0` prints the end-to-end metrics;
`--trace 1` makes one plain and one traced pass and prints the per-layer
metrics.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The run exits 1 if any
task's answer is wrong or the shipped corpus changed.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import tasks as task_lists

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = SRC / "qsheaf" / "corpus"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".bench_work"

# wall seconds of one pass on a 2-core Xeon VM at the baseline commit; a
# run makes seconds // NOMINAL passes, so the pass count (and with it the
# tail percentile's sample count) does not depend on the machine's speed
NOMINAL_PASS_S = {
    "corpus-check": 11.0,
    "corpus-reflect": 20.0,
    "appendix": 15.0,
    "fresh-sites": 16.0,
}
# repeat passes per run over the middle band of tasks (see `middle_band`):
# a task of tens of ms, timed once, moves by a third when the shared host
# preempts it, so where the central fifth holds few tasks they are timed
# again in fresh interpreters; fewer repeats where the band costs seconds.
# corpus-check needs none: its central fifth is 24 tasks spread over the
# whole pass, while its short repeat passes each caught the host in one
# brief fast or slow spell and made the figure noisier
REPEATS = {
    "corpus-check": 0,
    "corpus-reflect": 3,
    "appendix": 8,
    "fresh-sites": 2,
}
SETUP_PROBES = 11
PASS_TIMEOUT_S = 170


def tail(values):
    """(percentile, tail value, samples beyond) for task times.

    The percentile is the highest one with at least ten samples beyond it,
    100 * (n - 10) / n.  The tail value is the mean of those ten slowest
    samples rather than the single sample at the percentile: some tasks'
    times are bimodal from run to run, and an order statistic that lands
    on one flips by a third.  Below twenty samples the percentile would
    sit under the median, so the maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1], 0
    return 100 * (n - 10) / n, statistics.fmean(ordered[n - 10:]), 10


def central(values):
    """The median, estimated as the mean of the central fifth of the values.

    A workload's tasks differ in kind, so neighbouring order statistics
    can be far apart; averaging the 40th to 60th percentile keeps two
    neighbours trading places from moving the figure.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = int(0.4 * n)
    return statistics.fmean(ordered[lo:max(lo + 1, math.ceil(0.6 * n))])


def middle_band(task_s):
    """Indices of the tasks ranked from the 30th to the 70th percentile.

    `central` averages the 40th to 60th percentile; the wider band leaves
    room for tasks to trade ranks once they are timed again.
    """
    n = len(task_s)
    ranked = sorted(range(n), key=task_s.__getitem__)
    return sorted(ranked[int(0.3 * n):max(int(0.3 * n) + 1, math.ceil(0.7 * n))])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def corpus_hashes():
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(CORPUS.glob("*.json"))
    }


def machine(seed):
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for p in sorted((SRC / "qsheaf").rglob("*.py")):
        source.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        commit = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def child_env(seed, work):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # bytecode is cached, as for an installed package, but inside the run's
    # work directory: the first setup probe compiles, later launches reuse it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    # hash order fixed per seed, re-drawn by a new one
    env["PYTHONHASHSEED"] = str(int(hashlib.sha256(str(seed).encode()).hexdigest(), 16) % (1 << 32))
    return env


def measure_setup(env):
    """Median seconds from interpreter launch to `import qsheaf.cli` done."""
    probe = "import qsheaf.cli, time; print(repr(time.monotonic()))"
    samples = []
    for i in range(SETUP_PROBES + 1):  # the first launch fills the bytecode cache
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        if i:
            samples.append(float(out.stdout) - start)
    return statistics.median(samples)


def run_pass(tasks, work, env, traced, index):
    plan = work / f"plan{index}.json"
    result = work / f"result{index}.json"
    plan.write_text(json.dumps({
        "tasks": tasks, "trace": traced, "corpus": str(CORPUS), "golden": str(GOLDEN),
    }), encoding="utf-8")
    subprocess.run([sys.executable, str(BENCH / "passrun.py"), str(plan), str(result)],
                   env=env, check=True, timeout=PASS_TIMEOUT_S)
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(workload, seed, seconds, traced):
    """One run: returns (result line dict, detail dict)."""
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        before = corpus_hashes()
        tasks = task_lists.build(workload, seed, work, CORPUS)
        env = child_env(seed, work)
        detail = {"workload": workload, "machine": machine(seed), "tasks_per_pass": len(tasks)}
        if traced:
            passes = [run_pass(tasks, work, env, False, 0), run_pass(tasks, work, env, True, 1)]
            band, repeats = [], []
        else:
            setup_s = measure_setup(env)
            count = max(1, int(seconds // NOMINAL_PASS_S[workload]))
            passes = [run_pass(tasks, work, env, False, i) for i in range(count)]
            band = middle_band(passes[0]["task_s"]) if REPEATS[workload] else []
            repeats = [run_pass([tasks[i] for i in band], work, env, False, count + r)
                       for r in range(REPEATS[workload])]
        changed = sorted(k for k, v in corpus_hashes().items() if before.get(k) != v)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    wrong = [w for p in passes + repeats for w in p["wrong"]]
    if changed:
        wrong.append({"id": "corpus-guard", "why": f"corpus files changed: {changed}"})
    attempted = len(tasks) * len(passes) + len(band) * len(repeats)
    detail["wrong"] = wrong
    detail["failed_frac"] = len(wrong) / attempted
    if traced:
        metrics = layertrace.layer_metrics(passes[1]["trace"], SRC)
        metrics["trace.overhead_frac"] = (passes[1]["pass_s"] / passes[0]["pass_s"] - 1, "ratio")
    else:
        pass_s = [p["pass_s"] for p in passes]
        task_ms = [s * 1000 for p in passes for s in p["task_s"]]
        # each task's median time over every pass that ran it
        samples = [[p["task_s"][i] * 1000 for p in passes] for i in range(len(tasks))]
        for r in repeats:
            for i, s in zip(band, r["task_s"]):
                samples[i].append(s * 1000)
        pct, tail_ms, beyond = tail(task_ms)
        detail.update(passes=len(passes), pass_s_quartiles=quartiles(pass_s),
                      repeat_passes=len(repeats), repeated_tasks=len(band),
                      tail_percentile=pct, tail_samples=len(task_ms), tail_beyond=beyond)
        metrics = {
            "pass_s": (statistics.median(pass_s), "s"),
            "task_ms_p50": (central([statistics.median(s) for s in samples]), "ms"),
            "task_ms_tail": (tail_ms, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
    line = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return line, detail


def print_run(line, detail):
    print(f"# {detail['workload']}: {line['attempted']} tasks, {line['failed']} wrong"
          f" (failed_frac {detail['failed_frac']:.4f})")
    for w in detail["wrong"]:
        print(f"#   WRONG {w['id']}: {w['why']}")
    for name, m in line["metrics"].items():
        print(f"{detail['workload']} {name} {m['value']:.6g} {m['unit']}")
    print("detail " + json.dumps(detail, sort_keys=True))


def run_all(seed, seconds):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for traced in (False, True):
        for workload in task_lists.WORKLOADS:
            line, detail = run_workload(workload, seed, seconds, traced)
            print_run(line, detail)
            total["correct"] &= line["correct"]
            total["attempted"] += line["attempted"]
            total["failed"] += line["failed"]
            for name, m in line["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = m
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*task_lists.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "qsheaf" / "cli.py").is_file():
        print(f"qsheaf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.selftest:
        import selftest

        return selftest.main(args.seed)
    if not args.workload:
        parser.error("--workload is required")
    if args.workload == "all":
        line = run_all(args.seed, args.seconds)
    else:
        line, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_run(line, detail)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
