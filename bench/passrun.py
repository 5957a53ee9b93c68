"""One pass: run a workload's tasks in order in this fresh interpreter.

Usage: python3 passrun.py PLAN.json RESULT.json

The plan holds the task list, the corpus and golden directories, and
whether to trace.  Each task is timed on its own; the pass time is the
sum of the task times.  Answers are checked after the loop, with tracing
removed, so neither the checks nor their qsheaf calls are timed or counted.
"""

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

import answers
import libtasks
import layertrace
from qsheaf import cli


def run_task(task, corpus):
    """Returns (seconds, outcome) for one task.

    Garbage left by earlier tasks is collected first, outside the timed
    region, so each task starts from a clean heap as a fresh `qsheaf`
    process would, and pays only for the collections it triggers itself.
    Without this, a collection set off by a big task landed in whichever
    small task came next and moved it by half.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        if task["kind"] == "cli":
            with contextlib.redirect_stdout(io.StringIO()):
                outcome = {"exit": cli.main(task["argv"])}
        else:
            call = getattr(libtasks, task["call"])
            outcome = {"value": call(corpus, **task["args"])}
    except (Exception, SystemExit) as exc:  # a raising task is a wrong answer
        outcome = {"error": f"{type(exc).__name__}: {exc}"}
    return time.perf_counter() - start, outcome


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    corpus, golden = Path(plan["corpus"]), Path(plan["golden"])
    tracer = layertrace.Tracer() if plan["trace"] else None
    if tracer:
        tracer.install()
    task_s, outcomes = [], []
    for task in plan["tasks"]:
        seconds, outcome = run_task(task, corpus)
        task_s.append(seconds)
        outcomes.append(outcome)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    wrong = []
    for task, outcome in zip(plan["tasks"], outcomes):
        if task["kind"] == "cli" and "error" not in outcome:
            report = Path(task["argv"][task["argv"].index("--json") + 1])
            if report.is_file():
                outcome["report"] = json.loads(report.read_text(encoding="utf-8"))
            else:
                outcome["error"] = "no report written"
        why = answers.check(task, outcome, golden)
        if why:
            wrong.append({"id": task["id"], "why": why})
    result = {
        "pass_s": sum(task_s),
        "task_s": task_s,
        "peak_rss_mb": peak_rss_mb,
        "wrong": wrong,
        "trace": tracer.snapshot() if tracer else None,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
