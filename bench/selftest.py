"""Self-test of the traced run: counts repeat exactly for a seed.

Two traced passes with the same seed, each in a fresh interpreter, must
give identical counts: once for the whole `corpus-check` workload and once
for `sub` on the product site's terminal sheaf, which must also make
exactly 12,300 `hasse_edges` calls.  Run with `python3 bench/run.py --selftest`.
"""

import contextlib
import shutil

import layertrace
import run
import tasks as task_lists

PRODUCT_SUB = "sub:product_terminal"
PRODUCT_SUB_HASSE_EDGES = 12_300


def _traced_counts(tasks, work, env, index):
    result = run.run_pass(tasks, work, env, True, index)
    if result["wrong"]:
        raise SystemExit(f"wrong answers in a traced pass: {result['wrong']}")
    return result["trace"]["counts"]


def main(seed):
    failures = []
    work = run.WORK / f"selftest-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = run.child_env(seed, work)
        for workload, pick in (("corpus-check", None), ("corpus-reflect", PRODUCT_SUB)):
            tasks = task_lists.build(workload, seed, work, run.CORPUS)
            if pick:
                tasks = [t for t in tasks if t["id"] == pick]
            first, second = (_traced_counts(tasks, work, env, i) for i in range(2))
            label = pick or workload
            if first != second:
                diff = sorted(k for k in first.keys() | second.keys()
                              if first.get(k) != second.get(k))
                failures.append(f"{label}: counts differ between runs: {diff}")
            print(f"{label}: {len(first)} counters, repeat exactly: {first == second}")
            if pick:
                hasse = layertrace.COUNT_METRICS["presheaf.hasse_edges_calls"]
                got = first.get(hasse, 0)
                print(f"{label}: presheaf.hasse_edges_calls = {got}")
                if got != PRODUCT_SUB_HASSE_EDGES:
                    failures.append(f"{label}: {got} hasse_edges calls,"
                                    f" expected {PRODUCT_SUB_HASSE_EDGES}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0
