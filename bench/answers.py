"""Known answers for every task, and the check that compares against them.

Each entry is written by hand and cites what justifies it: a test
assertion, a corpus file name, or a golden report under `tests/golden/`.
Where a golden report exists for the same command and inputs, the task's
verdicts must equal the golden's.  Where nothing pins the verdict down,
the entry asks only for a well-formed outcome (exit 0 or 1, no internal
error) and says so.  Nothing here was recorded from the program's output.

An expectation is a dict of clauses, all of which must hold:

- `exit`: the allowed exit codes;
- `golden`: name of the golden report whose `verdicts` must match;
- `verdict`: what both sheaf checkers must report;
- `agree`: the two sheaf checkers report the same verdict;
- `fails`: a check that must be reported failing;
- `all_ok`: every reported check passed;
- `star`: `[quantale, param]` whose multiplication the `sub` star table
  must reproduce on the supports of the subterminals;
- `value`: the boolean a library task must return.
"""

import json

# corpus presheaf -> verdict under the canonical coverage, with its source
SHEAF_VERDICT = {
    # terminal presheaves: tests/test_sheaf.py::TestVerdicts::
    # test_terminal_is_a_sheaf_with_crosschecks, the golden
    # check_sheaf_product_terminal, and tests/test_reflect.py::
    # test_terminal_preserved_on_all_site_flavors
    "luk3_terminal": "sheaf",
    "tnat3_terminal": "sheaf",
    "ideals4_terminal": "sheaf",
    "chain3_terminal": "sheaf",
    "product_terminal": "sheaf",
    # the representable at h: tests/test_reflect.py::
    # test_separated_input_merges_to_the_representable (the reflection,
    # a sheaf, is iso to yoneda(h))
    "luk3_yoneda_h": "sheaf",
    # "*_separated" by file name; luk3 also by tests/test_sheaf.py::
    # test_separated_not_sheaf and the golden check_sheaf_luk3_separated,
    # powerset2 by tests/test_sheaf.py::test_plus_of_separated_is_a_sheaf
    "luk3_separated": "separated",
    "tnat3_separated": "separated",
    "ideals4_separated": "separated",
    "powerset2_separated": "separated",
    # two sections over the bottom, which the empty cover of the bottom
    # must glue uniquely: tests/test_sheaf.py::test_not_separated
    "luk3_doubled_bottom": "presheaf",
    "chain3_doubled_bottom": "presheaf",
    "product_doubled_bottom": "presheaf",
    # tests/test_sheaf.py::test_plus_squared_reaches_the_section_sheaf
    "powerset2_constant_two": "presheaf",
}

NOT_CARTESIAN = {"fails": "site-cartesian", "exit": [1]}
WELL_FORMED = {"exit": [0, 1]}


def _golden(name, exit_code):
    return {"golden": name, "exit": [exit_code]}


def quantale_file(site):
    if site == "luk3":
        return _golden("check_quantale_luk3", 0)
    if site == "product":
        # a product site file is not a quantale spec (cli._load_site doc):
        # check-quantale reports it malformed, exit 2 by the cli docstring
        return {"fails": "well-formed", "exit": [2]}
    # tests/test_acceptance.py::_load_site asserts that every plain corpus
    # site file validates as a quantale
    return {"all_ok": True, "exit": [0]}


def bundled_quantale():
    # tests/test_acceptance.py::test_01_quantale_laws
    return {"all_ok": True, "exit": [0]}


def bundled_lopos():
    # tests/test_acceptance.py::test_10_down_set_criterion: the down-set
    # criterion agrees with the law suite, which every bundled spec passes
    return {"all_ok": True, "exit": [0]}


def mutation(index):
    if index == 0:
        # tests/test_cli.py::broken_mul_quantale is the same h,h -> 1 edit
        return _golden("check_quantale_broken", 1)
    # tests/test_acceptance.py::test_01_quantale_laws: violations reported
    return {"exit": [1]}


def diamond():
    # tests/test_cli.py::m3_with_meet and the golden lopos_m3
    return _golden("lopos_m3", 1)


def prelopology(site, cov, flavor):
    locale = site in ("powerset2", "chain3")
    if flavor == "pretopology":
        if not locale:
            # tests/test_coverage.py::test_pretopology_requires_cartesian_site
            # (luk3) and test_product_is_prelopology_but_not_pretopology;
            # truncated_nat adds and ideals_zmod multiplies ideals, so
            # neither tensor is the meet (their docstrings in quantale.py)
            return NOT_CARTESIAN
        if cov == "canonical" or site == "powerset2":
            # test_canonical_locale_coverage_is_pretopology and
            # test_trivial_on_locale_is_pretopology
            return {"all_ok": True, "exit": [0]}
        return WELL_FORMED
    if site == "luk3" and cov == "canonical" and flavor == "strong_prelopology":
        return _golden("check_prelopology_luk3_canonical", 0)
    if cov == "canonical" and site != "product":
        # test_canonical_is_strong_prelopology_everywhere; the weaker
        # flavors check a subset of the strong flavor's axioms
        return {"all_ok": True, "exit": [0]}
    if cov == "canonical" and flavor != "strong_prelopology":
        # test_product_is_prelopology_but_not_pretopology
        return {"all_ok": True, "exit": [0]}
    if cov == "trivial" and site in ("luk3", "powerset2"):
        # test_trivial_coverage_is_lawful
        return {"all_ok": True, "exit": [0]}
    return WELL_FORMED


def mutated_coverage():
    # tests/test_cli.py::mutated_canonical_coverage, golden
    return _golden("check_prelopology_luk3_mutated", 1)


def sheaf(site, cov, presheaf):
    if cov == "trivial":
        # tests/test_sheaf.py::test_everything_is_a_sheaf_for_the_trivial_coverage
        return {"verdict": "sheaf", "agree": True, "exit": [0]}
    if presheaf == "luk3_separated":
        return dict(_golden("check_sheaf_luk3_separated", 1), verdict="separated")
    if presheaf == "product_terminal":
        return dict(_golden("check_sheaf_product_terminal", 0), verdict="sheaf")
    verdict = SHEAF_VERDICT[presheaf]
    return {"verdict": verdict, "agree": True, "exit": [0 if verdict == "sheaf" else 1]}


def shifts():
    # tests/test_acceptance.py::test_04_shift_theorem
    return {"value": True}


def sheafify(presheaf):
    if presheaf == "luk3_separated":
        return dict(_golden("sheafify_luk3_separated", 0), all_ok=True)
    # tests/test_acceptance.py::test_05_sheafification_soundness
    return {"all_ok": True, "exit": [0]}


def sub(presheaf):
    if presheaf == "luk3_terminal":
        return dict(_golden("sub_luk3_terminal", 0), star=["lukasiewicz_chain", 3])
    if presheaf == "tnat3_terminal":
        # tests/test_reflect.py::test_star_tables_reproduce_the_quantales
        return {"all_ok": True, "exit": [0], "star": ["truncated_nat", 3]}
    # the ambient terminal presheaf is a sheaf (SHEAF_VERDICT); nothing
    # pins the star certification on these sites
    return {"exit": [0, 1]}


def plus_plus():
    # tests/test_acceptance.py::test_05 and tests/test_reflect.py::
    # test_reflection_agrees_with_the_double_plus_on_locales
    return {"value": True}


def preserves_terminal():
    # tests/test_acceptance.py::test_06_terminal_preservation
    return {"value": True}


def appendix(instance):
    if instance == "luk3":
        return _golden("verify_appendix_luk3", 0)
    if instance in ("finset", "product", "tnat3", "powerset2"):
        # tests/test_acceptance.py::test_09 (finset bound 3, tnat3) and
        # tests/test_coherence.py::test_appendix_suite_product_instance,
        # test_appendix_suite_all_bundled_quantales
        return {"all_ok": True, "exit": [0]}
    return WELL_FORMED


def mutated_appendix():
    # tests/test_acceptance.py::test_09_appendix_coherence: each broken
    # instance fails the suite
    return {"value": False}


def fresh(command):
    """Generated inputs have no hand-written answer, only invariants."""
    if command == "check-sheaf":
        # the two sheaf definitions must agree
        return {"agree": True, "exit": [0, 1]}
    if command == "sheafify":
        # the reflection converges and certifies its universal property
        return {"all_ok": True, "exit": [0]}
    return WELL_FORMED


# ---------------------------------------------------------------------------
# checking


def _sheaf_verdicts(verdicts):
    out = {}
    for v in verdicts:
        if v["check"] in ("sheaf-equalizer", "sheaf-orthogonal"):
            out[v["check"]] = v["witness"].split(";")[0].removeprefix("verdict: ")
    return out


def _support(quantale, site_objects, sizes):
    held = {u for u in site_objects if sizes[u] > 0}
    for e in quantale.elements:
        if {w for w in quantale.elements if quantale.leq(w, e)} == held:
            return e
    return None


def _star_matches(report, name, param):
    from qsheaf.quantale import build_standard

    q = build_standard(name, param)
    config = report["configuration"]
    supports = {
        m["name"]: _support(q, q.elements, m["sizes"]) for m in config["members"]
    }
    if None in supports.values() or sorted(supports.values()) != sorted(q.elements):
        return False
    for cell, result in config["star"].items():
        a, b = cell.split("*")
        if supports[result] != q.mul(supports[a], supports[b]):
            return False
    return True


def check(task, outcome, golden_dir):
    """None when the outcome matches the task's known answer, else why not."""
    expect = task["expect"]
    if "error" in outcome:
        return f"raised {outcome['error']}"
    if task["kind"] == "lib":
        if outcome["value"] != expect["value"]:
            return f"returned {outcome['value']}, expected {expect['value']}"
        return None
    code, report = outcome["exit"], outcome["report"]
    if code not in expect["exit"]:
        return f"exit {code}, expected one of {expect['exit']}"
    verdicts = report["verdicts"]
    for v in verdicts:
        if v["check"] in ("internal-error", "BUG-method-agreement"):
            return f"{v['check']}: {v['witness']}"
    if "golden" in expect:
        gold = json.loads((golden_dir / f"{expect['golden']}.json").read_text())
        if verdicts != gold["verdicts"]:
            return f"verdicts differ from golden {expect['golden']}"
    if expect.get("all_ok") and not all(v["ok"] for v in verdicts):
        return "a check failed: " + ", ".join(v["check"] for v in verdicts if not v["ok"])
    if "fails" in expect and not any(
        v["check"] == expect["fails"] and not v["ok"] for v in verdicts
    ):
        return f"expected {expect['fails']} to fail"
    sheaf_verdicts = _sheaf_verdicts(verdicts)
    if "verdict" in expect or expect.get("agree"):
        if len(sheaf_verdicts) != 2 or len(set(sheaf_verdicts.values())) != 1:
            return f"sheaf checkers disagree: {sheaf_verdicts}"
    if "verdict" in expect and set(sheaf_verdicts.values()) != {expect["verdict"]}:
        return f"verdict {sheaf_verdicts}, expected {expect['verdict']}"
    if "star" in expect and not _star_matches(report, *expect["star"]):
        return f"star table does not reproduce {expect['star']}"
    return None
