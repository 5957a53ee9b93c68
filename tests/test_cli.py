"""End-to-end driver tests: exit codes, golden reports, determinism."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import qsheaf
from qsheaf.cli import corpus_dir, main
from qsheaf.coverage import canonical_quantale_coverage
from qsheaf.quantale import STANDARD, build_standard, chain_locale

GOLDEN = Path(__file__).parent / "golden"
REGEN = os.environ.get("QSHEAF_REGEN") == "1"


# ---------------------------------------------------------------------------
# fixture inputs: corpus files plus a few deliberately broken ones


def corpus(name):
    return json.loads((corpus_dir() / name).read_text())


def broken_mul_quantale():
    raw = STANDARD["lukasiewicz_chain"](3)
    raw["mul"]["h,h"] = "1"
    return raw


def mutated_canonical_coverage():
    """The canonical covers on the three-element chain, minus {0,h} -> h."""
    raw = canonical_quantale_coverage(build_standard("lukasiewicz_chain", 3)).to_raw()
    keep = []
    for entry in raw["covers"]:
        doms = sorted(leg["dom"] for leg in entry["legs"])
        if entry["target"] == "h" and doms == ["0", "h"]:
            continue
        keep.append(entry)
    assert len(keep) == len(raw["covers"]) - 1
    raw["covers"] = keep
    return raw


def m3_with_meet():
    """The five-element diamond with three incomparable midpoints.

    Meet works as multiplication, but binary joins of down-sets fail to
    distribute over it, so the down-set construction is not a quantale.
    """
    elements = ["0", "x", "y", "z", "1"]
    leq = [["0", m] for m in "xyz"] + [[m, "1"] for m in "xyz"]
    mul = {}
    for a in elements:
        for b in elements:
            if a == b:
                m = a
            elif a == "0" or b == "0":
                m = "0"
            elif a == "1":
                m = b
            elif b == "1":
                m = a
            else:
                m = "0"
            mul[f"{a},{b}"] = m
    return {"elements": elements, "leq": leq, "mul": mul, "unit": "1"}


@dataclass
class Case:
    name: str
    files: dict
    argv: list
    exit_code: int
    outputs: list = field(default_factory=list)


CASES = [
    Case(
        "check_quantale_luk3",
        {"q.json": corpus("site_luk3.json")},
        ["check-quantale", "q.json"],
        0,
    ),
    Case(
        "check_quantale_broken",
        {"q.json": broken_mul_quantale()},
        ["check-quantale", "q.json"],
        1,
    ),
    Case(
        "check_prelopology_luk3_canonical",
        {
            "s.json": corpus("site_luk3.json"),
            "c.json": corpus("coverage_canonical.json"),
        },
        ["check-prelopology", "s.json", "c.json", "--flavor", "strong_prelopology"],
        0,
    ),
    Case(
        "check_prelopology_luk3_mutated",
        {"s.json": corpus("site_luk3.json"), "c.json": mutated_canonical_coverage()},
        ["check-prelopology", "s.json", "c.json"],
        1,
    ),
    Case(
        "check_prelopology_product_canonical",
        {
            "s.json": corpus("site_product_chain2_luk3.json"),
            "c.json": corpus("coverage_canonical.json"),
        },
        ["check-prelopology", "s.json", "c.json", "--flavor", "strong_prelopology"],
        0,
    ),
    Case(
        "check_pretopology_powerset2_canonical",
        {
            "s.json": corpus("site_powerset2.json"),
            "c.json": corpus("coverage_canonical.json"),
        },
        ["check-prelopology", "s.json", "c.json", "--flavor", "pretopology"],
        0,
    ),
    Case(
        "check_sheaf_luk3_separated",
        {
            "s.json": corpus("site_luk3.json"),
            "c.json": corpus("coverage_canonical.json"),
            "p.json": corpus("presheaf_luk3_separated.json"),
        },
        ["check-sheaf", "s.json", "c.json", "p.json"],
        1,
    ),
    Case(
        "check_sheaf_product_terminal",
        {
            "s.json": corpus("site_product_chain2_luk3.json"),
            "c.json": corpus("coverage_canonical.json"),
            "p.json": corpus("presheaf_product_terminal.json"),
        },
        ["check-sheaf", "s.json", "c.json", "p.json"],
        0,
    ),
    Case(
        "sheafify_luk3_separated",
        {
            "s.json": corpus("site_luk3.json"),
            "c.json": corpus("coverage_canonical.json"),
            "p.json": corpus("presheaf_luk3_separated.json"),
        },
        [
            "sheafify",
            "s.json",
            "c.json",
            "p.json",
            "--certify-battery",
            "2",
            "--out",
            "out.json",
        ],
        0,
        outputs=["out.json"],
    ),
    Case(
        "sub_luk3_terminal",
        {
            "s.json": corpus("site_luk3.json"),
            "c.json": corpus("coverage_canonical.json"),
            "p.json": corpus("presheaf_luk3_terminal.json"),
        },
        ["sub", "s.json", "c.json", "p.json"],
        0,
    ),
    Case(
        "verify_appendix_luk3",
        {},
        ["verify-appendix", "--instance", "quantale:luk3"],
        0,
    ),
    Case(
        "verify_appendix_finset",
        {},
        ["verify-appendix", "--instance", "finset"],
        0,
    ),
    Case(
        "verify_appendix_product",
        {},
        ["verify-appendix", "--instance", "product", "--size-bound", "1"],
        0,
    ),
    Case(
        "verify_appendix_finset_bound3",
        {},
        ["verify-appendix", "--instance", "finset", "--size-bound", "3"],
        0,
    ),
    Case(
        "verify_appendix_product_default",
        {},
        ["verify-appendix", "--instance", "product"],
        0,
    ),
    Case(
        "lopos_m3",
        {"q.json": m3_with_meet()},
        ["lopos-check", "q.json"],
        1,
    ),
    Case(
        "check_prelopology_product_broken_factor",
        {
            "s.json": {
                "product": {"left": chain_locale(2), "right": broken_mul_quantale()}
            },
            "c.json": corpus("coverage_canonical.json"),
        },
        ["check-prelopology", "s.json", "c.json"],
        2,
    ),
    Case(
        "check_quantale_incomplete",
        {
            "q.json": {
                "elements": ["a", "b"],
                "leq": [],
                "mul": {"a,a": "a", "a,b": "a", "b,a": "a", "b,b": "b"},
            }
        },
        ["check-quantale", "q.json"],
        1,
    ),
    Case(
        "check_pretopology_ideals4_canonical",
        {
            "s.json": corpus("site_ideals4.json"),
            "c.json": corpus("coverage_canonical.json"),
        },
        ["check-prelopology", "s.json", "c.json", "--flavor", "pretopology"],
        1,
    ),
    Case(
        "check_prelopology_product_trivial",
        {
            "s.json": corpus("site_product_chain2_luk3.json"),
            "c.json": corpus("coverage_trivial_product_chain2_luk3.json"),
        },
        ["check-prelopology", "s.json", "c.json", "--flavor", "strong_prelopology"],
        0,
    ),
]


def stage(tmp_path, case):
    for name, obj in case.files.items():
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        (tmp_path / name).write_text(text)


# ---------------------------------------------------------------------------
# golden reports


class TestGolden:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_report_matches_golden(self, case, tmp_path, monkeypatch, capsys):
        stage(tmp_path, case)
        monkeypatch.chdir(tmp_path)
        code = main(case.argv + ["--json", "report.json"])
        assert code == case.exit_code
        artifacts = [("report.json", GOLDEN / f"{case.name}.json")]
        for out_name in case.outputs:
            artifacts.append((out_name, GOLDEN / f"{case.name}.{out_name}"))
        if REGEN:
            GOLDEN.mkdir(exist_ok=True)
            for produced, gold in artifacts:
                gold.write_bytes((tmp_path / produced).read_bytes())
            return
        for produced, gold in artifacts:
            assert (tmp_path / produced).read_bytes() == gold.read_bytes(), produced

    def test_golden_witnesses_serialized(self):
        if REGEN:
            pytest.skip("regenerating")
        broken = json.loads((GOLDEN / "check_quantale_broken.json").read_text())
        assert any(
            v["witness"] and not v["ok"] for v in broken["verdicts"]
        )
        mutated = json.loads(
            (GOLDEN / "check_prelopology_luk3_mutated.json").read_text()
        )
        failing = [v for v in mutated["verdicts"] if not v["ok"]]
        assert failing and failing[0]["check"] in {
            "iso-singletons",
            "composition",
            "tensor-stability",
            "ppb-stability",
        }
        m3 = json.loads((GOLDEN / "lopos_m3.json").read_text())
        (verdict,) = m3["verdicts"]
        assert "sup(D.E)=0" in verdict["witness"]


# ---------------------------------------------------------------------------
# exit codes beyond the golden set


class TestExitCodes:
    def test_malformed_json_is_invalid_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["check-quantale", str(bad)]) == 2

    def test_missing_file_is_invalid_input(self, tmp_path):
        assert main(["check-quantale", str(tmp_path / "absent.json")]) == 2

    def test_presheaf_on_unknown_objects_is_invalid_input(self, tmp_path):
        stage(
            tmp_path,
            Case(
                "",
                {
                    "s.json": corpus("site_luk3.json"),
                    "c.json": corpus("coverage_canonical.json"),
                    "p.json": {"at": {"w": ["a"]}, "res": {}},
                },
                [],
                0,
            ),
        )
        code = main(
            [
                "check-sheaf",
                str(tmp_path / "s.json"),
                str(tmp_path / "c.json"),
                str(tmp_path / "p.json"),
            ]
        )
        assert code == 2

    def test_lopos_malformed_order_is_invalid_input(self, tmp_path):
        raw = m3_with_meet()
        raw["leq"].append(["1", "0"])  # forces an antisymmetry violation
        bad = tmp_path / "loop.json"
        bad.write_text(json.dumps(raw))
        assert main(["lopos-check", str(bad)]) == 2

    def test_sheafify_budget_exhaustion(self, tmp_path):
        stage(
            tmp_path,
            Case(
                "",
                {
                    "s.json": corpus("site_powerset2.json"),
                    "c.json": corpus("coverage_canonical.json"),
                    "p.json": corpus("presheaf_powerset2_constant_two.json"),
                },
                [],
                0,
            ),
        )
        code = main(
            [
                "sheafify",
                str(tmp_path / "s.json"),
                str(tmp_path / "c.json"),
                str(tmp_path / "p.json"),
                "--max-iter",
                "1",
                "--out",
                str(tmp_path / "o.json"),
            ]
        )
        assert code == 3
        assert not (tmp_path / "o.json").exists()

    def test_sheafify_of_sheaf_converges_immediately(self, tmp_path):
        stage(
            tmp_path,
            Case(
                "",
                {
                    "s.json": corpus("site_luk3.json"),
                    "c.json": corpus("coverage_canonical.json"),
                    "p.json": corpus("presheaf_luk3_terminal.json"),
                },
                [],
                0,
            ),
        )
        report_path = tmp_path / "r.json"
        code = main(
            [
                "sheafify",
                str(tmp_path / "s.json"),
                str(tmp_path / "c.json"),
                str(tmp_path / "p.json"),
                "--out",
                str(tmp_path / "o.json"),
                "--json",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["configuration"]["iterations"] == 0
        written = json.loads((tmp_path / "o.json").read_text())
        assert written == corpus("presheaf_luk3_terminal.json")

    def test_verify_appendix_finset_bound(self):
        assert main(["verify-appendix", "--instance", "finset", "--size-bound", "2"]) == 0

    def test_verify_appendix_unknown_instance(self):
        assert main(["verify-appendix", "--instance", "banana"]) == 2

    @pytest.mark.parametrize(
        "option, argv",
        [
            ("max-iter", ["sheafify", "s.json", "c.json", "p.json", "--out", "o.json"]),
            ("certify-battery", ["sheafify", "s.json", "c.json", "p.json", "--out", "o.json"]),
            ("size-bound", ["verify-appendix", "--instance", "product"]),
        ],
    )
    def test_negative_count_is_refused(self, option, argv, tmp_path):
        files = {
            "s.json": corpus("site_luk3.json"),
            "c.json": corpus("coverage_canonical.json"),
            "p.json": corpus("presheaf_luk3_separated.json"),
        }
        stage(tmp_path, Case("", files, [], 0))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        report_path = tmp_path / "r.json"
        code = main(argv + [f"--{option}", "-1", "--json", str(report_path)])
        assert code == 2
        assert json.loads(report_path.read_text())["verdicts"] == [{
            "check": option,
            "checked": None,
            "ok": False,
            "witness": f"--{option} must not be negative, got -1",
        }]
        assert not (tmp_path / "o.json").exists()

    def test_sub_rejects_non_sheaf_ambient(self, tmp_path):
        stage(
            tmp_path,
            Case(
                "",
                {
                    "s.json": corpus("site_luk3.json"),
                    "c.json": corpus("coverage_canonical.json"),
                    "p.json": corpus("presheaf_luk3_separated.json"),
                },
                [],
                0,
            ),
        )
        code = main(
            [
                "sub",
                str(tmp_path / "s.json"),
                str(tmp_path / "c.json"),
                str(tmp_path / "p.json"),
            ]
        )
        assert code == 2

    def test_single_method_runs_one_check(self, tmp_path, capsys):
        stage(
            tmp_path,
            Case(
                "",
                {
                    "s.json": corpus("site_luk3.json"),
                    "c.json": corpus("coverage_canonical.json"),
                    "p.json": corpus("presheaf_luk3_yoneda_h.json"),
                },
                [],
                0,
            ),
        )
        report_path = tmp_path / "r.json"
        code = main(
            [
                "check-sheaf",
                str(tmp_path / "s.json"),
                str(tmp_path / "c.json"),
                str(tmp_path / "p.json"),
                "--method",
                "orthogonal",
                "--json",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert [v["check"] for v in report["verdicts"]] == ["sheaf-orthogonal"]

    def test_checker_disagreement_is_an_internal_defect(self, tmp_path, monkeypatch):
        """Disagreeing sheaf checkers are a bug in qsheaf, not bad input."""
        import qsheaf.sheaf
        from qsheaf.sheaf import VERDICT_PRESHEAF, SheafReport

        monkeypatch.setattr(
            qsheaf.sheaf,
            "check_sheaf_orthogonal",
            lambda f, coverage: SheafReport("orthogonal", VERDICT_PRESHEAF),
        )
        stage(
            tmp_path,
            Case(
                "",
                {
                    "s.json": corpus("site_luk3.json"),
                    "c.json": corpus("coverage_canonical.json"),
                    "p.json": corpus("presheaf_luk3_terminal.json"),
                },
                [],
                0,
            ),
        )
        report_path = tmp_path / "r.json"
        code = main(
            [
                "check-sheaf",
                str(tmp_path / "s.json"),
                str(tmp_path / "c.json"),
                str(tmp_path / "p.json"),
                "--method",
                "both",
                "--json",
                str(report_path),
            ]
        )
        assert code == 4
        report = json.loads(report_path.read_text())
        defects = [v for v in report["verdicts"] if v["check"] == "internal-defect"]
        assert len(defects) == 1 and not defects[0]["ok"]
        assert "equalizer=sheaf, orthogonal=presheaf" in defects[0]["witness"]

    def test_certification_disagreement_is_an_internal_defect(
        self, tmp_path, monkeypatch
    ):
        """`sheafify` checks its result under the same rule as `check-sheaf`."""
        import qsheaf.sheaf
        from qsheaf.sheaf import VERDICT_PRESHEAF, SheafReport

        monkeypatch.setattr(
            qsheaf.sheaf,
            "check_sheaf_orthogonal",
            lambda f, coverage: SheafReport("orthogonal", VERDICT_PRESHEAF),
        )
        files = {
            "s.json": corpus("site_luk3.json"),
            "c.json": corpus("coverage_canonical.json"),
            "p.json": corpus("presheaf_luk3_terminal.json"),
        }
        stage(tmp_path, Case("", files, [], 0))
        report_path = tmp_path / "r.json"
        code = main(
            ["sheafify"]
            + [str(tmp_path / name) for name in files]
            + ["--out", str(tmp_path / "o.json"), "--json", str(report_path)]
        )
        assert code == 4
        verdicts = json.loads(report_path.read_text())["verdicts"]
        assert [(v["check"], v["ok"]) for v in verdicts] == [("internal-defect", False)]
        assert "equalizer=sheaf, orthogonal=presheaf" in verdicts[0]["witness"]

    @pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
    def test_json_report_needs_a_file_in_a_directory(self, where, tmp_path, capsys):
        target = tmp_path / "absent" / "r.json" if where == "missing-directory" else tmp_path
        site = str(corpus_dir() / "site_luk3.json")
        assert main(["check-quantale", site, "--json", str(target)]) == 2
        assert capsys.readouterr().out == (
            f"FAIL json [--json {target}: not a file in an existing directory]\n"
            "check-quantale: 0/1 checks passed (exit 2)\n"
        )
        assert not (tmp_path / "absent").exists()

    def test_sheafify_output_needs_a_file_in_a_directory(self, tmp_path, monkeypatch):
        files = {
            "s.json": corpus("site_luk3.json"),
            "c.json": corpus("coverage_canonical.json"),
            "p.json": corpus("presheaf_luk3_separated.json"),
        }
        stage(tmp_path, Case("", files, [], 0))
        argv = ["sheafify"] + [str(tmp_path / name) for name in files]
        report_path = tmp_path / "r.json"
        loaded = []
        monkeypatch.setattr(
            "qsheaf.cli._load_inputs", lambda *args: loaded.append(args)
        )
        out = tmp_path / "absent" / "o.json"
        code = main(argv + ["--out", str(out), "--json", str(report_path)])
        assert code == 2 and loaded == []
        assert json.loads(report_path.read_text())["verdicts"] == [{
            "check": "out",
            "checked": None,
            "ok": False,
            "witness": f"--out {out}: not a file in an existing directory",
        }]
        monkeypatch.undo()
        # the default output path, next to the presheaf, is not checked
        # ahead; a write that fails there gets the same verdict
        (tmp_path / "p.sheaf.json").mkdir()
        assert main(argv + ["--json", str(report_path)]) == 2
        verdicts = json.loads(report_path.read_text())["verdicts"]
        assert verdicts[-1]["check"] == "out" and not verdicts[-1]["ok"]
        assert "Is a directory" in verdicts[-1]["witness"]


# Coverage and presheaf files of the wrong shape: each must be reported as
# malformed input, not crash a parser or checker nor be read another way.
MALFORMED_COVERAGES = {
    "mult-cap-not-integer": {"covers": [], "mult_cap": "two"},
    "covers-of-strings": {"covers": ["h"]},
    "covers-an-object": {"covers": {"h": [{"dom": "h"}]}},
    "target-a-list": {"covers": [{"target": ["h"], "legs": []}]},
    "legs-a-string": {"covers": [{"target": "h", "legs": "0"}]},
    # a cap below 1 would clamp every family to its bare target
    "mult-cap-zero": {"mult_cap": 0, "covers": [{"target": "h", "legs": [{"dom": "0"}]}]},
    "mult-cap-negative": {"mult_cap": -1, "covers": [{"target": "h", "legs": [{"dom": "h"}]}]},
}

_LUK3_RES = {"0<=h": {}, "0<=1": {}, "h<=1": {}}
MALFORMED_PRESHEAVES = {
    "at-a-list": {"at": [["0", []]], "res": {}},
    "value-set-a-string": {"at": {"0": "ab", "h": [], "1": []}, "res": _LUK3_RES},
    "res-table-of-pairs": {
        "at": {"0": ["a"], "h": ["a"], "1": ["a"]},
        "res": {"0<=h": [["a", "a"]], "0<=1": {"a": "a"}, "h<=1": {"a": "a"}},
    },
    "integer-labels": {"at": {"0": [1], "h": [], "1": []}, "res": _LUK3_RES},
    "restriction-on-a-non-arrow": {
        "at": {"0": ["*"], "h": ["*"], "1": ["*"]},
        "res": {**{k: {"*": "*"} for k in _LUK3_RES}, "1<=0": {"*": "*"}},
    },
    "self-restriction-not-identity": {
        "at": {"0": ["s"], "h": ["p", "q"], "1": []},
        "res": {
            "0<=h": {"p": "s", "q": "s"}, "0<=1": {}, "h<=1": {},
            "h<=h": {"p": "q", "q": "p"},
        },
    },
}


def _run_malformed(tmp_path, argv, files):
    files = {"s.json": corpus("site_luk3.json"), **files}
    stage(tmp_path, Case("", files, [], 0))
    report_path = tmp_path / "r.json"
    code = main(
        [argv[0]] + [str(tmp_path / a) for a in argv[1:]]
        + ["--json", str(report_path)]
    )
    return code, json.loads(report_path.read_text())["verdicts"]


class TestMalformedShapes:
    @pytest.mark.parametrize("raw", MALFORMED_COVERAGES.values(), ids=MALFORMED_COVERAGES)
    def test_coverage_shape_is_malformed(self, raw, tmp_path):
        code, verdicts = _run_malformed(
            tmp_path, ["check-prelopology", "s.json", "c.json"], {"c.json": raw}
        )
        assert code == 2
        assert [(v["check"], v["ok"]) for v in verdicts] == [
            ("well-formed-coverage", False)
        ]

    @pytest.mark.parametrize("raw", MALFORMED_PRESHEAVES.values(), ids=MALFORMED_PRESHEAVES)
    def test_presheaf_shape_is_malformed(self, raw, tmp_path):
        files = {"c.json": corpus("coverage_canonical.json"), "p.json": raw}
        code, verdicts = _run_malformed(
            tmp_path, ["check-sheaf", "s.json", "c.json", "p.json"], files
        )
        assert code == 2
        assert [(v["check"], v["ok"]) for v in verdicts] == [
            ("well-formed-presheaf", False)
        ]


# ---------------------------------------------------------------------------
# malformed input, exhaustively: one JSON value of a file replaced at a time

REPLACEMENTS = [5, [], {}, "x", None, True]
LUK3_TWO_FAMILIES = {
    "covers": [
        {"target": "h", "legs": [{"dom": "0"}, {"dom": "h"}]},
        {"target": "1", "legs": [{"dom": "1"}]},
    ]
}


def mutants(node):
    """Copies of a JSON tree with one node replaced by each of `REPLACEMENTS`."""
    yield from REPLACEMENTS
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return
    for key in keys:
        for child in mutants(node[key]):
            copy = node.copy()
            copy[key] = child
            yield copy


# (file to mutate, the files it is read with, the commands that read it)
MUTATED_INPUTS = {
    "site": ("site_luk3.json", {}, [["check-quantale", "m.json"],
                                    ["lopos-check", "m.json"]]),
    "coverage": (LUK3_TWO_FAMILIES, {"s.json": "site_luk3.json"},
                 [["check-prelopology", "s.json", "m.json"]]),
    "presheaf": (
        "presheaf_luk3_separated.json",
        {"s.json": "site_luk3.json", "c.json": "coverage_canonical.json"},
        [["check-sheaf", "s.json", "c.json", "m.json"]],
    ),
    "product-site": ("site_product_chain2_luk3.json",
                     {"c.json": "coverage_canonical.json"},
                     [["check-prelopology", "m.json", "c.json"]]),
}


@pytest.mark.parametrize("name", MUTATED_INPUTS)
def test_malformed_input_is_never_an_internal_error(name, tmp_path):
    """Bad input reads as bad input (exit 2) or as a verdict, never as a bug."""
    mutated, others, commands = MUTATED_INPUTS[name]
    if isinstance(mutated, str):
        mutated = corpus(mutated)
    stage(tmp_path, Case("", {k: corpus(v) for k, v in others.items()}, [], 0))
    report_path = tmp_path / "r.json"
    bad = []
    for mutant in mutants(mutated):
        (tmp_path / "m.json").write_text(json.dumps(mutant))
        for argv in commands:
            code = main([argv[0]] + [str(tmp_path / a) for a in argv[1:]]
                        + ["--json", str(report_path)])
            checks = [v["check"] for v in json.loads(report_path.read_text())["verdicts"]]
            if code not in (0, 1, 2) or "internal-error" in checks:
                bad.append((argv[0], code, json.dumps(mutant)[:120]))
    assert bad == []


# ---------------------------------------------------------------------------
# determinism of the report bytes


class TestDeterminism:
    def _run(self, tmp_path, tag, extra):
        report_path = tmp_path / f"{tag}.json"
        argv = [
            "check-sheaf",
            str(tmp_path / "s.json"),
            str(tmp_path / "c.json"),
            str(tmp_path / "p.json"),
            "--json",
            str(report_path),
        ] + extra
        code = main(argv)
        return code, report_path.read_bytes()

    def test_identical_runs_identical_bytes(self, tmp_path):
        stage(
            tmp_path,
            Case(
                "",
                {
                    "s.json": corpus("site_luk3.json"),
                    "c.json": corpus("coverage_canonical.json"),
                    "p.json": corpus("presheaf_luk3_doubled_bottom.json"),
                },
                [],
                0,
            ),
        )
        first = self._run(tmp_path, "one", [])
        second = self._run(tmp_path, "two", [])
        assert first == second

    def test_seed_leaves_verdicts_alone(self, tmp_path):
        stage(
            tmp_path,
            Case(
                "",
                {
                    "s.json": corpus("site_luk3.json"),
                    "c.json": corpus("coverage_canonical.json"),
                    "p.json": corpus("presheaf_luk3_separated.json"),
                },
                [],
                0,
            ),
        )
        runs = [
            self._run(tmp_path, "base", []),
            self._run(tmp_path, "seeded", ["--seed", "7"]),
        ]
        codes = {code for code, _ in runs}
        assert codes == {1}
        verdicts = [json.loads(blob)["verdicts"] for _, blob in runs]
        assert verdicts[0] == verdicts[1]

    def test_timing_only_when_asked(self, tmp_path):
        stage(
            tmp_path,
            Case(
                "",
                {"q.json": corpus("site_chain3.json")},
                [],
                0,
            ),
        )
        quiet = tmp_path / "quiet.json"
        loud = tmp_path / "loud.json"
        main(["check-quantale", str(tmp_path / "q.json"), "--json", str(quiet)])
        main(
            [
                "check-quantale",
                str(tmp_path / "q.json"),
                "--json",
                str(loud),
                "--timing",
            ]
        )
        assert json.loads(quiet.read_text())["timing"] is None
        assert json.loads(loud.read_text())["timing"]["seconds"] >= 0


# ---------------------------------------------------------------------------
# the console script declared in pyproject.toml

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What a generated console-script wrapper does with a `module:attr` target.
WRAPPER = """\
import sys
from {module} import {attr}
sys.argv[0] = "qsheaf"
sys.exit({attr}())
"""


def check_quantale_argv():
    return ["check-quantale", str(corpus_dir() / "site_luk3.json")]


def run_python(args):
    """Run this interpreter on `args` with the qsheaf this suite imported.

    The directory holding that qsheaf goes first on the path, so the
    subprocess runs the same code whether or not it is installed.
    """
    package_root = str(Path(qsheaf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def run_declared_script(argv):
    """Run the `qsheaf` target of `[project.scripts]` as its wrapper would."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["qsheaf"]
    module, _, attr = target.partition(":")
    return run_python(["-c", WRAPPER.format(module=module, attr=attr), *argv])


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        outcome = run_declared_script(check_quantale_argv())
        assert outcome.returncode == 0, outcome.stderr
        assert "pass quantale-laws" in outcome.stdout
        # A failing verdict must reach the exit status too, which a target
        # that returned nothing (exit 0 either way) would not do.
        broken = tmp_path / "q.json"
        broken.write_text(json.dumps(broken_mul_quantale()))
        outcome = run_declared_script(["check-quantale", str(broken)])
        assert outcome.returncode == 1, outcome.stderr

    def test_module_runs_from_a_checkout(self):
        outcome = run_python(["-m", "qsheaf", *check_quantale_argv()])
        assert outcome.returncode == 0, outcome.stderr
        assert outcome.stdout.splitlines()[0] == "pass quantale-laws"

    @pytest.mark.skipif(
        shutil.which("qsheaf") is None, reason="no installed qsheaf executable on PATH"
    )
    def test_installed_executable_runs(self):
        outcome = subprocess.run(
            ["qsheaf", *check_quantale_argv()],
            capture_output=True,
            text=True,
        )
        assert outcome.returncode == 0
        assert "pass quantale-laws" in outcome.stdout
