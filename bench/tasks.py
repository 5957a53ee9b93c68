"""The four workloads: task lists built from a seed, inputs staged on disk.

A task is a JSON-ready dict.  A "cli" task is one `qsheaf.cli.main(argv)`
call; a "lib" task names a function in `libtasks` for the acceptance work
the command line cannot reach.  Every task carries `expect`, its known
answer, which `answers.check` evaluates; see `answers.py` for the table and
its citations.  The workload seed shuffles task order and gives each CLI
call its own `--seed`; `fresh-sites` also draws its sites and presheaves
from it.
"""

import json
import random

import answers

FLAVORS = ["weak_prelopology", "prelopology", "strong_prelopology", "pretopology"]

# site key -> (site file, trivial coverage file, presheaf names)
CORPUS = {
    "luk3": ("site_luk3.json", "coverage_trivial_luk3.json",
             ["luk3_terminal", "luk3_yoneda_h", "luk3_separated", "luk3_doubled_bottom"]),
    "tnat3": ("site_tnat3.json", "coverage_trivial_tnat3.json",
              ["tnat3_terminal", "tnat3_separated"]),
    "ideals4": ("site_ideals4.json", "coverage_trivial_ideals4.json",
                ["ideals4_terminal", "ideals4_separated"]),
    "powerset2": ("site_powerset2.json", "coverage_trivial_powerset2.json",
                  ["powerset2_separated", "powerset2_constant_two"]),
    "chain3": ("site_chain3.json", "coverage_trivial_chain3.json",
               ["chain3_terminal", "chain3_doubled_bottom"]),
    "product": ("site_product_chain2_luk3.json",
                "coverage_trivial_product_chain2_luk3.json",
                ["product_terminal", "product_doubled_bottom"]),
}
LOCALES = ("powerset2", "chain3")

# the nine bundled quantales the acceptance criteria sweep
BUNDLED = [
    ("powerset_locale", 2), ("chain_locale", 2), ("chain_locale", 3),
    ("chain_locale", 4), ("chain_locale", 5), ("lukasiewicz_chain", 3),
    ("truncated_nat", 3), ("ideals_zmod", 4), ("ideals_zmod", 12),
]

# single multiplication-table cell edits, each breaking some quantale law
MUTATIONS = [
    ("lukasiewicz_chain", 3, "h,h", "1"),
    ("lukasiewicz_chain", 3, "0,0", "h"),
    ("lukasiewicz_chain", 3, "0,1", "h"),
    ("lukasiewicz_chain", 3, "1,0", "h"),
    ("lukasiewicz_chain", 3, "0,h", "h"),
    ("lukasiewicz_chain", 3, "h,1", "0"),
    ("lukasiewicz_chain", 3, "1,h", "0"),
    ("lukasiewicz_chain", 3, "1,1", "h"),
    ("truncated_nat", 3, "1,1", "0"),
    ("powerset_locale", 2, "{x},{y}", "{xy}"),
    ("ideals_zmod", 4, "(1),(2)", "(0)"),
    ("chain_locale", 3, "1,2", "0"),
    ("chain_locale", 3, "2,1", "2"),
]

APPENDIX_QUANTALES = ["luk3", "tnat3", "powerset2", "chain3", "ideals4", "ideals12"]
MUTATED_APPENDIX = ["associator", "braiding", "equalizer"]


class Stage:
    """The run's work directory: staged inputs, CLI reports and outputs."""

    def __init__(self, root, corpus):
        self.root = root
        self.corpus = corpus
        for sub in ("in", "out", "reports"):
            (root / sub).mkdir(parents=True, exist_ok=True)

    def corpus_file(self, name):
        return str(self.corpus / name)

    def write(self, name, obj):
        path = self.root / "in" / name
        path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        return str(path)


def _cli(tid, argv, expect):
    return {"id": tid, "kind": "cli", "argv": argv, "expect": expect}


def _lib(tid, call, args, expect):
    return {"id": tid, "kind": "lib", "call": call, "args": args, "expect": expect}


def _presheaf_file(name):
    return f"presheaf_{name}.json"


# ---------------------------------------------------------------------------
# corpus-check


def corpus_check(stage, rng):
    from qsheaf.quantale import STANDARD

    tasks = []
    for key, (site, _, _) in CORPUS.items():
        tasks.append(_cli(f"check-quantale:{key}",
                          ["check-quantale", stage.corpus_file(site)],
                          answers.quantale_file(key)))
    for name, param in BUNDLED:
        path = stage.write(f"bundled_{name}_{param}.json", STANDARD[name](param))
        tasks.append(_cli(f"check-quantale:{name}{param}", ["check-quantale", path],
                          answers.bundled_quantale()))
        tasks.append(_cli(f"lopos-check:{name}{param}", ["lopos-check", path],
                          answers.bundled_lopos()))
    for i, (name, param, cell, value) in enumerate(MUTATIONS):
        raw = STANDARD[name](param)
        raw["mul"][cell] = value
        path = stage.write(f"mutation_{i}.json", raw)
        tasks.append(_cli(f"check-quantale:mutation{i}", ["check-quantale", path],
                          answers.mutation(i)))
    tasks.append(_cli("lopos-check:diamond", ["lopos-check", stage.write("diamond.json", diamond())],
                      answers.diamond()))
    for key, (site, trivial, presheaves) in CORPUS.items():
        for cov_kind, cov_file in (("canonical", "coverage_canonical.json"), ("trivial", trivial)):
            for flavor in FLAVORS:
                tasks.append(_cli(
                    f"check-prelopology:{key}:{cov_kind}:{flavor}",
                    ["check-prelopology", stage.corpus_file(site),
                     stage.corpus_file(cov_file), "--flavor", flavor],
                    answers.prelopology(key, cov_kind, flavor)))
            for p in presheaves:
                tasks.append(_cli(
                    f"check-sheaf:{key}:{cov_kind}:{p}",
                    ["check-sheaf", stage.corpus_file(site), stage.corpus_file(cov_file),
                     stage.corpus_file(_presheaf_file(p)), "--method", "both"],
                    answers.sheaf(key, cov_kind, p)))
    mutated = stage.write("coverage_luk3_mutated.json", mutated_luk3_coverage())
    tasks.append(_cli("check-prelopology:luk3:mutated:prelopology",
                      ["check-prelopology", stage.corpus_file("site_luk3.json"), mutated],
                      answers.mutated_coverage()))
    for key, (site, _, presheaves) in CORPUS.items():
        if key in LOCALES:
            continue
        for p in presheaves:
            if answers.SHEAF_VERDICT[p] == "sheaf":
                tasks.append(_lib(f"shifts:{p}", "shifts_stay_sheaves",
                                  {"site": site, "presheaf_file": _presheaf_file(p)},
                                  answers.shifts()))
    return tasks


def diamond():
    """The five-element diamond M3 with meet as multiplication."""
    elements = ["0", "x", "y", "z", "1"]
    mul = {}
    for a in elements:
        for b in elements:
            if a == b or b == "1":
                m = a
            elif a == "1":
                m = b
            else:
                m = "0"
            mul[f"{a},{b}"] = m
    leq = [["0", m] for m in "xyz"] + [[m, "1"] for m in "xyz"]
    return {"elements": elements, "leq": leq, "mul": mul, "unit": "1"}


def mutated_luk3_coverage():
    """The canonical covers of the three-element chain minus {0,h} -> h."""
    from qsheaf.coverage import canonical_quantale_coverage
    from qsheaf.quantale import build_standard

    raw = canonical_quantale_coverage(build_standard("lukasiewicz_chain", 3)).to_raw()
    raw["covers"] = [
        entry for entry in raw["covers"]
        if not (entry["target"] == "h"
                and sorted(leg["dom"] for leg in entry["legs"]) == ["0", "h"])
    ]
    return raw


# ---------------------------------------------------------------------------
# corpus-reflect


def corpus_reflect(stage, rng):
    tasks = []
    canonical = stage.corpus_file("coverage_canonical.json")
    for key, (site, _, presheaves) in CORPUS.items():
        for p in presheaves:
            out = str(stage.root / "out" / f"{p}.sheaf.json")
            tasks.append(_cli(
                f"sheafify:{p}",
                ["sheafify", stage.corpus_file(site), canonical,
                 stage.corpus_file(_presheaf_file(p)), "--certify-battery", "2",
                 "--out", out],
                answers.sheafify(p)))
            if answers.SHEAF_VERDICT[p] == "sheaf" and p.endswith("_terminal"):
                tasks.append(_cli(
                    f"sub:{p}",
                    ["sub", stage.corpus_file(site), canonical,
                     stage.corpus_file(_presheaf_file(p))],
                    answers.sub(p)))
            if key in LOCALES:
                tasks.append(_lib(f"plus-plus:{p}", "plus_plus_is_sheafify",
                                  {"site": site, "presheaf_file": _presheaf_file(p)},
                                  answers.plus_plus()))
    for key in ("luk3", "powerset2", "product"):
        tasks.append(_lib(f"preserves-terminal:{key}", "preserves_terminal",
                          {"site": CORPUS[key][0]}, answers.preserves_terminal()))
    return tasks


# ---------------------------------------------------------------------------
# appendix


def appendix(stage, rng):
    tasks = [
        _cli("verify-appendix:finset3",
             ["verify-appendix", "--instance", "finset", "--size-bound", "3"],
             answers.appendix("finset")),
        _cli("verify-appendix:product", ["verify-appendix", "--instance", "product"],
             answers.appendix("product")),
    ]
    for name in APPENDIX_QUANTALES:
        tasks.append(_cli(f"verify-appendix:{name}",
                          ["verify-appendix", "--instance", f"quantale:{name}"],
                          answers.appendix(name)))
    for which in MUTATED_APPENDIX:
        tasks.append(_lib(f"mutated-appendix:{which}", "mutated_appendix",
                          {"which": which}, answers.mutated_appendix()))
    return tasks


# ---------------------------------------------------------------------------
# fresh-sites

# bundled quantales with 3 to 6 elements, each used once per pass
FRESH_QUANTALES = [
    ("powerset_locale", 2), ("chain_locale", 3), ("chain_locale", 4),
    ("chain_locale", 5), ("lukasiewicz_chain", 3), ("truncated_nat", 3),
    ("ideals_zmod", 4), ("ideals_zmod", 12),
]
# a product site is the two-element chain times one of these, six objects;
# ideals_zmod(4) is left out because forcing on chain2 x ideals4 with a
# doubled section runs for minutes, which no pass can afford
FRESH_FACTORS = [("chain_locale", 3), ("lukasiewicz_chain", 3)]
FRESH_PRODUCTS = 4


def _relabel(raw, prefix):
    """The same quantale with element i renamed to prefix + str(i)."""
    names = {e: f"{prefix}{i}" for i, e in enumerate(raw["elements"])}
    mul = {}
    for key, value in raw["mul"].items():
        a, b = _split_pair(key, raw["elements"])
        mul[f"{names[a]},{names[b]}"] = names[value]
    return {
        "elements": [names[e] for e in raw["elements"]],
        "leq": [[names[a], names[b]] for a, b in raw["leq"]],
        "mul": mul,
        "unit": names[raw["unit"]],
    }


def _split_pair(key, elements):
    for a in elements:
        if key.startswith(a + ",") and key[len(a) + 1:] in elements:
            return a, key[len(a) + 1:]
    raise ValueError(f"cannot split mul key {key!r}")


def _fresh_site_specs(rng):
    from qsheaf.quantale import STANDARD

    letters = "abcdefghjkmnpqrstuvwxyz"
    used = set()

    def prefix():
        while True:
            p = "".join(rng.choice(letters) for _ in range(3))
            if p not in used:
                used.add(p)
                return p

    specs = [_relabel(STANDARD[n](k), prefix()) for n, k in FRESH_QUANTALES]
    for _ in range(FRESH_PRODUCTS):
        small = _relabel(STANDARD["chain_locale"](2), prefix())
        name, param = rng.choice(FRESH_FACTORS)
        other = _relabel(STANDARD[name](param), prefix())
        left, right = (small, other) if rng.random() < 0.5 else (other, small)
        specs.append({"product": {"left": left, "right": right}})
    rng.shuffle(specs)
    return specs


def random_presheaf(site, rng, attempts=1000):
    """A functorial presheaf: half the objects (rounded down) get two
    sections, the rest one.

    Which objects are doubled is drawn once.  Restrictions are drawn along
    the Hasse edges and composed down from each object; a draw is kept
    only if `validate_presheaf` accepts it (every square commutes).  After
    `attempts` rejections every restriction sends all sections to "s0",
    which is always functorial.  Fixing the number of doubled objects keeps
    the work of a pass from swinging with the seed.
    """
    from qsheaf.moncat import canon
    from qsheaf.presheaf import hasse_edges, validate_presheaf

    objs = site.objects()
    names = [canon(u) for u in objs]
    doubled = set(rng.sample(names, len(names) // 2))
    at = {n: ["s0", "s1"] if n in doubled else ["s0"] for n in names}
    below = {n: [] for n in names}  # u -> the objects it covers
    for v, u in hasse_edges(site):
        below[canon(u)].append(canon(v))
    for _ in range(attempts):
        step = {(v, u): {x: rng.choice(at[v]) for x in at[u]}
                for u in names for v in below[u]}
        res = {}
        for u in names:
            # compose down the Hasse edges: every v < u is reached from u
            maps = {v: dict(step[(v, u)]) for v in below[u]}
            todo = list(below[u])
            while todo:
                v = todo.pop()
                for w in below[v]:
                    if w not in maps:
                        maps[w] = {x: step[(w, v)][maps[v][x]] for x in at[u]}
                        todo.append(w)
            for v, table in maps.items():
                res[f"{v}<={u}"] = table
        raw = {"at": at, "res": res}
        if validate_presheaf(site, raw).ok:
            return raw
    return {"at": at, "res": {key: {x: "s0" for x in table}
                              for key, table in raw["res"].items()}}


def fresh_sites(stage, rng):
    from libtasks import site_of

    tasks = []
    cov_path = stage.write("fresh_coverage.json", {"canonical": True})
    for i, spec in enumerate(_fresh_site_specs(rng)):
        site, _ = site_of(spec)
        site_path = stage.write(f"fresh_site_{i}.json", spec)
        p_path = stage.write(f"fresh_presheaf_{i}.json", random_presheaf(site, rng))
        out = str(stage.root / "out" / f"fresh_{i}.sheaf.json")
        tasks += [
            _cli(f"check-prelopology:fresh{i}",
                 ["check-prelopology", site_path, cov_path], answers.fresh("check-prelopology")),
            _cli(f"check-sheaf:fresh{i}",
                 ["check-sheaf", site_path, cov_path, p_path, "--method", "both"],
                 answers.fresh("check-sheaf")),
            _cli(f"sheafify:fresh{i}",
                 ["sheafify", site_path, cov_path, p_path, "--certify-battery", "1",
                  "--out", out],
                 answers.fresh("sheafify")),
        ]
    return tasks


WORKLOADS = {
    "corpus-check": corpus_check,
    "corpus-reflect": corpus_reflect,
    "appendix": appendix,
    "fresh-sites": fresh_sites,
}


def build(workload, seed, root, corpus):
    """Stage the inputs of one workload and return its shuffled task list."""
    rng = random.Random(f"{workload}:{seed}")
    tasks = WORKLOADS[workload](Stage(root, corpus), rng)
    rng.shuffle(tasks)
    for i, task in enumerate(tasks):
        if task["kind"] == "cli":
            task["argv"] += ["--seed", str(rng.randrange(1 << 31)),
                             "--json", str(root / "reports" / f"{i}.json")]
    return tasks
