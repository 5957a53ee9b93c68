"""Command-line driver: load JSON inputs, run checks, emit stable reports.

Every subcommand builds the same report shape: the command name, a sha256
fingerprint per input file, the configuration that influenced the run, and
one verdict per check with a witness when something fails.  Reports with
identical inputs and configuration are byte-identical; wall-clock timing is
only included when requested so that the default output can be diffed.

Exit codes: 0 every check passed, 1 some check failed, 2 an input was
malformed or outside a checker's domain, 3 an iteration budget ran out,
4 a bug in qsheaf: two of its own independent computations disagreed
(reported as the check `internal-defect`), or an unforeseen exception
escaped a command (reported as the check `internal-error`).
"""

import argparse
import hashlib
import json
import random
import sys
import time
from importlib import resources
from pathlib import Path

from .coverage import (
    canonical_quantale_coverage,
    check_flavor,
    parse_coverage,
    product_coverage,
)
from .errors import (
    InternalDefect,
    InvalidSpec,
    MulNotAssociative,
    NotCartesianSite,
    NotConverged,
    QsheafError,
)
from .moncat import FinSetCategory, ProductCategory, ThinCategory
from .moncat.coherence import verify_appendix_suite
from .presheaf import parse_presheaf, validate_presheaf
from .quantale import Quantale, build_standard, classify_quantale, validate_quantale
from .reflect import (
    certify_reflection,
    enumerate_sheaves,
    lopos_check,
    sheafify,
    star,
    subsheaf_lattice,
)
from .sheaf import SHEAF_METHODS, check_sheaf

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_UNCONVERGED = 3
EXIT_DEFECT = 4

BUNDLED = {
    "luk3": ("lukasiewicz_chain", 3),
    "tnat3": ("truncated_nat", 3),
    "powerset2": ("powerset_locale", 2),
    "chain3": ("chain_locale", 3),
    "ideals4": ("ideals_zmod", 4),
    "ideals12": ("ideals_zmod", 12),
}


def corpus_dir() -> Path:
    """Directory of the example inputs that ship with the package."""
    return Path(str(resources.files(__package__) / "corpus"))


# ---------------------------------------------------------------------------
# run reports


class RunReport:
    """Accumulates verdicts and renders them deterministically."""

    def __init__(self, command: str, configuration: dict):
        self.command = command
        self.configuration = dict(configuration)
        self.inputs = {}
        self.verdicts = []
        self.timing = None

    def add_input(self, role: str, path: str) -> None:
        entry = {"path": str(path), "sha256": None}
        try:
            entry["sha256"] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        except OSError:
            pass
        self.inputs[role] = entry

    def add(self, check: str, ok: bool, witness=None, checked=None) -> None:
        self.verdicts.append(
            {"check": check, "checked": checked, "ok": bool(ok), "witness": witness}
        )

    def add_entries(self, entries, prefix: str = "") -> None:
        for e in entries:
            self.add(prefix + e.name, e.ok, e.witness, e.checked)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "configuration": self.configuration,
            "inputs": self.inputs,
            "schema": 1,
            "timing": self.timing,
            "verdicts": self.verdicts,
        }

    def to_bytes(self) -> bytes:
        text = json.dumps(self.to_dict(), sort_keys=True, indent=2)
        return (text + "\n").encode("utf-8")

    def render_text(self, code: int) -> str:
        lines = []
        for v in self.verdicts:
            status = "pass" if v["ok"] else "FAIL"
            tail = f" [{v['witness']}]" if v["witness"] else ""
            lines.append(f"{status} {v['check']}{tail}")
        passed = sum(1 for v in self.verdicts if v["ok"])
        lines.append(
            f"{self.command}: {passed}/{len(self.verdicts)} checks passed"
            f" (exit {code})"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# input loading


class _BadInput(Exception):
    """Raised after a failure verdict has been recorded; maps to exit 2."""


def _read_json(path: str, report: RunReport, role: str):
    report.add_input(role, path)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        report.add(f"read-{role}", False, str(exc))
        raise _BadInput from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        report.add(
            f"parse-{role}",
            False,
            f"line {exc.lineno} column {exc.colno}: {exc.msg}",
        )
        raise _BadInput from exc


def _require_non_negative(args, report: RunReport, *options) -> None:
    """Refuse a negative value of any of the named count options."""
    for option in options:
        value = getattr(args, option.replace("-", "_"))
        if value is not None and value < 0:
            report.add(option, False, f"--{option} must not be negative, got {value}")
            raise _BadInput


def _require_writable(report: RunReport, option: str, path) -> None:
    """Refuse an output path that is a directory or lies in no directory."""
    if path is None or (Path(path).parent.is_dir() and not Path(path).is_dir()):
        return
    report.add(option, False, f"--{option} {path}: not a file in an existing directory")
    raise _BadInput


def _quantale_or_fail(raw, report: RunReport, role: str) -> Quantale:
    try:
        outcome = validate_quantale(raw)
    except QsheafError as exc:
        report.add(f"well-formed-{role}", False, str(exc))
        raise _BadInput from exc
    if isinstance(outcome, Quantale):
        return outcome
    witness = "; ".join(f"{e.name}: {e.witness}" for e in outcome.entries)
    report.add(f"quantale-laws-{role}", False, witness)
    raise _BadInput


def _load_site(raw, report: RunReport):
    """Returns (site, quantale-or-None, component-coverages-or-None).

    A site file is either a quantale spec, or an object with a "product"
    key holding "left" and "right" quantale specs; the latter builds the
    tensor-product order with pair objects named "(a,b)".
    """
    if not isinstance(raw, dict):
        report.add("well-formed-site", False, "site file must hold a JSON object")
        raise _BadInput
    if "product" in raw:
        inner = raw["product"]
        if not isinstance(inner, dict) or "left" not in inner or "right" not in inner:
            report.add(
                "well-formed-site", False, "product site needs 'left' and 'right'"
            )
            raise _BadInput
        lq = _quantale_or_fail(inner["left"], report, "site-left")
        rq = _quantale_or_fail(inner["right"], report, "site-right")
        lsite = ThinCategory.from_quantale(lq)
        rsite = ThinCategory.from_quantale(rq)
        site = ThinCategory.product(lsite, rsite)
        return site, None, ((lq, lsite), (rq, rsite))
    q = _quantale_or_fail(raw, report, "site")
    return ThinCategory.from_quantale(q), q, None


def _load_coverage(raw, site, quantale, components, report: RunReport):
    if not isinstance(raw, dict):
        report.add("well-formed-coverage", False, "coverage file must hold an object")
        raise _BadInput
    try:
        if raw.get("canonical") and components is not None:
            (lq, lsite), (rq, rsite) = components
            return product_coverage(
                canonical_quantale_coverage(lq, lsite),
                canonical_quantale_coverage(rq, rsite),
            )
        return parse_coverage(site, raw, quantale=quantale)
    except QsheafError as exc:
        report.add("well-formed-coverage", False, str(exc))
        raise _BadInput from exc


def _load_presheaf(raw, site, report: RunReport):
    try:
        p = parse_presheaf(site, raw)
    except QsheafError as exc:
        report.add("well-formed-presheaf", False, str(exc))
        raise _BadInput from exc
    audit = validate_presheaf(site, p)
    if not audit.ok:
        report.add_entries(audit.failures(), "presheaf-")
        raise _BadInput
    return p


def _load_inputs(args, report: RunReport):
    """(site, coverage, presheaf) of a command; presheaf is None if it takes none.

    Every file is read before any is parsed, so an unreadable file is
    reported ahead of a malformed one.
    """
    site_raw = _read_json(args.site, report, "site")
    cov_raw = _read_json(args.coverage, report, "coverage")
    has_presheaf = hasattr(args, "presheaf")
    if has_presheaf:
        p_raw = _read_json(args.presheaf, report, "presheaf")
    site, q, comps = _load_site(site_raw, report)
    cov = _load_coverage(cov_raw, site, q, comps, report)
    f = _load_presheaf(p_raw, site, report) if has_presheaf else None
    return site, cov, f


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check_quantale(args, report: RunReport, rng) -> int:
    raw = _read_json(args.file, report, "quantale")
    try:
        outcome = validate_quantale(raw)
    except QsheafError as exc:
        report.add("well-formed", False, str(exc))
        return EXIT_INVALID
    if not isinstance(outcome, Quantale):
        report.add_entries(outcome.entries)
        return EXIT_FAIL
    report.add("quantale-laws", True)
    flags = classify_quantale(outcome)
    names = sorted(vars(flags))
    report.add(
        "classification",
        True,
        ", ".join(f"{n}={getattr(flags, n)}" for n in names),
    )
    return EXIT_OK


def _cmd_check_prelopology(args, report: RunReport, rng) -> int:
    _, cov, _ = _load_inputs(args, report)
    report.configuration["families"] = cov.family_count()
    try:
        outcome = check_flavor(cov, args.flavor)
    except NotCartesianSite as exc:
        report.add("site-cartesian", False, str(exc))
        return EXIT_FAIL
    report.add_entries(outcome.entries)
    return EXIT_OK if outcome.ok else EXIT_FAIL


def _cmd_check_sheaf(args, report: RunReport, rng) -> int:
    _, cov, f = _load_inputs(args, report)
    methods = SHEAF_METHODS if args.method == "both" else (args.method,)
    outcomes = check_sheaf(f, cov, methods, rng)
    for name, outcome in zip(methods, outcomes):
        witness = f"verdict: {outcome.verdict}"
        if outcome.witness:
            witness += f"; {outcome.witness}"
        checked = outcome.cross_checked if name == "equalizer" else None
        report.add(f"sheaf-{name}", outcome.ok, witness, checked)
    return EXIT_OK if outcomes[0].ok else EXIT_FAIL


def _cmd_sheafify(args, report: RunReport, rng) -> int:
    _require_non_negative(args, report, "max-iter", "certify-battery")
    _require_writable(report, "out", args.out)
    site, cov, f = _load_inputs(args, report)
    result = sheafify(f, cov, max_iter=args.max_iter)
    report.configuration["iterations"] = result.iterations
    if not result.converged:
        report.add(
            "converged",
            False,
            f"iteration budget ({result.iterations}) exhausted before stabilizing",
        )
        return EXIT_UNCONVERGED
    battery = (
        enumerate_sheaves(site, cov, max_size=args.certify_battery)
        if args.certify_battery
        else []
    )
    cert = certify_reflection(f, result, cov, battery)
    report.add_entries(cert.entries)
    out = args.out or str(Path(args.presheaf).with_suffix(".sheaf.json"))
    payload = json.dumps(result.sheaf.to_raw(), sort_keys=True, indent=2) + "\n"
    try:
        Path(out).write_text(payload, encoding="utf-8")
    except OSError as exc:
        report.add("out", False, str(exc))
        raise _BadInput from exc
    report.configuration["output"] = {
        "path": out,
        "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
    }
    return EXIT_OK if cert.ok else EXIT_FAIL


def _cmd_sub(args, report: RunReport, rng) -> int:
    site, cov, f = _load_inputs(args, report)
    try:
        lattice = subsheaf_lattice(f, cov)
    except InternalDefect:
        raise
    except QsheafError as exc:
        report.add("ambient-sheaf", False, str(exc))
        raise _BadInput from exc
    report.add("ambient-sheaf", True)
    members = []
    for i, m in enumerate(lattice.members):
        sizes = {site.name(u): len(m.value(u)) for u in site.objects()}
        members.append({"name": f"S{i}", "sizes": sizes})
    report.configuration["members"] = members
    battery = enumerate_sheaves(site, cov, max_size=2)
    cells = [(i, j) for i in range(len(lattice.members)) for j in range(len(lattice.members))]
    rng.shuffle(cells)
    table, hom_table = {}, {}
    certified = True
    for i, j in cells:
        fact = star(
            lattice.inclusions[i],
            lattice.inclusions[j],
            cov,
            lattice=lattice,
            battery=battery,
            hom_table=hom_table,
        )
        table[f"S{i}*S{j}"] = f"S{fact.index}"
        certified = certified and fact.epi_certified
    report.configuration["star"] = table
    report.add(
        "star-table",
        certified,
        None if certified else "an image factorization failed certification",
        checked=len(cells),
    )
    return EXIT_OK if certified else EXIT_FAIL


def _cmd_verify_appendix(args, report: RunReport, rng) -> int:
    _require_non_negative(args, report, "size-bound")
    name = args.instance
    bound = args.size_bound
    if name == "finset":
        instance = FinSetCategory(max_size=bound if bound is not None else 2)
        suite_bound = None
    elif name == "product":
        instance = ProductCategory(
            FinSetCategory(max_size=2),
            ThinCategory.from_quantale(build_standard("lukasiewicz_chain", 3)),
        )
        suite_bound = bound if bound is not None else 2
    elif name.startswith("quantale:"):
        key = name.split(":", 1)[1]
        if key not in BUNDLED:
            report.add(
                "instance",
                False,
                f"unknown quantale {key!r}; bundled: {', '.join(sorted(BUNDLED))}",
            )
            return EXIT_INVALID
        instance = ThinCategory.from_quantale(build_standard(*BUNDLED[key]))
        suite_bound = bound
    else:
        report.add("instance", False, f"unknown instance {name!r}")
        return EXIT_INVALID
    outcome = verify_appendix_suite(instance, size_bound=suite_bound)
    report.add_entries(outcome.entries)
    return EXIT_OK if outcome.ok else EXIT_FAIL


def _cmd_lopos_check(args, report: RunReport, rng) -> int:
    raw = _read_json(args.file, report, "order")
    try:
        down_sets, entry = lopos_check(raw)
    except (InvalidSpec, MulNotAssociative) as exc:
        report.add(type(exc).__name__, False, str(exc))
        return EXIT_INVALID
    report.configuration["down_sets"] = down_sets
    report.add_entries([entry])
    return EXIT_OK if entry.ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write the report as JSON")
    common.add_argument(
        "--timing", action="store_true", help="include wall-clock timing in the report"
    )
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="shuffle the execution order of independent checks (results are"
        " order-independent)",
    )

    parser = argparse.ArgumentParser(
        prog="qsheaf",
        description="finite checks for ordered-monoid sites, covers and sheaves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "check-quantale", parents=[common], help="validate a quantale spec"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check_quantale)

    p = sub.add_parser(
        "check-prelopology",
        parents=[common],
        help="check the axioms of a coverage assignment",
    )
    p.add_argument("site")
    p.add_argument("coverage")
    p.add_argument(
        "--flavor",
        default="prelopology",
        choices=[
            "weak_prelopology",
            "prelopology",
            "strong_prelopology",
            "pretopology",
        ],
    )
    p.set_defaults(handler=_cmd_check_prelopology)

    p = sub.add_parser(
        "check-sheaf",
        parents=[common],
        help="decide sheaf / separated / neither for a presheaf",
    )
    p.add_argument("site")
    p.add_argument("coverage")
    p.add_argument("presheaf")
    p.add_argument(
        "--method", default="both", choices=["equalizer", "orthogonal", "both"]
    )
    p.set_defaults(handler=_cmd_check_sheaf)

    p = sub.add_parser(
        "sheafify",
        parents=[common],
        help="reflect a presheaf into the sheaves and certify the result",
    )
    p.add_argument("site")
    p.add_argument("coverage")
    p.add_argument("presheaf")
    p.add_argument("--max-iter", type=int, default=16)
    p.add_argument(
        "--certify-battery",
        type=int,
        default=0,
        metavar="SIZE",
        help="also certify the universal property against every sheaf with"
        " sections of at most SIZE elements",
    )
    p.add_argument("--out", help="where to write the reflected presheaf")
    p.set_defaults(handler=_cmd_sheafify)

    p = sub.add_parser(
        "sub",
        parents=[common],
        help="subobject lattice of a sheaf and its induced product table",
    )
    p.add_argument("site")
    p.add_argument("coverage")
    p.add_argument("presheaf")
    p.set_defaults(handler=_cmd_sub)

    p = sub.add_parser(
        "verify-appendix",
        parents=[common],
        help="run the coherence suite on a bundled instance",
    )
    p.add_argument(
        "--instance",
        default="finset",
        help="finset, product, or quantale:NAME"
        f" with NAME one of {', '.join(sorted(BUNDLED))}",
    )
    p.add_argument("--size-bound", type=int, default=None)
    p.set_defaults(handler=_cmd_verify_appendix)

    p = sub.add_parser(
        "lopos-check",
        parents=[common],
        help="test whether down-sets of an ordered monoid form a quantale",
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_lopos_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    configuration = {
        "flavor": getattr(args, "flavor", None),
        "method": getattr(args, "method", None),
        "max_iter": getattr(args, "max_iter", None),
        "certify_battery": getattr(args, "certify_battery", None),
        "instance": getattr(args, "instance", None),
        "size_bound": getattr(args, "size_bound", None),
        "seed": args.seed,
    }
    report = RunReport(args.command, configuration)
    try:
        _require_writable(report, "json", args.json)
    except _BadInput:
        print(report.render_text(EXIT_INVALID))
        return EXIT_INVALID
    rng = random.Random(args.seed)
    start = time.perf_counter()
    try:
        code = args.handler(args, report, rng)
    except _BadInput:
        code = EXIT_INVALID
    except NotConverged as exc:
        report.add("converged", False, str(exc))
        code = EXIT_UNCONVERGED
    except InternalDefect as exc:
        report.add("internal-defect", False, str(exc))
        code = EXIT_DEFECT
    except QsheafError as exc:
        report.add(type(exc).__name__, False, str(exc))
        code = EXIT_INVALID
    except Exception as exc:  # an unforeseen error is a defect here, not bad input
        report.add("internal-error", False, f"{type(exc).__name__}: {exc}")
        code = EXIT_DEFECT
    if args.timing:
        report.timing = {"seconds": round(time.perf_counter() - start, 6)}
    print(report.render_text(code))
    if args.json:
        Path(args.json).write_bytes(report.to_bytes())
    return code


if __name__ == "__main__":
    sys.exit(main())
