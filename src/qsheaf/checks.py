"""Check entries, check reports and the driver that fills them.

Every exhaustive check in qsheaf (coverage axioms, coherence laws, the
down-set criterion, the quantale laws) is a generator over its
instances. `drain` turns one into a single counted `CheckEntry` that
stops at the first failure; `drain_each` does the same for a generator
that decides several laws on one walk over shared instances; `collect`
turns one into an uncounted failing entry per witness, which is how the
quantale laws list every violation. Checks whose instance counts are
not reported (presheaf functoriality, the reflection certificate,
terminal preservation) build their entries directly and leave `checked`
unset.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckEntry:
    """One named check: its verdict, instances examined, first witness."""

    name: str
    ok: bool
    checked: int | None = None
    witness: str | None = None


@dataclass
class CheckReport:
    """Entries in report order, under an optional heading line."""

    heading: str | None = None
    entries: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list:
        return [e for e in self.entries if not e.ok]


def drain(name: str, failures) -> CheckEntry:
    """Run a check generator up to its first failure.

    `failures` yields once per instance: `None` when the instance holds,
    the witness string when it fails. A witness is therefore formatted
    only for a failing instance. The entry counts the instances yielded,
    the failing one included; the generator is not resumed after a
    failure, and an exception it raises propagates.
    """
    checked = 0
    for witness in failures:
        checked += 1
        if witness is not None:
            return CheckEntry(name, False, checked, witness)
    return CheckEntry(name, True, checked)


def drain_each(names, rows) -> list:
    """Run a generator that decides every law in `names` per instance.

    `rows` yields one tuple per instance, holding for each law `None` or
    its witness, as `drain` expects of a single law. Each entry stops at
    its own first failure and counts the instances up to it; a law that
    holds counts them all. The generator is not resumed once every law
    has failed, and an exception it raises propagates.
    """
    entries = [None] * len(names)
    checked = 0
    for row in rows:
        checked += 1
        for i, witness in enumerate(row):
            if witness is not None and entries[i] is None:
                entries[i] = CheckEntry(names[i], False, checked, witness)
        if all(entries):
            break
    return [e or CheckEntry(name, True, checked) for name, e in zip(names, entries)]


def collect(name: str, failures) -> list:
    """Run a check generator to the end; one failing entry per witness, in order."""
    return [CheckEntry(name, False, None, w) for w in failures if w is not None]
