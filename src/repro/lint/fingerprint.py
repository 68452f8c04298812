"""Rule family ``fingerprint`` — execution-fingerprint coverage.

The cache and checkpoint layers derive "is this the same execution?"
from :meth:`repro.api.options.RunOptions.fingerprint`, i.e. from the
``self.<field>`` reads in that method.  A result-changing knob that
never reaches the fingerprint silently serves stale cache entries — the
exact class of bug the lane-core knobs ``compiled`` and ``refresh`` once
had to rule out by hand.  This rule makes the contract
machine-checked:

* every ``RunOptions`` dataclass field must either be read by the
  ``fingerprint()`` method or appear in the module's explicit
  ``FINGERPRINT_EXEMPT`` table (``fingerprint.unfingerprinted``);
* every exemption must name a real field (``fingerprint.stale-exemption``),
  must not *also* be fingerprinted (``fingerprint.contradictory-exemption``)
  and must carry a substantive one-line justification
  (``fingerprint.missing-reason``).

The rule fires on any file defining a class named ``RunOptions`` so the
fixture trees under ``tests/lint`` exercise it without importing repro.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from .base import Finding, LintRule, Project, SourceFile

__all__ = ["FingerprintCoverageRule", "EXEMPT_TABLE_NAME", "MIN_REASON_LENGTH"]

#: name of the module-level exemption table the rule looks for
EXEMPT_TABLE_NAME = "FINGERPRINT_EXEMPT"

#: a justification shorter than this cannot possibly say *why* the knob
#: is result-neutral, so it counts as missing
MIN_REASON_LENGTH = 10


def _class_fields(cls: ast.ClassDef) -> Dict[str, int]:
    """Dataclass field name -> line, from the class body's AnnAssigns."""
    fields: Dict[str, int] = {}
    for node in cls.body:
        if not isinstance(node, ast.AnnAssign):
            continue
        if not isinstance(node.target, ast.Name):
            continue
        name = node.target.id
        if name.startswith("_"):
            continue
        annotation = ast.dump(node.annotation)
        if "ClassVar" in annotation:
            continue
        fields[name] = node.lineno
    return fields


def _self_reads(func: ast.FunctionDef) -> Tuple[str, ...]:
    """Attribute names read off ``self`` anywhere in the method body."""
    reads = []
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            reads.append(node.attr)
    return tuple(reads)


def _exempt_table(
    tree: ast.Module,
) -> Optional[Dict[str, Tuple[int, Optional[str]]]]:
    """``FINGERPRINT_EXEMPT`` as name -> (line, reason), or ``None``.

    Only literal ``{str: str}`` dicts are understood; a non-literal table
    is treated as absent (and the unfingerprinted findings will say so).
    """
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == EXEMPT_TABLE_NAME:
                if not isinstance(value, ast.Dict):
                    return None
                table: Dict[str, Tuple[int, Optional[str]]] = {}
                for key, val in zip(value.keys, value.values):
                    if not (
                        isinstance(key, ast.Constant) and isinstance(key.value, str)
                    ):
                        continue
                    reason = (
                        val.value
                        if isinstance(val, ast.Constant)
                        and isinstance(val.value, str)
                        else None
                    )
                    table[key.value] = (key.lineno, reason)
                return table
    return None


class FingerprintCoverageRule(LintRule):
    """Every ``RunOptions`` field is fingerprinted or explicitly exempt."""

    family = "fingerprint"
    description = (
        "every RunOptions field must be read by RunOptions.fingerprint() "
        "or listed in FINGERPRINT_EXEMPT with a justification"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for sf in project.files:
            if sf.tree is None:
                continue
            for node in sf.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == "RunOptions":
                    yield from self._check_class(sf, node)

    def _check_class(
        self, sf: SourceFile, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        fields = _class_fields(cls)
        fingerprint_method = next(
            (
                member
                for member in cls.body
                if isinstance(member, ast.FunctionDef)
                and member.name == "fingerprint"
            ),
            None,
        )
        fingerprinted = (
            frozenset(_self_reads(fingerprint_method))
            if fingerprint_method is not None
            else frozenset()
        )
        exempt = _exempt_table(sf.tree) if sf.tree is not None else None
        exempt_names = frozenset(exempt or ())

        for name, line in fields.items():
            if name in fingerprinted or name in exempt_names:
                continue
            yield self.finding(
                "unfingerprinted",
                sf,
                line,
                f"RunOptions.{name} is neither read by fingerprint() nor "
                f"listed in {EXEMPT_TABLE_NAME} — an unfingerprinted "
                "result-changing knob silently serves stale cache entries; "
                "fingerprint it or add an exemption with a one-line "
                "justification",
            )

        for name, (line, reason) in (exempt or {}).items():
            if name not in fields:
                yield self.finding(
                    "stale-exemption",
                    sf,
                    line,
                    f"{EXEMPT_TABLE_NAME} lists {name!r}, which is not a "
                    "RunOptions field — remove the stale entry so the table "
                    "stays an exact map of the deliberate exclusions",
                )
                continue
            if name in fingerprinted:
                yield self.finding(
                    "contradictory-exemption",
                    sf,
                    line,
                    f"{EXEMPT_TABLE_NAME} lists {name!r} but fingerprint() "
                    "reads it — the field is fingerprinted, so the exemption "
                    "misdocuments the cache-key contract; remove it",
                )
            if reason is None or len(reason.strip()) < MIN_REASON_LENGTH:
                yield self.finding(
                    "missing-reason",
                    sf,
                    line,
                    f"{EXEMPT_TABLE_NAME}[{name!r}] needs a one-line "
                    "justification saying why the knob can never change a "
                    "result (the table is the documented audit trail for "
                    "cache-key exclusions)",
                )
