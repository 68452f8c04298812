"""Rule family ``block-protocol`` — batched block/registry conformance.

The batched solver swaps a block's vectorised methods in for the scalar
ones on the promise that they are bit-identical drop-ins; drift in a
signature or in a :class:`~repro.core.block.PreparedBlockLineariser`'s
``constant`` declaration corrupts every lane of a march without a single
test necessarily noticing.  Checks:

* ``block-protocol.signature`` — every override of a batched protocol
  method (``evaluate_batch`` / ``linearise_batch`` /
  ``batched_lineariser``) uses exactly the protocol's positional
  parameter list (sourced from ``AnalogueBlock`` in the checked tree when
  present, falling back to the canonical contract);
* ``block-protocol.constant-fields`` — names declared ``constant`` by a
  prepared lineariser must be real linearisation fields
  (:data:`repro.core.block.LINEARISATION_FIELDS`) and, when the prepared
  callable constructs a fresh ``BatchedLinearisation`` per call, must be
  fields that construction actually passes;
* ``block-protocol.shadowed-batch`` — a block class must not override a
  scalar model method (``linearise``, or ``derivatives`` /
  ``algebraic_residual``) below the class providing the batched method
  that stands in for it (``linearise_batch`` / ``batched_lineariser``, or
  ``evaluate_batch``; :data:`repro.core.block.BATCHED_SCALAR_COUNTERPARTS`)
  without overriding that batched method too — the batched path would
  march the ancestor's model and silently ignore the override (the
  runtime falls back to the scalar methods, losing the speed-up);
* ``block-protocol.roundtrip`` — a class defining ``to_dict`` must also
  define ``from_dict`` (serialised specs that cannot come back are
  write-only data);
* ``block-protocol.registry-terminals`` — every ``register_block`` entry
  with the analogue role declares its terminal ports with valid kinds,
  so specs stay wire-checkable without instantiating anything.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..core.block import (
    BATCHED_PROTOCOL_METHODS,
    BATCHED_SCALAR_COUNTERPARTS,
    LINEARISATION_FIELDS,
)
from .base import Finding, LintRule, Project, SourceFile, iter_classes

__all__ = ["BlockProtocolRule", "PROTOCOL_SIGNATURES", "TERMINAL_KINDS"]

#: canonical positional parameter lists of the batched block protocol
#: (used when the checked tree does not itself define ``AnalogueBlock``)
PROTOCOL_SIGNATURES: Dict[str, Tuple[str, ...]] = {
    "evaluate_batch": ("self", "lanes", "t", "x", "y"),
    "linearise_batch": ("self", "lanes", "t", "x", "y"),
    "batched_lineariser": ("self", "lanes"),
}

#: terminal kinds a registry entry may declare
TERMINAL_KINDS = ("voltage", "current")


def _positional_params(func: ast.FunctionDef) -> Tuple[str, ...]:
    args = func.args
    return tuple(a.arg for a in (*args.posonlyargs, *args.args))


def _is_analogue_block_subclass(cls: ast.ClassDef) -> bool:
    """Whether the class names ``AnalogueBlock`` among its bases.

    The signature contract only binds protocol *overrides*; unrelated
    classes may reuse a method name (e.g. the PWL companion table's own
    ``evaluate_batch``) with whatever signature fits them.
    """
    for base in cls.bases:
        if isinstance(base, ast.Name) and base.id == "AnalogueBlock":
            return True
        if isinstance(base, ast.Attribute) and base.attr == "AnalogueBlock":
            return True
    return False


def _base_names(cls: ast.ClassDef) -> List[str]:
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _method_lines(cls: ast.ClassDef) -> Dict[str, int]:
    return {
        member.name: member.lineno
        for member in cls.body
        if isinstance(member, ast.FunctionDef)
    }


def _shadowed_batches(
    project: Project,
) -> Iterator[Tuple[SourceFile, ast.ClassDef, str, int, List[str]]]:
    """Scalar overrides that sit below the class providing their batched method.

    Classes are resolved by simple name across the checked tree; a name
    defined more than once, or a base outside the tree, ends the ancestor
    walk there (better silent than wrong).  ``AnalogueBlock``'s own
    batched methods are the generic loops over the scalar methods, so
    they never shadow anything.  Yields ``(file, class, scalar method,
    line, ["Provider.batched_method", ...])``.
    """
    by_name: Dict[str, List[Tuple[SourceFile, ast.ClassDef]]] = {}
    for sf in project.files:
        if sf.tree is None:
            continue
        for cls in iter_classes(sf.tree):
            by_name.setdefault(cls.name, []).append((sf, cls))

    def ancestors(cls: ast.ClassDef) -> List[ast.ClassDef]:
        out: List[ast.ClassDef] = []
        pending = _base_names(cls)
        while pending:
            name = pending.pop(0)
            found = by_name.get(name, [])
            if name == "AnalogueBlock" or len(found) != 1:
                continue
            base = found[0][1]
            if base not in out:
                out.append(base)
                pending.extend(_base_names(base))
        return out

    for entries in by_name.values():
        for sf, cls in entries:
            chain = ancestors(cls)
            if cls.name == "AnalogueBlock" or not any(
                _is_analogue_block_subclass(c) for c in (cls, *chain)
            ):
                continue
            own = _method_lines(cls)
            shadowed: Dict[str, List[str]] = {}
            for batched, scalars in BATCHED_SCALAR_COUNTERPARTS.items():
                if batched in own:
                    continue
                provider = next(
                    (base for base in chain if batched in _method_lines(base)), None
                )
                if provider is None:
                    continue
                for scalar in scalars:
                    if scalar in own:
                        shadowed.setdefault(scalar, []).append(
                            f"{provider.name}.{batched}"
                        )
            for scalar, providers in shadowed.items():
                yield sf, cls, scalar, own[scalar], providers


def _protocol_signatures(project: Project) -> Dict[str, Tuple[str, ...]]:
    """Protocol signatures, read from the tree's ``AnalogueBlock`` if any."""
    signatures = dict(PROTOCOL_SIGNATURES)
    for sf in project.files:
        if sf.tree is None:
            continue
        for cls in iter_classes(sf.tree):
            if cls.name != "AnalogueBlock":
                continue
            for member in cls.body:
                if (
                    isinstance(member, ast.FunctionDef)
                    and member.name in signatures
                ):
                    signatures[member.name] = _positional_params(member)
    return signatures


def _constant_names(
    call: ast.Call, method: ast.FunctionDef
) -> Optional[List[Tuple[str, int]]]:
    """The ``constant=`` names of a ``PreparedBlockLineariser(...)`` call.

    Understands a literal tuple/list, ``tuple(name)`` over a local list
    built from literals plus ``name.append("...")`` calls, or a direct
    local-name reference.  Returns ``None`` when the declaration cannot be
    resolved statically (no finding is emitted then — better silent than
    wrong).
    """
    value = next(
        (kw.value for kw in call.keywords if kw.arg == "constant"), None
    )
    if value is None:
        return []  # defaults to the empty tuple — nothing to check

    def literal_elements(node: ast.expr) -> Optional[List[Tuple[str, int]]]:
        if isinstance(node, (ast.Tuple, ast.List)):
            out: List[Tuple[str, int]] = []
            for elt in node.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    out.append((elt.value, elt.lineno))
                else:
                    return None
            return out
        return None

    direct = literal_elements(value)
    if direct is not None:
        return direct

    name: Optional[str] = None
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "tuple"
        and len(value.args) == 1
        and isinstance(value.args[0], ast.Name)
    ):
        name = value.args[0].id
    elif isinstance(value, ast.Name):
        name = value.id
    if name is None:
        return None

    collected: List[Tuple[str, int]] = []
    resolved = False
    for node in ast.walk(method):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            elements = literal_elements(node.value)
            if elements is None:
                return None
            collected.extend(elements)
            resolved = True
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
            and len(node.args) == 1
        ):
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                collected.append((arg.value, arg.lineno))
            else:
                return None
    return collected if resolved else None


def _written_fields(
    call: ast.Call, method: ast.FunctionDef
) -> Optional[Set[str]]:
    """Fields the prepared lineariser writes per call, or ``None`` to skip.

    The lineariser is the ``lineariser=`` argument: a lambda or a local
    ``def``.  When it constructs ``BatchedLinearisation(...)`` with
    keywords, those keywords are the written fields; a lineariser that
    returns a precomputed object (e.g. the fully-static supercapacitor
    path) has every field legitimately constant, so ``None`` disables the
    subset check.
    """
    value = next(
        (kw.value for kw in call.keywords if kw.arg == "lineariser"), None
    )
    if value is None and call.args:
        value = call.args[0]
    if value is None:
        return None
    body: Optional[ast.AST] = None
    if isinstance(value, ast.Lambda):
        body = value
    elif isinstance(value, ast.Name):
        body = next(
            (
                node
                for node in ast.walk(method)
                if isinstance(node, ast.FunctionDef) and node.name == value.id
            ),
            None,
        )
    if body is None:
        return None
    written: Set[str] = set()
    constructed = False
    for node in ast.walk(body):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "BatchedLinearisation"
        ):
            if node.args:
                return None  # positional construction — order-dependent, skip
            constructed = True
            written.update(kw.arg for kw in node.keywords if kw.arg is not None)
    return written if constructed else None


class BlockProtocolRule(LintRule):
    """Batched-API signatures, constant declarations and round-trips."""

    family = "block-protocol"
    description = (
        "registered blocks must match the batched protocol signatures, "
        "declare honest PreparedBlockLineariser constants, not shadow a "
        "batched method with a scalar override, keep to_dict/from_dict "
        "pairs and declare registry terminals"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        signatures = _protocol_signatures(project)
        for sf in project.files:
            if sf.tree is None:
                continue
            yield from self._check_classes(sf, signatures)
            yield from self._check_registry_calls(sf)
        for sf, cls, scalar, line, providers in _shadowed_batches(project):
            yield self.finding(
                "shadowed-batch",
                sf,
                line,
                f"{cls.name}.{scalar} overrides the scalar model below "
                f"{' and '.join(providers)}, which {cls.name} inherits "
                "unchanged — the batched path cannot see the override and "
                "falls back to the slow scalar loop; override the batched "
                f"method(s) in {cls.name} as well",
            )

    def _check_classes(
        self, sf: SourceFile, signatures: Dict[str, Tuple[str, ...]]
    ) -> Iterator[Finding]:
        for cls in iter_classes(sf.tree):
            methods = {
                member.name: member
                for member in cls.body
                if isinstance(member, ast.FunctionDef)
            }
            if "to_dict" in methods and "from_dict" not in methods:
                yield self.finding(
                    "roundtrip",
                    sf,
                    cls.lineno,
                    f"class {cls.name} defines to_dict() but no from_dict() "
                    "— serialised forms must round-trip or the declarative "
                    "layer cannot rebuild them",
                )
            if cls.name == "AnalogueBlock":
                continue  # the protocol definition itself
            if not _is_analogue_block_subclass(cls):
                continue  # unrelated classes may reuse the method names
            for method_name in BATCHED_PROTOCOL_METHODS:
                method = methods.get(method_name)
                if method is None:
                    continue
                expected = signatures[method_name]
                actual = _positional_params(method)
                if (
                    actual != expected
                    or method.args.vararg is not None
                    or method.args.kwarg is not None
                    or method.args.kwonlyargs
                ):
                    yield self.finding(
                        "signature",
                        sf,
                        method.lineno,
                        f"{cls.name}.{method_name} has parameters "
                        f"({', '.join(actual)}), but the batched protocol "
                        f"requires exactly ({', '.join(expected)}) — the "
                        "solver calls these positionally on every refresh",
                    )
                if method_name == "batched_lineariser":
                    yield from self._check_prepared(sf, cls, method)

    def _check_prepared(
        self, sf: SourceFile, cls: ast.ClassDef, method: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in ast.walk(method):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "PreparedBlockLineariser"
            ):
                continue
            constants = _constant_names(node, method)
            if constants is None:
                continue
            written = _written_fields(node, method)
            for name, line in constants:
                if name not in LINEARISATION_FIELDS:
                    yield self.finding(
                        "constant-fields",
                        sf,
                        line,
                        f"{cls.name}.batched_lineariser declares constant "
                        f"field {name!r}, which is not a linearisation field "
                        f"{LINEARISATION_FIELDS} — the batched refresh would "
                        "silently never scatter it",
                    )
                elif written is not None and name not in written:
                    yield self.finding(
                        "constant-fields",
                        sf,
                        line,
                        f"{cls.name}.batched_lineariser declares {name!r} "
                        "constant, but the prepared lineariser never passes "
                        "it to BatchedLinearisation — the caller would reuse "
                        "a field the lineariser does not provide",
                    )

    def _check_registry_calls(self, sf: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(sf.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "register_block"
            ):
                continue
            keywords = {kw.arg: kw.value for kw in node.keywords}
            role = "analogue"
            role_node = keywords.get("role")
            if isinstance(role_node, ast.Constant) and isinstance(
                role_node.value, str
            ):
                role = role_node.value
            if role != "analogue":
                continue
            terminals = keywords.get("terminals")
            pairs: List[Tuple[str, str, int]] = []
            resolved = True
            if isinstance(terminals, (ast.Tuple, ast.List)):
                for elt in terminals.elts:
                    if (
                        isinstance(elt, (ast.Tuple, ast.List))
                        and len(elt.elts) == 2
                        and all(
                            isinstance(part, ast.Constant)
                            and isinstance(part.value, str)
                            for part in elt.elts
                        )
                    ):
                        pairs.append(
                            (elt.elts[0].value, elt.elts[1].value, elt.lineno)
                        )
                    else:
                        resolved = False
            elif terminals is not None:
                resolved = False
            if terminals is None or (resolved and not pairs):
                yield self.finding(
                    "registry-terminals",
                    sf,
                    node.lineno,
                    "register_block entry with the analogue role declares no "
                    "terminals — specs cannot be wire-checked without the "
                    "static port contract",
                )
                continue
            for name, kind, line in pairs:
                if kind not in TERMINAL_KINDS:
                    yield self.finding(
                        "registry-terminals",
                        sf,
                        line,
                        f"terminal {name!r} declares kind {kind!r}; valid "
                        f"kinds are {TERMINAL_KINDS}",
                    )
