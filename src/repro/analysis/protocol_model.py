"""Extract and model-check the fleet wire-protocol state machine.

``repro.fleet`` is two communicating state machines: the coordinator
and the worker exchange frozen ``Message`` dataclasses over
length-prefixed frames, and each side mutates declared state tuples
(``FLEET_JOB_STATES``, ``WORKER_STATES``) as messages arrive.  The
per-file ``protocol-exhaustive`` rule checks each message class in
isolation; this module checks the *composed* system in the spirit of
nested model checking (N-PAT): build a finite model of who sends and
handles which message and which states are entered/exited where, then
exhaustively walk the product for liveness defects —

* **send-without-handler**: a role constructs a message no peer role
  dispatches on; the frame decodes fine and drops on the floor.
* **orphan message**: a registered message no role sends *or* handles.
* **no-exit state**: a state that can be entered but has no transition
  out and is not declared terminal.
* **never-entered state**: a declared state nothing ever assigns.

Extraction (:func:`extract_protocol`) is separated from checking
(:func:`check_protocol`) so tests can seed defects by mutating the
extracted model — drop one handler table entry and the checker must
report the unhandled pair.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.base import Project, SourceFile, ancestors

__all__ = [
    "MessageDecl",
    "RoleModel",
    "StateMachine",
    "ProtocolModel",
    "extract_protocol",
    "check_protocol",
]


@dataclass
class MessageDecl:
    """One registered wire-message class."""

    name: str
    type_tag: str
    source: SourceFile
    line: int


@dataclass
class RoleModel:
    """One protocol participant: a class with isinstance dispatch over
    message types.  ``handles`` maps message name → dispatch line;
    ``sends`` maps message name → constructor-call lines."""

    name: str
    source: SourceFile
    line: int
    handles: Dict[str, int] = field(default_factory=dict)
    sends: Dict[str, List[int]] = field(default_factory=dict)


@dataclass
class StateMachine:
    """One declared state tuple (``NAME_STATES = ("a", "b", ...)``) plus
    the entry/exit evidence collected from assignments project-wide."""

    name: str
    source: SourceFile
    line: int
    states: Tuple[str, ...]
    #: states with entry evidence (field default, ``.state = "x"``
    #: assignment, or a ``state="x"`` call keyword)
    entered: Set[str] = field(default_factory=set)
    #: states with exit evidence (an assignment to a *different* member
    #: whose state-guard includes the state, or is unguarded)
    exited: Set[str] = field(default_factory=set)
    #: states declared terminal (member of a ``*TERMINAL*`` collection)
    terminal: Set[str] = field(default_factory=set)


@dataclass
class ProtocolModel:
    messages: Dict[str, MessageDecl] = field(default_factory=dict)
    roles: Dict[str, RoleModel] = field(default_factory=dict)
    machines: List[StateMachine] = field(default_factory=list)


# ---------------------------------------------------------------------------
# extraction


def _is_message_class(cls: ast.ClassDef) -> Optional[str]:
    """The wire TYPE when ``cls`` is a registered Message subclass."""
    if not any(
        (isinstance(b, ast.Name) and b.id == "Message")
        or (isinstance(b, ast.Attribute) and b.attr == "Message")
        for b in cls.bases
    ):
        return None
    for stmt in cls.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "TYPE":
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    return value.value
    return None


def _ref_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _extract_roles(
    project: Project, message_names: Set[str]
) -> Dict[str, RoleModel]:
    roles: Dict[str, RoleModel] = {}
    for source in project.parsed():
        for cls in ast.walk(source.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if _is_message_class(cls) is not None:
                continue
            handles: Dict[str, int] = {}
            sends: Dict[str, List[int]] = {}
            for node in ast.walk(cls):
                if not isinstance(node, ast.Call):
                    continue
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                ):
                    spec = node.args[1]
                    refs = list(spec.elts) if isinstance(spec, ast.Tuple) else [spec]
                    for ref in refs:
                        name = _ref_name(ref)
                        if name in message_names:
                            handles.setdefault(name, node.lineno)
                else:
                    name = _ref_name(node.func)
                    if name in message_names:
                        sends.setdefault(name, []).append(node.lineno)
            if handles or sends:
                roles[cls.name] = RoleModel(
                    name=cls.name,
                    source=source,
                    line=cls.lineno,
                    handles=handles,
                    sends=sends,
                )
    return roles


def _declared_state_tuples(project: Project) -> List[StateMachine]:
    machines: List[StateMachine] = []
    for source in project.parsed():
        for stmt in source.tree.body:  # module level only
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not (isinstance(target, ast.Name) and target.id.endswith("_STATES")):
                continue
            if not isinstance(stmt.value, ast.Tuple):
                continue
            values = [
                e.value
                for e in stmt.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            if len(values) != len(stmt.value.elts) or not values:
                continue
            machines.append(
                StateMachine(
                    name=target.id,
                    source=source,
                    line=stmt.lineno,
                    states=tuple(values),
                )
            )
    return machines


def _terminal_declarations(project: Project) -> Set[str]:
    """All string members of module-level ``*TERMINAL*`` collections."""
    terminal: Set[str] = set()
    for source in project.parsed():
        for stmt in source.tree.body:
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not (isinstance(target, ast.Name) and "TERMINAL" in target.id):
                continue
            for node in ast.walk(stmt.value):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    terminal.add(node.value)
    return terminal


def _guard_states(assign: ast.stmt, universe: Set[str]) -> Set[str]:
    """States named by the nearest enclosing ``if`` that tests ``.state``.

    Empty set means unguarded (the assignment fires from any state)."""
    for anc in ancestors(assign):
        if not isinstance(anc, ast.If):
            continue
        mentions_state = any(
            isinstance(n, (ast.Attribute, ast.Name))
            and (getattr(n, "attr", None) == "state" or getattr(n, "id", None) == "state")
            for n in ast.walk(anc.test)
        )
        if not mentions_state:
            continue
        guard = {
            n.value
            for n in ast.walk(anc.test)
            if isinstance(n, ast.Constant)
            and isinstance(n.value, str)
            and n.value in universe
        }
        return guard
    return set()


def _collect_state_evidence(
    project: Project, machines: List[StateMachine]
) -> None:
    universe: Set[str] = set()
    for machine in machines:
        universe.update(machine.states)
    if not universe:
        return

    #: (assigned literals, guard literals) per relevant assignment
    records: List[Tuple[Set[str], Set[str]]] = []

    for source in project.parsed():
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                value = node.value
                if value is None:
                    continue
                state_target = any(
                    (isinstance(t, ast.Attribute) and t.attr == "state")
                    or (
                        isinstance(t, ast.Name)
                        and t.id == "state"
                        and any(isinstance(a, ast.ClassDef) for a in ancestors(node))
                    )
                    for t in targets
                )
                if not state_target:
                    continue
                assigned = {
                    n.value
                    for n in ast.walk(value)
                    if isinstance(n, ast.Constant)
                    and isinstance(n.value, str)
                    and n.value in universe
                }
                if not assigned:
                    continue
                records.append((assigned, _guard_states(node, universe)))
            elif isinstance(node, ast.Call):
                assigned = {
                    kw.value.value
                    for kw in node.keywords
                    if kw.arg == "state"
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                    and kw.value.value in universe
                }
                if assigned:
                    records.append((assigned, _guard_states(node, universe)))

    for machine in machines:
        members = set(machine.states)
        for assigned, guard in records:
            hits = assigned & members
            machine.entered.update(hits)
            for state in members:
                if guard and state not in guard:
                    continue
                if any(t != state for t in hits):
                    machine.exited.add(state)


def extract_protocol(project: Project) -> ProtocolModel:
    """Build the protocol model for the linted file set."""
    model = ProtocolModel()
    for source in project.parsed():
        for cls in ast.walk(source.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            tag = _is_message_class(cls)
            if tag is not None:
                model.messages[cls.name] = MessageDecl(
                    name=cls.name, type_tag=tag, source=source, line=cls.lineno
                )
    model.roles = _extract_roles(project, set(model.messages))
    model.machines = _declared_state_tuples(project)
    _collect_state_evidence(project, model.machines)
    terminal = _terminal_declarations(project)
    for machine in model.machines:
        machine.terminal = terminal & set(machine.states)
    return model


# ---------------------------------------------------------------------------
# checking


def check_protocol(model: ProtocolModel) -> List[Tuple[SourceFile, int, str]]:
    """Exhaustively check the product machine; returns raw findings as
    ``(source, line, message)`` triples (the rule wraps them)."""
    problems: List[Tuple[SourceFile, int, str]] = []

    roles = model.roles
    if len(roles) >= 2:
        for role_name in sorted(roles):
            role = roles[role_name]
            peers = [roles[n] for n in sorted(roles) if n != role_name]
            for msg in sorted(role.sends):
                if any(msg in peer.handles for peer in peers):
                    continue
                peer_names = ", ".join(p.name for p in peers)
                problems.append(
                    (
                        role.source,
                        role.sends[msg][0],
                        f"{role.name} sends {msg} but no peer role "
                        f"({peer_names}) has an isinstance handler for it; "
                        "the frame decodes and is silently dropped",
                    )
                )
        for msg in sorted(model.messages):
            decl = model.messages[msg]
            if any(msg in r.sends or msg in r.handles for r in roles.values()):
                continue
            problems.append(
                (
                    decl.source,
                    decl.line,
                    f"message {msg} (wire type {decl.type_tag!r}) is "
                    "registered but no protocol role sends or handles it",
                )
            )

    for machine in model.machines:
        if not machine.entered:
            continue  # no evidence in the linted set; nothing to check
        for state in machine.states:
            if state in machine.entered and state not in machine.exited:
                if state in machine.terminal:
                    continue
                problems.append(
                    (
                        machine.source,
                        machine.line,
                        f"state {state!r} of {machine.name} can be entered "
                        "but no transition leaves it and it is not declared "
                        "terminal; jobs parked there are stranded",
                    )
                )
        for state in machine.states:
            if state not in machine.entered:
                problems.append(
                    (
                        machine.source,
                        machine.line,
                        f"state {state!r} is declared in {machine.name} but "
                        "nothing ever enters it; dead state or missing "
                        "transition",
                    )
                )
    return problems
