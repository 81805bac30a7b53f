"""BLIF reader and writer.

Supports the subset of BLIF used by the MCNC benchmark suite the paper
evaluates on: ``.model``, ``.inputs``, ``.outputs``, ``.names`` (single
output covers, on-set or off-set), ``.latch`` (with optional type/clock
fields), constants (``.names`` with no inputs), and ``.end``.  Line
continuation with ``\\`` and ``#`` comments are handled.

The reader produces a :class:`~repro.network.netlist.LogicNetwork` with
SOP nodes; :func:`repro.network.ops.expand_sop_nodes` lowers covers to
AND/OR/NOT gates for the domino flow.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import BlifError
from repro.network.netlist import GateType, LogicNetwork, SopCover


def _logical_lines(text: str):
    """Yield (line_no, tokens) with comments stripped and continuations joined."""
    pending: List[str] = []
    pending_line = 0
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip() and not pending:
            continue
        if line.endswith("\\"):
            if not pending:
                pending_line = i
            pending.append(line[:-1])
            continue
        if pending:
            pending.append(line)
            joined = " ".join(pending)
            yield pending_line, joined.split()
            pending = []
        else:
            tokens = line.split()
            if tokens:
                yield i, tokens
    if pending:
        joined = " ".join(pending)
        yield pending_line, joined.split()


def parse_blif(text: str) -> LogicNetwork:
    """Parse BLIF text into a :class:`LogicNetwork`.

    Raises :class:`~repro.errors.BlifError` on malformed input.
    """
    net: Optional[LogicNetwork] = None
    inputs: List[str] = []
    outputs: List[str] = []
    # .names bodies are collected then materialised at the end so that
    # forward references are fine.
    covers: List[Tuple[int, List[str], str, List[str], str]] = []
    # (line_no, fanins, output, cubes, output_value)
    latches: List[Tuple[int, str, str, int]] = []  # (line_no, input, output, init)
    current_cover: Optional[Tuple[int, List[str], str, List[str], List[str]]] = None
    ended = False

    def finish_cover() -> None:
        nonlocal current_cover
        if current_cover is None:
            return
        line_no, fanins, out, cubes, out_vals = current_cover
        if cubes and len(set(out_vals)) > 1:
            raise BlifError(f"cover for {out!r} mixes on-set and off-set rows", line_no)
        output_value = out_vals[0] if out_vals else "1"
        covers.append((line_no, fanins, out, cubes, output_value))
        current_cover = None

    for line_no, tokens in _logical_lines(text):
        key = tokens[0]
        if ended and key.startswith("."):
            break
        if key.startswith("."):
            if key != ".names":
                finish_cover()
            if key == ".model":
                if net is not None:
                    # Only the first model is read; multi-model files are
                    # outside the MCNC subset.
                    break
                net = LogicNetwork(tokens[1] if len(tokens) > 1 else "model")
            elif key == ".inputs":
                inputs.extend(tokens[1:])
            elif key == ".outputs":
                outputs.extend(tokens[1:])
            elif key == ".names":
                finish_cover()
                if len(tokens) < 2:
                    raise BlifError(".names needs at least an output", line_no)
                *fanins, out = tokens[1:]
                current_cover = (line_no, fanins, out, [], [])
            elif key == ".latch":
                if len(tokens) < 3:
                    raise BlifError(".latch needs input and output", line_no)
                lin, lout = tokens[1], tokens[2]
                init = 2
                # Optional fields: [type clock] [init]; the last token is
                # the init value if it is 0/1/2/3.
                if len(tokens) >= 4 and tokens[-1] in ("0", "1", "2", "3"):
                    init = int(tokens[-1])
                latches.append((line_no, lin, lout, init))
            elif key == ".end":
                ended = True
            elif key in (".exdc", ".subckt", ".gate", ".mlatch", ".search"):
                raise BlifError(f"unsupported BLIF construct {key}", line_no)
            else:
                # Unknown dot-directives (e.g. .default_input_arrival) are
                # ignored, as most tools do.
                continue
        else:
            if current_cover is None:
                raise BlifError(f"unexpected token {key!r} outside .names body", line_no)
            _, fanins, out, cubes, out_vals = current_cover
            if fanins:
                if len(tokens) != 2:
                    raise BlifError(
                        f"cover row for {out!r} must be '<cube> <value>'", line_no
                    )
                cube, val = tokens
                if len(cube) != len(fanins):
                    raise BlifError(
                        f"cube width {len(cube)} != fanin count {len(fanins)} for {out!r}",
                        line_no,
                    )
                cubes.append(cube)
                out_vals.append(val)
            else:
                if len(tokens) != 1 or tokens[0] not in ("0", "1"):
                    raise BlifError(f"constant row for {out!r} must be '0' or '1'", line_no)
                cubes.append("")
                out_vals.append(tokens[0])

    finish_cover()
    if net is None:
        raise BlifError("missing .model header")

    for name in inputs:
        net.add_input(name)
    for line_no, lin, lout, init in latches:
        try:
            net.add_latch(lout, lin, init)
        except Exception as exc:
            raise BlifError(str(exc), line_no) from exc
    for line_no, fanins, out, cubes, output_value in covers:
        if not fanins:
            # Constant node: a '1' row means const1, otherwise const0.
            gt = GateType.CONST1 if (cubes and output_value == "1") else GateType.CONST0
            net.add_gate(out, gt, [])
            continue
        cover = SopCover(cubes=cubes, output_value=output_value)
        try:
            net.add_gate(out, GateType.SOP, fanins, cover=cover)
        except Exception as exc:
            raise BlifError(str(exc), line_no) from exc
    for name in outputs:
        if name not in net.nodes:
            raise BlifError(f"output {name!r} is never defined")
        net.add_output(name)
    net.validate()
    return net


def _cover_of(node) -> SopCover:
    """Canonical SOP cover for any primitive gate type (for writing)."""
    n = len(node.fanins)
    t = node.gate_type
    if t is GateType.SOP:
        return node.cover
    if t is GateType.BUF:
        return SopCover(["1"], "1")
    if t is GateType.NOT:
        return SopCover(["0"], "1")
    if t is GateType.AND:
        return SopCover(["1" * n], "1")
    if t is GateType.NAND:
        return SopCover(["1" * n], "0")
    if t is GateType.OR:
        cubes = ["-" * i + "1" + "-" * (n - i - 1) for i in range(n)]
        return SopCover(cubes, "1")
    if t is GateType.NOR:
        cubes = ["-" * i + "1" + "-" * (n - i - 1) for i in range(n)]
        return SopCover(cubes, "0")
    if t is GateType.XOR or t is GateType.XNOR:
        cubes = []
        for m in range(2 ** n):
            bits = [(m >> i) & 1 for i in range(n)]
            parity = sum(bits) % 2
            want = 1 if t is GateType.XOR else 0
            if parity == want:
                cubes.append("".join(str(b) for b in bits))
        return SopCover(cubes, "1")
    if t is GateType.MUX:
        # fanins: (select, d0, d1)
        return SopCover(["0 1 -".replace(" ", ""), "1-1"], "1")
    raise BlifError(f"cannot emit BLIF cover for node {node.name} of type {t.value}")


def write_blif(network: LogicNetwork) -> str:
    """Serialise a network to BLIF text."""
    lines: List[str] = [f".model {network.name}"]
    if network.inputs:
        lines.append(".inputs " + " ".join(network.inputs))
    po_aliases: List[Tuple[str, str]] = []
    po_names = []
    for po, driver in network.outputs:
        po_names.append(po)
        if po != driver and po not in network.nodes:
            po_aliases.append((po, driver))
    if po_names:
        lines.append(".outputs " + " ".join(po_names))
    for latch in network.latches:
        init = latch.init_value
        lines.append(f".latch {latch.fanins[0]} {latch.name} {init}")
    for node in network.nodes.values():
        t = node.gate_type
        if t.is_comb_source:
            if t is GateType.CONST0:
                lines.append(f".names {node.name}")
            elif t is GateType.CONST1:
                lines.append(f".names {node.name}")
                lines.append("1")
            continue
        cover = _cover_of(node)
        lines.append(".names " + " ".join(node.fanins + [node.name]))
        for cube in cover.cubes:
            if cube:
                lines.append(f"{cube} {cover.output_value}")
            else:
                lines.append(cover.output_value)
    for po, driver in po_aliases:
        lines.append(f".names {driver} {po}")
        lines.append("1 1")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def load_blif(path: str) -> LogicNetwork:
    """Read a BLIF file from disk."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_blif(f.read())


def save_blif(network: LogicNetwork, path: str) -> None:
    """Write a network to a BLIF file."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(write_blif(network))
