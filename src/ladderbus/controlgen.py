"""Distributed controller programs: one scenario memory per region.

The switch fabric is split into regions of contiguous columns, one
local controller each. A controller stores, per scenario, one memory
word holding the 2-bit states of exactly its switches. A frame is one
pass over the scenarios in stored (partition) order: at step k every
controller drives word k (global lockstep), and frames repeat forever.
To reorder the steps, reorder the partition. The compiler takes only
the switch vectors, one int8 matrix row per scenario in scenario order;
which paths a scenario holds is not its concern.

Word layout: the region's switches sorted by (lane, column), that is
its columns of the matrix's lanes x columns view
(LadderTopology.switch_grid) read lane by lane; switch j of that order
occupies bits [2j, 2j+1] (LSB first). The compiler packs
four switches per byte in that order, byte 0 lowest, and reads each
scenario's bytes as one little-endian integer; decoding unpacks the
same bytes.

Program text format (byte-stable, one file per controller; each line
once, in this order on output, ``end`` last)::

    ladderbus-ctrl v2
    region 0
    columns 0 2
    n_lanes 3
    word_bits 18
    scenarios 4
    mem 00000 3a824 00108 20004
    end
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .topology import LadderTopology, round_half_up_sqrt


@dataclass(frozen=True)
class ControllerRegion:
    controller_id: int
    col_start: int  # columns [col_start, col_end] inclusive
    col_end: int
    n_lanes: int

    @property
    def n_columns(self) -> int:
        return self.col_end - self.col_start + 1

    @property
    def n_switches(self) -> int:
        return self.n_lanes * self.n_columns

    @property
    def word_bits(self) -> int:
        return 2 * self.n_switches


@dataclass(frozen=True)
class ControllerProgram:
    region: ControllerRegion
    memory: tuple[int, ...]  # one word per scenario, in frame order


def default_controller_count(topo: LadderTopology) -> int:
    return max(1, round_half_up_sqrt(topo.n_columns))


def partition_regions(topo: LadderTopology, n_controllers: int) -> list[ControllerRegion]:
    """Split columns into contiguous blocks with sizes differing by at most 1."""
    cols = topo.n_columns
    if not (1 <= n_controllers <= cols):
        raise ValueError(f"n_controllers must be in 1..{cols}, got {n_controllers}")
    base, extra = divmod(cols, n_controllers)
    regions = []
    start = 0
    for i in range(n_controllers):
        size = base + (1 if i < extra else 0)
        regions.append(
            ControllerRegion(controller_id=i, col_start=start, col_end=start + size - 1,
                             n_lanes=topo.n_lanes)
        )
        start += size
    return regions


def _check_regions(regions: list[ControllerRegion], topo: LadderTopology) -> None:
    """Raise ValueError unless the regions partition the columns, each over all lanes."""
    expect = 0
    for r in sorted(regions, key=lambda r: (r.col_start, r.col_end)):
        if r.col_start != expect:
            raise ValueError("regions do not partition the columns")
        if r.n_lanes != topo.n_lanes:
            raise ValueError(f"region {r.controller_id} has {r.n_lanes} lanes, topology has {topo.n_lanes}")
        expect = r.col_end + 1
    if expect != topo.n_columns:
        raise ValueError("regions do not partition the columns")


_SHIFTS = np.array([0, 2, 4, 6], dtype=np.uint8)  # bit offset of a byte's 4 switches, in word order


def encode_scenarios(
    matrix: np.ndarray,
    regions: list[ControllerRegion],
    topo: LadderTopology,
) -> list[ControllerProgram]:
    """Project every scenario's switch vector (row k of the (n_scenarios,
    n_switches) matrix is scenario k's) onto each region's memory."""
    if matrix.ndim != 2 or matrix.shape[1] != topo.n_switches:
        raise ValueError("switch vector length does not match topology")
    _check_regions(regions, topo)
    n_scen = matrix.shape[0]
    grid = topo.switch_grid(matrix)
    programs = []
    for region in regions:
        n_bytes = -(-region.n_switches // 4)
        states = np.zeros((n_scen, 4 * n_bytes), dtype=np.uint8)  # zero-padded to whole bytes
        region_states = grid[:, :, region.col_start:region.col_end + 1]
        states[:, :region.n_switches] = region_states.reshape(n_scen, region.n_switches) & 0b11
        packed = np.bitwise_or.reduce(states.reshape(n_scen, n_bytes, 4) << _SHIFTS, axis=2).tobytes()
        memory = tuple(int.from_bytes(packed[k * n_bytes:(k + 1) * n_bytes], "little") for k in range(n_scen))
        programs.append(ControllerProgram(region=region, memory=memory))
    return programs


def decode_programs(programs: list[ControllerProgram], topo: LadderTopology) -> np.ndarray:
    """Reassemble the (n_scenarios, n_switches) switch-state matrix from all
    regions' memories. Raises ValueError naming the controller and scenario
    of a word outside 0 .. 2**word_bits - 1."""
    _check_regions([prog.region for prog in programs], topo)
    n_scen = len(programs[0].memory)
    if any(len(prog.memory) != n_scen for prog in programs):
        raise ValueError("programs disagree on scenario count")
    matrix = np.zeros((n_scen, topo.n_switches), dtype=np.int8)
    grid = topo.switch_grid(matrix)
    for prog in programs:
        region = prog.region
        for k, word in enumerate(prog.memory):
            if not 0 <= word < 1 << region.word_bits:
                raise ValueError(f"controller {region.controller_id}, scenario {k}: "
                                 f"memory word {word:x} does not fit in {region.word_bits} bits")
        n_bytes = -(-region.n_switches // 4)
        raw = b"".join(word.to_bytes(n_bytes, "little") for word in prog.memory)
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(n_scen, n_bytes, 1)
        states = ((packed >> _SHIFTS) & 0b11).reshape(n_scen, 4 * n_bytes)
        grid[:, :, region.col_start:region.col_end + 1] = states[:, :region.n_switches].reshape(
            n_scen, region.n_lanes, region.n_columns)
    return matrix


def control_memory_bits(programs: list[ControllerProgram]) -> int:
    """Total scenario-memory bits across all controllers."""
    return sum(len(p.memory) * p.region.word_bits for p in programs)


# ---------------------------------------------------------------------------
# program files


_FORMAT = "ladderbus-ctrl v2"


def format_program(prog: ControllerProgram) -> str:
    r = prog.region
    digits = max(1, math.ceil(r.word_bits / 4))
    lines = [
        _FORMAT,
        f"region {r.controller_id}",
        f"columns {r.col_start} {r.col_end}",
        f"n_lanes {r.n_lanes}",
        f"word_bits {r.word_bits}",
        f"scenarios {len(prog.memory)}",
        "mem" + "".join(f" {w:0{digits}x}" for w in prog.memory),
        "end",
    ]
    return "\n".join(lines) + "\n"


# integers after the keyword of each header line
_ARITY = {"region": 1, "columns": 2, "n_lanes": 1, "word_bits": 1, "scenarios": 1}
# the numerals a value may be spelled with: ASCII digits only, no prefix, sign
# (a header value's minus aside, which the range checks name) or underscore
_HEX_WORD = re.compile("[0-9a-f]+")
_DECIMAL = re.compile("-?[0-9]+")


def parse_program(text: str) -> ControllerProgram:
    """Parse one program file; ValueError names the malformed line or keyword.
    Each header line and the mem line must appear once, and end must be last."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _FORMAT:
        raise ValueError(f"not a {_FORMAT} program")
    fields: dict[str, tuple[int, ...]] = {}  # keyword -> its line's integers (mem: its words)
    for n, ln in enumerate(lines[1:], 1):
        key, *vals = ln.split()
        if key == "end" and not vals:
            if n + 1 < len(lines):
                raise ValueError(f"program line {lines[n + 1]!r} follows the 'end' line")
            break
        if key in fields:
            raise ValueError(f"program line {ln!r}: a second {key!r} line")
        if key != "mem" and len(vals) != _ARITY.get(key):
            raise ValueError(f"program line {ln!r}: unknown keyword or wrong number of values")
        numeral, base, kind = (_HEX_WORD, 16, "hexadecimal") if key == "mem" else (_DECIMAL, 10, "decimal")
        for v in vals:
            if not numeral.fullmatch(v):
                raise ValueError(f"program line {ln!r}: {v!r} is not a {kind} integer")
        fields[key] = tuple(int(v, base) for v in vals)
    else:
        raise ValueError("program has no 'end' line")
    for key in (*_ARITY, "mem"):
        if key not in fields:
            raise ValueError(f"program has no {key!r} line")
    (ctrl_id,), (col_start, col_end), (n_lanes,), (word_bits,), (n_scen,) = (fields[key] for key in _ARITY)
    memory = fields["mem"]
    if not 0 <= col_start <= col_end:
        raise ValueError(f"program field 'columns' is {col_start} {col_end}, not an ascending range from 0 up")
    if n_lanes < 1:
        raise ValueError(f"program field 'n_lanes' is {n_lanes}, below 1")
    region = ControllerRegion(ctrl_id, col_start, col_end, n_lanes)
    if word_bits != region.word_bits:
        raise ValueError(f"program field 'word_bits' is {word_bits}, its region needs {region.word_bits}")
    if len(memory) != n_scen:
        raise ValueError(f"expected {n_scen} memory words, found {len(memory)}")
    for k, w in enumerate(memory):
        if w.bit_length() > word_bits:  # no 1 << word_bits: word_bits may be huge
            raise ValueError(f"memory word {k} ({w:x}) does not fit in {word_bits} bits")
    return ControllerProgram(region=region, memory=memory)
