"""SHA3-256 as crossbar microcode: state mapping, step generators, driver.

Each hash unit is one 72x37 partition. The 5x5x64 state maps onto a 25x64
cell block: lane (x, y) lives in column ``5x + y`` (``UnitLayout.lane_col``;
``LANE_COLS`` tabulates it by lane x + 5y) and bit z in row z, so plane-wise
XORs run row-parallel and lane rotations run column-parallel.
The 12 columns right of the state hold the theta intermediates (C, D), one
spare lane and one scratch column; the 8 rows below it hold the rotation
select bits and the in-column scratch rows.

Rotation offsets sit bit-sliced in a shared ROT block under the bottom
partition row (one copy per column of units) and the round constants in a
shared RC block right of the last partition column (one copy per row of
units); both are copied into a unit over the partition switches, one
double-inverting hop (``_hop``) per unit, once per use. One generator,
``_fetch``, writes both fetches; theta's top-bit stash is a hop too.

Microcode is generated for a reference unit, packed by the scheduler,
checked once, and frozen; hashing replays the frozen program on every
active unit in lockstep (`engine`). Each distinct program is compiled
once: only the first hop of a fetch reads the shared block, so the RC
chain (shared by the 24 rounds) and the ROT chain (shared by the 6 offset
planes) are each scheduled, checked and frozen once, and spliced after
every round's or plane's own first hop. The segments are joined into one
program, ``permute``, and freed; the compile keeps ``permute`` and the
two ``absorb`` programs alone. A step program (``step_program``) is
``permute`` restricted to one step's cycles of one round.
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np

from . import engine
from .crossbar import (
    IN_COL,
    IN_ROW,
    CapacityError,
    Crossbar,
    CrossbarConfig,
    ExecutionStats,
    GateType,
    PartitionMap,
    integer,
)
from .scheduler import MacroKind, MacroOp, OpStream, batches, schedule

STATE_COLS = 25

# FIPS-202 rotation offsets r[x][y] and round constants RC[0..23].
ROTATION_OFFSETS = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
]

ROUND_CONSTANTS = [
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
]


@dataclasses.dataclass(frozen=True)
class KeccakParams:
    """Sponge geometry for SHA3-256."""

    state_bits: int = 1600      # b
    rate_bits: int = 1088       # r
    capacity_bits: int = 512    # c
    lane_bits: int = 64         # w
    rounds: int = 24
    digest_bits: int = 256

    def __post_init__(self):
        if self.state_bits != self.rate_bits + self.capacity_bits:
            raise ValueError("state bits must equal rate + capacity")
        if self.state_bits != 25 * self.lane_bits:
            raise ValueError("state bits must equal 25 lanes")
        if self.digest_bits > self.rate_bits:
            raise ValueError("digest cannot exceed the rate")

    @property
    def rate_bytes(self) -> int:
        return self.rate_bits // 8

    @property
    def rate_lanes(self) -> int:
        return self.rate_bits // self.lane_bits


KECCAK = KeccakParams()
LANE_BITS = KECCAK.lane_bits


def _pi_cycle() -> list[tuple[int, int]]:
    """The single 24-lane cycle of (x, y) -> (y, 2x+3y); (0,0) is fixed."""
    cycle = [(1, 0)]
    while True:
        x, y = cycle[-1]
        nxt = (y, (2 * x + 3 * y) % 5)
        if nxt == cycle[0]:
            return cycle
        cycle.append(nxt)


PI_CYCLE = _pi_cycle()


# ----------------------------------------------------------------- the layout

class UnitLayout:
    """Address map of one 72x37 hash unit."""

    ROWS = 72
    COLS = 37

    def __init__(self, origin: tuple[int, int] = (0, 0)):
        self.origin = origin

    def row(self, z: int) -> int:
        return self.origin[0] + z

    def lane_col(self, x: int, y: int) -> int:
        return self.origin[1] + 5 * x + y

    def c_col(self, x: int) -> int:          # theta C[x]
        return self.origin[1] + 25 + x

    def d_col(self, x: int) -> int:          # theta D[x]
        return self.origin[1] + 30 + x

    @property
    def x_col(self) -> int:                  # spare lane (pi staging, chi, RC hop)
        return self.origin[1] + 35

    @property
    def m_col(self) -> int:                  # scratch column (RC local copy)
        return self.origin[1] + 36

    @property
    def t_row(self) -> int:                  # rotation select bits
        return self.origin[0] + 64

    @property
    def tn_row(self) -> int:                 # inverted select bits
        return self.origin[0] + 65

    @property
    def p_row(self) -> int:                  # rotation partial a & t
        return self.origin[0] + 66

    @property
    def q_row(self) -> int:                  # rotation partial b & ~t
        return self.origin[0] + 67

    @property
    def s_row(self) -> int:                  # redundant slice (chain stash)
        return self.origin[0] + 68

    @property
    def a_row(self) -> int:                  # hop/shift intermediate
        return self.origin[0] + 69

    @property
    def b_row(self) -> int:
        return self.origin[0] + 70

    def stage_col(self, k: int) -> int:
        """Columns used to stage message lanes during absorption (C then D)."""
        if not 0 <= k < 10:
            raise ValueError("only 10 staging columns exist")
        return self.origin[1] + 25 + k


# Column offset of lane x + 5y within a unit, the one table the data path
# indexes by lane.
LANE_COLS = np.array([UnitLayout().lane_col(x, y) for y in range(5) for x in range(5)])


class CrossbarLayout:
    """Hash units on the crossbar's partitions plus the shared ROT/RC block
    placement. Which partition holds which unit, the switch between two
    partitions and the cell offset of a partition shift are all read off
    ``partition_map``, the config's ``crossbar.PartitionMap``."""

    ROT_PLANES = 6   # offsets are 6-bit

    def __init__(self, config: CrossbarConfig):
        if config.unit_rows != UnitLayout.ROWS or config.unit_cols != UnitLayout.COLS:
            raise ValueError(f"hash units are {UnitLayout.ROWS}x{UnitLayout.COLS}")
        self.config = config
        self.partition_map = PartitionMap(config)
        self.vparts = config.vertical_partitions
        self.hparts = config.horizontal_partitions
        self.rot_base_row = self.vparts * config.unit_rows
        self.rc_base_col = self.hparts * config.unit_cols
        if self.rot_base_row + self.ROT_PLANES > config.rows:
            raise ValueError("no room for the shared ROT block below the units")
        if self.rc_base_col + len(ROUND_CONSTANTS) > config.cols:
            raise ValueError("no room for the shared RC block right of the units")

    @property
    def num_units(self) -> int:
        return self.vparts * self.hparts

    def unit_origin(self, unit_id: int) -> tuple[int, int]:
        partitions = self.partition_map
        return tuple(partitions.offset(partitions.partition(unit_id)).tolist())

    def unit(self, unit_id: int) -> UnitLayout:
        if not 0 <= unit_id < self.num_units:
            raise ValueError(f"unit {unit_id} out of range")
        return UnitLayout(self.unit_origin(unit_id))

    # shared-block cells (absolute)

    def rc_col(self, round_index: int) -> int:
        return self.rc_base_col + round_index

    def setup_shared_blocks(self, xbar: Crossbar,
                            offsets: list[list[int]] | None = None) -> None:
        """Write the ROT bit-planes and RC constants (peripheral io)."""
        offsets = offsets if offsets is not None else ROTATION_OFFSETS
        rot = np.empty((self.ROT_PLANES, STATE_COLS), dtype=np.uint8)
        rot[:, LANE_COLS] = _bit_planes(np.transpose(offsets).ravel(), self.ROT_PLANES)
        for h in range(self.hparts):
            c0 = h * self.config.unit_cols
            xbar.write_region((self.rot_base_row, self.rot_base_row + self.ROT_PLANES),
                              (c0, c0 + STATE_COLS), rot)
        rc = _bit_planes(ROUND_CONSTANTS, LANE_BITS)
        for v in range(self.vparts):
            r0 = v * self.config.unit_rows
            xbar.write_region((r0, r0 + LANE_BITS),
                              (self.rc_base_col, self.rc_base_col + len(ROUND_CONSTANTS)),
                              rc)


# ------------------------------------------------------- state/bit conversions

def _bit_planes(words, n: int) -> np.ndarray:
    """[n, len(words)] bits: row j holds bit j of each word."""
    words = np.asarray(words, dtype=np.uint64)
    return (words >> np.arange(n, dtype=np.uint64)[:, None] & 1).astype(np.uint8)


def lanes_to_bits(lanes: list[int]) -> np.ndarray:
    """25 lane words -> 64x25 cell bits (bit z of lane i at [z, LANE_COLS[i]])."""
    bits = np.empty((LANE_BITS, STATE_COLS), dtype=np.uint8)
    bits[:, LANE_COLS] = _bit_planes(lanes, LANE_BITS)
    return bits


def bits_to_lanes(bits: np.ndarray) -> list[int]:
    """64x25 cell bits -> 25 lane words (inverse of ``lanes_to_bits``)."""
    lane_bytes = np.packbits(bits[:, LANE_COLS], axis=0, bitorder="little")
    return np.ascontiguousarray(lane_bytes.T).view("<u8").ravel().tolist()


def write_unit_state(xbar: Crossbar, unit: UnitLayout, bits: np.ndarray) -> None:
    r0, c0 = unit.origin
    xbar.write_region((r0, r0 + LANE_BITS), (c0, c0 + STATE_COLS), bits)


def read_unit_state(xbar: Crossbar, unit: UnitLayout) -> np.ndarray:
    r0, c0 = unit.origin
    return xbar.read_region((r0, r0 + LANE_BITS), (c0, c0 + STATE_COLS))


# ------------------------------------------------------------------- messages

def pad_message(message: bytes) -> list[bytes]:
    """Split ``message`` into rate-sized blocks with SHA-3 pad10*1 applied."""
    rate = KECCAK.rate_bytes
    padded = bytearray(message + b"\x06" + bytes(-(len(message) + 1) % rate))
    padded[-1] |= 0x80
    return [bytes(padded[i:i + rate]) for i in range(0, len(padded), rate)]


def blocks_to_bits(blocks: list[bytes]) -> np.ndarray:
    """Rate blocks -> [len(blocks), rate_lanes, 64] bit array in lane order."""
    bits = np.unpackbits(np.frombuffer(b"".join(blocks), dtype=np.uint8),
                         bitorder="little")
    return bits.reshape(len(blocks), KECCAK.rate_lanes, KECCAK.lane_bits)


def blocks_state_bits(blocks: list[bytes]) -> np.ndarray:
    """Rate blocks -> [len(blocks), 64, 25] full state bits (capacity lanes
    zero)."""
    bits = np.zeros((len(blocks), LANE_BITS, STATE_COLS), dtype=np.uint8)
    bits[:, :, LANE_COLS[:KECCAK.rate_lanes]] = np.swapaxes(blocks_to_bits(blocks), 1, 2)
    return bits


# --------------------------------------------------------- microcode helpers

def _lane_rows(unit: UnitLayout) -> range:
    return range(unit.row(0), unit.row(LANE_BITS))


def _along(lines: range, orientation: str) -> dict:
    """The count and stride of a macro run over ``lines``: the rows of an
    in-row macro, the columns of an in-column one."""
    step = (lines.step, 0) if orientation == IN_ROW else (0, lines.step)
    return {"count": len(lines), "stride": step}


def _xor_inplace(stream: OpStream, rows: range, a_col: int, b_col: int,
                 u_col: int, v_col: int) -> None:
    """a ^= b down ``rows`` via NOR/AND/NOR (3 gates, 2 scratch columns)."""
    z, run = rows[0], _along(rows, IN_ROW)
    stream.append(MacroOp(GateType.NOR2, ((z, a_col), (z, b_col)), (z, u_col), **run))
    stream.append(MacroOp(GateType.AND2, ((z, a_col), (z, b_col)), (z, v_col), **run))
    stream.barrier()
    stream.append(MacroOp(GateType.NOR2, ((z, u_col), (z, v_col)), (z, a_col), **run))
    stream.barrier()


def _hop(stream: OpStream, orientation: str, lines: range, src: int,
         via: int, dst: int, switch=None) -> None:
    """Double-inverting copy ``src -> via -> dst`` along each of ``lines``,
    one run per inversion.

    ``src``, ``via`` and ``dst`` are columns of each row for ``IN_ROW`` and
    rows of each column for ``IN_COL``; only the first inversion may cross
    ``switch``, so the destination receives the true bit values.
    """
    def cell(at: int) -> tuple[int, int]:
        return (lines[0], at) if orientation == IN_ROW else (at, lines[0])

    run = _along(lines, orientation)
    switches = frozenset([switch]) if switch else frozenset()
    stream.append(MacroOp(GateType.NOT, (cell(src),), cell(via),
                          switches=switches, **run))
    stream.barrier()
    stream.append(MacroOp(GateType.NOT, (cell(via),), cell(dst), **run))
    stream.barrier()


# ------------------------------------------------------------ step generators

def theta_microcode(unit: UnitLayout) -> OpStream:
    """C[x] = xor of plane columns; D[x] = C[x-1] ^ (C[x+1] <<< 1); A ^= D."""
    s = OpStream("theta")
    rows = _lane_rows(unit)
    z, down = rows[0], _along(rows, IN_ROW)
    m, xc = unit.m_col, unit.x_col

    # Five-column XOR reduction into C[x], chained through the scratch
    # columns; D columns serve as the XOR macro scratch while still free.
    for x in range(5):
        cols = [unit.lane_col(x, y) for y in range(5)]
        chain = [(cols[0], cols[1], m), (m, cols[2], xc),
                 (xc, cols[3], m), (m, cols[4], unit.c_col(x))]
        for a, b, out in chain:
            s.append(MacroOp(MacroKind.XOR2, ((z, a), (z, b)), (z, out),
                             scratch=((z, unit.d_col(0)), (z, unit.d_col(1)),
                                      (z, unit.d_col(2))), **down))
            s.barrier()

    # D[x] <- not C[x+1] (row-parallel copies, inverted once)
    for x in range(5):
        s.append(MacroOp(GateType.NOT, ((z, unit.c_col((x + 1) % 5)),),
                         (z, unit.d_col(x)), **down))
    s.barrier()

    # Rotate the D columns by one row (in-column). The top bit is stashed
    # by a hop through two spare rows (double inversion), then a descending
    # pass shifts in place; each NOT also undoes the inversion from the copy.
    dcols = range(unit.d_col(0), unit.d_col(5))
    d, across = dcols[0], _along(dcols, IN_COL)
    _hop(s, IN_COL, dcols, unit.row(63), unit.a_row, unit.b_row)
    for row in range(63, 0, -1):
        s.append(MacroOp(GateType.NOT, ((unit.row(row - 1), d),), (unit.row(row), d),
                         **across))
        s.barrier()
    s.append(MacroOp(GateType.NOT, ((unit.b_row, d),), (unit.row(0), d), **across))
    s.barrier()

    # D[x] ^= C[x-1], then every lane ^= its D column.
    for x in range(5):
        _xor_inplace(s, rows, unit.d_col(x), unit.c_col((x - 1) % 5), xc, m)
    for x in range(5):
        for y in range(5):
            _xor_inplace(s, rows, unit.lane_col(x, y), unit.d_col(x), xc, m)
    return s


def variable_rotate(unit: UnitLayout, lane_cols: range) -> list[OpStream]:
    """Data-dependent cyclic rotation of whole lanes, one stream per level.

    Level j muxes every lane between itself and itself shifted by 2^j rows,
    selected by bit j of that lane's offset (already fetched into the select
    row). The shift-by-2^j permutation splits into 2^j cyclic chains which
    execute serially: each chain stashes its first destination's source
    into the redundant slice row, then walks destinations in source order,
    computing both mux partials in spare rows before overwriting in place.
    Every macro runs across ``lane_cols``.
    """
    streams = []
    t, tn, p, q, sr = unit.t_row, unit.tn_row, unit.p_row, unit.q_row, unit.s_row
    c, across = lane_cols[0], _along(lane_cols, IN_COL)
    for j in range(6):
        s = OpStream("rho")
        s.append(MacroOp(GateType.NOT, ((t, c),), (tn, c), **across))
        s.barrier()
        step = 1 << j
        for start in range(step):
            s.append(MacroOp(GateType.NOT, ((unit.row(start), c),), (sr, c), **across))
            s.barrier()
            length = LANE_BITS // step
            for k in range(length):
                dest = (start - k * step) % LANE_BITS
                src = unit.row((dest - step) % LANE_BITS)
                if k == length - 1:
                    # source bit was overwritten first; use its stashed
                    # complement: a & t == NOR(~a, ~t)
                    s.append(MacroOp(GateType.NOR2, ((sr, c), (tn, c)), (p, c),
                                     **across))
                else:
                    s.append(MacroOp(GateType.AND2, ((src, c), (t, c)), (p, c),
                                     **across))
                s.append(MacroOp(GateType.AND2, ((unit.row(dest), c), (tn, c)),
                                 (q, c), **across))
                s.barrier()
                s.append(MacroOp(GateType.OR2, ((p, c), (q, c)),
                                 (unit.row(dest), c), **across))
                s.barrier()
        streams.append(s)
    return streams


def rho_lane_cols(unit: UnitLayout) -> range:
    """The 25 lane columns, which are contiguous in lane order."""
    return range(unit.lane_col(0, 0), unit.lane_col(4, 4) + 1)


def pi_microcode(unit: UnitLayout) -> OpStream:
    """Walk the 24-lane permutation cycle through the spare lane column."""
    s = OpStream("pi")
    rows = _lane_rows(unit)
    cols = [unit.lane_col(x, y) for x, y in PI_CYCLE]
    _hop(s, IN_ROW, rows, cols[0], unit.m_col, unit.x_col)
    _hop(s, IN_ROW, rows, cols[-1], unit.m_col, cols[0])
    for k in range(len(cols) - 1, 1, -1):
        _hop(s, IN_ROW, rows, cols[k - 1], unit.m_col, cols[k])
    _hop(s, IN_ROW, rows, unit.x_col, unit.m_col, cols[1])
    return s


def chi_microcode(unit: UnitLayout) -> OpStream:
    """Per plane: invert the five lanes, then A[x] ^= ~A[x+1] & A[x+2]."""
    s = OpStream("chi")
    rows = _lane_rows(unit)
    z, down = rows[0], _along(rows, IN_ROW)
    for y in range(5):
        for x in range(5):
            s.append(MacroOp(GateType.NOT, ((z, unit.lane_col(x, y)),),
                             (z, unit.c_col(x)), **down))
        s.barrier()
        for x in range(5):
            # the inverted copies preserve this plane's pre-step values
            s.append(MacroOp(GateType.NOT, ((z, unit.c_col((x + 2) % 5)),),
                             (z, unit.m_col), **down))
            s.barrier()
            s.append(MacroOp(GateType.AND2,
                             ((z, unit.c_col((x + 1) % 5)), (z, unit.m_col)),
                             (z, unit.x_col), **down))
            s.barrier()
            _xor_inplace(s, rows, unit.lane_col(x, y), unit.x_col,
                         unit.d_col(0), unit.m_col)
    return s


def iota_local_microcode(unit: UnitLayout) -> OpStream:
    """XOR the fetched round constant (in the scratch column) into A[0][0]."""
    s = OpStream("iota")
    _xor_inplace(s, _lane_rows(unit), unit.lane_col(0, 0), unit.m_col,
                 unit.x_col, unit.d_col(0))
    return s


def absorb_microcode(unit: UnitLayout, lanes: list[int]) -> OpStream:
    """XOR staged message lanes (staging column k) into the state."""
    s = OpStream("io")
    for k, lane in enumerate(lanes):
        _xor_inplace(s, _lane_rows(unit), unit.origin[1] + int(LANE_COLS[lane]),
                     unit.stage_col(k), unit.x_col, unit.m_col)
    return s


# ------------------------------------------------------------- shared fetches

def _fetch(layout: CrossbarLayout, label: str, orientation: str, lines: range,
           block: list[int], stops: list[tuple[int, int]]) -> list[OpStream]:
    """A shared-block fetch: one first-hop stream per ``block`` line, then
    the chain. ``stops[k]`` is the k-th unit's (via, destination) line. A
    first hop copies its block line into the last stop; the chain hops it
    from stop to stop back to stop 0, across the closed switch between each
    two. Only the first hop reads the block, so the chain is compiled once.
    """
    via, dst = stops[-1]
    streams = [OpStream(label) for _ in block]
    for stream, line in zip(streams, block):
        _hop(stream, orientation, lines, line, via, dst)
    chain = OpStream(label)
    kind = "row" if orientation == IN_COL else "col"
    for k in range(len(stops) - 1, 0, -1):
        _hop(chain, orientation, lines, stops[k][1], *stops[k - 1],
             switch=layout.partition_map.switch(kind, k))
    return streams + [chain]


def rot_fetch_microcode(layout: CrossbarLayout) -> list[OpStream]:
    """Each offset bit-plane, from the ROT block up the reference column of
    units into their select rows (replicated per active unit column)."""
    units = [layout.unit(v * layout.hparts) for v in range(layout.vparts)]
    return _fetch(layout, "rho", IN_COL, range(STATE_COLS),
                  [layout.rot_base_row + plane for plane in range(layout.ROT_PLANES)],
                  [(unit.a_row, unit.t_row) for unit in units])


def rc_fetch_microcode(layout: CrossbarLayout) -> list[OpStream]:
    """Each round constant, from the RC block left along the reference row
    of units into their scratch columns (replicated per active unit row)."""
    units = [layout.unit(h) for h in range(layout.hparts)]
    return _fetch(layout, "iota", IN_ROW, range(LANE_BITS),
                  [layout.rc_col(r) for r in range(KECCAK.rounds)],
                  [(unit.x_col, unit.m_col) for unit in units])


# ------------------------------------------------------------------ compiler

_ABSORB_BATCHES = ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], [10, 11, 12, 13, 14, 15, 16])


class CompiledKeccak:
    """Frozen microcode for one crossbar geometry, replayable on any units."""

    def __init__(self, config: CrossbarConfig):
        # the geometry alone, as every caller of that geometry shares it
        self.config = config = CrossbarConfig(
            rows=config.rows, cols=config.cols,
            vertical_partitions=config.vertical_partitions,
            horizontal_partitions=config.horizontal_partitions,
            unit_rows=config.unit_rows, unit_cols=config.unit_cols)
        self.layout = CrossbarLayout(config)
        xbar = Crossbar(config)
        ref = UnitLayout((0, 0))

        def compiled(streams: list[tuple[OpStream, int]]) -> list[engine.FrozenProgram]:
            """Each (stream, origin set)'s program, in order, scheduled and
            frozen a batch of streams at a time."""
            set_ids = [set_id for _, set_id in streams]
            programs: list[engine.FrozenProgram] = []
            for batch in batches([stream for stream, _ in streams]):
                program = schedule(batch, xbar)
                ids = set_ids[len(programs):len(programs) + len(batch)]
                programs += engine.freeze(
                    program.lines, program.labels,
                    np.repeat(ids, np.diff(program.lines.segment_ptr)), config)
                del program     # its table is freed before the next batch's is built
            return programs

        unit_set = engine.SET_UNIT
        row_set, col_set = engine.SET_PARTITION_ROW, engine.SET_PARTITION_COL
        *rot_hops, rot_chain = rot_fetch_microcode(self.layout)
        *rc_hops, rc_chain = rc_fetch_microcode(self.layout)
        # taken off the front, so each segment's program is freed once used
        programs = collections.deque(compiled(
            [(rot_chain, col_set)]
            + [pair for hop, core in zip(rot_hops, variable_rotate(ref, rho_lane_cols(ref)))
               for pair in ((hop, col_set), (core, unit_set))]
            + [(theta_microcode(ref), unit_set), (pi_microcode(ref), unit_set),
               (chi_microcode(ref), unit_set), (rc_chain, row_set),
               (iota_local_microcode(ref), unit_set)]
            + [(hop, row_set) for hop in rc_hops]
            + [(absorb_microcode(ref, lanes), unit_set) for lanes in _ABSORB_BATCHES]))
        take = programs.popleft
        rot_chain = take()
        rho = [program for _ in rot_hops for program in (take(), rot_chain, take())]
        theta, pi, chi, rc_chain, iota_local = (take() for _ in range(5))
        # each round's segments in cycle order, theta first (step_program
        # relies on it); permute stores each distinct segment once
        rounds = [[theta, *rho, pi, chi, take(), rc_chain, iota_local] for _ in rc_hops]
        self.absorb = list(programs)
        self.permute = engine.concat([program for segments in rounds for program in segments])

    def step_program(self, step: str, round_index: int = 0) -> engine.FrozenProgram:
        """Frozen microcode for one permutation step of round ``round_index``
        (testing aid): ``permute`` restricted to that step's cycles of that
        round. A round starts at each cycle that runs theta's first stored
        bundle."""
        if not 0 <= integer("round_index", round_index) < KECCAK.rounds:
            raise ValueError(f"round index {round_index} out of range")
        permute, names = self.permute, self.permute.label_names
        if step not in names:
            raise ValueError(f"unknown step {step!r}")
        label, order = permute.bundle_label, permute.order
        first = np.flatnonzero(label == names.index("theta"))[0]
        starts = np.r_[np.flatnonzero(order == first), order.shape[0]]
        cycles = order[starts[round_index]:starts[round_index + 1]]
        program = dataclasses.replace(
            permute, order=cycles[label[cycles] == names.index(step)])
        # its stored bundles, so their trace records, are permute's
        object.__setattr__(program, "trace_tails", permute.trace_tails)
        return program

    # ------------------------------------------------------------- replay glue

    def deltas_for(self, unit_ids: list[int]) -> list[np.ndarray]:
        """``engine.replay``'s shifts for ``unit_ids``: each unit's partition
        (v, h), then (v, 0) per partition row and (0, h) per column used."""
        v, h = self.layout.partition_map.partition(np.asarray(unit_ids, dtype=np.int64))
        rows, cols = np.unique(v), np.unique(h)
        return [np.column_stack([v, h]), np.column_stack([rows, 0 * rows]),
                np.column_stack([0 * cols, cols])]

    def units(self, deltas: list[np.ndarray]) -> list[UnitLayout]:
        """The unit at each shift of ``deltas``'s unit set."""
        origins = self.layout.partition_map.offset(deltas[engine.SET_UNIT])
        return [UnitLayout(tuple(origin)) for origin in origins.tolist()]

    def run_permute(self, xbar: Crossbar, deltas: list[np.ndarray]) -> None:
        engine.replay(self.permute, xbar, deltas)

    def run_absorb(self, xbar: Crossbar, deltas: list[np.ndarray],
                   lane_bits: np.ndarray) -> None:
        """Stage one rate block per unit (io) and XOR it into the states.

        ``lane_bits[i]`` is the [rate_lanes, 64] bit array for the unit at
        the i-th shift of ``deltas``'s unit set.
        """
        units = self.units(deltas)
        staged = np.swapaxes(lane_bits, 1, 2)       # [unit, bit, lane]
        for batch, program in zip(_ABSORB_BATCHES, self.absorb):
            # one copy per batch, whose per-unit blocks are contiguous
            blocks = np.ascontiguousarray(staged[:, :, batch])
            for unit, block in zip(units, blocks):
                r0, c0 = unit.row(0), unit.stage_col(0)
                xbar.write_region((r0, r0 + LANE_BITS), (c0, c0 + len(batch)), block)
            engine.replay(program, xbar, deltas)


_compiled_cache: dict[tuple, CompiledKeccak] = {}


def compiled_keccak(config: CrossbarConfig | None = None) -> CompiledKeccak:
    config = config or CrossbarConfig()
    if config.geometry not in _compiled_cache:
        _compiled_cache[config.geometry] = CompiledKeccak(config)
    return _compiled_cache[config.geometry]


# -------------------------------------------------------------------- hashing

def _digest_from_state(bits: np.ndarray) -> bytes:
    lanes = bits_to_lanes(bits)
    return b"".join(lanes[lane].to_bytes(8, "little")
                    for lane in range(KECCAK.digest_bits // KECCAK.lane_bits))


def plan_cohorts(block_counts: list[int], units_per_crossbar: int) -> list[list[int]]:
    """Group message indices into equal-block-count lockstep cohorts.

    A cohort shares one crossbar run (one unit per message), so it is
    capped at the unit count and all of its messages must need the same
    number of permutations.
    """
    order = sorted(range(len(block_counts)), key=lambda i: block_counts[i])
    cohorts: list[list[int]] = []
    for i in order:
        if cohorts and block_counts[cohorts[-1][0]] == block_counts[i] \
                and len(cohorts[-1]) < units_per_crossbar:
            cohorts[-1].append(i)
        else:
            cohorts.append([i])
    return cohorts


def check_capacity(n_messages: int, config: CrossbarConfig, crossbars: int) -> None:
    """Raise ``CapacityError`` if the messages need more units than exist,
    and ``ValueError`` if ``crossbars`` is not an integer of at least 1."""
    if integer("crossbars", crossbars) < 1:
        raise ValueError(f"crossbars must be at least 1, got {crossbars}")
    capacity = config.num_units * crossbars
    if n_messages > capacity:
        raise CapacityError(
            f"{n_messages} messages exceed {capacity} units "
            f"({config.num_units} per crossbar x {crossbars})")


def hash_messages(messages: list[bytes], config: CrossbarConfig | None = None,
                  crossbars: int = 1, trace=None) -> tuple[list[bytes], ExecutionStats]:
    """Hash messages on simulated crossbars, one unit per message.

    Messages sharing a block count run in lockstep cohorts (identical
    bundles across their partitions); cohorts and crossbars execute
    sequentially and charge one shared stats record, so cycle numbers, and
    the trace records of ``trace`` (attached to every cohort's crossbar by
    ``Crossbar.attach_trace``), continue from one cohort to the next.
    """
    config = config or CrossbarConfig()
    check_capacity(len(messages), config, crossbars)
    compiled = compiled_keccak(config)

    blocks = [pad_message(m) for m in messages]
    digests: list[bytes | None] = [None] * len(messages)
    stats = ExecutionStats(gate_energy_fj=config.gate_energy_fj)
    cohorts = plan_cohorts([len(b) for b in blocks], compiled.layout.num_units)

    for cohort in cohorts:
        xbar = Crossbar(config)
        xbar.stats = stats
        if trace is not None:
            xbar.attach_trace(trace)
        compiled.layout.setup_shared_blocks(xbar)
        deltas = compiled.deltas_for(range(len(cohort)))
        units = compiled.units(deltas)
        # each block position unpacked once for the cohort, then sliced per unit
        first = blocks_state_bits([blocks[m][0] for m in cohort])
        for unit, bits in zip(units, first):
            write_unit_state(xbar, unit, bits)
        compiled.run_permute(xbar, deltas)
        for b in range(1, len(blocks[cohort[0]])):
            compiled.run_absorb(xbar, deltas, blocks_to_bits([blocks[m][b] for m in cohort]))
            compiled.run_permute(xbar, deltas)

        for unit, msg_index in zip(units, cohort):
            digests[msg_index] = _digest_from_state(read_unit_state(xbar, unit))
        del xbar        # free this cohort's grids before the next is built

    return digests, stats


def hash_message(message: bytes, config: CrossbarConfig | None = None
                 ) -> tuple[bytes, ExecutionStats]:
    digests, stats = hash_messages([message], config=config)
    return digests[0], stats


def measure_round_stats(n_units: int = 1,
                        config: CrossbarConfig | None = None) -> dict:
    """Per-round cycle/gate/energy figures of one permutation on ``n_units``
    units, as replaying it would charge them."""
    config = config or CrossbarConfig()
    n_units = integer("n_units", n_units)
    compiled = compiled_keccak(config)
    if not 0 < n_units <= compiled.layout.num_units:
        raise ValueError(f"n_units must be 1 to {compiled.layout.num_units}, "
                         f"got {n_units}")
    stats = ExecutionStats(gate_energy_fj=config.gate_energy_fj)
    compiled.permute.charge(stats, [len(d) for d in
                                    compiled.deltas_for(range(n_units))])

    def per_round(cycles: int, gates: int) -> dict:
        return {
            "cycles_per_round": cycles / KECCAK.rounds,
            "gate_executions_per_round": gates / KECCAK.rounds,
            "energy_per_round_per_unit_nj":
                gates * config.gate_energy_fj / KECCAK.rounds / n_units * 1e-6,
        }

    return {
        "units": n_units,
        **per_round(stats.cycles, stats.gate_executions),
        "per_step": {label: per_round(entry.cycles, entry.gate_executions)
                     for label, entry in sorted(stats.per_label.items())},
    }
