"""Cycle-level SIMT warp simulator.

Executes :mod:`repro.simt.isa` programs functionally over 32 lanes while
modelling the timing behaviour the paper's optimizations exploit:

- **divergence** — structured control flow maintains an active-mask
  stack; both sides of a divergent branch serialize;
- **coalescing** — a global access costs one issue cycle per 128-byte
  transaction generated by the active lanes' addresses;
- **bank conflicts** — a shared access serializes over the worst bank;
- **latency hiding** — loads set a register scoreboard; a warp stalls at
  the first *use* of an unready value, and :class:`SMSimulator`
  interleaves many warps on one issue port so stalls overlap.

This layer is the ground truth for the analytic cost model: the
validation tests check the constants the analytic model assumes (8×
scattered-read waste, ~`log2(32)` shuffle reduction, stall-free streaming
with enough resident warps) against cycle counts measured here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.simt import isa

WARP_SIZE = 32
#: Global-memory load-to-use latency in cycles.
GLOBAL_LATENCY = 400
#: Shared-memory load-to-use latency in cycles.
SHARED_LATENCY = 24
#: Bytes per global-memory transaction.
TRANSACTION_BYTES = 128
#: 4-byte words per transaction.
WORDS_PER_TRANSACTION = TRANSACTION_BYTES // 4
#: Number of shared-memory banks.
NUM_BANKS = 32


def _popcount64(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.uint64).copy()
    count = np.zeros_like(v)
    while v.any():
        count += v & np.uint64(1)
        v >>= np.uint64(1)
    return count.astype(np.float64)


@dataclass
class WarpStats:
    """What one warp did, in cycles and transactions."""

    cycles: int = 0
    instructions: int = 0
    stall_cycles: int = 0
    global_transactions: int = 0
    shared_conflict_cycles: int = 0
    divergent_branches: int = 0


class WarpSimulator:
    """Executes one program on one 32-lane warp.

    Parameters
    ----------
    program:
        Instruction list (validated for structured control flow).
    global_mem:
        1-d float64 array addressed by word index.
    shared_mem:
        1-d float64 array addressed by word index.
    """

    def __init__(
        self,
        program: List[isa.Instruction],
        global_mem: np.ndarray,
        shared_mem: Optional[np.ndarray] = None,
        tracer=None,
    ) -> None:
        isa.validate_program(program)
        self.program = list(program)
        self.global_mem = global_mem
        self.shared_mem = (
            shared_mem if shared_mem is not None else np.zeros(1024)
        )
        self.regs: Dict[str, np.ndarray] = {}
        self._ready: Dict[str, int] = {}
        self._mask_stack: List[np.ndarray] = [np.ones(WARP_SIZE, dtype=bool)]
        self._loop_entry: List[Tuple[int, np.ndarray]] = []
        self._jumps = self._match_blocks(self.program)
        self.pc = 0
        self.clock = 0
        self.stats = WarpStats()
        self.done = False
        #: Optional event sink, duck-typed: any object with the ``on_*``
        #: hooks called below works.
        self.tracer = tracer

    # -- setup helpers ------------------------------------------------------

    def set_register(self, name: str, values) -> None:
        """Initialize a register (scalar broadcasts to all lanes)."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(WARP_SIZE, float(arr))
        if arr.shape != (WARP_SIZE,):
            raise ValueError(f"register {name}: expected {WARP_SIZE} lanes")
        self.regs[name] = arr.copy()
        if self.tracer is not None:
            self.tracer.on_reg_init(name)

    def register(self, name: str) -> np.ndarray:
        return self.regs[name]

    # -- static control-flow matching -----------------------------------------

    @staticmethod
    def _match_blocks(program) -> Dict[int, Tuple[Optional[int], int]]:
        """Map each If/While pc to its (else_pc, end_pc) / (None, end_pc)."""
        jumps: Dict[int, Tuple[Optional[int], int]] = {}
        stack: List[Tuple[str, int, Optional[int]]] = []
        for i, ins in enumerate(program):
            if isinstance(ins, isa.If):
                stack.append(("if", i, None))
            elif isinstance(ins, isa.While):
                stack.append(("while", i, None))
            elif isinstance(ins, isa.Else):
                kind, start, _ = stack.pop()
                stack.append((kind, start, i))
            elif isinstance(ins, isa.EndIf):
                kind, start, else_pc = stack.pop()
                jumps[i] = (None, start)  # EndIf knows its If (unused)
                jumps[start] = (else_pc, i)
                if else_pc is not None:
                    jumps[else_pc] = (None, i)
            elif isinstance(ins, isa.EndWhile):
                kind, start, _ = stack.pop()
                jumps[start] = (None, i)
                jumps[i] = (None, start)
        return jumps

    # -- operand access ------------------------------------------------------

    def _value(self, op: isa.Operand) -> np.ndarray:
        if isinstance(op, str):
            return self.regs[op]
        return np.full(WARP_SIZE, float(op))

    def _wait_for(self, *ops: isa.Operand) -> None:
        """Stall until every register operand's value is ready."""
        ready_at = self.clock
        for op in ops:
            if isinstance(op, str):
                ready_at = max(ready_at, self._ready.get(op, 0))
        if ready_at > self.clock:
            self.stats.stall_cycles += ready_at - self.clock
            self.clock = ready_at

    @property
    def active(self) -> np.ndarray:
        return self._mask_stack[-1]

    def _write(self, dst: str, values: np.ndarray) -> None:
        mask = self.active
        if dst not in self.regs:
            self.regs[dst] = np.zeros(WARP_SIZE)
        self.regs[dst] = np.where(mask, values, self.regs[dst])
        if self.tracer is not None:
            self.tracer.on_reg_write(dst, mask)

    # -- execution ---------------------------------------------------------------

    def run(self, max_instructions: int = 2_000_000) -> WarpStats:
        """Execute the program to completion; returns the stats."""
        while not self.done:
            self.step()
            if self.stats.instructions > max_instructions:
                raise RuntimeError("instruction budget exceeded (runaway loop?)")
        return self.stats

    def step(self) -> None:
        """Issue one instruction (the unit SMSimulator interleaves)."""
        if self.pc >= len(self.program):
            self.done = True
            self.stats.cycles = self.clock
            return
        ins = self.program[self.pc]
        self.stats.instructions += 1
        if self.tracer is not None:
            self.tracer.on_instruction(self.pc, ins, self.active)
        handler = getattr(self, f"_exec_{type(ins).__name__.lower()}")
        handler(ins)
        if self.pc >= len(self.program):
            self.done = True
            self.stats.cycles = self.clock

    # -- arithmetic ---------------------------------------------------------------

    def _exec_mov(self, ins: isa.Mov) -> None:
        self._wait_for(ins.src)
        self._write(ins.dst, self._value(ins.src))
        self.clock += 1
        self.pc += 1

    def _exec_laneid(self, ins: isa.LaneId) -> None:
        self._write(ins.dst, np.arange(WARP_SIZE, dtype=np.float64))
        self.clock += 1
        self.pc += 1

    _BINOPS = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: np.divide(a, b, out=np.zeros_like(a), where=b != 0),
        "min": np.minimum,
        "max": np.maximum,
        "and": lambda a, b: (a.astype(np.int64) & b.astype(np.int64)).astype(float),
        "or": lambda a, b: (a.astype(np.int64) | b.astype(np.int64)).astype(float),
        "xor": lambda a, b: (a.astype(np.int64) ^ b.astype(np.int64)).astype(float),
        "shl": lambda a, b: (a.astype(np.int64) << b.astype(np.int64)).astype(float),
        "shr": lambda a, b: (a.astype(np.int64) >> b.astype(np.int64)).astype(float),
    }

    def _exec_binary(self, ins: isa.Binary) -> None:
        if ins.op not in self._BINOPS:
            raise ValueError(f"unknown binary op {ins.op!r}")
        self._wait_for(ins.a, ins.b)
        self._write(ins.dst, self._BINOPS[ins.op](self._value(ins.a), self._value(ins.b)))
        self.clock += 1
        self.pc += 1

    _UNOPS = {
        "sqrt": lambda a: np.sqrt(np.maximum(a, 0.0)),
        "rsqrt": lambda a: np.divide(
            1.0, np.sqrt(np.maximum(a, 0.0)), out=np.zeros_like(a),
            where=a > 0,
        ),
        "abs": np.abs,
        "neg": np.negative,
        "floor": np.floor,
    }

    def _exec_unary(self, ins: isa.Unary) -> None:
        if ins.op not in self._UNOPS:
            raise ValueError(f"unknown unary op {ins.op!r}")
        self._wait_for(ins.a)
        self._write(ins.dst, self._UNOPS[ins.op](self._value(ins.a)))
        self.clock += 1
        self.pc += 1

    def _exec_fma(self, ins: isa.Fma) -> None:
        self._wait_for(ins.a, ins.b, ins.c)
        self._write(
            ins.dst, self._value(ins.a) * self._value(ins.b) + self._value(ins.c)
        )
        self.clock += 1
        self.pc += 1

    _RELOPS = {
        "lt": np.less,
        "le": np.less_equal,
        "gt": np.greater,
        "ge": np.greater_equal,
        "eq": np.equal,
        "ne": np.not_equal,
    }

    def _exec_cmp(self, ins: isa.Cmp) -> None:
        if ins.rel not in self._RELOPS:
            raise ValueError(f"unknown relation {ins.rel!r}")
        self._wait_for(ins.a, ins.b)
        result = self._RELOPS[ins.rel](self._value(ins.a), self._value(ins.b))
        self._write(ins.dst, result.astype(np.float64))
        self.clock += 1
        self.pc += 1

    def _exec_popc(self, ins: isa.Popc) -> None:
        self._wait_for(ins.a)
        self._write(ins.dst, _popcount64(self._value(ins.a)))
        self.clock += 1
        self.pc += 1

    # -- memory -------------------------------------------------------------------

    def _global_transactions(self, addrs: np.ndarray) -> int:
        lines = np.unique(addrs.astype(np.int64) // WORDS_PER_TRANSACTION)
        return max(1, len(lines))

    def _exec_ldg(self, ins: isa.Ldg) -> None:
        self._wait_for(ins.addr)
        mask = self.active
        addrs = self._value(ins.addr).astype(np.int64)
        if mask.any():
            transactions = self._global_transactions(addrs[mask])
            if self.tracer is not None:
                self.tracer.on_global_access(
                    self.pc, ins, "read", addrs[mask], mask, transactions
                )
            loaded = np.zeros(WARP_SIZE)
            loaded[mask] = self.global_mem[addrs[mask]]
            self._write(ins.dst, loaded)
            self.stats.global_transactions += transactions
            self.clock += transactions  # LSU occupancy
            self._ready[ins.dst] = self.clock + GLOBAL_LATENCY
        else:
            self.clock += 1
        self.pc += 1

    def _exec_stg(self, ins: isa.Stg) -> None:
        self._wait_for(ins.addr, ins.src)
        mask = self.active
        if mask.any():
            addrs = self._value(ins.addr).astype(np.int64)
            transactions = self._global_transactions(addrs[mask])
            if self.tracer is not None:
                self.tracer.on_global_access(
                    self.pc, ins, "write", addrs[mask], mask, transactions
                )
            self.global_mem[addrs[mask]] = self._value(ins.src)[mask]
            self.stats.global_transactions += transactions
            self.clock += transactions
        else:
            self.clock += 1
        self.pc += 1

    def _bank_conflicts(self, addrs: np.ndarray) -> int:
        """Worst-bank serialization factor (same-address broadcast free)."""
        worst = 1
        banks = addrs % NUM_BANKS
        for bank in np.unique(banks):
            distinct = len(np.unique(addrs[banks == bank]))
            worst = max(worst, distinct)
        return worst

    def _exec_lds(self, ins: isa.Lds) -> None:
        self._wait_for(ins.addr)
        mask = self.active
        if mask.any():
            addrs = self._value(ins.addr).astype(np.int64)
            conflicts = self._bank_conflicts(addrs[mask])
            if self.tracer is not None:
                self.tracer.on_shared_access(
                    self.pc, ins, "read", addrs[mask], mask, conflicts
                )
            loaded = np.zeros(WARP_SIZE)
            loaded[mask] = self.shared_mem[addrs[mask]]
            self._write(ins.dst, loaded)
            self.stats.shared_conflict_cycles += conflicts - 1
            self.clock += conflicts
            self._ready[ins.dst] = self.clock + SHARED_LATENCY
        else:
            self.clock += 1
        self.pc += 1

    def _exec_sts(self, ins: isa.Sts) -> None:
        self._wait_for(ins.addr, ins.src)
        mask = self.active
        if mask.any():
            addrs = self._value(ins.addr).astype(np.int64)
            conflicts = self._bank_conflicts(addrs[mask])
            if self.tracer is not None:
                self.tracer.on_shared_access(
                    self.pc, ins, "write", addrs[mask], mask, conflicts
                )
            self.shared_mem[addrs[mask]] = self._value(ins.src)[mask]
            self.stats.shared_conflict_cycles += conflicts - 1
            self.clock += conflicts
        else:
            self.clock += 1
        self.pc += 1

    # -- warp intrinsics --------------------------------------------------------

    def _exec_shfldown(self, ins: isa.ShflDown) -> None:
        self._wait_for(ins.src)
        src = self.regs[ins.src]
        idx = np.arange(WARP_SIZE) + ins.delta
        shifted = np.where(idx < WARP_SIZE, src[np.minimum(idx, WARP_SIZE - 1)], src)
        self._write(ins.dst, shifted)
        self.clock += 1
        self.pc += 1

    def _exec_vote(self, ins: isa.Vote) -> None:
        self._wait_for(ins.src)
        mask = self.active
        votes = (self._value(ins.src) != 0.0) & mask
        if ins.mode == "any":
            result = 1.0 if votes.any() else 0.0
        elif ins.mode == "all":
            result = 1.0 if bool(votes[mask].all()) and mask.any() else 0.0
        elif ins.mode == "ballot_ffs":
            hits = np.flatnonzero(votes)
            result = float(hits[0]) if len(hits) else -1.0
        else:
            raise ValueError(f"unknown vote mode {ins.mode!r}")
        self._write(ins.dst, np.full(WARP_SIZE, result))
        self.clock += 1
        self.pc += 1

    # -- control flow -------------------------------------------------------------

    def _exec_if(self, ins: isa.If) -> None:
        self._wait_for(ins.pred)
        else_pc, end_pc = self._jumps[self.pc]
        pred = self._value(ins.pred) != 0.0
        taken = self.active & pred
        not_taken = self.active & ~pred
        if taken.any() and not_taken.any():
            self.stats.divergent_branches += 1
        self.clock += 1
        if taken.any():
            # Run the then-block.  Stack: [saved-for-else, active].
            self._mask_stack.append(not_taken)
            self._mask_stack.append(taken)
            self.pc += 1
        elif else_pc is not None:
            # Then-block empty of lanes: enter the else-block directly,
            # skipping the Else marker (saved side is the empty taken set).
            self._mask_stack.append(taken)
            self._mask_stack.append(not_taken)
            self.pc = else_pc + 1
        else:
            self.pc = end_pc + 1  # skip the whole region

    def _exec_else(self, ins: isa.Else) -> None:
        # swap active mask with the saved not-taken mask
        self.clock += 1
        saved = self._mask_stack[-2]
        self._mask_stack[-2] = self._mask_stack[-1]
        self._mask_stack[-1] = saved
        if not saved.any():
            _, end_pc = self._jumps[self.pc]
            self.pc = end_pc
        else:
            self.pc += 1

    def _exec_endif(self, ins: isa.EndIf) -> None:
        self.clock += 1
        self._mask_stack.pop()
        self._mask_stack.pop()
        if self.tracer is not None:
            self.tracer.on_reconverge(self.pc, self.active)
        self.pc += 1

    def _exec_while(self, ins: isa.While) -> None:
        self._wait_for(ins.pred)
        _, end_pc = self._jumps[self.pc]
        self.clock += 1
        if not self._loop_entry or self._loop_entry[-1][0] != self.pc:
            entry_mask = self.active.copy()
            self._loop_entry.append((self.pc, entry_mask))
            self._mask_stack.append(entry_mask.copy())
        entry_mask = self._loop_entry[-1][1]
        pred = self._value(ins.pred) != 0.0
        cur = entry_mask & pred
        if cur.any():
            self._mask_stack[-1] = cur
            self.pc += 1
        else:
            self._mask_stack.pop()
            self._loop_entry.pop()
            if self.tracer is not None:
                self.tracer.on_reconverge(self.pc, self.active)
            self.pc = end_pc + 1

    def _exec_endwhile(self, ins: isa.EndWhile) -> None:
        self.clock += 1
        _, start_pc = self._jumps[self.pc]
        self.pc = start_pc


@dataclass
class SMResult:
    """Outcome of running several warps on one simulated SM."""

    total_cycles: int
    warp_stats: List[WarpStats]


class SMSimulator:
    """Interleaves several warps on one issue port.

    A warp whose next instruction is blocked on the scoreboard yields the
    port; with enough resident warps, memory latency disappears behind
    other warps' arithmetic — the exact mechanism the analytic model's
    latency-hiding factor summarizes.
    """

    def __init__(self, warps: List[WarpSimulator]) -> None:
        if not warps:
            raise ValueError("need at least one warp")
        self.warps = warps

    def run(self, max_steps: int = 5_000_000) -> SMResult:
        clock = 0
        steps = 0
        n = len(self.warps)
        rr = 0
        while any(not w.done for w in self.warps):
            steps += 1
            if steps > max_steps:
                raise RuntimeError("SM step budget exceeded")
            issued = False
            for offset in range(n):
                w = self.warps[(rr + offset) % n]
                if w.done:
                    continue
                if w.clock <= clock:
                    # Warp is ready at SM time: let it issue.  Its own
                    # clock absorbs stalls and multi-cycle memory issue;
                    # the shared port advances one cycle per issue.
                    w.clock = max(w.clock, clock)
                    w.step()
                    clock += 1
                    rr = (rr + offset + 1) % n
                    issued = True
                    break
            if not issued:
                # Every live warp is waiting on its scoreboard: fast
                # forward to the earliest moment one becomes issueable.
                clock = min(w.clock for w in self.warps if not w.done)
        total = max(max(w.clock for w in self.warps), clock)
        return SMResult(total_cycles=total, warp_stats=[w.stats for w in self.warps])
