"""The behavioral low-power SRAM.

Bit-accurate word-oriented storage plus the power-mode protocol of
Section II.  Reads and writes are only legal in ACT mode; deep sleep records
the supply voltage present on VDD_CC and the sleep duration, and wake-up
lets the :class:`~repro.sram.retention_engine.RetentionEngine` decide which
weak cells flipped - a faulty voltage regulator is injected simply by
passing the degraded VDD_CC to :meth:`LowPowerSRAM.enter_deep_sleep`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np
from numpy.random import Generator, default_rng

from .decoder import AddressDecoder
from .faults import Fault, PeripheralPowerGatingFault
from .power_modes import PMControl, PowerMode
from .retention_engine import RetentionEngine


def _word_to_plane(value: int, word_bits: int) -> np.ndarray:
    """Expand a word value into a ``(word_bits,)`` uint8 bit plane."""
    return np.array([(value >> b) & 1 for b in range(word_bits)], dtype=np.uint8)


def _plane_to_word(row: np.ndarray) -> int:
    """Pack a ``(word_bits,)`` bit plane back into a word value."""
    value = 0
    for bit in np.nonzero(row)[0]:
        value |= 1 << int(bit)
    return value


class MemoryModeError(RuntimeError):
    """An operation was attempted in a power mode that forbids it."""


@dataclass(frozen=True)
class SRAMConfig:
    """Geometry and nominal conditions of the SRAM block."""

    n_words: int = 4096
    word_bits: int = 64
    vdd: float = 1.1
    #: Default VDD_CC in deep sleep when none is supplied per sleep call
    #: (the fault-free regulator target: 0.70 * 1.1 V).
    default_ds_supply: float = 0.77

    @property
    def n_cells(self) -> int:
        return self.n_words * self.word_bits

    @property
    def word_mask(self) -> int:
        return (1 << self.word_bits) - 1


class LowPowerSRAM:
    """Word-oriented single-port SRAM with ACT / DS / PO power modes."""

    def __init__(
        self,
        config: SRAMConfig = SRAMConfig(),
        retention: Optional[RetentionEngine] = None,
        rng: Optional[Generator] = None,
        decoder: Optional[AddressDecoder] = None,
    ) -> None:
        self.config = config
        self.retention = retention or RetentionEngine()
        self.decoder = decoder or AddressDecoder(config.n_words)
        self.pm = PMControl()
        self.faults: List[Fault] = []
        self._rng = rng or default_rng(0)
        self._bits = np.zeros((config.n_words, config.word_bits), dtype=np.uint8)
        self._data_valid = True
        self._ds_supply: Optional[float] = None
        self._ds_time: Optional[float] = None
        #: Count of operations executed (reads + writes), for test-time math.
        self.op_count = 0

    # ----------------------------------------------------------- fault mgmt
    def inject(self, fault: Fault) -> Fault:
        """Attach a fault model; coupling faults get bound to this memory."""
        bind = getattr(fault, "bind", None)
        if bind is not None:
            bind(self)
        self.faults.append(fault)
        return fault

    def clear_faults(self) -> None:
        self.faults.clear()

    # ------------------------------------------------------------ raw access
    def _check_cell(self, addr: int, bit: int) -> None:
        if not 0 <= addr < self.config.n_words:
            raise IndexError(f"address {addr} out of range 0..{self.config.n_words - 1}")
        if not 0 <= bit < self.config.word_bits:
            raise IndexError(f"bit {bit} out of range 0..{self.config.word_bits - 1}")

    def force_bit(self, addr: int, bit: int, value: int) -> None:
        """Set a cell directly, bypassing fault hooks (coupling-fault use)."""
        self._check_cell(addr, bit)
        self._bits[addr, bit] = 1 if value else 0

    def peek_bit(self, addr: int, bit: int) -> int:
        """Observe a cell directly, bypassing fault hooks."""
        self._check_cell(addr, bit)
        return int(self._bits[addr, bit])

    def peek_bits(self, words, bits) -> np.ndarray:
        """Vectorized :meth:`peek_bit`: gather many cells at once."""
        return self._bits[words, bits]

    def force_bits(self, words, bits, values) -> None:
        """Vectorized :meth:`force_bit`: set many cells, bypassing faults."""
        self._bits[words, bits] = np.asarray(values, dtype=np.uint8) & 1

    def peek_plane(self) -> np.ndarray:
        """A copy of the full ``(n_words, word_bits)`` bit plane."""
        return self._bits.copy()

    # ------------------------------------------------------------ operations
    def _require_active(self, what: str) -> None:
        if self.pm.mode is not PowerMode.ACT:
            raise MemoryModeError(
                f"{what} attempted in {self.pm.mode.name} mode; "
                "operations are only allowed in ACT mode"
            )

    def _consume_recovery(self) -> None:
        for fault in self.faults:
            consume = getattr(fault, "consume_op", None)
            if consume is not None:
                consume()

    def _write_row(self, row: int, value: int) -> None:
        if not self.faults:
            self._bits[row, :] = _word_to_plane(value, self.config.word_bits)
            return
        for bit in range(self.config.word_bits):
            new = (value >> bit) & 1
            old = int(self._bits[row, bit])
            stored = new
            for fault in self.faults:
                forced = fault.on_write(row, bit, old, stored)
                if forced is not None:
                    stored = forced
            self._bits[row, bit] = stored

    def _read_row(self, row: int) -> int:
        if not self.faults:
            return _plane_to_word(self._bits[row])
        value = 0
        for bit in range(self.config.word_bits):
            observed = int(self._bits[row, bit])
            for fault in self.faults:
                forced = fault.on_read(row, bit, observed)
                if forced is not None:
                    observed = forced
            value |= (observed & 1) << bit
        return value

    def write(self, addr: int, value: int) -> None:
        """Write a full word (only in ACT mode).

        The address decoder resolves the physical rows: an AF1 fault loses
        the write entirely, AF2/AF3 faults write the wrong row set.
        """
        self._require_active("write")
        self._check_cell(addr, 0)
        value &= self.config.word_mask
        for row in self.decoder.rows(addr):
            self._write_row(row, value)
        self.op_count += 1
        self._consume_recovery()

    def read(self, addr: int) -> int:
        """Read a full word (only in ACT mode).

        Multiple decoded rows read as their wired-OR (precharged bit lines);
        no decoded row reads the precharge background (all ones).
        """
        self._require_active("read")
        self._check_cell(addr, 0)
        rows = self.decoder.rows(addr)
        if not rows:
            value = self.config.word_mask
        else:
            value = 0
            for row in rows:
                value |= self._read_row(row)
        self.op_count += 1
        self._consume_recovery()
        return value

    def fill(self, value: int) -> None:
        """Write the same word everywhere (test initialisation helper)."""
        for addr in range(self.config.n_words):
            self.write(addr, value)

    # ------------------------------------------------------- whole-array ops
    @property
    def plane_capable(self) -> bool:
        """Whether every injected fault supports whole-plane application
        (and the identity decoder holds), i.e. the vectorized March
        executor may drive this memory."""
        return not self.decoder.is_faulty and all(
            f.plane_capable for f in self.faults
        )

    def write_all(self, value: int) -> None:
        """Write the same word to every address as one array operation.

        The vectorized counterpart of a whole march-element write pass:
        faults are applied through their plane hooks in injection order
        (``old`` is the pre-pass plane for every fault, matching the
        scalar loop where each fault sees the original stored value), and
        the operation counter advances by ``n_words``.  Recovery-op
        consumption is *not* performed here - the vectorized executor
        accounts for it via the element bracket.
        """
        self._require_active("write")
        value &= self.config.word_mask
        plane = _word_to_plane(value, self.config.word_bits)
        old = self._bits
        new = np.repeat(plane[None, :], self.config.n_words, axis=0)
        for fault in self.faults:
            new = fault.apply_write_plane(old, new)
        self._bits = np.ascontiguousarray(new, dtype=np.uint8)
        self.op_count += self.config.n_words

    def read_all(self) -> np.ndarray:
        """Read every address as one array operation.

        Returns the observed ``(n_words, word_bits)`` uint8 plane after
        applying every fault's plane read hook; advances the operation
        counter by ``n_words``.
        """
        self._require_active("read")
        observed = self._bits.copy()
        for fault in self.faults:
            observed = fault.apply_read_plane(self._bits, observed)
        self.op_count += self.config.n_words
        return observed

    # ------------------------------------------------------------ power modes
    def enter_deep_sleep(self, ds_time: Optional[float] = None, vddcc: Optional[float] = None) -> None:
        """ACT -> DS.  Records the array supply present during the sleep.

        ``vddcc`` defaults to the fault-free regulator target; passing the
        output of a defective-regulator solve is how DRF_DS scenarios are
        exercised end to end.
        """
        if self.pm.mode is not PowerMode.ACT:
            raise MemoryModeError(f"cannot enter DS from {self.pm.mode.name}")
        self._ds_supply = self.config.default_ds_supply if vddcc is None else float(vddcc)
        self._ds_time = 1e-3 if ds_time is None else float(ds_time)
        self.pm.to_deep_sleep()
        for fault in self.faults:
            fault.on_sleep(self, self._ds_supply, self._ds_time)

    def wake_up(self) -> Union[List[tuple], np.ndarray]:
        """DS -> ACT.  Applies retention outcomes; returns the flipped cells.

        With an array engine (``retention.vectorized``) the flipped cells
        come back as the boolean ``(n_words, word_bits)`` flip mask, never
        as a list; otherwise as an ``(addr, bit)`` list, or ``[("*",
        "*")]`` when the supply collapsed and the whole array was lost.
        """
        if self.pm.mode is not PowerMode.DS:
            raise MemoryModeError(f"cannot wake up from {self.pm.mode.name}")
        if self.retention.bulk_data_loss(self._ds_supply, self._ds_time):
            # Supply collapsed below even the symmetric-cell DRV: the whole
            # array settles to leakage-preferred states.
            self._bits[:] = self._rng.integers(
                0, 2, size=self._bits.shape, dtype=np.uint8
            )
            flipped = [("*", "*")]
        elif getattr(self.retention, "vectorized", False):
            # Array-backed engine: one whole-plane flip mask instead of a
            # Python loop over weak cells.
            flipped = self.retention.flip_mask(
                self._ds_supply, self._ds_time, self._bits
            )
            self._bits ^= flipped
        else:
            flipped = []
            for addr, bit in self.retention.flips(
                self._ds_supply, self._ds_time, self.peek_bit
            ):
                self._bits[addr, bit] ^= 1
                flipped.append((addr, bit))
        self._ds_supply = None
        self._ds_time = None
        self.pm.to_active()
        for fault in self.faults:
            fault.on_wakeup(self)
        return flipped

    def power_off(self) -> None:
        """Any mode -> PO.  Core cells lose their supply; data is invalid."""
        self.pm.to_power_off()
        self._data_valid = False

    def power_on(self) -> None:
        """PO -> ACT.  The array wakes with unknown (randomised) contents."""
        if self.pm.mode is not PowerMode.PO:
            raise MemoryModeError(f"power_on only makes sense from PO, not {self.pm.mode.name}")
        self._bits[:] = self._rng.integers(0, 2, size=self._bits.shape, dtype=np.uint8)
        self._data_valid = True
        self.pm.to_active()
        for fault in self.faults:
            fault.on_wakeup(self)

    @property
    def mode(self) -> PowerMode:
        return self.pm.mode
