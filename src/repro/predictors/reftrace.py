"""The reference-trace dead block predictor (Lai, Fide, Falsafi 2001).

The paper's "TDBP" baseline (Sections II-A.1, IV-A, VII-A).  Each block
carries a 15-bit *signature*: the truncated sum of the addresses of the
instructions that accessed it since it was filled.  The theory: if a given
trace of instructions led to the last access of one block, the same trace
leads to the last access of other blocks.

Structure (paper Section IV-A):

* an 8KB prediction table of 2^15 two-bit saturating counters indexed by
  the signature;
* 16 bits of metadata per cache block: the 15-bit signature plus the
  one-bit dead indication.

Training:

* on an access to a resident block, the block's *previous* signature
  demonstrably did not end the trace, so the counter at that signature is
  decremented; the signature is then extended with the new PC and the new
  counter consulted for a fresh prediction;
* on an eviction, the block's final signature did end the trace, so its
  counter is incremented.

The paper finds this predictor works poorly at the LLC because a mid-level
cache filters most of the temporal locality, making full traces sparse and
unrepeatable (Section VII-A.3) -- our experiments reproduce that effect.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.predictors.base import DeadBlockPredictor
from repro.utils.bits import mask
from repro.utils.hashing import fold_xor

if TYPE_CHECKING:  # pragma: no cover
    from repro.cache.cache import CacheAccess

__all__ = ["RefTracePredictor"]

_META_KEY = "reftrace_signature"


class RefTracePredictor(DeadBlockPredictor):
    """Trace-signature dead block predictor.

    Args:
        signature_bits: width of the trace signature (paper: 15, giving a
            2^15-entry table).
        threshold: counter value at or above which a block is predicted
            dead.  With 2-bit counters the conventional threshold is 2
            (the weakly-dead state).
        counter_bits: width of the table counters (paper: 2).
    """

    name = "reftrace"
    #: ``block.meta`` key of the per-block trace signature.
    meta_key = _META_KEY

    def __init__(
        self,
        signature_bits: int = 15,
        threshold: int = 2,
        counter_bits: int = 2,
    ) -> None:
        super().__init__()
        if signature_bits <= 0:
            raise ValueError(f"signature_bits must be positive, got {signature_bits}")
        self.signature_bits = signature_bits
        self.signature_mask = mask(signature_bits)
        self.counter_max = (1 << counter_bits) - 1
        if not 0 < threshold <= self.counter_max:
            raise ValueError(
                f"threshold {threshold} out of range (0, {self.counter_max}]"
            )
        self.threshold = threshold
        self.table: List[int] = [0] * (1 << signature_bits)

    # ------------------------------------------------------------------
    # signature arithmetic
    # ------------------------------------------------------------------
    def _initial_signature(self, pc: int) -> int:
        return fold_xor(pc, self.signature_bits)

    def _extend_signature(self, signature: int, pc: int) -> int:
        """Truncated sum of instruction addresses (paper Section II-A.1)."""
        return (signature + fold_xor(pc, self.signature_bits)) & self.signature_mask

    def _predict(self, signature: int) -> bool:
        return self.table[signature] >= self.threshold

    def _train(self, signature: int, dead: bool) -> None:
        value = self.table[signature]
        if dead:
            if value < self.counter_max:
                self.table[signature] = value + 1
        else:
            if value > 0:
                self.table[signature] = value - 1

    # ------------------------------------------------------------------
    # predictor events
    # ------------------------------------------------------------------
    def touch(self, set_index: int, way: int, access: "CacheAccess") -> bool:
        block = self.cache.sets[set_index][way]
        old_signature = block.meta.get(_META_KEY)
        if old_signature is not None:
            # The block was re-referenced: its previous signature was not
            # the end of the trace.
            self._train(old_signature, dead=False)
            signature = self._extend_signature(old_signature, access.pc)
        else:
            signature = self._initial_signature(access.pc)
        block.meta[_META_KEY] = signature
        return self._predict(signature)

    def predict_fill(self, set_index: int, access: "CacheAccess") -> bool:
        return self._predict(self._initial_signature(access.pc))

    def install(self, set_index: int, way: int, access: "CacheAccess") -> bool:
        block = self.cache.sets[set_index][way]
        signature = self._initial_signature(access.pc)
        block.meta[_META_KEY] = signature
        return self._predict(signature)

    def evicted(self, set_index: int, way: int, access: "CacheAccess") -> None:
        block = self.cache.sets[set_index][way]
        signature = block.meta.get(_META_KEY)
        if signature is not None:
            self._train(signature, dead=True)
