"""Instruction-set architecture descriptions for the simulated SIMD machine.

The paper compares SpMV kernels compiled for AVX, AVX2, and AVX-512 (plus an
unvectorized build).  What distinguishes the ISAs, for the kernels in
Algorithms 1 and 2, is captured here:

* **vector width** — AVX/AVX2 operate on 256-bit YMM registers (4 doubles),
  AVX-512 on 512-bit ZMM registers (8 doubles).  On KNL, AVX and AVX2
  instructions operate on the lower half of the ZMM registers (paper
  Section 2.6), which the machine model reflects as halved per-instruction
  throughput for the same amount of work.
* **gather** — introduced with AVX2.  The AVX kernels emulate a gather with
  scalar ``movsd`` loads plus 128-bit ``vinsertf128`` merges (paper
  Section 5.5: "two SSE2 load instructions ... then insert two packed
  128-bit vectors").
* **fused multiply-add** — introduced with FMA3 alongside AVX2; the AVX
  kernels issue separate multiply and add instructions.  The paper notes
  (Section 7.2) this separation can even *help* on KNL by breaking the FMA
  dependency chain; the cost model encodes that via dependency-chain issue
  costs.
* **masks** — AVX-512 has dedicated mask registers; masked loads/stores and
  masked gathers let remainder loops vectorize at the price of mask set-up
  overhead (paper Section 3.3).
* **predicates** — ARM SVE governs every memory and arithmetic op with a
  predicate register and generates loop predicates with ``whilelt``
  instead of materializing a bitmask from a count.  Crucially, SVE is
  *vector-length agnostic*: the same kernel binary runs at any hardware
  vector length from 128 to 2048 bits, which the model expresses by
  letting :func:`sve_isa` parameterize ``vector_bits`` while everything
  else about the ISA stays fixed.

An :class:`Isa` is immutable; the module exposes the six singletons the
benchmarks use: :data:`SCALAR`, :data:`SSE2`, :data:`AVX`, :data:`AVX2`,
:data:`AVX512`, :data:`SVE`.
"""

from __future__ import annotations

from dataclasses import dataclass


class UnsupportedInstructionError(RuntimeError):
    """Raised when a kernel issues an instruction its ISA does not define."""


#: ``Isa.require`` feature name -> the flag that grants it.
_FEATURE_FLAGS = {
    "gather": "has_gather",
    "fma": "has_fma",
    "masks": "has_masks",
    "predicates": "has_predicates",
}


@dataclass(frozen=True)
class Isa:
    """A SIMD instruction set, as seen by the SpMV kernels.

    Parameters
    ----------
    name:
        Display name used in benchmark tables (matches the paper's legends).
    vector_bits:
        Width of a vector register in bits.
    has_gather:
        Whether an indexed vector load exists (AVX2+).
    has_fma:
        Whether fused multiply-add exists (AVX2+ in this model, matching
        the paper's pairing of FMA3 with AVX2).
    has_masks:
        Whether dedicated mask registers and masked memory ops exist
        (AVX-512 only).
    has_predicates:
        Whether per-lane predicate registers with ``whilelt``-style loop
        predicate generation exist (ARM SVE).  Predicates subsume the
        masked-op semantics — the engine's ``predicated_*`` ops share
        their execution model with the AVX-512 ``masked_*`` ops — but
        they are a distinct hardware feature: SVE has no AVX-512 mask
        registers (``has_masks`` stays false).
    """

    name: str
    vector_bits: int
    has_gather: bool
    has_fma: bool
    has_masks: bool
    has_predicates: bool = False

    def lanes(self, itemsize: int = 8) -> int:
        """Number of elements of ``itemsize`` bytes held in one register."""
        return max(1, self.vector_bits // (8 * itemsize))

    @property
    def vector_bytes(self) -> int:
        """Register width in bytes."""
        return self.vector_bits // 8

    @property
    def is_vector(self) -> bool:
        """True for any real SIMD ISA (lane count above one)."""
        return self.lanes() > 1

    def require(self, feature: str) -> None:
        """Raise :class:`UnsupportedInstructionError` unless ``feature`` exists.

        ``feature`` is one of ``"gather"``, ``"fma"``, ``"masks"``,
        ``"predicates"``.
        """
        if not getattr(self, _FEATURE_FLAGS[feature]):
            raise UnsupportedInstructionError(
                f"ISA {self.name} does not support {feature}"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Scalar (unvectorized) execution; the paper's "novec" builds.
SCALAR = Isa(name="novec", vector_bits=64, has_gather=False, has_fma=False,
             has_masks=False)

#: SSE2 appears only as the 128-bit building block of the AVX gather
#: emulation; no kernel targets it directly.
SSE2 = Isa(name="SSE2", vector_bits=128, has_gather=False, has_fma=False,
           has_masks=False)

#: AVX: 256-bit, no gather, no FMA (paper Section 5.5).
AVX = Isa(name="AVX", vector_bits=256, has_gather=False, has_fma=False,
          has_masks=False)

#: AVX2: 256-bit with gather and FMA.
AVX2 = Isa(name="AVX2", vector_bits=256, has_gather=True, has_fma=True,
           has_masks=False)

#: AVX-512: 512-bit with gather, FMA, and mask registers.
AVX512 = Isa(name="AVX512", vector_bits=512, has_gather=True, has_fma=True,
             has_masks=True)

#: ARM SVE: vector-length-agnostic predication.  The singleton models a
#: 512-bit implementation (Fujitsu A64FX); :func:`sve_isa` builds the
#: other legal vector lengths for the VL-agnosticism tests.
SVE = Isa(name="SVE", vector_bits=512, has_gather=True, has_fma=True,
          has_masks=False, has_predicates=True)


def sve_isa(vector_bits: int) -> Isa:
    """An SVE ISA at a specific hardware vector length.

    SVE mandates a vector length that is a multiple of 128 bits up to
    2048; a VL-agnostic kernel must produce correct results at every one
    of them without the trace structure baking in the lane count.  The
    returned ISA keeps the name ``"SVE"`` — vector length is a property
    of the hardware, not of the instruction set.
    """
    if vector_bits % 128 or not 128 <= vector_bits <= 2048:
        raise ValueError(
            f"SVE vector length must be a multiple of 128 in [128, 2048], "
            f"got {vector_bits}"
        )
    if vector_bits == SVE.vector_bits:
        return SVE
    return Isa(name="SVE", vector_bits=vector_bits, has_gather=True,
               has_fma=True, has_masks=False, has_predicates=True)


#: All ISAs a kernel can be built for, keyed by name.
ISAS: dict[str, Isa] = {
    isa.name: isa for isa in (SCALAR, SSE2, AVX, AVX2, AVX512, SVE)
}


def get_isa(name: str) -> Isa:
    """Look up an ISA by its display name (case-insensitive).

    Accepts the spellings used in the paper's figures: ``"AVX512"``,
    ``"AVX2"``, ``"AVX"``, ``"novec"``.
    """
    key = name.strip()
    for isa_name, isa in ISAS.items():
        if isa_name.lower() == key.lower():
            return isa
    raise KeyError(f"unknown ISA {name!r}; known: {sorted(ISAS)}")
