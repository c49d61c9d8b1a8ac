"""Digital PUM logic families.

A *logic family* (Section 2.2.2) defines which Boolean primitives a digital
PUM array can execute natively in a single array-level operation, along with
the latency and energy of each primitive.  DARTH-PUM uses the OSCAR family
(NOR and OR between ReRAM cells); the motivation study (Section 3, Figure 7)
additionally evaluates an *ideal* family capable of any two-input Boolean
operation in one cycle.

Higher-level word operations (add, xor, shift, ...) are synthesised from
these primitives by :mod:`repro.digital.alu`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "Primitive",
    "LogicFamily",
    "oscar_family",
    "ideal_family",
    "get_family",
]

BoolVec = np.ndarray


def _nor(a: BoolVec, b: BoolVec) -> BoolVec:
    return ~(a | b)


def _or(a: BoolVec, b: BoolVec) -> BoolVec:
    return a | b


def _and(a: BoolVec, b: BoolVec) -> BoolVec:
    return a & b


def _nand(a: BoolVec, b: BoolVec) -> BoolVec:
    return ~(a & b)


def _xor(a: BoolVec, b: BoolVec) -> BoolVec:
    return a ^ b


def _xnor(a: BoolVec, b: BoolVec) -> BoolVec:
    return ~(a ^ b)


def _not(a: BoolVec, b: BoolVec) -> BoolVec:  # second operand ignored
    return ~a


def _copy(a: BoolVec, b: BoolVec) -> BoolVec:  # second operand ignored
    return a.copy()


@dataclass(frozen=True)
class Primitive:
    """A single natively supported array-level Boolean operation."""

    name: str
    #: Vectorised evaluator over boolean column vectors.
    evaluate: Callable[[BoolVec, BoolVec], BoolVec]
    #: Latency of one array-level execution, in cycles.
    latency_cycles: float = 1.0
    #: Energy of operating on a single row (one output device), in pJ.
    energy_per_row_pj: float = 0.01


@dataclass(frozen=True)
class LogicFamily:
    """A named set of Boolean primitives with uniform cost accounting.

    Attributes
    ----------
    name:
        Human-readable family name (``"oscar"`` or ``"ideal"``).
    primitives:
        Mapping from primitive name to :class:`Primitive`.
    peripheral_area_um2:
        Extra per-array peripheral area required to support the family.
        Each additional native operator increases decode/drive complexity
        (Section 3), which is why DARTH-PUM sticks with OSCAR.
    """

    name: str
    primitives: Mapping[str, Primitive]
    peripheral_area_um2: float = 0.0

    def __post_init__(self) -> None:
        if "NOR" not in self.primitives and "XOR" not in self.primitives:
            raise ConfigurationError(
                f"logic family {self.name!r} is not functionally complete"
            )

    def has(self, name: str) -> bool:
        """Whether ``name`` is a native primitive of this family."""
        return name in self.primitives

    def primitive(self, name: str) -> Primitive:
        """Look up a native primitive; raises ``KeyError`` if unsupported."""
        return self.primitives[name]


def oscar_family(
    nor_latency: float = 1.0,
    energy_per_row_pj: float = 0.0125,
) -> LogicFamily:
    """The OSCAR logic family: NOR plus OR in ReRAM (Truong et al.).

    The fourth load-resistor device balances the voltage division across the
    cells (Figure 4), which is reflected only in the energy constant here.
    """
    primitives: Dict[str, Primitive] = {
        "NOR": Primitive("NOR", _nor, nor_latency, energy_per_row_pj),
        "OR": Primitive("OR", _or, nor_latency, energy_per_row_pj),
        "NOT": Primitive("NOT", _not, nor_latency, energy_per_row_pj),
        "COPY": Primitive("COPY", _copy, nor_latency, energy_per_row_pj),
    }
    return LogicFamily(name="oscar", primitives=primitives, peripheral_area_um2=0.0)


def ideal_family(energy_per_row_pj: float = 0.0125) -> LogicFamily:
    """An ideal family: any two-input Boolean operator in a single cycle.

    Used only for the motivation study (Figure 7) to show that richer logic
    families buy very little once analog PUM handles the MVMs.  The extra
    peripheral area models the additional drivers/decoders each operator
    needs (FELIX-style).
    """
    primitives: Dict[str, Primitive] = {
        name: Primitive(name, fn, 1.0, energy_per_row_pj)
        for name, fn in [
            ("NOR", _nor),
            ("OR", _or),
            ("AND", _and),
            ("NAND", _nand),
            ("XOR", _xor),
            ("XNOR", _xnor),
            ("NOT", _not),
            ("COPY", _copy),
        ]
    }
    return LogicFamily(name="ideal", primitives=primitives, peripheral_area_um2=120.0)


_FAMILIES: Dict[str, Callable[[], LogicFamily]] = {
    "oscar": oscar_family,
    "ideal": ideal_family,
}


def get_family(name: str) -> LogicFamily:
    """Construct a logic family by name (``"oscar"`` or ``"ideal"``)."""
    try:
        return _FAMILIES[name.lower()]()
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown logic family {name!r}; available: {sorted(_FAMILIES)}"
        ) from exc
