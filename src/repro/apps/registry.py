"""A workload registry: IR builders addressable by name.

Study specs, the result cache and the ``python -m repro`` CLI refer to
workloads by name ("crypt", "fir", ...) so specs stay declarative JSON
instead of Python call sites.  Each entry pins the builder's reference
inputs, making the produced IR — and therefore cache keys and results —
reproducible across runs and machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.compiler.ir import IRFunction
from repro.apps.crypt_kernel import build_crypt_ir
from repro.apps.kernels import (
    build_checksum_ir,
    build_crc16_ir,
    build_dotprod_ir,
    build_fir_ir,
    build_gcd_ir,
)

#: Reference inputs for the registered kernels (documented, fixed).
_FIR_SAMPLES = [10, 64, 23, 99, 5, 31, 77, 42, 18, 63, 11, 90]
_FIR_TAPS = [3, 7, 1, 5]
_VEC_A = [3, 1, 4, 1, 5, 9, 2, 6]
_VEC_B = [2, 7, 1, 8, 2, 8, 1, 8]
_BLOCK = [0x1234, 0xBEEF, 0x0042, 0x7F7F, 0xA5A5, 0x0001, 0xFFFE, 0x8000]


@dataclass(frozen=True)
class WorkloadEntry:
    """One named workload: how to build it and what it needs."""

    name: str
    builder: Callable[[], IRFunction]
    description: str
    needs_mul: bool = False

    def build(self) -> IRFunction:
        return self.builder()


_REGISTRY: dict[str, WorkloadEntry] = {}


def register_workload(
    name: str,
    builder: Callable[[], IRFunction],
    description: str = "",
    needs_mul: bool = False,
) -> None:
    """Add (or replace) a named workload."""
    _REGISTRY[name] = WorkloadEntry(
        name=name, builder=builder, description=description,
        needs_mul=needs_mul,
    )


def workload_names() -> list[str]:
    """Names accepted by :func:`build_workload` (sorted)."""
    return sorted(_REGISTRY)


def workload_entry(name: str) -> WorkloadEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(workload_names())
        raise KeyError(
            f"unknown workload {name!r} (known: {known})"
        ) from None


def build_workload(name: str) -> IRFunction:
    """Build the IR of a registered workload."""
    return workload_entry(name).build()


register_workload(
    "crypt",
    lambda: build_crypt_ir("password", "ab"),
    "Unix crypt(3) kernel, the paper's application",
)
register_workload(
    "gcd",
    lambda: build_gcd_ir(252, 105),
    "Euclid by repeated subtraction",
)
register_workload(
    "fir",
    lambda: build_fir_ir(_FIR_SAMPLES, _FIR_TAPS),
    "4-tap FIR filter over 12 samples",
    needs_mul=True,
)
register_workload(
    "dotprod",
    lambda: build_dotprod_ir(_VEC_A, _VEC_B),
    "dot product of two 8-vectors",
    needs_mul=True,
)
register_workload(
    "checksum",
    lambda: build_checksum_ir(_BLOCK),
    "rotating XOR/add checksum over an 8-word block",
)
register_workload(
    "crc16",
    lambda: build_crc16_ir(_BLOCK),
    "bit-serial CRC-16/CCITT over an 8-word block",
)
