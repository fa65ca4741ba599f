"""The paper's contribution: the tightly-coupled RISC-V + NVDLA SoC.

- :mod:`repro.core.address_map` — the decoder map of Fig. 2
  (NVDLA ``0x0–0xFFFFF``, DRAM ``0x100000–0x200FFFFF``),
- :mod:`repro.core.arbiter` — the DRAM arbiter shared by the core's
  AHB path and NVDLA's DBB,
- :mod:`repro.core.nvdla_wrapper` — the custom wrapper: AHB→APB
  bridge, APB→CSB adapter, AXI 64→32 data-width converter around the
  NVDLA engine,
- :mod:`repro.core.soc` — the SoC top level wiring core, system bus,
  wrapper and memories,
- :mod:`repro.core.executor` — the bare-metal run loop with poll
  fast-forwarding,
- :mod:`repro.core.system_builder` — the full ZCU102 test setup of
  Fig. 4 (Zynq preloader, SmartConnect, AXI interconnect, MIG DDR4).
"""

from repro.core.address_map import AddressMap, DEFAULT_MAP
from repro.core.arbiter import DramArbiter
from repro.core.calibration import CalibrationEntry, CalibrationTable, OverheadParams
from repro.core.executor import BaremetalExecutor, RunStats
from repro.core.fastpath import (
    FastPathEstimate,
    FastPathExecutor,
    ResidentStats,
    calibrate,
)
from repro.core.nvdla_wrapper import NvdlaWrapper
from repro.core.soc import Soc, SocRunResult
from repro.core.system_builder import TestSystem, ZynqPreloader

__all__ = [
    "AddressMap",
    "BaremetalExecutor",
    "CalibrationEntry",
    "CalibrationTable",
    "DEFAULT_MAP",
    "DramArbiter",
    "FastPathEstimate",
    "FastPathExecutor",
    "NvdlaWrapper",
    "OverheadParams",
    "ResidentStats",
    "RunStats",
    "Soc",
    "SocRunResult",
    "TestSystem",
    "ZynqPreloader",
    "calibrate",
]
