"""Fused-vs-unfused differential lockdown across the zoo.

Every zoo model compiles at all three fusion tiers and must satisfy,
on both hardware configs and both execution tiers:

- **descriptor ≡ graph, bit-identical** — descriptor-chain fusion
  streams the same SDP result through the same PDP kernel, so pulling
  the pool on-chip may not change a single output bit;
- **descriptor vs off** — bit-identical for eltwise-free models
  (ReLU de-absorption commutes with the monotone requantisation);
  residual models (resnet18/resnet50) differ only by ERDMA operand
  rounding in the standalone eltwise ops — banded per model (see
  ``ELTWISE_BANDS``) since the per-add 6 % bound
  ``tests/integration/test_eltwise_fusion.py`` establishes compounds
  with serial residual depth;
- **timing** — the fused schedule costs strictly fewer accelerator
  cycles than the unfused one on every model that fuses anything.

The fast tier covers the whole model × config matrix; the
cycle-accurate tier locks the calibration models on both configs
(the full cycle-accurate sweep lives in ``benchmarks/bench_fusion.py``).

To keep the matrix affordable, bundles are generated with
``fidelity="timing"`` — skipping the generation-time VP's tensor
computation and DBB trace logging, which for AlexNet-class models is
the difference between seconds and minutes — and then re-tagged
functional.  The CSB trace (and therefore the register program) is
identical either way; the preload image becomes the compiler's own
weight blob, and the input tensor is packed explicitly from the same
seed-2024 draw the functional flow bakes in.  Both executors under
test compute real tensors themselves, so the differential loses
nothing; ``test_timing_shortcut_is_sound`` proves the shortcut
produces the same bits as the full functional flow.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.baremetal import generate_baremetal
from repro.compiler import CompileOptions
from repro.core import FastPathExecutor, Soc
from repro.core.calibration import CalibrationTable
from repro.nn.quantize import calibrate_network
from repro.nn.zoo import ZOO
from repro.nvdla import NV_FULL, NV_SMALL
from repro.nvdla.config import Precision
from repro.nvdla.fastpath import pack_input

FUSION_MODES = ("off", "graph", "descriptor")
#: config name -> (hardware, paper precision, memory bus width)
CONFIGS = {
    "nv_small": (NV_SMALL, Precision.INT8, 32),
    "nv_full": (NV_FULL, Precision.FP16, 64),
}
#: models whose residual adds make `off` differ by ERDMA rounding,
#: and the max-|delta| band (fraction of the output scale) each gets.
#: resnet18's 8 adds stay within the single-add 6 % bound; resnet50's
#: 16 *serial* bottleneck adds compound each operand-requant rounding
#: through the downstream convs (measured ~25 % max, ~5 % mean, output
#: correlation ≥ 0.997), so it gets a wider band plus a correlation
#: floor that a genuine miscompile — wrong surface, wrong scale —
#: would break immediately.
ELTWISE_BANDS = {"resnet18": 0.06, "resnet50": 0.30}
MIN_OFF_CORRELATION = 0.99

ZOO_CASES = [
    pytest.param("lenet5", id="lenet5"),
    pytest.param("resnet18", id="resnet18"),
    pytest.param("mobilenet", marks=pytest.mark.slow, id="mobilenet"),
    pytest.param("googlenet", marks=pytest.mark.slow, id="googlenet"),
    pytest.param("alexnet", marks=pytest.mark.slow, id="alexnet"),
    pytest.param("resnet50", marks=pytest.mark.slow, id="resnet50"),
]

CONFIG_CASES = [
    pytest.param("nv_small", id="nv_small"),
    pytest.param("nv_full", marks=pytest.mark.slow, id="nv_full"),
]


@functools.lru_cache(maxsize=None)
def _calibration(model: str) -> CalibrationTable:
    """One deterministic INT8 calibration per model, shared by every
    fusion mode and config so quantisation scales are identical and
    the differential isolates the fusion decision alone.  Two samples
    matches ``CompileOptions.calibration_samples``' default, so the
    scales equal what an uncalibrated ``compile_network`` would fit."""
    return calibrate_network(ZOO[model](), samples=2)


@functools.lru_cache(maxsize=None)
def _input(model: str) -> np.ndarray:
    """The exact input the functional flow would bake into the bundle
    (``generate_baremetal``'s seed-2024 uniform draw)."""
    rng = np.random.default_rng(2024)
    return rng.uniform(-1.0, 1.0, size=ZOO[model]().input_shape).astype(np.float32)


#: Models whose bundles the cycle-accurate and shortcut tests reuse.
#: The 224×224-class bundles are built per call: memoised, AlexNet's
#: alone would hold gigabytes for the rest of the session.
MEMO_MODELS = ("lenet5", "resnet18")


def _bundle(model: str, config_name: str, mode: str):
    """One (model, config, fusion-mode) bundle, memoised for
    ``MEMO_MODELS`` so the fast-tier and cycle-accurate tests share
    compilations."""
    if model in MEMO_MODELS:
        return _memo_bundle(model, config_name, mode)
    return _compile_bundle(model, config_name, mode)


def _compile_bundle(model: str, config_name: str, mode: str):
    config, precision, _ = CONFIGS[config_name]
    options = CompileOptions(
        precision=precision,
        fusion=mode,
        calibration=_calibration(model) if precision is Precision.INT8 else None,
    )
    bundle = generate_baremetal(
        ZOO[model](),
        config,
        precision=precision,
        fidelity="timing",
        compile_options=options,
    )
    # Re-tag functional: the executors under test compute the tensors
    # themselves (see module docstring); without the tag they would
    # skip computation and every bit-identity assertion would
    # vacuously compare None with None.
    bundle.fidelity = "functional"
    return bundle


_memo_bundle = functools.lru_cache(maxsize=None)(_compile_bundle)


def _fast_run(bundle, config_name: str, model: str):
    """Functional fast-tier run; returns (output, op_cycles)."""
    config, _, bus = CONFIGS[config_name]
    table = CalibrationTable()
    executor = FastPathExecutor(
        config, calibration=table, memory_bus_width_bits=bus
    )
    estimate = executor.estimate(bundle)
    # Differential runs compare fusion modes *within* the fast tier, so
    # a synthetic admission (estimate as its own reference) is enough
    # to unlock execution; absolute fast-vs-SoC accuracy is gated by
    # tests/nvdla/test_fastpath_differential.py.
    table.admit(
        bundle.network,
        bundle.config,
        bundle.precision,
        estimate.total_cycles,
        estimate.total_cycles,
        memory_bus_width_bits=bus,
    )
    result = executor.run(bundle, input_image=_input(model))
    assert result.ok
    assert result.output is not None
    return result.output, estimate.op_cycles


def _soc_run(bundle, config_name: str, model: str):
    """Cycle-accurate SoC run with the input packed into DRAM."""
    config, _, bus = CONFIGS[config_name]
    soc = Soc(config, memory_bus_width_bits=bus)
    soc.load_bundle(bundle)
    address, packed = pack_input(bundle.loadable, config, _input(model))
    soc.preload_dram(address, packed)
    result = soc.run_inference(bundle)
    assert result.ok, f"{model}/{config_name}: SoC run failed"
    assert result.output is not None
    return result


def _assert_off_band(model: str, fused: np.ndarray, off: np.ndarray) -> None:
    if model in ELTWISE_BANDS:
        band = ELTWISE_BANDS[model]
        scale = np.abs(off).max() + 1e-9
        delta = np.abs(fused - off).max()
        assert delta <= band * scale, (
            f"{model}: descriptor vs off delta {delta:.4g} exceeds "
            f"{band:.0%} of scale {scale:.4g}"
        )
        corr = np.corrcoef(fused.ravel(), off.ravel())[0, 1]
        assert corr >= MIN_OFF_CORRELATION, (
            f"{model}: descriptor vs off correlation {corr:.4f} below "
            f"{MIN_OFF_CORRELATION}"
        )
    else:
        assert np.array_equal(fused, off), (
            f"{model}: eltwise-free model must be bit-identical across tiers"
        )


@pytest.mark.parametrize("config_name", CONFIG_CASES)
@pytest.mark.parametrize("model", ZOO_CASES)
def test_fast_tier_fusion_differential(model, config_name):
    runs = {}
    cycles = {}
    for mode in FUSION_MODES:
        bundle = _bundle(model, config_name, mode)
        runs[mode], cycles[mode] = _fast_run(bundle, config_name, model)

    assert np.array_equal(runs["descriptor"], runs["graph"]), (
        f"{model}/{config_name}: descriptor fusion changed output bits"
    )
    _assert_off_band(model, runs["descriptor"], runs["off"])

    # Cycle ordering: fusing can only remove work from the schedule.
    assert cycles["descriptor"] <= cycles["graph"] <= cycles["off"]
    assert cycles["descriptor"] < cycles["off"], (
        f"{model}/{config_name}: fusion saved no cycles "
        f"({cycles['descriptor']:,} vs {cycles['off']:,})"
    )


@pytest.mark.parametrize("config_name", CONFIG_CASES)
@pytest.mark.parametrize(
    "model",
    [
        pytest.param("lenet5", id="lenet5"),
        pytest.param("resnet18", marks=pytest.mark.slow, id="resnet18"),
    ],
)
def test_cycle_accurate_fusion_differential(model, config_name):
    results = {
        mode: _soc_run(_bundle(model, config_name, mode), config_name, model)
        for mode in FUSION_MODES
    }
    assert np.array_equal(
        results["descriptor"].output, results["graph"].output
    ), f"{model}/{config_name}: descriptor fusion changed output bits on the SoC"
    _assert_off_band(model, results["descriptor"].output, results["off"].output)
    assert results["descriptor"].cycles < results["off"].cycles, (
        f"{model}/{config_name}: fused SoC run not cheaper "
        f"({results['descriptor'].cycles:,} vs {results['off'].cycles:,})"
    )


def test_timing_shortcut_is_sound():
    """The timing-generated, re-tagged bundle this module runs on must
    be indistinguishable from the full functional flow: identical
    register program, and bit-identical outputs on both tiers."""
    functional = generate_baremetal(
        ZOO["lenet5"](),
        NV_SMALL,
        compile_options=CompileOptions(
            precision=Precision.INT8, calibration=_calibration("lenet5")
        ),
    )
    shortcut = _bundle("lenet5", "nv_small", "descriptor")

    assert [c.render() for c in functional.commands] == [
        c.render() for c in shortcut.commands
    ]
    assert functional.program.to_bytes() == shortcut.program.to_bytes()

    fast_functional, _ = _fast_run(functional, "nv_small", "lenet5")
    fast_shortcut, _ = _fast_run(shortcut, "nv_small", "lenet5")
    np.testing.assert_array_equal(fast_functional, fast_shortcut)
    # The functional bundle bakes the same seed-2024 input into its
    # images, so its VP-traced output must match the executors too.
    np.testing.assert_array_equal(
        fast_shortcut, functional.vp_result.output
    )

    soc_functional = _soc_run(functional, "nv_small", "lenet5")
    soc_shortcut = _soc_run(shortcut, "nv_small", "lenet5")
    np.testing.assert_array_equal(soc_functional.output, soc_shortcut.output)
    assert soc_functional.cycles == soc_shortcut.cycles
