"""The tentpole gate: store-loaded bundles are bit-identical to fresh
compiles for every zoo model.

For each model the compiled bundle goes through a full store round
trip (serialize → content-addressed write → verified read →
deserialize) and the result must reserialize to the *same bytes* and
carry the same artifact digest. The two calibration-class models run
in tier 1; the 224×224-class models ride the ``slow`` marker like the
rest of the zoo suites.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baremetal.pipeline import bundle_cache_key
from repro.nvdla import Precision
from repro.serve import BundleCache, DeploymentSpec, InferenceService
from repro.store import BundleStore, serialize_bundle, sha256_hex

ZOO_CASES = [
    pytest.param("lenet5", id="lenet5"),
    pytest.param("resnet18", id="resnet18"),
    pytest.param("mobilenet", marks=pytest.mark.slow, id="mobilenet"),
    pytest.param("googlenet", marks=pytest.mark.slow, id="googlenet"),
    pytest.param("alexnet", marks=pytest.mark.slow, id="alexnet"),
    pytest.param("resnet50", marks=pytest.mark.slow, id="resnet50"),
]


@pytest.mark.parametrize("model", ZOO_CASES)
def test_store_round_trip_is_bit_identical(model, tmp_path):
    # Timing fidelity keeps the big-model containers (and build time)
    # manageable; the container covers program, commands, images and
    # results identically for both fidelities.
    store = BundleStore(tmp_path / "store")
    compiled = BundleCache().bundle_for(model, "nv_small", fidelity="timing")
    fresh_bytes = serialize_bundle(compiled)

    key = bundle_cache_key(model, "nv_small", Precision.INT8, "timing")
    store.put_bundle(key, compiled)
    loaded = store.get_bundle(key)

    assert loaded is not None
    assert loaded.artifact_digest() == compiled.artifact_digest()
    assert serialize_bundle(loaded) == fresh_bytes
    # The on-disk object *is* those bytes, filed under their own hash.
    entry = store.ls()[0]
    assert entry.object_digest == sha256_hex(fresh_bytes)


def test_store_loaded_bundle_serves_identical_outputs(tmp_path):
    """End to end: a service warmed purely from the store produces the
    same inference outputs as one that compiled from scratch."""
    store = BundleStore(tmp_path / "store")
    spec = DeploymentSpec("lenet5")

    cold = InferenceService(input_seed=7)
    cold.request(spec)
    baseline = cold.run_pending()[0]

    # Publish the compiled bundle, then serve from a fresh cache that
    # can only have gotten it from disk.
    bundle = cold.cache.bundle_for("lenet5", "nv_small")
    store.put_bundle(
        bundle_cache_key("lenet5", "nv_small", Precision.INT8, "functional"),
        bundle,
    )
    warmed = InferenceService(cache=BundleCache(store=store), input_seed=7)
    warmed.request(spec)
    from_store = warmed.run_pending()[0]

    assert warmed.cache.stats.store_hits == 1
    assert warmed.cache.stats.compiles == 0
    assert np.array_equal(from_store.output, baseline.output)
