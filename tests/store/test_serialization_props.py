"""Round-trip property tests for the store's serialization layers.

Hypothesis drives the container format (arbitrary section names,
payloads, compression flags, meta dicts); the bundle/loadable laws are
checked on real compiled artefacts, including digest stability across
*processes* (a subprocess recompiles and reserializes from scratch and
must produce the byte-identical container).
"""

from __future__ import annotations

import io
import subprocess
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.store import (  # noqa: E402
    Section,
    read_container,
    serialize_bundle,
    serialize_loadable,
    deserialize_bundle,
    deserialize_loadable,
    sha256_hex,
    write_container,
)

# ----------------------------------------------------------------------
# Container format: read(write(x)) == x, and write is deterministic.
# ----------------------------------------------------------------------

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=24
)
_sections = st.lists(
    st.tuples(_names, st.binary(max_size=2048), st.booleans()),
    max_size=8,
    unique_by=lambda t: t[0],
)
_meta = st.dictionaries(
    _names,
    st.one_of(st.integers(), st.text(max_size=32), st.booleans(), st.none()),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(meta=_meta, sections=_sections)
def test_container_round_trip(meta, sections):
    blob = write_container(meta, [Section(n, d, c) for n, d, c in sections])
    got_meta, got_sections = read_container(blob)
    assert got_meta == meta
    assert got_sections == {name: data for name, data, _ in sections}


@settings(max_examples=30, deadline=None)
@given(meta=_meta, sections=_sections)
def test_container_write_is_deterministic(meta, sections):
    once = write_container(meta, [Section(n, d, c) for n, d, c in sections])
    twice = write_container(meta, [Section(n, d, c) for n, d, c in sections])
    assert once == twice
    # ... which is exactly what makes the content address stable.
    assert sha256_hex(once) == sha256_hex(twice)


@settings(max_examples=30, deadline=None)
@given(
    meta=_meta,
    sections=_sections.filter(lambda s: sum(len(d) for _, d, _ in s) > 0),
    data=st.data(),
)
def test_container_rejects_any_single_bit_flip(meta, sections, data):
    """Integrity is total: no flipped bit anywhere goes unnoticed."""
    from repro.errors import StoreIntegrityError

    blob = bytearray(write_container(meta, [Section(n, d, c) for n, d, c in sections]))
    position = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    bit = data.draw(st.integers(min_value=0, max_value=7))
    blob[position] ^= 1 << bit
    with pytest.raises(StoreIntegrityError):
        read_container(bytes(blob))


# ----------------------------------------------------------------------
# Bundle / loadable laws on real artefacts.
# ----------------------------------------------------------------------


def test_bundle_round_trip_law(lenet_bundle):
    """serialize∘deserialize∘serialize == serialize (the fixed point),
    and the reconstruction preserves the artifact digest."""
    blob = serialize_bundle(lenet_bundle)
    loaded = deserialize_bundle(blob)
    assert serialize_bundle(loaded) == blob
    assert loaded.artifact_digest() == lenet_bundle.artifact_digest()
    # Field-level spot checks (the digest covers these, but failures
    # here localise a regression immediately).
    assert loaded.network == lenet_bundle.network
    assert loaded.commands == lenet_bundle.commands
    assert loaded.assembly == lenet_bundle.assembly
    assert loaded.program.words == lenet_bundle.program.words
    assert loaded.program.symbols == lenet_bundle.program.symbols
    assert [i.name for i in loaded.images.preload] == [
        i.name for i in lenet_bundle.images.preload
    ]
    # Only the deployable form is stored: no build record.
    assert (loaded.trace, loaded.vp_result, loaded.input_image) == (None, None, None)
    _, sections = read_container(blob)
    assert not [
        name for name in sections
        if name in ("trace", "input_image") or name.startswith("vp_result.")
    ]


def test_loadable_round_trip_law(lenet_bundle):
    blob = serialize_loadable(lenet_bundle.loadable)
    loaded = deserialize_loadable(blob)
    assert serialize_loadable(loaded) == blob
    assert loaded.to_bytes() == lenet_bundle.loadable.to_bytes()


_SUBPROCESS_PROGRAM = """
import hashlib
from repro.serve.cache import BundleCache
from repro.store import serialize_bundle

bundle = BundleCache().bundle_for("lenet5", "nv_small", fidelity="timing")
print(bundle.artifact_digest())
print(hashlib.sha256(serialize_bundle(bundle)).hexdigest())
"""


def test_digest_stability_across_processes(lenet_bundle):
    """A different process compiling the same deployment produces the
    byte-identical container — the property content addressing and
    cross-worker store sharing stand on."""
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_PROGRAM],
        capture_output=True,
        text=True,
        check=True,
    )
    their_artifact, their_container = proc.stdout.split()
    assert their_artifact == lenet_bundle.artifact_digest()
    assert their_container == sha256_hex(serialize_bundle(lenet_bundle))
