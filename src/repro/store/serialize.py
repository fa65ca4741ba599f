"""Bundle and loadable (de)serialisation for the persistent store.

A :class:`~repro.baremetal.pipeline.BaremetalBundle` is a bag of
heterogeneous artefacts — a compiled loadable, register commands,
assembly text, a machine-code image, preload blobs — each with an
existing text or binary round-trip (``Loadable.to_bytes``,
``Program.to_bytes``, ...).  This module maps each onto one section of
the container format, so a deserialised bundle is field-for-field
equivalent to the deployable part of the one written: same
:meth:`artifact_digest`, bit-identical execution on both tiers.

Only deployable artefacts are stored.  The build record — the VP
trace, the VP result and the calibration input tensor — stays with the
bundle :func:`~repro.baremetal.pipeline.generate_baremetal` returns; a
deserialised bundle has ``trace``, ``vp_result`` and ``input_image``
set to ``None``.

Sections: ``loadable``, ``program.json``, ``program.words``,
``assembly``, ``commands``, ``images.json``, ``images.preload.<i>``.
"""

from __future__ import annotations

import json

from repro.baremetal.config_file import ConfigCommand
from repro.baremetal.image import BinImage, DeploymentImages
from repro.baremetal.pipeline import BaremetalBundle
from repro.compiler.loadable import Loadable
from repro.errors import StoreIntegrityError
from repro.nvdla.config import Precision
from repro.riscv.program import Program
from repro.store.format import Section, read_container, write_container
# Unused here; kept because perfbench's traced run times it as store.parse_trace.
from repro.vp.trace_log import parse_trace  # noqa: F401

BUNDLE_KIND = "baremetal-bundle"
LOADABLE_KIND = "loadable"
SERIAL_VERSION = 2


def bundle_meta(bundle: BaremetalBundle) -> dict:
    """The identity recorded next to the sections (and in store refs)."""
    return {
        "kind": BUNDLE_KIND,
        "serial_version": SERIAL_VERSION,
        "network": bundle.network,
        "config": bundle.config,
        "precision": bundle.precision.value,
        "fidelity": bundle.fidelity,
        "artifact_digest": bundle.artifact_digest(),
        "notes": bundle.notes,
    }


def serialize_bundle(bundle: BaremetalBundle) -> bytes:
    """One deterministic container blob for the whole bundle."""
    program = bundle.program
    sections = [
        Section("loadable", bundle.loadable.to_bytes()),
        Section(
            "program.json",
            json.dumps(
                {
                    "base": program.base,
                    "entry": program.entry,
                    "symbols": program.symbols,
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode(),
        ),
        Section("program.words", program.to_bytes()),
        Section("assembly", bundle.assembly.encode(), compress=True),
        Section(
            "commands",
            json.dumps(
                [[c.kind, c.address, c.data, c.mask] for c in bundle.commands],
                separators=(",", ":"),
            ).encode(),
            compress=True,
        ),
        Section(
            "images.json",
            json.dumps(
                {
                    "program_mem": bundle.images.program_mem,
                    "preload": [
                        {"name": image.name, "load_address": image.load_address}
                        for image in bundle.images.preload
                    ],
                },
                sort_keys=True,
                separators=(",", ":"),
            ).encode(),
            compress=True,
        ),
        *(
            Section(f"images.preload.{index}", image.data)
            for index, image in enumerate(bundle.images.preload)
        ),
    ]
    return write_container(bundle_meta(bundle), sections)


def deserialize_bundle(blob: bytes, path: str | None = None) -> BaremetalBundle:
    """Reconstruct a bundle's deployable form; integrity failures raise,
    never mis-load."""
    meta, sections = read_container(blob, path=path)
    if meta.get("kind") != BUNDLE_KIND:
        raise StoreIntegrityError(
            f"object is a {meta.get('kind')!r}, not a {BUNDLE_KIND!r}", path=path
        )
    if meta.get("serial_version") != SERIAL_VERSION:
        raise StoreIntegrityError(
            f"unsupported bundle serial version {meta.get('serial_version')!r}",
            path=path,
        )

    def section(name: str) -> bytes:
        try:
            return sections[name]
        except KeyError:
            raise StoreIntegrityError(f"missing section {name!r}", path=path) from None

    try:
        loadable = Loadable.from_bytes(section("loadable"))
        program_meta = json.loads(section("program.json").decode())
        program = Program.from_bytes(section("program.words"), base=program_meta["base"])
        program.entry = program_meta["entry"]
        program.symbols = program_meta["symbols"]
        assembly = section("assembly").decode()
        program.source = assembly
        commands = [
            ConfigCommand(kind, address, data, mask)
            for kind, address, data, mask in json.loads(section("commands").decode())
        ]
        images_meta = json.loads(section("images.json").decode())
        preload = [
            BinImage(
                name=entry["name"],
                load_address=entry["load_address"],
                data=section(f"images.preload.{index}"),
            )
            for index, entry in enumerate(images_meta["preload"])
        ]
    except StoreIntegrityError:
        raise
    except Exception as exc:  # malformed inner payloads are integrity failures too
        raise StoreIntegrityError(f"stored bundle does not decode: {exc}", path=path) from exc
    bundle = BaremetalBundle(
        network=meta["network"],
        config=meta["config"],
        precision=Precision(meta["precision"]),
        loadable=loadable,
        commands=commands,
        assembly=assembly,
        program=program,
        images=DeploymentImages(
            program_mem=images_meta["program_mem"], program=program, preload=preload
        ),
        fidelity=meta["fidelity"],
        notes=meta.get("notes", {}),
    )
    recorded = meta.get("artifact_digest")
    if recorded is not None and bundle.artifact_digest() != recorded:
        raise StoreIntegrityError(
            "reconstructed bundle's artifact digest disagrees with the one "
            f"recorded at write time ({recorded[:12]}…)",
            path=path,
        )
    return bundle


def serialize_loadable(loadable: Loadable) -> bytes:
    """A standalone compiled loadable in the same container format."""
    return write_container(
        {
            "kind": LOADABLE_KIND,
            "serial_version": SERIAL_VERSION,
            "network": loadable.network,
            "config": loadable.config,
            "precision": loadable.precision.value,
        },
        [Section("loadable", loadable.to_bytes())],
    )


def deserialize_loadable(blob: bytes, path: str | None = None) -> Loadable:
    meta, sections = read_container(blob, path=path)
    if meta.get("kind") != LOADABLE_KIND:
        raise StoreIntegrityError(
            f"object is a {meta.get('kind')!r}, not a {LOADABLE_KIND!r}", path=path
        )
    if "loadable" not in sections:
        raise StoreIntegrityError("missing section 'loadable'", path=path)
    try:
        return Loadable.from_bytes(sections["loadable"])
    except Exception as exc:
        raise StoreIntegrityError(
            f"stored loadable does not decode: {exc}", path=path
        ) from exc
