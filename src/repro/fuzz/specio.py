"""Program-spec (de)serialization: fuzz cases as reviewable JSON.

A minimized repro is a :class:`~repro.synth.program.ProgramSpec` — the
declarative description codegen lowers deterministically — so pinning
the *spec* pins the binary bit-for-bit.  Corpus entries
(``tests/fuzz/corpus/*.json``) wrap a spec with the expected serial
signature digest and provenance metadata; the replay test re-synthesizes
each entry and re-parses it on every backend.

The JSON form is intentionally flat and diff-friendly: one object per
function, one per segment, enum values spelled out.
"""

from __future__ import annotations

import json

from repro.errors import SynthesisError
from repro.schema import FUZZ_CASE_SCHEMA as CASE_SCHEMA
from repro.schema import to_json
from repro.synth.program import (
    Epilogue,
    FunctionSpec,
    ProgramSpec,
    SegKind,
    Segment,
    SwitchSpec,
)


# ----------------------------------------------------------------- spec

def spec_to_json(spec: ProgramSpec) -> dict:
    """JSON-ready dict capturing a spec exactly — every dataclass field,
    enums as their values (codegen determinism then pins the binary)."""
    return to_json(spec)


def _segment_from_json(obj: dict) -> Segment:
    sw = obj.get("switch")
    return Segment(
        kind=SegKind(obj["kind"]),
        filler=obj["filler"],
        callee=obj.get("callee"),
        switch=(SwitchSpec(sw["n_cases"], sw["obscured_bound"],
                           sw["stack_spill"]) if sw else None),
        loop_trips=obj.get("loop_trips", 4),
    )


def _function_from_json(obj: dict) -> FunctionSpec:
    return FunctionSpec(
        index=obj["index"],
        name=obj["name"],
        segments=[_segment_from_json(s) for s in obj["segments"]],
        epilogue=Epilogue(obj["epilogue"]),
        has_frame=obj["has_frame"],
        tail_target=obj.get("tail_target"),
        noreturn_callee=obj.get("noreturn_callee"),
        shared_error_group=obj.get("shared_error_group"),
        cold_outline=obj.get("cold_outline", False),
        hidden=obj.get("hidden", False),
        eh_only=obj.get("eh_only", False),
        secondary_entry=obj.get("secondary_entry", False),
        listing1_shared_jmp=obj.get("listing1_shared_jmp"),
        inline_depth=obj.get("inline_depth", 0),
        cu=obj.get("cu", "src_0.c"),
        decl_line=obj.get("decl_line", 1),
    )


def spec_from_json(obj: dict) -> ProgramSpec:
    """Rebuild a :class:`ProgramSpec` from :func:`spec_to_json` output."""
    try:
        return ProgramSpec(
            seed=obj["seed"],
            name=obj["name"],
            n_shared_error_groups=obj["n_shared_error_groups"],
            type_dies_per_cu=obj.get("type_dies_per_cu", 0),
            lines_per_function=obj.get("lines_per_function", 4),
            strip_symtab=obj.get("strip_symtab", False),
            pct_junk_padding=obj.get("pct_junk_padding", 0.15),
            junk_max_bytes=obj.get("junk_max_bytes", 8),
            noreturn_indices=set(obj.get("noreturn_indices", ())),
            functions=[_function_from_json(f) for f in obj["functions"]],
        )
    except (KeyError, ValueError) as e:
        raise SynthesisError(f"malformed spec document: {e!r}") from e


def clone_spec(spec: ProgramSpec) -> ProgramSpec:
    """Deep, independent copy (via the JSON round-trip, which doubles
    as a serializability guarantee for every spec the reducer touches)."""
    return spec_from_json(spec_to_json(spec))


# ----------------------------------------------------------------- case

def case_to_json(spec: ProgramSpec, *, signature_sha256: str,
                 origin: str, preset: str | None = None,
                 failing_axes: list[str] | None = None) -> dict:
    """A pinned corpus entry: spec + expected behaviour + provenance."""
    return {
        "schema": CASE_SCHEMA,
        "name": spec.name,
        "origin": origin,
        "preset": preset,
        "failing_axes": list(failing_axes or []),
        "expect": {"signature_sha256": signature_sha256},
        "spec": spec_to_json(spec),
    }


def case_from_json(obj: dict) -> tuple[ProgramSpec, dict]:
    """Rebuild ``(spec, case_document)``; validates the schema tag."""
    if obj.get("schema") != CASE_SCHEMA:
        raise SynthesisError(
            f"not a {CASE_SCHEMA} document: {obj.get('schema')!r}")
    return spec_from_json(obj["spec"]), obj


def load_case(path: str) -> tuple[ProgramSpec, dict]:
    """Load one pinned corpus entry from disk."""
    with open(path) as f:
        return case_from_json(json.load(f))


def save_case(path: str, case: dict) -> None:
    """Write a corpus entry with stable formatting (reviewable diffs)."""
    with open(path, "w") as f:
        json.dump(case, f, indent=2, sort_keys=True)
        f.write("\n")
