#!/usr/bin/env python3
"""Validate an exported telemetry snapshot against the checked-in schema.

Usage: validate_telemetry_json.py SNAPSHOT.json [SCHEMA.json]

Stdlib-only so CI needs no extra packages: implements the small JSON
Schema subset the snapshot schema uses (type, required, properties,
additionalProperties, patternProperties, items, prefixItems, min/max,
minItems/maxItems, pattern, $ref into $defs), then runs a few semantic
checks the schema language cannot express (bucket ordering, count
consistency, quantile bounds).
"""

import json
import re
import sys

TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "null": lambda v: v is None,
    "boolean": lambda v: isinstance(v, bool),
}


class SchemaError(Exception):
    pass


REACTOR_COUNTERS = (
    "swing_reactor_wakeups_total",
    "swing_reactor_events_total",
    "swing_reactor_frames_sent_total",
    "swing_reactor_frames_received_total",
    "swing_reactor_conns_closed_total",
)


def resolve(schema, root):
    ref = schema.get("$ref")
    if ref is None:
        return schema
    if not ref.startswith("#/"):
        raise SchemaError(f"unsupported $ref {ref!r}")
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def validate(value, schema, root, path="$"):
    schema = resolve(schema, root)

    types = schema.get("type")
    if types is not None:
        if isinstance(types, str):
            types = [types]
        if not any(TYPE_CHECKS[t](value) for t in types):
            raise SchemaError(f"{path}: expected {types}, got {type(value).__name__}")

    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            raise SchemaError(f"{path}: {value} < minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            raise SchemaError(f"{path}: {value} > maximum {schema['maximum']}")

    if isinstance(value, str) and "pattern" in schema:
        if not re.search(schema["pattern"], value):
            raise SchemaError(f"{path}: {value!r} does not match {schema['pattern']!r}")

    if isinstance(value, dict):
        for req in schema.get("required", []):
            if req not in value:
                raise SchemaError(f"{path}: missing required field {req!r}")
        props = schema.get("properties", {})
        patterns = schema.get("patternProperties", {})
        allow_extra = schema.get("additionalProperties", True)
        for key, sub in value.items():
            if key in props:
                validate(sub, props[key], root, f"{path}.{key}")
            else:
                matched = False
                for pat, pat_schema in patterns.items():
                    if re.search(pat, key):
                        validate(sub, pat_schema, root, f"{path}.{key}")
                        matched = True
                        break
                if not matched and allow_extra is False:
                    raise SchemaError(f"{path}: unexpected field {key!r}")

    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            raise SchemaError(f"{path}: {len(value)} items < minItems {schema['minItems']}")
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            raise SchemaError(f"{path}: {len(value)} items > maxItems {schema['maxItems']}")
        prefix = schema.get("prefixItems")
        items = schema.get("items")
        for i, sub in enumerate(value):
            if prefix is not None and i < len(prefix):
                validate(sub, prefix[i], root, f"{path}[{i}]")
            elif items is not None:
                validate(sub, items, root, f"{path}[{i}]")


def semantic_checks(snap):
    """Invariants of the exporter that JSON Schema cannot state."""
    for h in snap["histograms"]:
        where = f"histogram {h['name']} {h['labels']}"
        buckets = h["buckets"]
        indices = [b[0] for b in buckets]
        if indices != sorted(set(indices)):
            raise SchemaError(f"{where}: bucket indices not strictly increasing")
        total = sum(b[1] for b in buckets)
        if total != h["count"]:
            raise SchemaError(f"{where}: bucket total {total} != count {h['count']}")
        if h["count"] > 0:
            if not h["min"] <= h["p50"] <= h["p95"] <= h["p99"] <= h["max"]:
                raise SchemaError(
                    f"{where}: quantiles not ordered: "
                    f"min {h['min']} p50 {h['p50']} p95 {h['p95']} "
                    f"p99 {h['p99']} max {h['max']}"
                )
    for c in snap["counters"]:
        if not c["name"].endswith("_total") and not c["name"].endswith("_count"):
            raise SchemaError(
                f"counter {c['name']}: monotone counters use the _total suffix"
            )
    # The reactor registers its counters as one set; wake-ups per event
    # and per frame can only be read off a snapshot that has them all.
    names = {c["name"] for c in snap["counters"]}
    if any(n.startswith("swing_reactor_") for n in names):
        for need in REACTOR_COUNTERS:
            if need not in names:
                raise SchemaError(f"reactor snapshot without counter {need}")


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    snapshot_path = sys.argv[1]
    schema_path = (
        sys.argv[2] if len(sys.argv) > 2 else "schemas/telemetry_snapshot.schema.json"
    )
    with open(snapshot_path) as f:
        snap = json.load(f)
    with open(schema_path) as f:
        schema = json.load(f)
    validate(snap, schema, schema)
    semantic_checks(snap)
    print(
        f"{snapshot_path}: valid ({len(snap['counters'])} counters, "
        f"{len(snap['gauges'])} gauges, {len(snap['histograms'])} histograms)"
    )


if __name__ == "__main__":
    main()
