#!/usr/bin/env python3
"""Offline audit of an ENLD quarantine log (docs/ROBUSTNESS.md).

Usage: check_quarantine.py <quarantine.json> [--expect-nonempty]

Validates, with nothing but the Python standard library, the JSON file
written by WriteQuarantineJson / `enld_cli validate --quarantine_out` /
`data_platform_stream --quarantine_out`:

  * the schema tag is "enld-quarantine-v1",
  * total/recorded/capacity are consistent non-negative integers
    (recorded == len(records), recorded <= capacity, total >= recorded),
  * every record carries a known reason name, a non-empty human-readable
    detail, and integer request/row/sample_id fields,
  * kNonFiniteFeature records name the offending column,
  * the "truncated" marker is present and agrees with the counters
    (truncated iff total > recorded). A truncated log draws a warning:
    records were dropped at write time, so `enld_cli replay` cannot
    re-screen them.

With --expect-nonempty the audit additionally fails when the log holds no
records — used by CI to prove a drill actually quarantined something.
Exits non-zero with one message per violation so CI can gate on it.
"""

import json
import sys

SCHEMA = "enld-quarantine-v1"
REASONS = {
    "non_finite_feature",
    "observed_label_out_of_range",
    "true_label_out_of_range",
}

errors = []


def fail(message):
    errors.append(message)


def require_uint(doc, key):
    value = doc.get(key)
    if not isinstance(value, (int, float)) or value < 0 or value != int(value):
        fail(f"field '{key}' missing or not a non-negative integer: {value!r}")
        return None
    return int(value)


def check_record(i, record):
    if not isinstance(record, dict):
        fail(f"records[{i}] is not an object")
        return
    reason = record.get("reason")
    if reason not in REASONS:
        fail(f"records[{i}] has unknown reason {reason!r}")
    detail = record.get("detail")
    if not isinstance(detail, str) or not detail.strip():
        fail(f"records[{i}] has an empty detail message")
    for key in ("request", "row", "sample_id"):
        value = record.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            fail(f"records[{i}].{key} missing or negative: {value!r}")
    if reason == "non_finite_feature":
        column = record.get("column")
        if not isinstance(column, (int, float)) or column < 0:
            fail(f"records[{i}] lacks the offending column: {column!r}")
    # `value` is serialized as a string because NaN — the typical offender —
    # is not representable in JSON.
    if not isinstance(record.get("value"), str):
        fail(f"records[{i}].value is not a string")


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    expect_nonempty = "--expect-nonempty" in sys.argv[1:]
    if len(args) != 1:
        print(__doc__)
        return 2
    path = args[0]

    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"FAIL {path}: unreadable or malformed JSON: {e}",
              file=sys.stderr)
        return 1

    if doc.get("schema") != SCHEMA:
        fail(f"schema {doc.get('schema')!r} != {SCHEMA!r}")

    total = require_uint(doc, "total")
    recorded = require_uint(doc, "recorded")
    capacity = require_uint(doc, "capacity")
    records = doc.get("records")
    if not isinstance(records, list):
        fail("field 'records' missing or not an array")
        records = []

    if recorded is not None and recorded != len(records):
        fail(f"recorded {recorded} != len(records) {len(records)}")
    if None not in (recorded, capacity) and recorded > capacity:
        fail(f"recorded {recorded} exceeds capacity {capacity}")
    if None not in (total, recorded) and total < recorded:
        fail(f"total {total} < recorded {recorded}")

    truncated = doc.get("truncated")
    if not isinstance(truncated, bool):
        fail(f"field 'truncated' missing or not a boolean: {truncated!r}")
    elif None not in (total, recorded):
        if truncated != (total > recorded):
            fail(f"truncated marker {truncated} disagrees with counters "
                 f"(total {total}, recorded {recorded})")
        if total > recorded:
            print(f"WARN {path}: log truncated at capacity — "
                  f"{total - recorded} record(s) were dropped and cannot "
                  f"be replayed", file=sys.stderr)

    for i, record in enumerate(records):
        check_record(i, record)

    if expect_nonempty and not records:
        fail("expected a non-empty quarantine log, got zero records")

    if errors:
        for message in errors:
            print(f"FAIL {path}: {message}", file=sys.stderr)
        print(f"{len(errors)} violation(s) in {path}", file=sys.stderr)
        return 1
    print(f"OK: quarantine log {path} verified "
          f"({len(records)} record(s), {total} total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
