"""Reader for the arachnet.bench.v1 JSONL sidecars the benches write.

Every line of a sidecar is one JSON record carrying the schema tag. A
record with another schema is a foreign file handed to a gate by mistake:
the gates print it to stderr and exit 2 rather than judge rows they do
not understand.
"""

import json
import sys

SCHEMA = "arachnet.bench.v1"


def records(path):
    """Yields the records of one sidecar, in file order."""
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("schema") != SCHEMA:
                print(f"unexpected schema in record: {rec}", file=sys.stderr)
                sys.exit(2)
            yield rec


def load(*paths):
    """name -> value over every record of `paths` that carries a value
    (histogram and percentile records carry none). A later file's row
    replaces an earlier one of the same name."""
    return {
        rec["name"]: rec["value"]
        for path in paths
        for rec in records(path)
        if "value" in rec
    }
