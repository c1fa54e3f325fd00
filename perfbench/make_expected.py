#!/usr/bin/env python3
"""Regenerate the expected-output records in perfbench/expected/.

    python3 perfbench/make_expected.py

Records the exact Schur coefficients of every batch operation and the exit
code and stdout (as sha256 and length) of every catalog request, computed by
the csmloci sources in ./src.  Edge inputs get the record of a named error
(exit 1, empty stdout) whatever the sources do.  Run only at a commit whose
outputs are trusted: the benchmark counts every later difference as a failure.
"""

from __future__ import annotations

import json
import os
import sys

import run as bench


def write(name, records, src_sha256):
    os.makedirs(bench.EXPECTED, exist_ok=True)
    path = os.path.join(bench.EXPECTED, f"{name}.json")
    with open(path, "w") as fh:
        fh.write('{"src_sha256": %s, "records": {\n' % json.dumps(src_sha256))
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                            for k, v in records.items()))
        fh.write("\n}}\n")
    print(f"wrote {len(records)} records to {path}")


def main():
    bench.import_csmloci()
    import workloads as wl
    src_sha256 = bench.src_digest()
    for name, orbits, call in (("interp-csm", wl.interp_orbits(), wl.run_interp),
                               ("sieve-ssm", wl.sieve_orbits(), wl.run_sieve)):
        write(name, {wl.orbit_key(o): wl.schur_record(call(o)) for o in orbits}, src_sha256)
    records = {}
    for req in wl.query_catalog():
        code, stdout, _ = wl.run_query(req)
        records[req] = wl.query_record(code, stdout)
    for req in wl.EDGE_REQUESTS:
        records[req] = wl.EDGE_RECORD
    write("queries", records, src_sha256)
    return 0


if __name__ == "__main__":
    sys.exit(main())
