"""Heavy digests: exact results too large for Tier-1, pinned by digest.

Each check runs alone in a child process with the checkout's src on its
path, and prints one JSON line: the check's name, its digest (the first 16
hex digits of a sha256), whether that is the recorded one, the CPU seconds
of the timed part and the child's peak RSS in MB.  Exits 1 when a digest
differs.

    python tests/heavy.py [NAME ...]    # every check, or those named

  - "w <family> <n>": every W-class of the family at n, the sha256 fed
    repr(sorted(w_schur(o).items())) orbit by orbit over orbits(family, n),
    as test_schur.py::test_w_class_digests does.  The W-classes at n - 1,
    which the open orbits at n reach, are built first and not timed.
  - "phi sym <n> <r> <D>": repr(sorted(phi_schur(o, D).items())); the time
    is split into the kernel (phi_cv_schur, its inner c(V) included) and
    the division by c(V) that follows.
  - "axioms <n>": the lines of verify.suite_axioms(n) joined by newlines,
    which `verify --suite axioms --max-n n` prints before its verdict.

Standard library only, and not collected by pytest.  Each n = 9 check takes
10-60 s of CPU and peaks at 70-200 MB (2 vCPU, Python 3.11.7).
"""

import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHECKS = {
    "w sym 8": "bfbc334416ed27bf",
    "w wedge 8": "d0bbc191a14bdc2a",
    "w wedge 9": "92632b11da1df8ae",
    "w sym 9": "0e4ab997f13204fe",
    "phi sym 8 2 24": "5cb062ac1f5a644b",
    "phi sym 9 2 30": "cfae303d482b6ea6",
    "axioms 7": "090168ca0b7af718",
}


def digest(values):
    h = hashlib.sha256()
    for coeffs in values:
        h.update(repr(sorted(coeffs.items())).encode())
    return h.hexdigest()[:16]


def run_check(name):
    """{digest, cpu_s[, kernel_s, division_s]} of one check, in process."""
    from csmloci.interp import w_schur
    from csmloci.orbits import OrbitId, as_family, orbits
    from csmloci.sieve import phi_cv_schur, phi_schur
    from csmloci.verify import suite_axioms

    kind, *args = name.split()
    if kind == "axioms":
        start = time.process_time()
        _, lines = suite_axioms(int(args[0]))
        value = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        return {"digest": value, "cpu_s": time.process_time() - start}
    family, n, *args = args
    family, n = as_family(family), int(n)
    if kind == "w":
        for orbit in orbits(family, n - 1):
            w_schur(orbit)
        start = time.process_time()
        value = digest(w_schur(orbit) for orbit in orbits(family, n))
        return {"digest": value, "cpu_s": time.process_time() - start}
    orbit, D = OrbitId(family, n, int(args[0])), int(args[1])
    start = time.process_time()
    phi_cv_schur(orbit, D)
    kernel = time.process_time()
    value = digest([phi_schur(orbit, D)])
    end = time.process_time()
    return {"digest": value, "cpu_s": end - start, "kernel_s": kernel - start,
            "division_s": end - kernel}


def child(name):
    out = run_check(name)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


def main(names):
    unknown = set(names) - set(CHECKS)
    if unknown:
        sys.exit(f"unknown checks {sorted(unknown)}; known: {sorted(CHECKS)}")
    failed = False
    for name in names or CHECKS:
        run = subprocess.run([sys.executable, "-B", str(pathlib.Path(__file__).resolve()),
                              "--child", name],
                             cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                             capture_output=True, text=True, check=True)
        out = json.loads(run.stdout)
        out = {"name": name, "ok": out["digest"] == CHECKS[name], **out}
        failed |= not out["ok"]
        print(json.dumps(out), flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        main(sys.argv[1:])
