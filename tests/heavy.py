"""Heavy checks: exact results too large for Tier-1.

Each check runs alone in a child process with a checkout's src on its path,
and prints one JSON line: the check's name, whether it holds, the CPU
seconds of the timed part and the child's peak RSS in MB.  Exits 1 when a
check fails.

    python tests/heavy.py [NAME ...]    # every check, or those named
    python tests/heavy.py --against REV [--runs N] [NAME ...]

  - "w <family> <n>": every W-class of the family at n, the sha256 fed
    repr(sorted(w_schur(o).items())) orbit by orbit over orbits(family, n),
    as test_schur.py::test_w_class_digests does; it holds when the first 16
    hex digits are the recorded ones.  The W-classes at n - 1, which the
    open orbits at n reach, are built first and not timed; cpu_s is the
    build of the classes at n.
  - "phi sym <n> <r> <D>": the digest of phi_schur(o, D); the time is split
    into the kernel (phi_cv_schur, its inner c(V) included) and the
    division by c(V) that follows.
  - "axioms <n>": the digest of the lines of verify.suite_axioms(n) joined
    by newlines, which `verify --suite axioms --max-n n` prints before its
    verdict.
  - "point <family> <n>": every W-class of the family at n, built as for
    "w", evaluated at pt = (2, 5, 11, 17, 23, 31, 41, 47, 59) / 7 cut to n
    (oracles.schur_dict_value), against oracles.w_value(o, pt), the paper's
    subset sum, which shares no code with the kernel.  It holds when every
    orbit is equal; cpu_s is the build, check_s the evaluation.

The digests are self-pins: recorded from the kernel, they show that a
rewrite changed no result.  The point checks show that the classes are
right.

--against REV unpacks the commit REV (git archive) into a temporary
directory and runs each check N times (default 3) on both trees, in child
processes that alternate between the trees, the first tree of each round
alternating too.  Each check prints one JSON line with both sides' CPU
seconds per run, their medians, the ratio (this tree over REV) and each
side's largest peak RSS; it holds when it holds on both trees.

Standard library and git only, and not collected by pytest.  Each n = 9
check takes 10-60 s of CPU and peaks at 70-200 MB (2 vCPU, Python 3.11.7).
"""

import argparse
import hashlib
import io
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parents[1]
CHECKS = {
    "w sym 8": "bfbc334416ed27bf",
    "w wedge 8": "d0bbc191a14bdc2a",
    "w wedge 9": "92632b11da1df8ae",
    "w sym 9": "0e4ab997f13204fe",
    "phi sym 8 2 24": "5cb062ac1f5a644b",
    "phi sym 9 2 30": "cfae303d482b6ea6",
    "axioms 7": "090168ca0b7af718",
    "point wedge 7": None,
    "point sym 7": None,
    "point wedge 8": None,
    "point sym 8": None,
}
POINT = tuple(Fraction(x, 7) for x in (2, 5, 11, 17, 23, 31, 41, 47, 59))


def digest(values):
    h = hashlib.sha256()
    for coeffs in values:
        h.update(repr(sorted(coeffs.items())).encode())
    return h.hexdigest()[:16]


def run_check(name):
    """{digest or ok, cpu_s[, ...]} of one check, in process."""
    from csmloci.interp import w_schur
    from csmloci.oracles import schur_dict_value, w_value
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
    if kind in ("w", "point"):
        for orbit in orbits(family, n - 1):
            w_schur(orbit)
        start = time.process_time()
        classes = [(orbit, w_schur(orbit)) for orbit in orbits(family, n)]
        built = time.process_time()
        if kind == "w":
            return {"digest": digest(coeffs for _, coeffs in classes), "cpu_s": built - start}
        failed = [orbit.r for orbit, coeffs in classes
                  if schur_dict_value(coeffs, POINT[:n]) != w_value(orbit, POINT[:n])]
        return {"ok": not failed, "failed_r": failed, "cpu_s": built - start,
                "check_s": time.process_time() - built}
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
    if "digest" in out:
        out["ok"] = out["digest"] == CHECKS[name]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


def spawn(name, src):
    """The JSON line of one check, run in a child process on the package under
    src; a child that fails gives ok false and the last line of its stderr."""
    run = subprocess.run([sys.executable, "-B", str(pathlib.Path(__file__).resolve()),
                          "--child", name],
                         cwd=src.parent, env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True)
    if run.returncode:
        return {"name": name, "ok": False, "error": run.stderr.strip().rpartition("\n")[2]}
    return {"name": name, **json.loads(run.stdout)}


def against(rev, names, runs):
    """Each check on the tree of rev and on this one, in alternating child
    processes; returns whether every run held."""
    held = True
    with tempfile.TemporaryDirectory() as tmp:
        tar = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, capture_output=True,
                             check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(tmp, filter="data")
        trees = {"base": pathlib.Path(tmp) / "src", "head": ROOT / "src"}
        for name in names:
            seen = {"base": [], "head": []}
            for run in range(runs):
                for side in ("base", "head") if run % 2 == 0 else ("head", "base"):
                    seen[side].append(spawn(name, trees[side]))
            broken = [o for o in seen["base"] + seen["head"] if "error" in o]
            if broken:
                print(json.dumps({"rev": rev, **broken[0]}), flush=True)
                held = False
                continue
            out = {"name": name, "rev": rev,
                   "ok": all(o["ok"] for o in seen["base"] + seen["head"])}
            for side, prefix in (("base", "base_"), ("head", "")):
                cpu = [o["cpu_s"] for o in seen[side]]
                out[prefix + "cpu_s"] = [round(x, 3) for x in cpu]
                out[prefix + "cpu_median_s"] = round(statistics.median(cpu), 3)
                out[prefix + "peak_rss_mb"] = round(max(o["peak_rss_mb"] for o in seen[side]), 1)
            out["ratio"] = round(out["cpu_median_s"] / out["base_cpu_median_s"], 3)
            held &= out["ok"]
            print(json.dumps(out), flush=True)
    return held


def main(argv):
    ap = argparse.ArgumentParser(description="Heavy checks, one child process each.")
    ap.add_argument("names", nargs="*", metavar="NAME")
    ap.add_argument("--against", metavar="REV", help="also run each check on the commit REV")
    ap.add_argument("--runs", type=int, default=3, help="runs per tree with --against")
    args = ap.parse_args(argv)
    unknown = set(args.names) - set(CHECKS)
    if unknown:
        sys.exit(f"unknown checks {sorted(unknown)}; known: {sorted(CHECKS)}")
    names = args.names or list(CHECKS)
    if args.against:
        sys.exit(0 if against(args.against, names, args.runs) else 1)
    failed = False
    for name in names:
        out = spawn(name, ROOT / "src")
        failed |= not out["ok"]
        print(json.dumps(out), flush=True)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        main(sys.argv[1:])
