"""Workload definitions: the operations each workload runs and how each
operation's output is put into the comparable form stored in the
expected-output records.

interp-csm and sieve-ssm are batch workloads: one operation per orbit, in an
order the seed shuffles (see batch_order).
queries is a closed-loop stream of CLI requests, one client, each request
sent after the previous one returned.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import traceback
from fractions import Fraction

BATCH_D = 12          # truncation degree of the sieve-ssm workload
QUERY_REQUESTS = 1500  # per pass; p99 then has 15 samples beyond it
EDGE_SHARE = 0.02      # share of queries that are edge inputs
ZIPF_S = 1.0           # popularity exponent over the catalog ranks

FORMATS = ("text", "json", "latex")
BASES = ("chern", "schur", "alpha")

# Edge inputs (malformed or out-of-scope requests).  The expected outcome of
# each is a named error: exit 1, nothing on stdout, "error:" on stderr and no
# traceback.
EDGE_REQUESTS = (
    "table --family wedge --n 1",
    "table --family sym --n 0",
    "verify --suite cross --max-n -3",
    "ktheory --n 5 --r 1",
    "class --family wedge --n 3 --r 2",
    "class --family sym --n 0 --r 0",
    "class --family sym --n 3 --r 1 --kind ssm",
    "phi --family wedge --n 3 --r 1 --trunc -1",
    "mather --n 4 --r 1",
)

# Edge inputs that do not give the expected named error at the commit that
# defined this benchmark.  They stay in the stream and count as failed.
KNOWN_SEED_FAILURES = {
    "table --family wedge --n 1": "IndexError traceback on an empty table",
    "table --family sym --n 0": "IndexError traceback on an empty table",
    "verify --suite cross --max-n -3": "negative --max-n accepted, exit 0",
}


def orbit_list(families, ns):
    from csmloci.orbits import orbits
    return [o for fam in families for n in ns for o in orbits(fam, n)]


def interp_orbits():
    """Every orbit of both families with n <= 5, and the wedge orbits with n = 6."""
    return orbit_list(("wedge", "sym"), range(1, 6)) + orbit_list(("wedge",), (6,))


def sieve_orbits():
    """Every orbit of both families with n <= 5."""
    return orbit_list(("wedge", "sym"), range(1, 6))


def interp_group(orbit):
    """Orbits with one n - r share the inner W-function; the smallest n pays."""
    return (orbit.family.value, orbit.n - orbit.r), orbit.n


def sieve_group(orbit):
    """Orbits with one n share the Phi classes; each r pays for Phi_{n,r}."""
    return (orbit.family.value, orbit.n), -orbit.r


def batch_order(orbits, group, seed):
    """The seed shuffles the order of the groups of orbits that share cached
    work; inside a group the order is fixed.  So the seed changes neither
    the total work nor the work of any one operation."""
    groups = {}
    for o in sorted(orbits, key=lambda o: group(o)[1]):
        groups.setdefault(group(o)[0], []).append(o)
    keys = sorted(groups)
    random.Random(seed).shuffle(keys)
    return [o for k in keys for o in groups[k]]


def orbit_key(orbit):
    return f"{orbit.family.value}/{orbit.n}/{orbit.r}"


def run_interp(orbit):
    from csmloci import csm_class
    return csm_class(orbit).payload


def run_sieve(orbit):
    from csmloci import ssm_sieve
    return ssm_sieve(orbit, BATCH_D).payload


def schur_record(coeffs):
    """A Schur dict as a JSON-ready sorted list of [partition, "p/q"]."""
    out = []
    for lam, c in sorted(coeffs.items()):
        f = Fraction(c)
        out.append([list(lam), f"{f.numerator}/{f.denominator}"])
    return out


def schur_from_record(rec):
    out = {}
    for lam, c in rec:
        f = Fraction(c)
        out[tuple(lam)] = f.numerator if f.denominator == 1 else f
    return out


# -- the queries catalog -------------------------------------------------

def query_catalog():
    """The distinct well-formed requests, in order of popularity rank.

    Covers every subcommand over the orbits with n <= 5 (K-theory n <= 4),
    cycling through output formats, bases, routes, kinds and closures.
    """
    from csmloci.orbits import coranks
    small = orbit_list(("wedge", "sym"), range(1, 6))
    cat = []

    def add(s):
        if s not in cat:
            cat.append(s)

    for i, o in enumerate(small):
        f, b = FORMATS[(i // 3) % 3], BASES[i % 3]
        add(f"class --family {o.family.value} --n {o.n} --r {o.r} --basis {b} --format {f}")
    for i, o in enumerate(small):
        if o.n > 4:
            continue
        f, b = FORMATS[i % 3], BASES[(i + 1) % 3]
        add(f"class --family {o.family.value} --n {o.n} --r {o.r} --kind ssm "
            f"--trunc 5 --basis {b} --format {f}")
        add(f"class --family {o.family.value} --n {o.n} --r {o.r} --kind ssm "
            f"--route sieve --trunc 5 --format {FORMATS[(i + 1) % 3]}")
    for i, o in enumerate(small):
        if o.r == 0 or o.n > 4:
            continue
        add(f"class --family {o.family.value} --n {o.n} --r {o.r} --closure "
            f"--basis {BASES[i % 3]}")
        add(f"class --family {o.family.value} --n {o.n} --r {o.r} --route sieve "
            f"--trunc 4 --closure --format {FORMATS[i % 3]}")
    for i, o in enumerate(small):
        if o.n > 4:
            continue
        add(f"phi --family {o.family.value} --n {o.n} --r {o.r} --trunc {5 + i % 3} "
            f"--basis {BASES[i % 3]} --format {FORMATS[(i + 2) % 3]}")
    for i, o in enumerate(small):
        kind = ("csm", "ssm")[i % 2]
        clos = " --closure" if i % 3 == 0 else ""
        add(f"projective --family {o.family.value} --n {o.n} --r {o.r} --kind {kind}"
            f"{clos} --format {FORMATS[i % 3]}")
        add(f"invariants --family {o.family.value} --n {o.n} --r {o.r} "
            f"--format {FORMATS[(i + 1) % 2]}")
    for i, (fam, n) in enumerate((f, n) for f in ("wedge", "sym") for n in range(2, 6)):
        add(f"table --family {fam} --n {n} --format {FORMATS[i % 3]}")
        add(f"table --family {fam} --n {n} --closures --format {FORMATS[(i + 1) % 3]}")
    for i, o in enumerate(orbit_list(("wedge",), range(1, 6))):
        add(f"mather --n {o.n} --r {o.r} --basis {BASES[i % 3]} --format {FORMATS[i % 3]}")
    for i, n in enumerate(range(1, 5)):
        for r in coranks("wedge", n):
            add(f"ktheory --n {n} --r {r} --class phi --format {FORMATS[(i + r) % 3]}")
            add(f"ktheory --n {n} --r {r} --class segre --format {FORMATS[(i + r + 1) % 3]}")
            add(f"ktheory --n {n} --r {r} --class segre --q-convention symbolic "
                f"--format json")
    add("verify --suite core --max-n 2")
    add("verify --suite axioms --max-n 4")
    add("verify --suite cross --max-n 3")
    add("verify --suite conjectures --max-n 2")
    # Fixed popularity ranking, independent of the run's seed: the seed
    # only draws the stream, so the set of distinct requests is the same.
    random.Random(1908).shuffle(cat)
    return cat


def apportion(items, weights, total):
    """Split total among items in proportion to weights (largest remainder)."""
    quotas = [total * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(items)), key=lambda i: counts[i] - quotas[i])
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return [item for item, k in zip(items, counts) for _ in range(k)]


def query_requests(catalog, n_requests=QUERY_REQUESTS):
    """The requests of one pass, before the seed orders them.

    Which requests are sent is fixed: every catalog entry once, repeats in
    proportion to a Zipf-like popularity of its rank, and an EDGE_SHARE of
    edge inputs.  The seed draws the order of each pass, and with it which
    sighting of a request is the cold one, but not the work.
    """
    n_edge = round(EDGE_SHARE * n_requests)
    repeats = n_requests - n_edge - len(catalog)
    zipf = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(catalog))]
    stream = list(catalog) + apportion(catalog, zipf, repeats)
    return stream + apportion(EDGE_REQUESTS, [1.0] * len(EDGE_REQUESTS), n_edge)


def run_query(request):
    """Run one CLI request in-process; return (exit, stdout, stderr)."""
    from csmloci.cli import run
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(request.split())
        except SystemExit as ex:
            code = ex.code
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def stdout_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def query_record(code, stdout):
    """The expected-output record of a request: exit code plus stdout."""
    return {"exit": code, "stdout_sha256": stdout_digest(stdout), "stdout_bytes": len(stdout)}


EDGE_RECORD = query_record(1, "")


def query_mismatch(expected, outcome):
    """Why a request's outcome differs from its record, or None."""
    code, stdout, stderr = outcome
    if "Traceback" in stderr:
        return "traceback: " + stderr.strip().splitlines()[-1]
    if code != expected["exit"]:
        return f"exit {code}, expected {expected['exit']}"
    if stdout_digest(stdout) != expected["stdout_sha256"]:
        return "stdout differs from the record"
    if code == 1 and "error:" not in stderr:
        return "exit 1 without a named error"
    return None
