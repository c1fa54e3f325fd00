"""Mutation gate: does the class-algebra test set notice a broken kernel?

Each mutant below replaces one exact snippet of one file of src/csmloci.  The
script applies each mutant alone to a temporary copy of the package, runs the
test files that cover it against it with -x (by default the kernel's,
tests/test_schur.py, tests/test_sieve.py and tests/test_interp.py), and
prints {"killed": [...], "survived": [...], "timed_out": [...]} as JSON: a
mutant is killed when its tests fail.  The unmutated copy must pass every
test file used first, and each mutant's run is stopped after TIMEOUT_FACTOR
times the time that took; a mutant stopped so is timed out, not killed.

    python tests/mutants.py [NAME ...]    # every mutant, or those named

Standard library only, and not collected by pytest.  A mutant that survives
is either a gap in the tests or an equivalent mutant, one that changes no
result; CHANGES.md names the known equivalents.
"""

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
KERNEL = ("tests/test_schur.py", "tests/test_sieve.py", "tests/test_interp.py")
GOLDEN = "perfbench/expected/queries.json"
READS = {"tests/test_cli.py": (GOLDEN,), "tests/test_golden.py": (GOLDEN,)}  # data files
LAURENT = ("tests/test_laurent.py", "tests/test_mather_ktheory.py")
TIMEOUT_FACTOR = 5  # a mutant's tests may run this many times the unmutated run

# (name, file under src/csmloci, exact snippet, replacement[, test files]);
# the test files default to KERNEL
MUTANTS = [
    ("_cut_at: no cut rule", "interp.py",
     "return (D,) if D < ambient_dim(family, n) else ()", "return (D,)"),
    ("_cut_at: cut rule < to <=", "interp.py",
     "return (D,) if D < ambient_dim(family, n) else ()",
     "return (D,) if D <= ambient_dim(family, n) else ()"),
    ("over_cv: no c(V) / c(V) shortcut", "interp.py",
     "{(): 1} if coeffs is chern_schur(family, n, *cut) else", "{(): 1} if False else"),
    ("over_cv: no bound check", "interp.py",
     "if D < 0:\n        raise", "if D < -1:\n        raise"),
    ("chern_schur: cut <= to <", "interp.py",
     "if top - k <= max_size:", "if top - k < max_size:"),
    ("chern_schur: content sign flipped", "interp.py",
     "g * (n + part - 1 - i)", "g * (n - part + 1 + i)"),
    ("chern_schur: 2^k taken off", "interp.py",
     "scale = factorial(k) << k", "scale = factorial(k)"),
    ("phi_cv_schur: open orbit widened to r <= 1", "sieve.py",
     "if r == 0:\n        return chern_schur(family, n, *cut)",
     "if r <= 1:\n        return chern_schur(family, n, *cut)"),
    ("divide_by_cv: recurrence sign", "interp.py",
     "fd[key + key2] -= c * c2", "fd[key + key2] += c * c2"),
    ("divide_by_cv: top divisor row skipped", "interp.py",
     "for k in range(1, d + 1):", "for k in range(1, d):"),
    ("divide_by_cv: numerator seed dropped", "interp.py",
     "fd = defaultdict(int, row)", "fd = defaultdict(int)"),
    ("_sieve_sum: C(s, r + 1)", "sieve.py",
     "comb(s, r) * E[s - r]", "comb(s, r + 1) * E[s - r]"),
    ("_sieve_sum: no binomial", "sieve.py",
     "comb(s, r) * E[s - r]", "E[s - r]"),
    ("pushforward_schur: parity mask one bit short", "schur.py",
     "above ^= (1 << t) - 1", "above ^= ((1 << t) - 1) >> 1"),
    ("pushforward_schur: look-ahead one degree too far", "schur.py",
     "ahead = (r - i) * m * len(exact)", "ahead = (r - i) * m * len(exact) + 1"),
    ("pushforward_schur: last alpha_0 row never read off", "schur.py",
     "while state:  # one alpha_0 row at a time", "while len(state) > 1:"),
    ("pushforward_schur: no kill on a shared entry", "schur.py",
     "if not head & mu:", "if True:"),
    ("_alternant_mask: no sign", "schur.py",
     "return mask, -1 if inversions & 1 else 1", "return mask, 1"),
    ("_mask_partition: delta off by one", "schur.py",
     "part.append(top - k)", "part.append(top - k + 1)"),
    ("pushforward_schur: long mu kept on entry", "schur.py",
     "if len(mu) <= m and", "if len(mu) <= m + 1 and"),
    ("_pieri_mul: room one degree too many", "schur.py",
     "room = free - size", "room = free - size + 1"),
    ("_pieri_mul: t range one short", "schur.py",
     "for t in range(min(width - 1, cap, max(room for room, _, _ in kept)) + 1):",
     "for t in range(min(width - 1, cap, max(room for room, _, _ in kept))):"),
    ("_exact_pieri_mul: room test <= to <", "schur.py",
     "if size <= room:", "if size < room:"),
    ("_exact_pieri_mul: k range one short", "schur.py",
     "if i else 0, m + 1):", "if i else 0, m):"),
    ("_exact_pieri_mul: odd k with s = -1 added", "schur.py",
     "dest[nu] -= c", "dest[nu] += c"),
    ("_vertical_strips: run length one short", "schur.py",
     "top, length = run.bit_length(), run.bit_count()",
     "top, length = run.bit_length(), run.bit_count() - 1"),
    ("_vertical_strips: one box short per run", "schur.py",
     "for j in range(length + 1):", "for j in range(length):"),
    ("_vertical_strips: raised segment one bit low", "schur.py",
     "raised = ((1 << j) - 1) << (top - j)", "raised = ((1 << j) - 1) << (top - j - 1)"),
    ("_vertical_strips: size off by one", "schur.py",
     "size, strips, rest = -comb(m, 2), [[v]], v",
     "size, strips, rest = 1 - comb(m, 2), [[v]], v"),
    ("_PartitionSpace.strips: mask of the partition before", "schur.py",
     "_vertical_strips(_tail_mask(self.parts[i], self.n), self.n)",
     "_vertical_strips(_tail_mask(self.parts[i - 1], self.n), self.n)"),
    ("_PartitionSpace.strips: strips of k - 1 boxes", "schur.py",
     "for nus in strips)", "for nus in ((),) + strips[:-1])"),
    ("_PartitionSpace.strips: grows one degree short", "schur.py",
     "if top > len(self.starts) - 2:", "if top > len(self.starts) - 1:"),
    ("_peel: peel sign", "schur.py",
     "work[j] -= c * k", "work[j] += c * k"),
    ("_PartitionSpace.grow: rest index one below", "schur.py",
     "rests.append(index[_tail_mask(tuple(x - 1 for x in lam if x > 1), n)])",
     "rests.append(max(index[_tail_mask(tuple(x - 1 for x in lam if x > 1), n)] - 1, 0))"),
    ("_PartitionSpace.grow: stops one degree short", "schur.py",
     "for d in range(len(self.starts) - 1, top + 1):",
     "for d in range(len(self.starts) - 1, top):"),
    ("_partitions: descending lex order", "schur.py",
     "for first in range(-(-d // n), min(d, cap) + 1):",
     "for first in reversed(range(-(-d // n), min(d, cap) + 1)):"),
    ("_PartitionSpace.packing: top digit one place low", "schur.py",
     "digits[len(self.parts[i]) - 1]", "digits[max(len(self.parts[i]) - 2, 0)]"),
    ("monomial_coeffs: Kostka number dropped", "schur.py",
     "d[mu] += c * k", "d[mu] += c",
     ("tests/test_schur.py", "tests/test_cli.py", "tests/test_golden.py")),
    ("_kostka_row: strip without its top", "schur.py",
     "range(low, high + 1)", "range(low, high)"),
    ("_kostka_row: long lam kept", "schur.py",
     "    if len(lam) > n:\n        return MappingProxyType({})",
     "    if len(lam) > n + 1:\n        return MappingProxyType({})"),
    ("_pair_branching: sign of c(lam, mu) dropped", "interp.py",
     "grown.append((mu + (part,), -sign if (first - part) & 1 else sign))",
     "grown.append((mu + (part,), sign))"),
    ("_pair_branching: even runs kept", "interp.py",
     "if first <= cap and not (cap - first) & 1:", "if first <= cap:"),
    ("verify_axioms: identity probe bound < to <=", "interp.py",
     "max(map(sum, coeffs), default=-1) < comb(n, 2)",
     "max(map(sum, coeffs), default=-1) <= comb(n, 2)"),
    ("verify_axioms: keys taken as given", "interp.py",
     "{partition(lam): c}", "{lam: c}", ("tests/test_interp.py",)),
    ("_probe: b-factor representative dropped", "interp.py",
     "reps.setdefault(j >= 2 * h, ", "reps.setdefault(False, "),
    ("_probe: second root of a pair not negated", "interp.py",
     "-1 if i & 1 else 1", "1"),
    ("_probe: normal weights taken as tangent", "interp.py",
     "if i >= 2 * h:", "if i > 2 * h:"),
    ("_probe: vanishing weight kept as a factor", "interp.py",
     "elif not weight.is_zero():", "else:"),
    ("_over_pairs: trial division by the last pair", "ktheory.py",
     "quo = num.exact_divide(factors[0]) if factors else num\n"
     "    except ExactDivisionError:\n"
     "        return LaurentFraction(num, product(factors, num.vars))\n"
     "    for f in factors[1:]:",
     "quo = num.exact_divide(factors[-1]) if factors else num\n"
     "    except ExactDivisionError:\n"
     "        return LaurentFraction(num, product(factors, num.vars))\n"
     "    for f in factors[:-1]:"),
    ("run: verify answered from the cache", "cli.py",
     "respond = _respond.__wrapped__ if argv[:1] == (\"verify\",) else _respond",
     "respond = _respond", ("tests/test_cli.py",)),
    ("run: last piece dropped", "cli.py",
     "sys.stdout.writelines(out)", "sys.stdout.writelines(out[:-1])", ("tests/test_cli.py",)),
    ("_partition_label: comma from 11 on", "emit.py",
     "all(p <= 9 for p in lam)", "all(p <= 10 for p in lam)", ("tests/test_cli.py",)),
    ("sorted_terms: ascending exponents", "emit.py",
     "sorted(poly.terms.items(), key=itemgetter(0), reverse=True)",
     "sorted(poly.terms.items(), key=itemgetter(0))",
     ("tests/test_cli.py", "tests/test_golden.py")),
    ("_term_blocks: key entries one space short", "emit.py",
     'entry = field + "  "', 'entry = field + " "',
     ("tests/test_cli.py", "tests/test_golden.py")),
    ("json_text: term list indented one space deep", "emit.py",
     'nl = "\\n" + line[:len(line) - len(line.lstrip())]',
     'nl = "\\n " + line[:len(line) - len(line.lstrip())]',
     ("tests/test_cli.py", "tests/test_golden.py")),
    ("_alpha_rows: ascending within a degree", "emit.py",
     "for exps in sorted(rows, reverse=True):", "for exps in sorted(rows):",
     ("tests/test_cli.py", "tests/test_golden.py")),
    ("_alpha_rows: sign of d_mu flipped for one-part mu", "emit.py",
     "_orderings(mu + (0,) * (n - len(mu))), render(c))",
     "_orderings(mu + (0,) * (n - len(mu))), render(-c if len(mu) == 1 else c))",
     ("tests/test_cli.py", "tests/test_golden.py")),
    ("_signed_sum: constant 1 lost", "emit.py",
     'if mag or mono else f"{sign}1"', 'if mag or mono else sign',
     ("tests/test_cli.py", "tests/test_golden.py")),
    ("json_text: non-ASCII left unescaped", "emit.py",
     "from json.encoder import encode_basestring_ascii",
     "from json.encoder import encode_basestring as encode_basestring_ascii",
     ("tests/test_cli.py", "tests/test_golden.py")),
    ("_xi_coeffs_from_schur: #SSYT factor dropped", "projective.py",
     "out[d] += c * count_ssyt(lam, n)", "out[d] += c",
     ("tests/test_projective.py",)),
    ("_motivic_segre_sieve: q -> -y without the sign", "ktheory.py",
     "(-1) ** e[0] * c for e, c in coeff_q.terms.items()",
     "c for e, c in coeff_q.terms.items()",
     ("tests/test_mather_ktheory.py",)),
    ("q_euler_numbers: sign of the recurrence", "ktheory.py",
     "values.append(-acc)", "values.append(acc)",
     ("tests/test_mather_ktheory.py",)),
    ("_phi_k_numerator: inside factor a_i a_j + 1", "ktheory.py",
     "a[i] * a[j] - 1 for i in I for j in I", "a[i] * a[j] + 1 for i in I for j in I",
     ("tests/test_mather_ktheory.py",)),
    ("_phi_k_numerator: cross factor a_i a_j + 1", "ktheory.py",
     "(a[i] * a[j] - 1, a[i] + y * a[j])", "(a[i] * a[j] + 1, a[i] + y * a[j])",
     ("tests/test_mather_ktheory.py",)),
    ("_phi_k_numerator: cross factor a_i - y a_j", "ktheory.py",
     "(a[i] * a[j] - 1, a[i] + y * a[j])", "(a[i] * a[j] - 1, a[i] - y * a[j])",
     ("tests/test_mather_ktheory.py",)),
    ("_phi_k_numerator: J factor a_i a_j - y", "ktheory.py",
     "a[i] * a[j] + y for i in J", "a[i] * a[j] - y for i in J",
     ("tests/test_mather_ktheory.py",)),
    ("LaurentFraction: default denominator -1", "laurent.py",
     "den = Poly.const(num.vars, 1)", "den = Poly.const(num.vars, -1)", LAURENT),
    ("LaurentFraction: mixed variables accepted", "laurent.py",
     "if num.vars != den.vars:", "if False:", LAURENT),
    ("LaurentFraction: zero denominator accepted", "laurent.py",
     "if den.is_zero():", "if False:", LAURENT),
    ("LaurentFraction: numerator kept writable", "laurent.py",
     'object.__setattr__(self, "num", num.read_only())',
     'object.__setattr__(self, "num", num)', LAURENT),
    ("LaurentFraction.eval: times the denominator", "laurent.py",
     "return Fraction(self.num.eval(point)) / d", "return Fraction(self.num.eval(point)) * d",
     LAURENT),
    ("aluffi_J: returns its input", "projective.py",
     "return Poly((\"t\",), {(i,): c for i, c in enumerate(coeffs)})",
     "return Poly((\"t\",), {(i,): c for i, c in enumerate(p)})",
     ("tests/test_projective.py",)),
]


def tests_of(mutant):
    """The test files that cover a mutant."""
    return mutant[4] if len(mutant) > 4 else KERNEL


def tests_pass(tree, tests, timeout=None):
    """Whether the tests pass against the package copy under tree/src, or
    None when they are stopped after timeout seconds."""
    # -B: no bytecode, which a mutant of the same size and second could reuse
    try:
        run = subprocess.run([sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p",
                              "no:cacheprovider", *tests], cwd=tree, timeout=timeout,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None
    return run.returncode == 0


def copy_tree(tree, tests):
    """The package, the test files and the data files they read, and the
    pytest settings under tree, which pytest then takes as its root: its
    pythonpath setting puts tree/src, not the checkout's src, on the path."""
    shutil.copytree(ROOT / "src" / "csmloci", tree / "src" / "csmloci",
                    ignore=shutil.ignore_patterns("__pycache__"))
    reads = [data for test in tests for data in READS.get(test, ())]
    for name in {*tests, *reads, "pyproject.toml"}:
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / name, tree / name)


def main(names):
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    if names and len(chosen) != len(set(names)):
        sys.exit(f"unknown mutant among {names}")
    with tempfile.TemporaryDirectory() as tmp:
        tree = pathlib.Path(tmp)
        tests = sorted({test for mutant in chosen for test in tests_of(mutant)})
        copy_tree(tree, tests)
        start = time.monotonic()
        if not tests_pass(tree, tests):
            sys.exit("the tests fail on the unmutated package")
        timeout = TIMEOUT_FACTOR * (time.monotonic() - start)
        result = {"killed": [], "survived": [], "timed_out": []}
        for mutant in chosen:
            name, file, snippet, replacement = mutant[:4]
            path = tree / "src" / "csmloci" / file
            source = path.read_text()
            if source.count(snippet) != 1:
                sys.exit(f"{name}: the snippet is not found exactly once in {file}")
            path.write_text(source.replace(snippet, replacement))
            try:
                passed = tests_pass(tree, tests_of(mutant), timeout)
            finally:
                path.write_text(source)
            status = {True: "survived", False: "killed", None: "timed_out"}[passed]
            result[status].append(name)
            print(f"{name}: {status}", file=sys.stderr)
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main(sys.argv[1:])
