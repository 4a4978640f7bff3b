"""A mutation matrix: each row plants one fault in a copy of the repository and runs the tests that must catch it.

    python3 tests/mutation_matrix.py            # every row
    python3 tests/mutation_matrix.py 3 7        # rows 3 and 7 only

Run it from anywhere; it copies the repository that holds this file, ``perfbench/`` included (a test imports
``perfbench/workloads.py``), to a temporary directory once per row, replaces the row's old text, which must occur
exactly once, with its new text, and runs the row's tests with ``pytest -x``.  A row is killed when a test fails.
The unmutated copy runs every row's tests first, so a kill is never a test that fails anyway.  Rows run one at a
time.  The script prints one line per row and exits 1 unless every row is killed.  It uses the standard library
only, and tier-1 does not collect it.

A surviving mutant is mended by a test, never by weakening or deleting its row.  A change that adds a rule, a fast
path or a refusal adds its row here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out")
ROW_TIMEOUT = 600


class Row(NamedTuple):
    path: str
    old: str
    new: str
    why: str
    tests: tuple[str, ...]


H, CSV, EFFORT = "src/supervise/hierarchy.py", "src/supervise/_csv.py", "src/supervise/effort.py"
FLAT, STRUCT, SIM = "src/supervise/flat.py", "src/supervise/structures.py", "src/supervise/simulate.py"
ALLOC, QUANT, CLI = "src/supervise/allocation.py", "src/supervise/quant.py", "src/supervise/cli.py"
CHECKS, INPUTS, FAST = "tests/test_result_checks.py", "tests/test_inputs.py", "tests/test_fast_builders.py"
SIMT, STRUCTT, ALLOCT = "tests/test_simulate.py", "tests/test_structures.py", "tests/test_allocation.py"
QUANTT, CLIT = "tests/test_quant.py", "tests/test_cli.py"

ROWS = (
    Row(H, "and not any(map(math.isnan, errors))", "",
        "the C passes let a NaN level error through", (CHECKS,)),
    Row(H, "and (not unit or 0.0 <= min(errors) and max(errors) <= 1.0)", "",
        "the C passes let a level error outside [0, 1] through", (CHECKS, INPUTS)),
    Row(H, "_FLOAT.issuperset(map(type, errors)) and ", "",
        "the C passes take a bool or a str for a float", (CHECKS,)),
    Row(H, "type(prefix) is tuple and prefix and _ROOT.issuperset(map(type, prefix))", "prefix",
        "the C passes take any item for a Root", (CHECKS,)),
    Row(H, """            if self._unit_errors:
                require_prob(r.value, "level error")
""", "",
        "the walk forgets the [0, 1] rule, so a prefix the C passes refuse is accepted", (CHECKS,)),
    Row(H, "if len(earlier) == n - 1 and", "if len(earlier) >= n - 2 and",
        "the set pass misses a repeat before the prefix's last level", (CHECKS,)),
    Row(H, "(errors[n - 1 - period] == last if period else last not in earlier)",
        "(True if period else last not in earlier)",
        "the set pass takes any period for a prefix that repeats", (CHECKS,)),
    Row(H, "(errors[n - 1 - period] == last if period else last not in earlier)",
        "(errors[n - 1 - period] == last if period else True)",
        "the set pass takes period 0 for a prefix that ends on a repeat", (CHECKS,)),
    Row(H, "max(errors[:-1], default=-math.inf)", "max(errors[:-2], default=-math.inf)",
        "a trace may cross its threshold one level before its last", (CHECKS,)),
    Row(H, "    _unit_errors = False  # a divergent error may lie above 1", "    _unit_errors = True",
        "a divergent trace above 1 is refused", ("tests/test_cascades.py",)),
    Row(H, "require_weight(self.weight)", 'require_real(self.weight, "population weight")',
        "a type takes a negative weight", (CHECKS, INPUTS)),
    Row(H, """        require_number(sigma, "sigma")\n""", """        if sigma != sigma:\n            return\n""",
        "a type takes a NaN sigma", (INPUTS,)),
    Row(H, "map(_SHAPE, types), map(_FIRST, prefixes)", "map(_SHAPE, types)",
        "a mixture takes types of different level-0 roots", (CHECKS, INPUTS)),
    Row(H, "period = t - seen.setdefault(e, t)", "period = t - seen.get(e, t)",
        "the cascade never stops at a repeat", ("tests/test_cascades.py",)),
    Row(H, "terms.append(w * root.value)", "terms.append(root.value)",
        "the mixture's mean error forgets the weights", ("tests/test_cascades.py",)),
    Row(H, "if not 0.0 <= e_prev <= 1.0:", "if not 0.0 <= e_prev <= 2.0:",
        "the cascade solves for a superior error above 1", ("tests/test_cli.py",)),
    Row(H, "_cascade(step, 0.0, max_depth, eps.__lt__)", "_cascade(step, 0.0, max_depth, eps.__le__)",
        "a trace that lands on epsilon stops there", ("tests/test_cascades.py",)),
    Row(CSV, "phase = (base - n) % period", "phase = base % period",
        "a block's phase forgets the prefix before the cycle", ("tests/test_cascades.py",)),
    Row(CSV, "_block_table(_digits(False), tails, phase)", "_block_table(_digits(True), tails, phase)",
        "the levels below 100 are padded to two digits", ("tests/test_cascades.py",)),
    Row(CSV, "table[max(start - base, 0) : stop - base]", "table[: stop - base]",
        "a chunk that starts inside a block repeats the block's earlier rows", ("tests/test_cascades.py",)),
    Row(CSV, "                            tables.clear()\n", "                            pass\n",
        "a long cycle keeps a table for every phase", ("tests/test_results.py",)),
    Row(EFFORT, "type(target) is float and -FLOAT_MAX <= target <= FLOAT_MAX", "type(target) is float",
        "the solver takes an infinite target", ("tests/test_effort.py",)),
    Row(EFFORT, '"effort scale", 0.0, lo_open=True)', '"effort scale", 0.0)',
        "an effort curve takes alpha 0", ("tests/test_effort.py",)),
    Row(H, 'require_prob(sigma, "sigma")', 'require_prob(min(sigma, 1.0), "sigma")',
        "a type takes a sigma above 1, though it refuses one below 0", (INPUTS, CHECKS)),
    Row(H, """        require_prob(sigma, "sigma")\n""", "",
        "the type's walk takes a sigma above 1", (INPUTS, CHECKS)),
    Row(H, 'require_prob(root.value, "best response error")', "",
        "the best response to a superior may lie above 1", (INPUTS,)),
    Row(H, 'require_prob(root.value, "sigma")', "",
        "proficiency_sigma may lie above 1", (INPUTS, "tests/test_cascades.py")),
    Row(FLAT, 'require_prob(root.value, "best response error")', "",
        "the flat best response may lie above 1", (INPUTS,)),
    Row(STRUCT, "filter(k.__gt__, map(rng.getrandbits", "filter((k - 1).__gt__, map(rng.getrandbits",
        "a tree's picks are drawn below k - 1, never from a full chunk's last item", (FAST,)),
    Row(STRUCT, "map(add, range(0, end, k), draws)", "map(add, range(0, end, k - 1), draws)",
        "a tree's picks stride k - 1 over the level below, not k", (FAST,)),
    Row(STRUCT, "    if rest:\n        out.append(rng.choice(below[end:]))",
        "    if rest > 1:\n        out.append(rng.choice(below[end:]))",
        "a tree level's last chunk of one child goes without a pick", (FAST,)),
    Row(STRUCT, "workers, map(levels[-1].__getitem__, picks))", "workers, map(levels[-1].__getitem__, picks[::-1]))",
        "a built tree's shared rows take the picks in reverse, though its columns pass", (FAST,)),
    Row(STRUCT, 'forbidden.add(require_instance(supervisor_id, str, "supervisor_id"))', "forbidden.add(supervisor_id)",
        "a tree builder takes a supervisor id that is not a string", (INPUTS,)),
    Row(SIM, "_EPISODES_MAX = sys.maxsize // 8\n", "_EPISODES_MAX = sys.maxsize // 8 + 1\n",
        "an episode count one above the bound passes the check", (INPUTS,)),
    Row(SIM, """        if not isinstance(self.structure, (SupervisionTree, SupervisionHierarchy)):
            raise ModelMismatchError(f"unsupported structure type {type(self.structure).__name__}")
""", "",
        "a config over something that is not a structure is built, and fails only when run", (INPUTS,)),
    Row(STRUCT, "((t, tree.parent[t], w, level) for w, t in self.coverage)",
        "((t, tree.supervisor, w, level) for w, t in self.coverage)",
        "a graph worker is judged by the supervisor, not by the bottom tree worker above its task", (STRUCTT,)),
    Row(STRUCT, "tree, level = self.tree, self.equilibrium_depth", "tree, level = self.tree, self.tree.equilibrium_depth",
        "a graph worker is reported at its tree's bottom worker level", (STRUCTT,)),
    Row(STRUCT, "return tuple(sorted((t, p, c, level[c]) for p, c, t in self.shared))",
        "return tuple((t, p, c, level[c]) for p, c, t in self.shared)",
        "a tree's judged rows keep the shared rows' order, so a task's rows need not be adjacent", (STRUCTT,)),
    Row(ALLOC, "fenwick[pos + step] <= r:", "fenwick[pos + step] <= r + 1:",
        "a greedy pick lands on the live row after the drawn one", (FAST,)),
    Row(ALLOC, "            if alive[i]:", "            if True:",
        "a row deleted twice is uncounted twice, so a greedy stops early or draws below zero", (FAST,)),
    Row(ALLOC, "                witness.append((w, t))\n                break\n",
        "                witness.append((w, t))\n",
        "a cover's witness check never stops at a worker's first covering task, so every worker reads uncovered",
        (ALLOCT,)),
    Row(STRUCT, "    while widths[-1] > k:", "    while widths[-1] >= k:",
        "a tree over a level of exactly k workers puts one more worker level under the supervisor", (FAST, STRUCTT)),
    Row(STRUCT, 'if (name := f"{prefix}{i}") not in taken)', 'if (name := f"{prefix}{i}"))',
        "a fresh worker id may repeat a given id", (STRUCTT,)),
    Row(STRUCT, "tree = _build_tree(sol.tasks, forbidden, k, seed", "tree = _build_tree(sol.tasks, set(), k, seed",
        "a hierarchy's tree workers are named without skipping the graph ids", (STRUCTT,)),
    Row(ALLOC, "fenwick[pos + step] <= r:", "fenwick[pos + step] < r:",
        "a greedy pick lands on a live row before the drawn one, or on a dead one", (FAST,)),
    Row(ALLOC, "                    j += j & -j", "                    j += 1",
        "a deletion uncounts the wrong Fenwick entries, so picks land on dead rows", (FAST,)),
    Row(QUANT, "if abs(mean_bias) > BIAS_TOLERANCE:", "if mean_bias > BIAS_TOLERANCE:",
        "a population of negative net bias passes the unbiased check", (QUANTT,)),
    Row(QUANT, "- 2.0 * b_u * b_w", "+ 2.0 * b_u * b_w",
        "the quadratic penalty adds the bias cross term instead of subtracting it", (QUANTT,)),
    Row(CLI, "if fx.is_integer() and abs(fx) < 2**53:", "if fx.is_integer() and abs(fx) <= 2**53:",
        "the CLI prints 2**53, past which floats skip integers, bare", (CLIT,)),
    Row(CLI, 'raw = os.environ.get("SUPERVISE_SEED", "0")', 'raw = os.environ.get("SUPERVISE_SEED", "1")',
        "a CLI run without a seed or SUPERVISE_SEED runs at seed 1", (CLIT,)),
    Row(SIM, "r = binomial(n - a_p, e)", "r = binomial(n, e)",
        "a binary worker's wrong-alone count is drawn over every episode, not its superior's right ones", (SIMT,)),
    Row(SIM, "i = binomial(a_p, e)", "i = binomial(n, e)",
        "a binary worker's wrong-with-superior count is drawn over every episode, not its superior's wrong ones",
        (SIMT,)),
    Row(SIM, "binomial(i, 1 / (m - 1))", "binomial(i, 1 / m)",
        "two wrong binary answers agree with chance 1/m, not 1/(m - 1)", (SIMT,)),
    Row(SIM, "binomial(i, 1 / (m - 1))", "binomial(a_p, 1 / (m - 1))",
        "the agreeing wrong answers are drawn over the superior's wrong episodes, not the both-wrong ones", (SIMT,)),
    Row(SIM, "s = i if m == 2 else", "s = i if m <= 3 else",
        "the count engine's m = 2 branch takes m = 3, whose two wrong answers then always agree", (SIMT,)),
    Row(SIM, "score(sorted(task_pairs, key=itemgetter(3)))", "score(list(task_pairs))",
        "a task's rows are taken in sorted row order, so a child may be drawn before its superior", (SIMT,)),
    Row(SIM, "if p not in wrong:", "if True:",
        "a superior's count is drawn anew for each row it judges, not once per task", (SIMT,)),
    Row(SIM, "wrong[w] = i + r", "wrong[w] = r",
        "a binary worker's wrong count forgets the episodes in which its superior was wrong too", (SIMT,)),
    Row(SIM, "(n * (n - 1))", "(n * n)",
        "a binary row's stderr divides by N, not N - 1", (SIMT,)),
    Row(SIM, "(C * (d / n), ", "(C * d / n, ",
        "a binary row's mean multiplies before it divides, so a cost near the float maximum overflows", (SIMT,)),
    Row(ALLOC, "return sa_greedy_edge_deletion(inst, seed)", "return sa_greedy(inst, seed)",
        "the paper-greedy mode builds the disjoint-worker greedy's cover", (CLIT,)),
    Row(EFFORT, "-f.alpha / (e * e) if e * e else -math.inf", "-f.alpha / (e * e)",
        "the inverse power's derivative divides by an e * e that underflowed to 0", ("tests/test_effort.py", CLIT)),
    Row(SIM, "self.C, implied_D(self.C, self.m))", "self.C, 0.0)",
        "the binary expectation charges nothing where both answers are wrong, which only m >= 3 shows",
        ("tests/test_planted_errors.py",)),
    Row(SIM, "score(sorted(task_pairs, key=itemgetter(3)))", "score(sorted(task_pairs, key=itemgetter(1)))",
        "a task's rows are sorted on their superior's id, not their level, so a child may be drawn first", (SIMT,)),
    Row(SIM, "(e - lo) / (1.0 - lo)", "(e - lo)",
        "a sweep's nested binomial forgets that its count is over the uniforms above the last point", (SIMT,)),
    Row(SIM, "            lo = e\n", "",
        "a sweep's walk measures every step from 0, not from the last point", (SIMT,)),
    Row(SIM, "sorted(set(map(clamp, points)))", "dict.fromkeys(map(clamp, points))",
        "a sweep walks an unsorted grid as given, so a point below an earlier one keeps that one's count", (SIMT,)),
    Row(SIM, "binomial(a, 1 / (m - 1))", "binomial(a, 1 / m)",
        "the pair sweep's wrong answers agree with chance 1/m, not 1/(m - 1)", (SIMT,)),
    Row(SIM, "s = a if m == 2 else", "s = a if m <= 3 else",
        "the pair sweep's m = 2 branch takes m = 3, whose two wrong answers then always agree", (SIMT,)),
    Row(SIM, "_below(binomial, n - a, points)", "_below(binomial, n, points)",
        "the pair sweep walks every episode as one of a right superior, not only the n - a", (SIMT,)),
    Row(SIM, "_below(rng.binomial, rng.binomial(n, p), points)", "_below(rng.binomial, n, points)",
        "the flat sweep checks every episode, whatever p is", (SIMT,)),
    Row(SIM, "rng.standard_gamma((n - 1 - j) / 2)", "rng.standard_gamma((n - j) / 2)",
        "the Bartlett diagonal has N - i degrees of freedom, not N - 1 - i, as if the means were known", (SIMT,)),
    Row(SIM, "q, cols = len(performers), min(len(performers), n - 1)", "q, cols = len(performers), len(performers)",
        "a task of more performers than N - 1 asks for chi-squares of no or negative degrees of freedom", (SIMT,)),
    Row(SIM, "sigma * (next(z) / root_n)", "sigma * next(z)",
        "a Gaussian sample mean is drawn with its answers' sd, not over sqrt(N)", (SIMT,)),
    Row(SIM, "S = sum(d * d for d in map(sub, rows[slot[w]], rows[slot[p]]))", "S = sum(d * d for d in rows[slot[w]])",
        "a Gaussian row's sum of squares forgets its superior's answers", (SIMT,)),
    Row(SIM, "math.sqrt(2 * s2 + 4 * mu * mu)", "math.sqrt(2 * s2)",
        "a Gaussian stderr forgets the 4 mu² s² term of a biased gap", (SIMT,)),
    Row(SIM, "s2 = S / (n - 1)", "s2 = S / n",
        "a Gaussian stderr's variance divides by N, not N - 1", (SIMT,)),
    Row(SIM, "v * Szz - 2 * math.sqrt(v) * Szy", "v * Szz + 2 * math.sqrt(v) * Szy",
        "the quadratic sweep adds its cross sum instead of subtracting it, a fault of the same law", (SIMT,)),
)


def _copy(dest: str) -> str:
    root = os.path.join(dest, "repo")
    shutil.copytree(ROOT, root, ignore=COPY_IGNORE)
    return root


def _pytest(root: str, tests) -> tuple[int, float, str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=root, env=env, capture_output=True, text=True, timeout=ROW_TIMEOUT)
    except subprocess.TimeoutExpired:
        return -1, time.monotonic() - t0, "timed out"
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, time.monotonic() - t0, lines[-1] if lines else proc.stderr.strip()[-200:]


def _mutate(root: str, row: Row) -> None:
    path = os.path.join(root, row.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(row.old)
    if count != 1:
        raise SystemExit(f"error: the old text of a row occurs {count} times in {row.path}, not once: {row.old!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(row.old, row.new))


def main(argv: list[str]) -> int:
    picked = [int(a) for a in argv] or range(1, len(ROWS) + 1)
    rows = [(i, ROWS[i - 1]) for i in picked]
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutation-matrix-") as tmp:
        baseline = sorted({t for _, row in rows for t in row.tests})
        code, secs, tail = _pytest(_copy(os.path.join(tmp, "baseline")), baseline)
        print(f"unmutated: exit {code} in {secs:.1f} s ({tail})")
        if code != 0:
            print("error: the unmutated copy fails its tests, so no kill would mean anything", file=sys.stderr)
            return 1
        survivors = []
        for i, row in rows:
            root = _copy(os.path.join(tmp, f"row{i}"))
            _mutate(root, row)
            code, secs, tail = _pytest(root, row.tests)
            verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"error (exit {code})"
            if code != 1:
                survivors.append(i)
            print(f"{i:3d} {verdict:10s} {secs:6.1f} s  {row.path}: {row.why}  [{' '.join(row.tests)}]  {tail}")
            shutil.rmtree(root)
    print(f"{len(rows) - len(survivors)} of {len(rows)} rows killed in {time.monotonic() - start:.0f} s"
          + (f"; not killed: {survivors}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
