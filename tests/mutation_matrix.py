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
CHECKS, INPUTS, FAST = "tests/test_result_checks.py", "tests/test_inputs.py", "tests/test_fast_builders.py"
SIMT = "tests/test_simulate.py"

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
    Row(H, "type(w) is float and 0.0 <= w <= FLOAT_MAX", "type(w) is float and w <= FLOAT_MAX",
        "a type takes a negative weight", (CHECKS, INPUTS)),
    Row(H, "type(sigma) is float and 0.0 <= sigma <= 1.0", "type(sigma) is float",
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
    Row(EFFORT, "type(self.alpha) is float and 0.0 < self.alpha <= FLOAT_MAX",
        "type(self.alpha) is float and 0.0 <= self.alpha <= FLOAT_MAX",
        "an effort curve takes alpha 0", ("tests/test_effort.py",)),
    Row(H, "and 0.0 <= sigma <= 1.0 and", "and sigma == sigma and",
        "a type's C pass takes a sigma above 1", (INPUTS, CHECKS)),
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
    Row(SIM, "a *= rng.integers(1, self.m, size=a.shape[0])", "a[...] = rng.integers(1, self.m, size=a.shape[0])",
        "a binary offset is left unmultiplied by its wrong flag, so every answer at m >= 3 is wrong", (SIMT,)),
    Row(SIM, "if self.m == 2:", "if self.m <= 3:",
        "the wrong-flag branch takes m = 3, whose two wrong answers then always agree", (SIMT,)),
    Row(SIM, "a += bias", "a -= bias",
        "a Gaussian answer is offset by minus its bias, which only the sign of a bias gap shows", (SIMT,)),
    Row(SIM, "d_w = np.not_equal(rng.integers(1, m, size=n), a_sup)", "d_w = np.not_equal(rng.integers(1, m, size=n), 0)",
        "a wrong worker in the pair sweep disagrees with its superior even where both are wrong alike", (SIMT,)),
    Row(SIM, "_EPISODES_MAX = sys.maxsize // 8\n", "_EPISODES_MAX = sys.maxsize // 8 + 1\n",
        "an episode count one above what numpy can size passes the check, and numpy raises its own error", (INPUTS,)),
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
