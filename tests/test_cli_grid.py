"""A seeded grid of small CLI commands against recorded output digests.

Each entry of cli_grid.json holds one command, the files it reads, and the
exit code, byte count and sha256 of its stdout, stderr and --output file.
`{tmp}` in a command stands for a per-test directory and is put back in
place of that directory in the output before hashing.

Re-record (only at a commit whose output is the reference):
    PYTHONPATH=src python tests/test_cli_grid.py
"""

import hashlib
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from sqflab.cli_runner import main

GRID = Path(__file__).with_name("cli_grid.json")
SEED = 15

SQUAREFREE = [1, 2, 3, 5, 6, 7, 10, 13, 21, 30, 101, 210, 1001, 2310, 3981, 7919, 30030]
NOT_SQUAREFREE = [4, 12, 18, 50, 1000]
ORIENTATIONS = [(u, v) for u in (1, 2) for v in (-2, -1, 1, 2)]


def _side(rng: random.Random) -> str:
    return rng.choice(["0.5", "1", "3", "10", "17.5", "40", "123", "500", "2e3", "4096"])


def _unit(rng: random.Random, q: int) -> int:
    while True:
        a = rng.randrange(0, 3 * q + 5)
        if q == 1 or all(a % p for p in range(2, q + 1) if q % p == 0):
            return a


def _error_term(rng: random.Random) -> str:
    q = rng.choice(SQUAREFREE + NOT_SQUAREFREE[:2])
    x = rng.choice([1, 30, 97, 1000, 4096, 65537, 10**6, 2**23 + 5])
    a = _unit(rng, q) if rng.random() < 0.8 else rng.randrange(0, 2 * q + 2)
    decompose = " --decompose" if rng.random() < 0.6 else ""
    return f"error-term --x {x} --q {q} --a {a}{decompose}"


def _pipeline(rng: random.Random) -> str:
    x = rng.choice([30, 1000, 10**4, 65537, 10**5, 10**6])
    q = rng.choice([q for q in SQUAREFREE if q <= x] + [NOT_SQUAREFREE[0]])
    anchors = ""
    if rng.random() < 0.3:
        anchors += f" --m0 {rng.choice(['2', '3.5', '10', '40'])}"
    if rng.random() < 0.3:
        anchors += f" --n0 {rng.choice(['2', '5', '12.5', '30'])}"
    if rng.random() < 0.2:
        anchors += f" --alpha {rng.choice(['0', '1', '1/3', '5', 'x'])}"
    return f"pipeline --x {x} --q {q} --a {_unit(rng, q)}{anchors}"


def _scan(rng: random.Random) -> str:
    xs = " ".join(str(rng.choice([1, 30, 100, 500, 2000, 5000])) for _ in range(rng.randint(1, 2)))
    q_min = rng.choice([1, 1, 2, 5])
    q_max = q_min + rng.randrange(0, 12)
    policy = rng.choice(["1", "3", "all", "all", "sample:2", "sample:3", "sample:0", "foo"])
    extra = f" --seed {rng.randrange(5)}" if rng.random() < 0.4 else ""
    if rng.random() < 0.3:
        extra += f" --start-row {rng.choice([0, 2, 7, 40, -1])}"
    if rng.random() < 0.4:
        extra += " --format json"
    return f"scan --x {xs} --q-min {q_min} --q-max {q_max} --a {policy}{extra}"


def _count_box(rng: random.Random) -> str:
    u, v = rng.choice(ORIENTATIONS)
    q = rng.choice(SQUAREFREE)
    m, n = _side(rng), _side(rng)
    a = _unit(rng, q) if rng.random() < 0.9 else q * rng.randrange(1, 3)
    extra = " --dyadic" if rng.random() < 0.4 else ""
    if rng.random() < 0.15:
        extra += f" --alpha {rng.choice(['0', '1', '1/2', '2', '-1', 'nope'])}"
    return f"count-box --u {u} --v {v} --m {m} --n {n} --q {q} --a {a}{extra}"


def _optimize(rng: random.Random) -> str:
    menu = rng.choice(["", " --menu default", " --menu one-sided", " --menu-file {tmp}/menu.txt"])
    rho = f" --rho-min {rng.choice(['1/2', '0', '3/5', '2/3', '1', 'x'])}" if rng.random() < 0.5 else ""
    return f"optimize{menu}{rho}"


# Commands the random draws miss: refusals, --output, the menu files and
# usage errors.
FIXED = [
    "count-box --u 1 --v -3 --m 100 --n 100 --q 1009 --a 5",
    "count-box --u 3 --v 1 --m 100 --n 100 --q 1009 --a 5",
    "count-box --u 3 --v -1 --m 0.5 --n 100 --q 1009 --a 5",
    "count-box --u 1 --v -2 --m 2e7 --n 10 --q 7 --a 1",
    "count-box --u 2 --v -1 --m 10 --n 2e7 --q 7 --a 1",
    "count-box --u 1 --v 2 --m 10 --n 2e7 --q 7 --a 1",
    "count-box --u 1 --v -2 --m 1e308 --n 10 --q 101 --a 3 --dyadic",
    "count-box --u 1 --v 0 --m 10 --n 10 --q 7 --a 1",
    "count-box --u 0 --v -2 --m 10 --n 10 --q 7 --a 1",
    "count-box --u 1 --v -2 --m inf --n 10 --q 7 --a 1",
    "count-box --u 1 --v -2 --m 10 --n 10 --q 7 --a 1 --output {tmp}/box.json",
    "error-term --x 30 --q 5 --a 1 --output {tmp}/missing/out.json",
    "error-term --x 1000 --q 13 --a 4 --decompose --output {tmp}/et.json",
    "error-term --x 0 --q 5 --a 1",
    "scan --x 1000 --q-max 5 --output {tmp}/missing/out.csv",
    "scan --x 1000 --q-max 9 --a all --output {tmp}/scan.csv",
    "scan --x 1000 --q-min 9 --q-max 3",
    "scan --x 0 --q-max 3",
    "pipeline --x 10000 --q 101 --a 3 --output {tmp}/pipe.json",
    "pipeline --x 10000 --q 101 --a 3 --output {tmp}/missing/pipe.json",
    "optimize --output {tmp}/opt.json",
    "optimize --menu-file {tmp}/missing.txt",
    "optimize --menu-file {tmp}/bad.txt",
    "optimize --menu-file {tmp}/zero.txt",
    "optimize --menu-file {tmp}/empty.txt",
    # Infeasible: the box supremum, then a flat term, bind; feasible with a
    # term whose negative slope raises the lower end of rho.
    "optimize --rho-min 1",
    "optimize --menu-file {tmp}/flat.txt",
    "optimize --menu-file {tmp}/low.txt",
    # Usage errors that argparse reports with the top-level usage line.
    "bogus",
    "optimize --bogus",
    "pipeline --x 10000 --q 101 --a 3 extra",
]

FILES = {
    "menu.txt": "# two terms\nbox 7/12 -5/8\nsolo 1/2 -3/8\n",
    "bad.txt": "broken-line 1/2\n",
    "zero.txt": "ok 1 0\nt0 1/0 1\n",
    "empty.txt": "# nothing\n",
    "flat.txt": "flat 2 -1\nsolo 1/2 -3/8\n",
    "low.txt": "box 1/10 0\nlow 9/5 -2\n",
}


def commands(seed: int = SEED) -> list[str]:
    rng = random.Random(seed)
    draws = [
        (_error_term, 40), (_pipeline, 30), (_scan, 35), (_count_box, 60), (_optimize, 10),
    ]
    return [make(rng) for make, k in draws for _ in range(k)] + FIXED


def _digest(data: bytes) -> list:
    return [len(data), hashlib.sha256(data).hexdigest()]


def run(command: str, tmp: Path) -> dict:
    """Exit code and digests of one command, run in process in directory tmp."""
    for name, text in FILES.items():
        (tmp / name).write_text(text, encoding="utf-8")
    argv = command.replace("{tmp}", str(tmp)).split()
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    texts = {"stdout": out.getvalue(), "stderr": err.getvalue()}
    if "--output" in argv:
        target = Path(argv[argv.index("--output") + 1])
        texts["output"] = target.read_text(encoding="utf-8") if target.is_file() else None
    record = {"command": command, "code": code}
    for name, text in texts.items():
        record[name] = text if text is None else _digest(text.replace(str(tmp), "{tmp}").encode())
    return record


@pytest.fixture(scope="module")
def grid():
    return json.loads(GRID.read_text(encoding="utf-8"))


def test_grid_covers_every_subcommand_and_both_exit_codes(grid):
    assert [case["command"] for case in grid] == commands()
    seen = {(case["command"].split()[0], case["code"]) for case in grid}
    for name in ("error-term", "scan", "count-box", "pipeline", "optimize"):
        assert {(name, 0), (name, 2)} <= seen


def test_grid_outputs_match_recorded_digests(grid, tmp_path):
    for case in grid:
        workdir = tmp_path / str(len(list(tmp_path.iterdir())))
        workdir.mkdir()
        assert run(case["command"], workdir) == case, case["command"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        records = []
        for i, command in enumerate(commands()):
            workdir = Path(root) / str(i)
            workdir.mkdir()
            records.append(run(command, workdir))
    bad = [r["command"] for r in records if r["code"] not in (0, 2)]
    if bad:
        sys.exit(f"exit codes other than 0 and 2: {bad}")
    GRID.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} commands in {GRID}")
