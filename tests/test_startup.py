"""The package and each command load only what they run, checked in fresh
interpreters.

In-process tests cannot see this: by the time they run, pytest and the
other test modules have loaded numpy, mpmath and every eliastream module.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eliastream
from eliastream.cli import main
from eliastream.extractor import StreamExtractor
from eliastream.schursim import schur_transform
from test_cli import PINNED_REPORTS

SRC = Path(eliastream.__file__).resolve().parents[1]
HEAVY = ("numpy", "mpmath", "eliastream.schursim", "eliastream.verify", "eliastream.elias")
# dataclasses, and the inspect module it imports: no command needs either.
DATACLASSES = ("dataclasses", "inspect")
# The package modules `extract` runs on: the walk, its sizes and the CLI.
WALK = {"eliastream", "eliastream.cli", "eliastream.extractor", "eliastream.binomial"}

# Runs `eliastream <args>` in-process (or only imports the CLI when there are
# no arguments), then prints every loaded module.
PROBE = """
import sys
import eliastream.cli
code = eliastream.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(" ".join(sys.modules))
sys.exit(code)
"""


def python_fresh(args, tmp_path):
    """Run `python <args>` in a new interpreter that imports eliastream from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)


def run_fresh(args, tmp_path, probe=True):
    entry = ["-c", PROBE] if probe else ["-m", "eliastream.cli"]
    return python_fresh([*entry, *args], tmp_path)


def loaded(args, tmp_path, watch=HEAVY):
    """Which modules of `watch` (all, for None) a fresh run has loaded."""
    proc = run_fresh(args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    got = set(proc.stdout.split())
    return got if watch is None else got & set(watch)


def loaded_submodules(module, tmp_path):
    """eliastream.* modules a fresh `import <module>` loads, package excluded."""
    probe = (f"import sys, {module}\n"
             "print(' '.join(m for m in sys.modules if m.startswith('eliastream.')))")
    proc = python_fresh(["-c", probe], tmp_path)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert loaded_submodules("eliastream", tmp_path) == set()


def test_importing_the_cli_loads_only_the_modules_extract_needs(tmp_path):
    got = loaded_submodules("eliastream.cli", tmp_path)
    assert got == WALK - {"eliastream"}


def test_importing_the_cli_loads_no_oracle_or_numeric_library(tmp_path):
    assert loaded([], tmp_path) == set()


def test_verify_default_suites_never_load_numpy(tmp_path):
    got = loaded(["verify", "--suites", "equivalence,balanced,yield", "--report",
                  str(tmp_path / "r.txt")], tmp_path, watch=(*HEAVY, *DATACLASSES))
    assert got == {"eliastream.verify", "eliastream.elias"}


def test_verify_exhaustive_suites_load_no_numeric_library(tmp_path):
    got = loaded(["verify", "--suites", "equivalence,balanced", "--max-n", "6", "--report",
                  str(tmp_path / "r.txt")], tmp_path, watch=(*HEAVY, *DATACLASSES))
    assert got == {"eliastream.verify", "eliastream.elias"}


def test_verify_stats_suite_loads_no_numeric_library(tmp_path):
    got = loaded(["verify", "--suites", "stats", "--samples", "10000", "--report",
                  str(tmp_path / "r.txt")], tmp_path, watch=(*HEAVY, *DATACLASSES))
    assert got == {"eliastream.verify", "eliastream.elias"}


def test_verify_young_suite_loads_no_numeric_library_or_simulator(tmp_path):
    got = loaded(["verify", "--suites", "young", "--max-n", "12", "--report",
                  str(tmp_path / "r.txt")], tmp_path, watch=None)
    assert not got & {"numpy", "mpmath", "eliastream.schursim", *DATACLASSES}
    assert {m for m in got if m.startswith("eliastream")} == WALK | {
        "eliastream.verify", "eliastream.elias", "eliastream.young"}


@pytest.mark.parametrize("mode", ["known", "universal", "huffman", "vonneumann"])
def test_simulate_never_loads_mpmath(tmp_path, mode):
    # nor numpy, nor the block oracle (HEAVY holds both), nor dataclasses
    got = loaded(["simulate", "--mode", mode, "--n", "3", "--report", str(tmp_path / "r.txt")],
                 tmp_path, watch=(*HEAVY, *DATACLASSES))
    assert got == {"eliastream.schursim"}


BLOCKED = "import sys; sys.modules['numpy'] = sys.modules['mpmath'] = None\n"


@pytest.mark.parametrize("blocked", [False, True])
def test_verify_runs_where_numpy_and_mpmath_cannot_be_imported(tmp_path, blocked):
    args = ["verify", "--suites", "equivalence,balanced,yield,stats", "--max-n", "8"]
    proc = python_fresh(["-c", BLOCKED * blocked + PROBE, *args, "--report", "r.txt"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    # the same report as a run in this process, where both libraries are loaded
    main(args + ["--report", str(tmp_path / "want.txt")])
    assert (tmp_path / "r.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
    assert b"stats[p=0.5]=pass" in (tmp_path / "want.txt").read_bytes()


def test_schur_transform_runs_where_numpy_and_mpmath_cannot_be_imported(tmp_path):
    probe = "import eliastream.schursim as s; print(repr(s.schur_transform(4)))"
    blocked, free = (python_fresh(["-c", head + probe], tmp_path) for head in (BLOCKED, ""))
    assert blocked.returncode == free.returncode == 0, blocked.stderr
    assert blocked.stdout == free.stdout == repr(schur_transform(4)) + "\n"


@pytest.mark.parametrize("args", sorted(PINNED_REPORTS))
def test_simulate_runs_where_numpy_cannot_be_imported(tmp_path, args):
    blocked = "import sys; sys.modules['numpy'] = None\n" + PROBE
    proc = python_fresh(["-c", blocked, "simulate", *args, "--report", "r.txt"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256((tmp_path / "r.txt").read_bytes()).hexdigest() == PINNED_REPORTS[args]


def test_extract_loads_only_the_walk(tmp_path):
    (tmp_path / "in.bin").write_bytes(b"\x5a\x0f")
    got = loaded(["extract", "--input", "in.bin", "--output", "out.bin", "--report", "r.txt"],
                 tmp_path, watch=None)
    assert {m for m in got if m.partition(".")[0] == "eliastream"} == WALK
    assert not got & {*HEAVY, "dataclasses", "fractions"}


def test_extract_runs_where_numpy_cannot_be_imported(tmp_path):
    data = bytes(range(256))
    (tmp_path / "in.bin").write_bytes(data)
    blocked = "import sys; sys.modules['numpy'] = None\n" + PROBE
    proc = python_fresh(["-c", blocked, "extract", "--input", "in.bin", "--output", "out.bin",
                         "--report", "r.txt"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    # numpy's byte conversion, in this process, as the oracle
    emitted = StreamExtractor().feed(np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tolist())
    expected = np.packbits(np.array(emitted, dtype=np.uint8)).tobytes()
    assert (tmp_path / "out.bin").read_bytes() == expected


def test_simulator_cap_is_a_usage_error_in_a_fresh_process(tmp_path):
    proc = run_fresh(["simulate", "--mode", "universal", "--n", "40"], tmp_path, probe=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "exceeds cap" in proc.stderr
