"""The package and each command load only what they run, checked in fresh
interpreters.

In-process tests cannot see this: by the time they run, pytest and the
other test modules have loaded numpy, mpmath and every eliastream module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import eliastream

SRC = Path(eliastream.__file__).resolve().parents[1]
HEAVY = ("numpy", "mpmath", "eliastream.schursim", "eliastream.verify")

# Runs `eliastream <args>` in-process (or only imports the CLI when there are
# no arguments), then prints which of HEAVY are loaded.
PROBE = f"""
import sys
import eliastream.cli
code = eliastream.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(" ".join(m for m in {HEAVY!r} if m in sys.modules))
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


def loaded(args, tmp_path):
    proc = run_fresh(args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


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
    assert got == {f"eliastream.{m}" for m in ("cli", "extractor", "elias", "binomial")}


def test_importing_the_cli_loads_no_oracle_or_numeric_library(tmp_path):
    assert loaded([], tmp_path) == set()


def test_verify_default_suites_never_load_numpy(tmp_path):
    got = loaded(["verify", "--suites", "equivalence,balanced,yield", "--report",
                  str(tmp_path / "r.txt")], tmp_path)
    assert got == {"eliastream.verify"}


def test_verify_exhaustive_suites_load_no_numeric_library(tmp_path):
    got = loaded(["verify", "--suites", "equivalence,balanced", "--max-n", "6", "--report",
                  str(tmp_path / "r.txt")], tmp_path)
    assert got == {"eliastream.verify"}


@pytest.mark.parametrize("mode", ["known", "universal", "huffman", "vonneumann"])
def test_simulate_never_loads_mpmath(tmp_path, mode):
    got = loaded(["simulate", "--mode", mode, "--n", "3", "--report", str(tmp_path / "r.txt")],
                 tmp_path)
    assert got == {"eliastream.schursim", "numpy"}


def test_extract_loads_numpy_and_no_oracle(tmp_path):
    (tmp_path / "in.bin").write_bytes(b"\x5a\x0f")
    got = loaded(["extract", "--input", "in.bin", "--output", "out.bin", "--report", "r.txt"],
                 tmp_path)
    assert got == {"numpy"}


def test_simulator_cap_is_a_usage_error_in_a_fresh_process(tmp_path):
    proc = run_fresh(["simulate", "--mode", "universal", "--n", "40"], tmp_path, probe=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "exceeds cap" in proc.stderr
