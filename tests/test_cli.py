import functools
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import eliastream
from eliastream import cli, extractor, verify, young
from eliastream.cli import build_parser, main, pack_bits, unpack_bytes, write_report
from eliastream.extractor import StepResult, StreamExtractor, pause_mode_run
from eliastream.extractor import step as extractor_step


def read_report(path):
    fields = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        fields[key] = value
    return fields


def test_unpack_msb_first():
    assert unpack_bytes(b"\x60") == [0, 1, 1, 0, 0, 0, 0, 0]
    assert unpack_bytes(b"\x01\x80") == [0] * 7 + [1, 1] + [0] * 7


@given(st.binary(max_size=64))
def test_pack_and_unpack_match_bytewise_loops(data):
    bits = [(byte >> k) & 1 for byte in data for k in range(7, -1, -1)]
    assert unpack_bytes(data) == bits
    for cut in (len(bits), max(len(bits) - 3, 0)):
        padded = bits[:cut] + [0] * ((-cut) % 8)
        expected = bytes(
            int("".join(map(str, padded[i : i + 8])), 2) for i in range(0, len(padded), 8)
        )
        # a list, and the bytes and bytearray forms the walk's output takes
        for kept in (bits[:cut], bytes(bits[:cut]), bytearray(bits[:cut])):
            assert pack_bits(kept) == (expected, (-cut) % 8)


def test_pack_and_unpack_equal_numpy_at_every_pad_length():
    rng = random.Random(16384)
    for size in [*range(40), 1000, 16 * 1024]:
        data = rng.randbytes(size)
        bits = unpack_bytes(data)
        assert bits == np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tolist()
        assert all(type(b) is int for b in bits)
        for cut in range(min(len(bits), 8) + 1):
            kept = bits[:len(bits) - cut]
            assert pack_bits(kept) == (np.packbits(np.array(kept, dtype=np.uint8)).tobytes(),
                                       cut % 8)


@pytest.mark.parametrize("bad", [
    [1, 2], [1, ord("_"), 0], [ord(" "), 1], [0, 1, 255], [0, 256], [-1],
    # items with no __index__: bytes() would raise TypeError on them
    [0.5], ["1"], np.array([True, False]),
    # bytes-like forms are bit values, one per byte, not '0'/'1' text
    b"\x00\x02", bytearray(b"01"),
])
def test_pack_refuses_values_other_than_bits(bad):
    # int(text, 2) would take "_" as a digit separator and " " as padding
    with pytest.raises(ValueError, match="bits to pack must be 0 or 1"):
        pack_bits(bad)


def test_pack_reads_integer_arrays_by_value():
    for dtype in (np.uint8, np.int64, np.int32):
        assert pack_bits(np.array([1, 0, 1], dtype=dtype)) == (b"\xa0", 5)
    with pytest.raises(TypeError):
        pack_bits(5)  # not five zero bits


def test_pack_pads_with_zeros():
    data, pad = pack_bits([1, 0, 1])
    assert data == b"\xa0"
    assert pad == 5


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=120))
def test_pack_unpack_round_trip(bits):
    data, pad = pack_bits(bits)
    assert pack_bits(bytes(bits)) == pack_bits(bytearray(bits)) == (data, pad)
    assert unpack_bytes(data)[: len(bits)] == bits
    assert len(bits) + pad == 8 * len(data)
    if len(bits) % 8 == 0:
        assert pad == 0


def test_extract_known_byte(tmp_path):
    # 0x60 = 01100000; the machine emits 1,0,0,0 along that path
    inp = tmp_path / "in.bin"
    out = tmp_path / "out.bin"
    rep = tmp_path / "report.txt"
    inp.write_bytes(b"\x60")
    code = main(
        ["extract", "--input", str(inp), "--output", str(out), "--report", str(rep)]
    )
    assert code == 0
    assert out.read_bytes() == b"\x80"
    fields = read_report(rep)
    assert fields["schema"] == "eliastream/1"
    assert fields["bits_read"] == "8"
    assert fields["bits_emitted"] == "4"
    assert fields["purity_len"] == "4"
    assert int(fields["bits_read"]) == int(fields["bits_emitted"]) + int(
        fields["purity_len"]
    )
    assert fields["pad_len"] == "4"
    assert (fields["n"], fields["t"], fields["l"]) == ("8", "2", "4")


def test_extract_empty_input(tmp_path):
    inp = tmp_path / "in.bin"
    out = tmp_path / "out.bin"
    rep = tmp_path / "report.txt"
    inp.write_bytes(b"")
    assert main(["extract", "--input", str(inp), "--output", str(out), "--report", str(rep)]) == 0
    assert out.read_bytes() == b""
    fields = read_report(rep)
    assert fields["bits_read"] == "0"
    assert fields["bits_emitted"] == "0"


def test_extract_demand_stops_early(tmp_path):
    inp = tmp_path / "in.bin"
    out = tmp_path / "out.bin"
    rep = tmp_path / "report.txt"
    inp.write_bytes(b"\x60\x60")
    code = main(
        [
            "extract",
            "--input", str(inp),
            "--output", str(out),
            "--report", str(rep),
            "--demand", "1",
        ]
    )
    assert code == 0
    fields = read_report(rep)
    assert fields["mode"] == "on-demand"
    assert fields["delivered"] == "1"
    assert int(fields["bits_read"]) == 2  # "01" suffices for the first bit
    assert int(fields["bits_emitted"]) + int(fields["purity_len"]) == int(
        fields["bits_read"]
    )


def test_extract_reports_are_reproducible(tmp_path):
    inp = tmp_path / "in.bin"
    inp.write_bytes(bytes(range(48)))
    reports = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.bin"
        rep = tmp_path / f"{name}.txt"
        main(["extract", "--input", str(inp), "--output", str(out), "--report", str(rep)])
        fields = read_report(rep)
        fields.pop("elapsed")
        reports.append((fields, out.read_bytes()))
    assert reports[0] == reports[1]


def test_verify_subcommand_passes(tmp_path):
    rep = tmp_path / "report.txt"
    code = main(
        ["verify", "--suites", "equivalence,balanced,yield", "--max-n", "8",
         "--report", str(rep)]
    )
    assert code == 0
    fields = read_report(rep)
    assert fields["equivalence[8]"] == "pass"
    assert fields["balanced[8]"] == "pass"
    assert fields["yield_bound"] == "pass"


@pytest.mark.parametrize("max_n, balanced_cap", [(12, verify.BALANCED_CAP), (7, 4)])
def test_verify_report_equals_one_built_from_per_n_calls(tmp_path, monkeypatch, max_n,
                                                         balanced_cap):
    # each suite enumerating its own walk, one suite after the other; a
    # lowered cap puts n on both sides of it without walking 2^15 strings
    monkeypatch.setattr(verify, "BALANCED_CAP", balanced_cap)
    fields = {}
    for n in range(max_n + 1):
        ok = verify.exhaustive_equivalence(n).ok
        fields[f"equivalence[{n}]"] = "pass" if ok else "FAIL"
    for n in range(min(max_n, verify.BALANCED_CAP) + 1):
        ok = verify.balanced_paths(n).ok
        fields[f"balanced[{n}]"] = "pass" if ok else "FAIL"
    fields["yield_bound"] = "pass" if verify.yield_bound_sweep(max_n).ok else "FAIL"
    want, got = tmp_path / "want.txt", tmp_path / "got.txt"
    write_report(fields, str(want))
    assert main(["verify", "--max-n", str(max_n), "--report", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


def test_verify_report_order_does_not_follow_the_suites_option(tmp_path):
    rep = tmp_path / "report.txt"
    assert main(["verify", "--suites", "yield,young,balanced,equivalence", "--max-n", "3",
                 "--report", str(rep)]) == 0
    keys = list(read_report(rep))[1:]
    assert keys == [f"{suite}[{n}]" for suite in ("equivalence", "balanced", "young")
                    for n in range(4)] + ["yield_bound"]


@pytest.mark.parametrize("suite, report_type", [
    ("exhaustive_equivalence", verify.EquivalenceReport),
    ("balanced_paths", verify.BalancedReport),
])
def test_verify_violation_fails_the_run(tmp_path, monkeypatch, suite, report_type):
    def violated(n, tallies=None):
        return report_type(n, violations=["planted"])

    monkeypatch.setattr(verify, suite, violated)
    rep = tmp_path / "report.txt"
    assert main(["verify", "--suites", "equivalence,balanced", "--max-n", "2",
                 "--report", str(rep)]) == 1
    fields = read_report(rep)
    name = "equivalence" if suite == "exhaustive_equivalence" else "balanced"
    assert [fields[f"{name}[{n}]"] for n in range(3)] == ["FAIL"] * 3


def test_verify_balanced_alone_stops_at_its_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "BALANCED_CAP", 4)
    rep = tmp_path / "report.txt"
    assert main(["verify", "--suites", "balanced", "--max-n", "7", "--report", str(rep)]) == 0
    assert list(read_report(rep))[1:] == [f"balanced[{n}]" for n in range(5)]


def test_verify_rejects_negative_max_n(tmp_path, capsys):
    rep = tmp_path / "report.txt"
    assert main(["verify", "--max-n", "-3", "--report", str(rep)]) == 2
    assert "--max-n must be >= 0" in capsys.readouterr().err
    assert not rep.exists()


def test_verify_rejects_max_n_over_the_equivalence_cap_before_walking(tmp_path, capsys,
                                                                     monkeypatch):
    def step(state, b, lattice):
        raise AssertionError("walked before the cap check")

    monkeypatch.setattr(extractor, "step", step)
    rep = tmp_path / "report.txt"
    with pytest.raises(AssertionError, match="walked"):  # any walk reaches the planted step
        main(["verify", "--suites", "equivalence", "--max-n", "1", "--report", str(rep)])
    cap = verify.EXHAUSTIVE_CAP
    for suites in ("equivalence,balanced,yield", "young"):
        assert main(["verify", "--suites", suites, "--max-n", str(cap + 1),
                     "--report", str(rep)]) == 2
        assert f"exceeds the equivalence cap {cap}" in capsys.readouterr().err
    assert not rep.exists()


def flip_one_move(monkeypatch, m):
    """Plant a fault: the first emitting move into depth m that the walk
    takes emits its last bit flipped, every time it is taken."""
    faulty = []

    def step(state, b, lattice):
        node, emitted = extractor_step(state, b, lattice)
        if emitted and node.n == m and faulty in ([], [(state, b)]):
            faulty[:] = [(state, b)]
            emitted = (*emitted[:-1], 1 - emitted[-1])
        return StepResult(node, emitted)

    monkeypatch.setattr(extractor, "step", step)
    return faulty


@pytest.mark.parametrize("m", [2, 5, 9, 14])
def test_one_pass_verify_fails_the_depth_of_a_planted_fault(tmp_path, monkeypatch, m):
    # every string through the faulty move shares the flipped bit, so its
    # node both repeats an output and unbalances that position
    faulty = flip_one_move(monkeypatch, m)
    rep = tmp_path / "report.txt"
    assert main(["verify", "--suites", "equivalence,balanced", "--max-n", str(m),
                 "--report", str(rep)]) == 1
    assert faulty
    fields = read_report(rep)
    for name in ("equivalence", "balanced"):
        assert [fields[f"{name}[{n}]"] for n in range(m + 1)] == ["pass"] * m + ["FAIL"]


def test_a_planted_fault_fails_every_deeper_level(tmp_path, monkeypatch):
    flip_one_move(monkeypatch, 4)
    rep = tmp_path / "report.txt"
    assert main(["verify", "--suites", "equivalence", "--max-n", "10",
                 "--report", str(rep)]) == 1
    fields = read_report(rep)
    assert [fields[f"equivalence[{n}]"] for n in range(11)] == ["pass"] * 4 + ["FAIL"] * 7


def test_verify_yield_rejects_an_empty_sweep(tmp_path):
    rep = tmp_path / "report.txt"
    assert main(["verify", "--suites", "yield", "--max-n", "0", "--report", str(rep)]) == 2
    assert not rep.exists()


def test_verify_checks_the_yield_floor_before_any_walk(tmp_path, capsys, monkeypatch):
    def step(state, b, lattice):
        raise AssertionError("walked before the yield floor check")

    monkeypatch.setattr(extractor, "step", step)
    rep = tmp_path / "report.txt"
    assert main(["verify", "--max-n", "0", "--report", str(rep)]) == 2  # the default suites
    assert capsys.readouterr().err == "error: max_n must be >= 1\n"
    assert not rep.exists()


@pytest.mark.parametrize("option, error", [
    (["--samples", "5"], "samples must be >= 10000"),
    (["--seed", "-3"], "seed must be >= 0"),  # random.Random(-3) would draw Random(3)'s stream
])
def test_verify_checks_the_battery_arguments_before_any_walk(tmp_path, capsys, monkeypatch,
                                                             option, error):
    def step(state, b, lattice):
        raise AssertionError("walked before the battery's checks")

    monkeypatch.setattr(extractor, "step", step)
    rep = tmp_path / "report.txt"
    assert main(["verify", "--suites", "equivalence,stats", "--max-n", "20", *option,
                 "--report", str(rep)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not rep.exists()
    # and without the stats suite, neither option is read
    assert main(["verify", "--suites", "yield", "--max-n", "2", *option, "--report", str(rep)]) == 0


def test_verify_young_suite_reports_each_depth_alone(tmp_path):
    rep = tmp_path / "report.txt"
    assert main(["verify", "--suites", "young", "--max-n", "9", "--report", str(rep)]) == 0
    fields = read_report(rep)
    assert fields == {"schema": cli.REPORT_SCHEMA, **{f"young[{n}]": "pass" for n in range(10)}}
    assert list(fields)[1:] == [f"young[{n}]" for n in range(10)]


def test_a_wrong_young_dimension_fails_the_young_suite_at_its_depth(tmp_path, monkeypatch):
    wrong = young.YOUNG._replace(size=lambda n, t: young.dim(n, t) + ((n, t) == (6, 2)))
    monkeypatch.setattr(young, "YOUNG", wrong)
    rep = tmp_path / "report.txt"
    assert main(["verify", "--suites", "young", "--max-n", "6", "--report", str(rep)]) == 1
    assert list(read_report(rep).values())[1:] == ["pass"] * 6 + ["FAIL"]


def test_simulate_known_rejects_negative_n(capsys):
    assert main(["simulate", "--mode", "known", "--n", "-1"]) == 2
    assert "n must be >= 0" in capsys.readouterr().err


def test_verify_rejects_unknown_suite(tmp_path, capsys):
    rep = tmp_path / "report.txt"
    for suites in ("nonsense", "equivalence,nonsense"):
        assert main(["verify", "--suites", suites, "--report", str(rep)]) == 2
        assert capsys.readouterr().err.startswith("error: unknown suites")
    assert not rep.exists()


@pytest.mark.parametrize("suites", ["", " , "])
def test_verify_rejects_an_empty_suite_list(suites, tmp_path, capsys):
    rep = tmp_path / "report.txt"
    assert main(["verify", "--suites", suites, "--report", str(rep)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not rep.exists()


def test_simulate_huffman_report(tmp_path):
    rep = tmp_path / "report.txt"
    assert main(["simulate", "--mode", "huffman", "--n", "7", "--report", str(rep)]) == 0
    fields = read_report(rep)
    assert float(fields["fidelity"]) == pytest.approx(0.853553391, abs=1e-9)
    assert fields["n"] == "1"  # the size of the state, not the ignored --n


def test_simulate_known_report(tmp_path):
    rep = tmp_path / "report.txt"
    assert main(
        ["simulate", "--mode", "known", "--n", "6", "--p", "0.3", "--report", str(rep)]
    ) == 0
    fields = read_report(rep)
    assert float(fields["emit_prob[1]"]) > 0.5
    assert float(fields["fidelity[1]"]) == pytest.approx(1.0, abs=1e-9)
    assert fields["seeded"] == "0"
    assert "t_entropy" in fields and "certain_pairs" in fields


def test_simulate_universal_report(tmp_path):
    rep = tmp_path / "report.txt"
    assert main(
        ["simulate", "--mode", "universal", "--n", "4", "--p", "0.4",
         "--theta", "0.7", "--report", str(rep)]
    ) == 0
    fields = read_report(rep)
    assert float(fields["fidelity[1]"]) == pytest.approx(1.0, abs=1e-9)


def test_simulate_vonneumann_report(tmp_path):
    rep = tmp_path / "report.txt"
    assert main(
        ["simulate", "--mode", "vonneumann", "--n", "3", "--p", "0.3",
         "--report", str(rep)]
    ) == 0
    fields = read_report(rep)
    expected = (1 - 2 * 0.3 * 0.7) ** 1.5
    assert float(fields["nonhalting_amplitude"]) == pytest.approx(expected, abs=1e-9)


def test_simulate_vonneumann_over_its_cap_exits_two(capsys):
    assert main(["simulate", "--mode", "vonneumann", "--n", "40"]) == 2
    assert "exceeds cap" in capsys.readouterr().err


def test_simulate_universal_with_a_nan_angle_exits_two(capsys):
    assert main(["simulate", "--mode", "universal", "--n", "3", "--p", "0.3", "--theta", "nan"]) == 2
    assert capsys.readouterr().err == "error: psi is not normalized\n"


def test_usage_errors_exit_two(tmp_path):
    assert main(["extract", "--demand", "-3", "--input", str(tmp_path / "x")]) == 2
    assert main(["simulate", "--mode", "universal", "--n", "40"]) == 2
    assert main(["no-such-command"]) == 2


def test_missing_input_is_io_error(tmp_path):
    assert main(["extract", "--input", str(tmp_path / "absent.bin")]) == 2
    # the input is opened first, so no output file is left behind
    out, rep = tmp_path / "out.bin", tmp_path / "report.txt"
    assert main(["extract", "--input", str(tmp_path / "absent.bin"), "--output", str(out),
                 "--report", str(rep)]) == 2
    assert not out.exists() and not rep.exists()


def test_unwritable_output_is_io_error_before_the_walk(tmp_path, monkeypatch):
    def walk(self, *args):
        raise AssertionError("walked before the output was opened")

    monkeypatch.setattr(StreamExtractor, "_walk", walk)
    inp, rep = tmp_path / "in.bin", tmp_path / "report.txt"
    inp.write_bytes(b"\x60")
    argv = ["extract", "--input", str(inp), "--report", str(rep), "--output"]
    with pytest.raises(AssertionError, match="walked"):  # a run reaches the planted walk
        main([*argv, str(tmp_path / "out.bin")])
    assert main([*argv, str(tmp_path / "no-such-dir" / "out.bin")]) == 2
    assert main([*argv, str(tmp_path)]) == 2
    assert not rep.exists()


def test_extract_refuses_to_write_over_its_input(tmp_path, capsys):
    # The output is written while the input is read: opening the input file
    # for writing would truncate it before it is walked.
    data = hashlib.shake_256(PINNED_INPUT).digest(3 * cli._BLOCK)
    inp, rep = tmp_path / "in.bin", tmp_path / "report.txt"
    inp.write_bytes(data)
    os.link(inp, tmp_path / "link.bin")
    for out in (inp, tmp_path / "link.bin", tmp_path / "." / "in.bin"):
        for demand in ((), ("--demand", "8")):
            argv = ["extract", "--input", str(inp), "--output", str(out), "--report", str(rep)]
            assert main([*argv, *demand]) == 2
            assert capsys.readouterr().err == "error: --output names the --input file\n"
    with inp.open("rb") as handle:  # the input file as stdin
        proc = cli_fresh(["extract", "--output", str(inp)], tmp_path, handle)
    assert (proc.returncode, proc.stderr) == (2, b"error: --output names the --input file\n")
    assert inp.read_bytes() == data and not rep.exists()
    # a device is no file to truncate
    assert main(["extract", "--input", os.devnull, "--output", os.devnull,
                 "--report", str(rep)]) == 0


def test_extract_refuses_a_report_over_its_input_or_output(tmp_path, capsys, monkeypatch):
    # The report is written last: over the output it would replace the
    # extracted bits, over the input it would overwrite it.  Both are refused
    # before any file is opened for writing.
    def walk(self, *args):
        raise AssertionError("walked a refused run")

    monkeypatch.setattr(StreamExtractor, "_walk", walk)
    data = hashlib.shake_256(PINNED_INPUT).digest(2048)
    inp, out = tmp_path / "in.bin", tmp_path / "out.bin"
    inp.write_bytes(data)
    out.write_bytes(b"earlier output")
    os.link(out, tmp_path / "out-link.bin")
    os.link(inp, tmp_path / "in-link.bin")
    os.symlink(tmp_path, tmp_path / "dir-link")
    cases = [(out, out, "output"), (out, tmp_path / "out-link.bin", "output"),
             (tmp_path / "new.bin", tmp_path / "." / "new.bin", "output"),
             (tmp_path / "new.bin", tmp_path / "dir-link" / "new.bin", "output"),
             (out, inp, "input"), (out, tmp_path / "in-link.bin", "input")]
    for output, report, named in cases:
        for demand in ((), ("--demand", "8")):
            argv = ["extract", "--input", str(inp), "--output", str(output), "--report", str(report)]
            assert main([*argv, *demand]) == 2
            assert capsys.readouterr().err == f"error: --report names the --{named} file\n"
            assert inp.read_bytes() == data and out.read_bytes() == b"earlier output"
            assert not (tmp_path / "new.bin").exists()
    with inp.open("rb") as handle:  # the input file as stdin
        proc = cli_fresh(["extract", "--report", str(inp)], tmp_path, handle)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: --report names the --input file\n"
    assert inp.read_bytes() == data
    # a device, named twice, is no file to replace
    monkeypatch.undo()
    assert main(["extract", "--input", str(inp), "--output", os.devnull,
                 "--report", os.devnull]) == 0


# SHA-256 of `extract` outputs on fixed inputs, recorded before the streaming
# engine was rewritten to carry one coefficient (the 512-byte ones: before the
# window took over at l = 1,024); the same digests are checked on the
# installed console script in CI.  Keys: (input bytes, extra arguments).
PINNED_INPUT = b"eliastream pinned extract"
PINNED = {
    (16 * 1024, ()): ("8c8223deb25d113c4955388bd5c8a39aa17198c6f07fb7d7e321ad95d54297ec", ("131072", "65523", "131063")),
    (16 * 1024, ("--demand", "1000")): ("f6f894963ae45679dc2180f39b3409ecca4a155aae4a6707a67cb5f5e3595c39", ("1007", "482", "1000")),
    (512, ()): ("e2d40d6496739f7bf8e415f70ff5e6650472833dd4df64729b8f38e137e21c98", ("4096", "2002", "4088")),
    (512, ("--demand", "2000")): ("68599061b13aa1d1a0dfc74c000a8b3a0ba32a45d9ebcca8c9826469021e0eb9", ("2010", "954", "2000")),
}


def cli_fresh(argv, cwd, stdin=b"", **streams):
    """`python -m eliastream.cli` with `argv` in a new interpreter, on this
    package; `stdin` is bytes to pipe in or an open file to read from.
    `streams` replaces ``subprocess.run``'s captured stdout or stderr, or
    sets its ``preexec_fn``."""
    env = dict(os.environ)
    src = str(Path(eliastream.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    source = {"input": stdin} if isinstance(stdin, bytes) else {"stdin": stdin}
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, "-m", "eliastream.cli", *argv], **source,
                          **streams, cwd=cwd, env=env, timeout=120)


def whole_input_extract(data, demand=None):
    """`extract`'s output and report lines (the timing line dropped) from one
    walk over the whole input: ``feed`` when streaming, the on-demand
    ``pause_mode_run`` for a demand."""
    bits = unpack_bytes(data)
    if demand is None:
        machine = StreamExtractor()
        delivered, state = machine.feed(bits), machine.state
    else:
        paused = pause_mode_run(bits, demand)
        delivered, state = paused.output, paused.state
    packed, pad = pack_bits(delivered)
    fields = {
        "schema": "eliastream/1", "mode": "streaming" if demand is None else "on-demand",
        "bits_read": state.n, "bits_emitted": state.l, "purity_len": state.n - state.l,
        "delivered": len(delivered), "pending": state.l - len(delivered),
        "n": state.n, "t": state.t, "l": state.l, "pad_len": pad,
    }
    return packed, [f"{key}={value}" for key, value in fields.items()]


def report_lines(text):
    return [line for line in text.splitlines() if not line.startswith("elapsed=")]


BLOCK_SIZES = [0, 1, cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1, 3 * cli._BLOCK + 5]


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_extract_in_blocks_equals_one_whole_input_walk(tmp_path, size):
    data = hashlib.shake_256(PINNED_INPUT).digest(size)
    inp, out, rep = tmp_path / "in.bin", tmp_path / "out.bin", tmp_path / "report.txt"
    inp.write_bytes(data)
    # Demands: ending exactly at the last bit emitted by the first and by the
    # last block, halfway to each (mid-block), and one past the end.
    blocks = -(-size // cli._BLOCK)
    ends = [len(StreamExtractor().feed(unpack_bytes(data[:k * cli._BLOCK])))
            for k in sorted({1, blocks})]
    demands = sorted({0, *ends, *(end // 2 for end in ends), ends[-1] + 1})
    for demand in [None, *demands]:
        args = () if demand is None else ("--demand", str(demand))
        out.unlink(missing_ok=True)
        assert main(["extract", "--input", str(inp), "--output", str(out),
                     "--report", str(rep), *args]) == 0
        assert (out.read_bytes(), report_lines(rep.read_text())) == whole_input_extract(data, demand)


def test_extract_streams_a_block_that_emits_more_bits_than_it_reads(tmp_path):
    # A KiB of zeros keeps C(n, 0) = 1, so l stays 0 while n reaches 8,192;
    # the random KiB after it takes l past the 8,193 bits that block holds.
    # The streaming walk's demand, n - l + 8 * 1,024 + 1 at the block's
    # start, stays out of reach, so every bit of the block is walked.
    data = bytes(cli._BLOCK) + random.Random(2).randbytes(cli._BLOCK)
    head = StreamExtractor()
    head.feed(unpack_bytes(data[:cli._BLOCK]))
    assert (head.n, head.l) == (8 * cli._BLOCK, 0)
    head.feed(unpack_bytes(data[cli._BLOCK:]))
    assert head.l > 8 * cli._BLOCK + 1
    inp, out, rep = tmp_path / "in.bin", tmp_path / "out.bin", tmp_path / "report.txt"
    inp.write_bytes(data)
    assert main(["extract", "--input", str(inp), "--output", str(out), "--report", str(rep)]) == 0
    assert (out.read_bytes(), report_lines(rep.read_text())) == whole_input_extract(data)


def test_extract_refuses_a_report_over_a_redirected_stdout(tmp_path, capsysbinary):
    # The shell opens the file behind stdout before extract runs, truncating
    # it (">") or not (">>").  A --report naming that file would replace the
    # extracted bytes, or the file's earlier contents; it is refused before
    # anything is written.
    data = hashlib.shake_256(PINNED_INPUT).digest(2048)
    inp, out = tmp_path / "in.bin", tmp_path / "out.bin"
    inp.write_bytes(data)
    argv = ["extract", "--input", str(inp), "--report"]
    for mode, left in (("wb", b""), ("ab", b"earlier output")):
        out.write_bytes(b"earlier output")
        with out.open(mode) as sink:
            proc = cli_fresh([*argv, str(out)], tmp_path, stdout=sink)
        assert (proc.returncode, proc.stderr) == (2, b"error: --report names the --output file\n")
        assert out.read_bytes() == left
    # a device or a pipe as stdout is no file to replace
    with open(os.devnull, "wb") as sink:
        proc = cli_fresh([*argv, os.devnull], tmp_path, stdout=sink)
    assert (proc.returncode, proc.stderr) == (0, b"")
    rep = tmp_path / "report.txt"
    proc = cli_fresh([*argv, str(rep)], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert (proc.stdout, report_lines(rep.read_text())) == whole_input_extract(data)
    # nor is an in-memory stdout, with no file descriptor (pytest's capture)
    assert main([*argv, str(rep)]) == 0
    assert (capsysbinary.readouterr().out, report_lines(rep.read_text())) == whole_input_extract(data)


def test_extract_refuses_a_stdout_appended_to_its_input(tmp_path):
    # "extract --input f >> f" and "extract < f >> f" would write the output
    # onto the end of the file still being read, growing it as fast as it is
    # walked; both are refused before anything is written.
    data = hashlib.shake_256(PINNED_INPUT).digest(2048)
    inp = tmp_path / "in.bin"
    inp.write_bytes(data)
    with inp.open("ab") as sink, inp.open("rb") as source:
        for argv, stdin in ((["extract", "--input", str(inp)], b""), (["extract"], source)):
            proc = cli_fresh(argv, tmp_path, stdin, stdout=sink)
            assert (proc.returncode, proc.stderr) == (2, b"error: --output names the --input file\n")
            assert inp.read_bytes() == data
    # a device or a pipe as stdout still runs
    with open(os.devnull, "wb") as sink, inp.open("rb") as source:
        proc = cli_fresh(["extract"], tmp_path, source, stdout=sink)
    assert proc.returncode == 0
    proc = cli_fresh(["extract", "--input", str(inp)], tmp_path)
    assert (proc.returncode, proc.stdout) == (0, whole_input_extract(data)[0])


@pytest.mark.parametrize("fd, argv, error", [
    (0, ["extract", "--output", "out.bin"], b"error: stdin is closed\n"),
    (1, ["extract", "--input", "in.bin"], b"error: stdout is closed\n"),
    (1, ["extract", "--input", "in.bin", "--report", "report.txt"], b"error: stdout is closed\n"),
    (2, ["verify", "--max-n", "3"], b""),
], ids=["stdin", "stdout", "stdout-with-report", "stderr"])
def test_a_closed_standard_stream_is_an_io_error(tmp_path, fd, argv, error):
    # Python sets a standard stream the process started without to None.
    # Reading or writing it is an I/O error (exit 2), not a verification
    # violation (1), and with stderr closed the error line is not written.
    (tmp_path / "in.bin").write_bytes(hashlib.shake_256(PINNED_INPUT).digest(64))
    proc = cli_fresh(argv, tmp_path, preexec_fn=functools.partial(os.close, fd))
    assert (proc.returncode, proc.stderr) == (2, error)
    assert not (tmp_path / "out.bin").exists() and not (tmp_path / "report.txt").exists()


def test_extract_in_blocks_pipes_stdin_to_stdout_in_a_fresh_process(tmp_path):
    data = hashlib.shake_256(PINNED_INPUT).digest(BLOCK_SIZES[-1])
    proc = cli_fresh(["extract"], tmp_path, data)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, report_lines(proc.stderr.decode())) == whole_input_extract(data)


def traced_peak(argv):
    """Peak bytes ``tracemalloc`` traces while `main(argv)` runs, the parser
    built beforehand."""
    build_parser()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extract_memory_is_bounded_by_the_walk_not_the_input(tmp_path):
    def extract(data, *args):
        inp, rep = tmp_path / "in.bin", tmp_path / "report.txt"
        inp.write_bytes(data)
        peak = traced_peak(["extract", "--input", str(inp), "--output", str(tmp_path / "out.bin"),
                            "--report", str(rep), *args])
        return peak, read_report(rep)

    # a demand reads only what it needs, however long the input
    peak, fields = extract(hashlib.shake_256(PINNED_INPUT).digest(8 << 20), "--demand", "64")
    assert peak < 1_000_000 and int(fields["bits_read"]) < 1_000
    # A stream 4x as long costs no more memory.  Zero bytes keep every
    # coefficient at 1, so the traced walk stays fast (8 KiB of random bytes
    # take ~4.6 s under tracemalloc), while walking the whole input at once
    # would still hold a list of one int per input bit.
    (short, _), (long, fields) = extract(bytes(4 << 10)), extract(bytes(16 << 10))
    assert int(fields["bits_read"]) == 8 * (16 << 10)
    assert abs(long - short) < 500_000


@pytest.mark.parametrize("extra", list(PINNED))
def test_extract_output_is_pinned(tmp_path, extra):
    # The window decides every move from the apex: the streaming runs end at
    # l = 131,063 and 4,088, the demands at 1,000 and 2,000.
    size, args = extra
    inp, out, rep = tmp_path / "in.bin", tmp_path / "out.bin", tmp_path / "report.txt"
    inp.write_bytes(hashlib.shake_256(PINNED_INPUT).digest(size))
    argv = ["extract", "--input", str(inp), "--output", str(out), "--report", str(rep), *args]
    assert main(argv) == 0
    digest, ntl = PINNED[extra]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    fields = read_report(rep)
    assert (fields["n"], fields["t"], fields["l"]) == ntl


@pytest.mark.parametrize("extra", list(PINNED))
def test_extract_pipes_stdin_to_stdout_in_a_fresh_process(tmp_path, extra):
    # the defaults --input - and --output -, the report on stderr
    size, args = extra
    proc = cli_fresh(["extract", *args], tmp_path, hashlib.shake_256(PINNED_INPUT).digest(size))
    assert proc.returncode == 0, proc.stderr
    digest, ntl = PINNED[extra]
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
    fields = dict(line.partition("=")[::2] for line in proc.stderr.decode().splitlines())
    assert fields["schema"] == "eliastream/1"
    assert (fields["n"], fields["t"], fields["l"]) == ntl


def test_calls_in_one_process_share_the_parser_and_nothing_else(tmp_path, capsys):
    # Each call equals a process of its own, a usage error between calls included.
    inp = tmp_path / "in.bin"
    inp.write_bytes(hashlib.shake_256(PINNED_INPUT).digest(512))
    parser = build_parser()

    def argv(prefix, args):
        return ["extract", "--input", str(inp), "--output", str(tmp_path / f"{prefix}.out"),
                "--report", str(tmp_path / f"{prefix}.rep"), *args]

    def files(prefix):  # output and report, the report's timing line dropped
        out, rep = tmp_path / f"{prefix}.out", tmp_path / f"{prefix}.rep"
        return (out.read_bytes() if out.exists() else None,
                report_lines(rep.read_text()) if rep.exists() else None)

    statuses = []
    for i, args in enumerate([(), ("--demand", "64"), ("--demand", "-1"), ()]):
        statuses.append(main(argv(f"shared{i}", args)))
        err = capsys.readouterr().err
        assert build_parser() is parser
        alone = cli_fresh(argv(f"alone{i}", args), tmp_path)
        assert (statuses[-1], err) == (alone.returncode, alone.stderr.decode())
        assert files(f"shared{i}") == files(f"alone{i}")
    assert statuses == [0, 0, 2, 0]
    assert files("shared2") == (None, None) and files("shared0") == files("shared3")


@pytest.mark.parametrize("args", [("known", "4", "0"), ("known", "4", "1"),
                                  ("universal", "3", "1"), ("universal", "1", "0.5")])
def test_point_mass_entropies_print_no_negative_zero(tmp_path, args):
    mode, n, p = args
    rep = tmp_path / "report.txt"
    assert main(["simulate", "--mode", mode, "--n", n, "--p", p, "--report", str(rep)]) == 0
    fields = read_report(rep)
    assert (fields["t_entropy"], fields["l_entropy"]) == ("0.000000", "0.000000")


# SHA-256 of `simulate` reports, recorded before the pair statistics were
# read from a column table per state (the two at the size caps: before the
# tapes became integer codes); fidelities, emission probabilities and
# entropies must keep every printed digit.
PINNED_REPORTS = {
    ("--mode", "known", "--n", "12", "--p", "0.3"):
        "336f139197fbe099191cd64cf4943d054a67d3e02989a0eecc2290dd71ce5cf0",
    ("--mode", "universal", "--n", "6", "--p", "0.3", "--theta", "1.1"):
        "6fa62fb80b81954338260a85a287aae50bd8bc423d79e7883b502f1ac724dd5f",
    ("--mode", "vonneumann", "--n", "6", "--p", "0.3"):
        "724391f38d284a36612186c129c5a50177172a2becbc4694bbe9271d0f653a6f",
    ("--mode", "huffman"):
        "44d84f7487f76eee3acfa752a7c8c86bb3b57e7adece6101299cb7bd75445dcb",
    ("--mode", "known", "--n", "16", "--p", "0.05"):
        "3c15263c753ddf64a50a37b60b511a081be6be5ae8a3045fe5d842ae52fd7d44",
    ("--mode", "vonneumann", "--n", "8", "--p", "0.7"):
        "552d29009c421c46a99fbb8a595daebb39d5367f7368172b51e8b8e6567a0642",
}


@pytest.mark.parametrize("args", sorted(PINNED_REPORTS))
def test_simulate_reports_are_pinned(tmp_path, args):
    rep = tmp_path / "report.txt"
    assert main(["simulate", *args, "--report", str(rep)]) == 0
    assert hashlib.sha256(rep.read_bytes()).hexdigest() == PINNED_REPORTS[args]
