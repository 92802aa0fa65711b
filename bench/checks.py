"""Per-op output checks.  They run after the timed loop, never inside it.

A check returns None when the op's outputs are correct and a one-line reason
when they are not; every reason counts the op as failed.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import NamedTuple

from plan import ExtractOp, OracleOp, Plan

REPORT_SCHEMA = "eliastream/1"
PREFIX_BITS = 512  # the reference run covers this many leading input bits
FIDELITY_TOL = 1e-9
YIELD_TOL = 1e-6
AMPLITUDE_TOL = 1e-8  # the report prints 9 decimals


class OpRecord(NamedTuple):
    """What one op did: its wall time, exit status, and the files it wrote."""

    op: "ExtractOp | OracleOp"
    duration: float
    rc: int | None
    error: str | None  # exception text, or "over budget"
    output: bytes
    report: str


def parse_report(text: str) -> dict[str, str]:
    lines = text.splitlines()
    if not lines or lines[0] != f"schema={REPORT_SCHEMA}":
        raise ValueError("report does not start with the schema line")
    fields = {}
    for line in lines[1:]:
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"report line without '=': {line!r}")
        fields[key] = value
    return fields


def bit_string(data: bytes) -> str:
    """Bytes as a '0'/'1' string, MSB-first."""
    return "".join(format(byte, "08b") for byte in data)


def status_error(rec: OpRecord, budget_s: float) -> str | None:
    if rec.error is not None:
        return rec.error
    if rec.duration > budget_s:
        return f"over budget ({rec.duration:.3f} s > {budget_s} s)"
    if rec.rc != 0:
        return f"exit code {rec.rc}"
    return None


class ExtractChecker:
    """Report invariants, a reference prefix, recorded digests, and on-demand prefixes."""

    def __init__(self, plan: Plan, digests: dict[str, str] | None):
        from eliastream.extractor import run

        self._run = run
        self.plan = plan
        self.digests = digests
        self._reference: dict[int, str] = {}
        self._streaming: dict[int, str] = {}

    def reference_prefix(self, input_id: int) -> str:
        """extractor.run on the first PREFIX_BITS input bits, as a bit string."""
        if input_id not in self._reference:
            bits = bit_string(self.plan.inputs[input_id].data)[:PREFIX_BITS]
            self._reference[input_id] = "".join(map(str, self._run(bits).output))
        return self._reference[input_id]

    def check(self, rec: OpRecord) -> str | None:
        error = status_error(rec, self.plan.params["budget_s"])
        if error:
            return error
        op = rec.op
        try:
            f = parse_report(rec.report)
            read, emitted, purity, delivered, pending, pad = (
                int(f[k]) for k in
                ("bits_read", "bits_emitted", "purity_len", "delivered", "pending", "pad_len")
            )
        except (ValueError, KeyError) as exc:
            return f"bad report: {exc}"
        if f.get("mode") != op.mode:
            return f"report mode {f.get('mode')!r} != {op.mode!r}"
        if emitted + purity != read:
            return f"bits_emitted + purity_len = {emitted + purity} != bits_read = {read}"
        data = self.plan.inputs[op.input_id].data
        if op.mode == "streaming":
            if read != 8 * len(data):
                return f"bits_read = {read} != 8 * input bytes = {8 * len(data)}"
            want = emitted
        else:
            want = min(self.plan.params["demand"], emitted)
        if delivered != want:
            return f"delivered = {delivered}, want {want}"
        if pending != emitted - delivered:
            return f"pending = {pending} != bits_emitted - delivered"
        if not 0 <= pad < 8 or 8 * len(rec.output) - pad != delivered:
            return f"{len(rec.output)} output bytes with pad_len {pad} != {delivered} delivered bits"
        bits = bit_string(rec.output)
        if "1" in bits[delivered:]:
            return "nonzero pad bits"
        out = bits[:delivered]
        ref = self.reference_prefix(op.input_id)
        k = min(len(ref), delivered)
        if out[:k] != ref[:k]:
            return f"output differs from extractor.run on the first {PREFIX_BITS} input bits"
        if op.mode == "streaming":
            self._streaming.setdefault(op.input_id, out)
        else:
            stream = self._streaming.get(op.input_id)
            if stream is not None and stream[:delivered] != out:
                return "on-demand output is not a prefix of the streaming output"
        if self.digests is not None:
            digest = hashlib.sha256(rec.output).hexdigest()
            recorded = self.digests.get(f"{op.input_id}/{op.mode}")
            if digest != recorded:
                return f"output sha256 {digest[:16]}... != recorded {str(recorded)[:16]}..."
        return None


class OracleChecker:
    """Exit codes, suite verdicts, pair fidelities, and closed-form yields."""

    def __init__(self, plan: Plan):
        from eliastream.elias import SourceModel, expected_yield

        self._yield = lambda n, p: expected_yield(n, SourceModel(Fraction(p)))
        self.plan = plan

    def check(self, rec: OpRecord) -> str | None:
        error = status_error(rec, self.plan.params["budget_s"])
        if error:
            return error
        op = rec.op
        try:
            f = parse_report(rec.report)
            if op.kind == "verify":
                bad = [k for k, v in f.items() if v != "pass"]
                return f"verify fields not passing: {bad}" if bad else None
            low = [k for k, v in f.items() if k.startswith("fidelity[") and float(v) < 1 - FIDELITY_TOL]
            if low:
                return f"fidelity below 1 - {FIDELITY_TOL}: {low}"
            if op.kind == "known":
                got = float(f["expected_pairs"])
                want = float(self._yield(op.n, op.p))
                if abs(got - want) > YIELD_TOL:
                    return f"expected_pairs {got} != expected_yield {want:.9f}"
            if op.kind == "vonneumann":
                got = float(f["nonhalting_amplitude"])
                want = math.sqrt((op.p**2 + (1 - op.p) ** 2) ** op.n)
                if abs(got - want) > AMPLITUDE_TOL:
                    return f"nonhalting_amplitude {got} != {want:.9f}"
        except (ValueError, KeyError) as exc:
            return f"bad report: {exc}"
        return None


def make_checker(plan: Plan, digests: dict[str, str] | None):
    return ExtractChecker(plan, digests) if plan.kind == "extract" else OracleChecker(plan)
