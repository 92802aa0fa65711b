"""Record the SHA-256 of every extract output at the default seed.

    python3 bench/record_digests.py

Writes bench/digests.json.  The recorded digests pin the outputs of the
commit they were recorded on; a run at the default seed fails any op whose
output differs.  Re-record only when a change is meant to alter outputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from plan import DEFAULT_SEED, WORKLOADS, ExtractOp, Plan
from run import BENCH, WORK, Runner, import_cli


def main() -> int:
    cli = import_cli()
    WORK.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, params in WORKLOADS.items():
        if params["kind"] != "extract":
            continue
        plan = Plan(name, DEFAULT_SEED)
        digests[name] = {}
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            runner = Runner(plan, Path(tmp), cli)
            for inp in plan.inputs:
                for mode in params["modes"]:
                    rec = runner.run(ExtractOp(inp.input_id, mode))
                    if rec.rc != 0 or rec.error:
                        raise SystemExit(f"extract failed on {name} input {inp.input_id} {mode}")
                    digests[name][f"{inp.input_id}/{mode}"] = hashlib.sha256(rec.output).hexdigest()
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
