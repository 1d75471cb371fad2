"""Correctness gate: does one program call's outcome match its expectation?"""

from __future__ import annotations

import json
import math

from workloads import Call


def problems(call: Call, exit_code: int, stdout: str) -> list[str]:
    """Every way the call's exit code and stdout miss what `call` expects.

    An empty list means the call passed.  Checked: the exit code; the refusal
    kind; `"schema": 1`; one record per `--points`; `assert.passed` where
    `--assert-expected` was given; and the residual bound on `--spec`
    residual calls.
    """
    found = []
    if exit_code != call.exit:
        found.append(f"exit code {exit_code}, expected {call.exit}")
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return found + [f"stdout is not one JSON document: {exc}"]
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        return found + ["stdout lacks \"schema\": 1"]
    if doc.get("command") != call.command:
        found.append(f"command {doc.get('command')!r}, expected "
                     f"{call.command!r}")

    if call.refusal is not None:
        kind = (doc.get("refusal") or {}).get("kind")
        if kind != call.refusal:
            found.append(f"refusal kind {kind!r}, expected {call.refusal!r}")
        return found

    if "refusal" in doc or "error" in doc:
        found.append("unexpected refusal or error document")
        return found
    records = doc.get("records")
    if not isinstance(records, list) or len(records) != call.points:
        n = len(records) if isinstance(records, list) else None
        found.append(f"{n} records, expected {call.points}")
    if call.asserted and (doc.get("assert") or {}).get("passed") is not True:
        found.append("assert.passed is not true")
    if call.residual_bound is not None:
        worst = (doc.get("aggregate") or {}).get("max_overall")
        if not isinstance(worst, (int, float)) or math.isnan(worst) \
                or worst > call.residual_bound:
            found.append(f"aggregate.max_overall {worst!r} above "
                         f"{call.residual_bound:g}")
    return found
