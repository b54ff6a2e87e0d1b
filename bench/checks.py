"""Output checks for benchmark operations.

check(op, exit_code, text) returns None when the captured stdout of one
`evensets` call is correct, or a one-line reason when it is not.  An
operation that exits non-zero or prints a wrong result is a failed
operation.
"""

from __future__ import annotations

import hashlib
import json

# sha256 of the `evensets verify paper --json` stdout at the commit that
# introduced this benchmark; the sweep report must stay byte-identical.
SWEEP_SHA256 = "cee55818e6d7abd56bd63a0bd79d19736dd14622da833d8ffeffb7ad1c4e4595"

# Gap conclusions per proven (degree, parity): (minimal weight, excluded
# weights).  The six cells of evensets' certificates.GAP_TABLE are among them.
GAP_CONCLUSIONS = {
    (3, "strict"): (4, ()),
    (4, "strict"): (8, ()),
    (5, "strict"): (16, ()),
    (6, "strict"): (24, ()),
    (7, "strict"): (36, (40,)),
    (8, "strict"): (48, (56,)),
    (10, "strict"): (80, (88, 96, 104, 112)),
    (2, "weak"): (1, ()),
    (4, "weak"): (6, ()),
    (6, "weak"): (15, (19, 23)),
    (8, "weak"): (28, (32, 36, 40, 44, 48, 52, 56)),
}


def _payload(text: str, command: str, status: str) -> dict:
    report = json.loads(text)
    if report.get("command") != command:
        raise ValueError(f"command is {report.get('command')!r}, expected {command!r}")
    if report.get("status") != status:
        raise ValueError(f"status is {report.get('status')!r}, expected {status!r}")
    return report["payload"]


def _fields(payload: dict, expected: dict) -> str | None:
    for key, value in expected.items():
        if payload.get(key) != value:
            return f"{key} is {payload.get(key)!r}, expected {value!r}"
    return None


def _check_gaps(text: str, expect: dict) -> str | None:
    payload = _payload(text, "gaps", "pass")
    min_weight, excluded = GAP_CONCLUSIONS[(expect["degree"], expect["parity"])]
    return _fields(payload["conclusion"], {
        "degree": expect["degree"], "parity": expect["parity"],
        "min_weight": min_weight, "excluded_weights": list(excluded)})


def _check_sweep(text: str) -> str | None:
    if not _payload(text, "verify paper", "pass").get("pass"):
        return "sweep reports pass: false"
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != SWEEP_SHA256:
        return f"sweep report sha256 {digest} differs from the recorded one"
    return None


def check(op: dict, exit_code: int, text: str) -> str | None:
    """None if the operation's output is correct, else the reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    kind, expect = op["kind"], op["expect"]
    try:
        if kind == "analyze":
            return _fields(_payload(text, "code analyze", "info"), expect)
        if kind == "project":
            return _fields(_payload(text, "code project", "info"), expect)
        if kind == "gaps":
            return _check_gaps(text, expect)
        if kind == "sweep":
            return _check_sweep(text)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"malformed report: {exc}"
    raise ValueError(f"unknown operation kind {kind!r}")
