"""Answer checker.  Runs on recorded outputs after the timer has stopped.

`check(case, outcome)` returns None when the outcome is right and a one-line
reason otherwise.  An outcome is the dict a worker records for one case:
exit code, stdout, stderr and, when the call raised or ran out of time, the
error text.  Every answer is compared with the case's expected values; an
Unknown (exit 2) is accepted only where the case declares it and only when
the output really leaves a coefficient unresolved.
"""

from __future__ import annotations

import json


def _compare(expect, out, exit_code):
    b, sigma = out["b"], out["sigma"]
    if b != expect["b"]:
        return f"b = {b}, expected {expect['b']}"
    if "sigma" in expect:
        if sigma != expect["sigma"]:
            return f"sigma = {sigma}, expected {expect['sigma']}"
        if out["mca"] != expect["mca"]:
            return f"mca = {out['mca']}, expected {expect['mca']}"
    if len(sigma) != len(b):
        return f"{len(sigma)} sigma coefficients for {len(b)} b coefficients"
    if sigma[0] != 1 or sigma[1] != b[1]:
        return f"sigma_0 = {sigma[0]}, sigma_1 = {sigma[1]}; expected 1 and b_1 = {b[1]}"
    for i, (bi, si) in enumerate(zip(b, sigma)):
        if si is not None and si > bi:
            return f"sigma_{i} = {si} exceeds b_{i} = {bi}"
    exact = all(s is not None for s in sigma)
    if exact != (exit_code == 0):
        return f"exit {exit_code} but sigma {'is' if exact else 'is not'} fully resolved"
    if out["chamber_bound"] != [sum(b), sum(sigma) if exact else None]:
        return f"chamber bound {out['chamber_bound']} disagrees with b and sigma"
    if out["mca"] != (sum(b) == sum(sigma) if exact else None):
        return f"mca = {out['mca']} disagrees with the chamber bound"
    return None


def _exponents(expect, out):
    if out["status"] != expect["status"]:
        return f"status {out['status']}, expected {expect['status']}"
    if out["exponents"] != expect["exponents"]:
        return f"exponents {out['exponents']}, expected {expect['exponents']}"
    return None


def _freeness(expect, out):
    want = "Free" if expect["free"] else "NotFree"
    merged = out["merged"]
    if merged["status"] != want:
        return f"merged status {merged['status']}, expected {want}"
    for method, verdict in out["methods"].items():
        if verdict["status"] not in (want, "Unknown"):
            return f"{method} says {verdict['status']}, expected {want}"
    if expect["free"] and merged["exponents"] != expect["exponents"]:
        return f"exponents {merged['exponents']}, expected {expect['exponents']}"
    return None


def _invariant(expect, out, key, field):
    if out[field] != expect[key]:
        return f"{field} = {out[field]}, expected {expect[key]}"
    if "verified_by" in expect:
        if out["mismatches"]:
            return f"oracle mismatches: {out['mismatches']}"
        for oracle in expect["verified_by"]:
            if oracle not in out["verified_by"]:
                return f"not verified by the {oracle}"
    return None


def check(case, outcome):
    if outcome.get("error"):
        return outcome["error"].strip().splitlines()[-1]
    code = outcome["exit"]
    if code not in case["exits"]:
        return f"exit {code}, expected one of {case['exits']}: {outcome['stderr'].strip()[-200:]}"
    try:
        out = json.loads(outcome["stdout"])
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    expect = case["expect"]
    cmd = case["argv"][0]
    try:
        if cmd == "compare":
            return _compare(expect, out, code)
        if cmd == "exponents":
            return _exponents(expect, out)
        if cmd == "freeness":
            return _freeness(expect, out)
        if cmd == "charpoly":
            return _invariant(expect, out, "chi", "coefficients")
        if cmd == "chambers":
            return _invariant(expect, out, "chambers", "chambers")
    except (KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return f"no checker for subcommand {cmd}"
