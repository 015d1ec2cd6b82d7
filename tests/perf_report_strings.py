#!/usr/bin/env python3
"""Check that perf_report --out keeps string fields as strings.

    perf_report_strings.py PERF_REPORT INPUT.json REPORT.json

Runs PERF_REPORT INPUT INPUT --out REPORT, loads REPORT with Python's
json module and checks that the input's numeric-looking label, the
digest that reads as a float, and the scenario name with an escaped
quote come back unchanged on both sides of the report.
"""

import json
import subprocess
import sys


def main():
    tool, data, out = sys.argv[1:4]
    subprocess.run([tool, data, data, "--out", out], check=True,
                   stdout=subprocess.DEVNULL)
    with open(data) as f:
        want = json.load(f)
    with open(out) as f:
        report = json.load(f)
    for side in ("baseline", "current"):
        run = report[side]
        sc = run["scenarios"][0]
        got = (run["label"], sc["name"], sc["digest"])
        expect = (want["label"], want["scenarios"][0]["name"],
                  want["scenarios"][0]["digest"])
        if got != expect:
            sys.exit(f"{side}: got {got!r}, want {expect!r}")
    if report["comparison"][0]["name"] != want["scenarios"][0]["name"]:
        sys.exit("comparison row lost its scenario name")


if __name__ == "__main__":
    main()
