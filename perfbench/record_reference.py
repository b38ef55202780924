"""Record the outputs that ``reference.json`` holds, at benchmark seed 0.

Run from the repository root, only when the recorded behaviour is meant to
change:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json`` with
* ``golden``: the sha256 of ``cli.rounds_to_csv`` for each of the golden
  config's 50 replicates;
* ``coverage``: ``covered`` and ``aborted`` of each of the 64 coverage
  commands;
* ``certify``: for each kind, the exit status and report of ``verify`` and
  ``tails`` and the constants of ``make_instance``.
"""

from __future__ import annotations

import hashlib
import json

import run

run._import_package()
import workloads  # noqa: E402  (needs the package path set up by run)


def main() -> None:
    golden = workloads.Golden(0, {})
    golden.prepare()
    digests = [hashlib.sha256(golden.op(k)[1].encode()).hexdigest()
               for k in range(golden.cfg.replicates)]

    coverage = workloads.Coverage(0, {})
    coverage.prepare()
    covered = []
    for i in range(workloads.COVERAGE_POOL):
        rc, text = coverage.op(i)
        payload = json.loads(text)
        covered.append({"covered": payload["covered"], "aborted": payload["aborted"]})

    certify = workloads.Certify(0, {})
    certify.prepare()
    reports: dict = {}
    for spec in workloads.KINDS:
        for call in workloads.CERTIFY_CALLS:
            rc, out = certify.run_call(spec, call)
            reports.setdefault(spec["kind"], {})[call] = {
                "rc": rc, "report": out if call == "make_instance" else json.loads(out)}

    reference = {"golden": digests, "coverage": covered, "certify": reports}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
