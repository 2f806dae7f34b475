#!/usr/bin/env python3
"""Record the sha256 of the stdout of every command cli_session can issue.

    python3 perfbench/record_digests.py

Run from the root of a checkout on the commit whose output is the reference.
It writes perfbench/cli_digests.json.  The benchmark compares each command's
stdout bytes with these digests, because the CLI's output must stay
byte-identical.  An `invariants` command's output depends only on the class
of the file it reads, so its digest is keyed by format and class, recorded
here from one generated file per genus-2 class.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import workloads  # noqa: E402
from run import WORKDIR  # noqa: E402


def main():
    rng = random.Random(0)
    files = {}
    commands = gen.fixed_commands(WORKDIR)
    for k, (mu1, mu2) in enumerate(gen.all_classes(2)):
        path = f"{WORKDIR}/cli/record-{k}.json"
        files[path] = gen.rep_file_text(2, 6, gen.representation(rng, 2, 6, mu1, mu2))
        commands.extend(gen.invariants_command(path, fmt, mu1, mu2) for fmt in ("text", "json"))
    good = gen.representation(rng, 2, 6, (0, 1, 1, 0), gen.MU2_ZERO)
    files[f"{WORKDIR}/cli/not-orthogonal.json"] = gen.rep_file_text(2, 6, gen.not_orthogonal(good))
    files[f"{WORKDIR}/cli/relation-fails.json"] = gen.rep_file_text(2, 6, gen.relation_violating(rng, 2, 6))

    session = workloads.CliSession()
    workloads.DIGESTS.write_text("{}")  # setup reads it; every key is recorded below
    session.setup((files, commands), ROOT, WORKDIR)
    session.digests = None
    digests, bad = {}, []
    for cmd in commands:
        result = session.call(cmd)
        if not session.check(cmd, result):
            bad.append(cmd["argv"])
        digests[cmd["key"]] = workloads.digest(result.stdout)
    if bad:
        raise SystemExit(f"commands failed their closed-form checks, nothing recorded: {bad}")
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {workloads.DIGESTS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
