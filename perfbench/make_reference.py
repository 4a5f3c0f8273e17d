#!/usr/bin/env python3
"""Regenerate ``reference.json``: the program's answer to every operation.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

Every operation of every part is run once.  An operation that raises
aborts the script: a reference holds answers, not failures.
"""

from __future__ import annotations

import json
import platform
import sys

from run import HERE, REFERENCE, SRC, git_commit

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402  (needs SRC on the path)


def main() -> int:
    answers = {}
    for name, part in workloads.PARTS.items():
        part.reset()
        answers[name] = {
            op.key: json.loads(json.dumps(op.summarize(op.call())))
            for op in part.ops()
        }
        print(f"{name}: {len(answers[name])} answers", file=sys.stderr)
    taken_from = {"commit": git_commit(), "python": platform.python_version()}
    with open(REFERENCE, "w") as fh:
        json.dump({"taken_from": taken_from, "answers": answers}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE.relative_to(HERE.parent)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
