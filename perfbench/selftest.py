#!/usr/bin/env python3
"""Show that the benchmark's checks catch wrong answers.

    python3 perfbench/selftest.py

Runs one real round of three workloads, then corrupts every output in one
way at a time and requires that every op is counted as failed.  The
uncorrupted outputs must pass.  Takes about half a minute.
"""

from __future__ import annotations

import dataclasses
import sys

from run import SRC, execute, judge

sys.path.insert(0, str(SRC))
import double_oracle as do  # noqa: E402


def same(out):
    return out


def shift_value(answer):
    """A best-response value 1e-4 above what the allocation earns."""
    return dataclasses.replace(answer, value=answer.value + 1e-4)


def off_simplex(answer):
    """An allocation that spends 1% more than the budget."""
    return dataclasses.replace(answer, point=do.point(*(1.01 * v for v in answer.point.coords)))


def unbracketed(result):
    """A last iteration whose bounds both sit above the value they bound."""
    last = result.trace[-1]
    moved = dataclasses.replace(last, lower=last.subgame_value + 0.5, upper=last.subgame_value + 0.6)
    return dataclasses.replace(result, trace=result.trace[:-1] + [moved])


CASES = {
    "blotto-milp": (shift_value, off_simplex),
    "do-1d": (unbracketed,),
    "fp-1d": (unbracketed,),
}


def main():
    broken = []
    for workload, tampers in CASES.items():
        ops, outputs, _ = execute(workload, 0, None)
        for tamper in (same,) + tampers:
            _, attempted, failed, _ = judge(workload, ops, [tamper(out) for out in outputs])
            want = 0 if tamper is same else attempted
            verdict = "ok" if failed == want else "WRONG"
            print(f"{verdict}: {workload} {tamper.__name__}: {failed} of {attempted} failed, want {want}")
            if failed != want:
                broken.append((workload, tamper.__name__))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
