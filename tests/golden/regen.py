"""Regenerate the frozen CLI outputs in this directory.

Run after a deliberate change to CLI output: ``python3 tests/golden/regen.py``.
Refuses to write when a case exits with an unexpected code, so a broken
build cannot silently become the new reference.  Each case's line ends in
``changed`` or ``unchanged``, from its files as they were before the write.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from cli_cases import CASES, run_case  # noqa: E402


def main() -> int:
    failures = 0
    for case in CASES:
        code, out, err = run_case(case.argv)
        if code != case.expected_exit:
            print(f"{case.name}: exit {code}, expected {case.expected_exit}; skipped")
            failures += 1
            continue
        old = [path.read_text() if path.exists() else None
               for path in (case.golden_out, case.golden_err)]
        state = "unchanged" if old == [out, err] else "changed"
        case.golden_out.write_text(out)
        case.golden_err.write_text(err)
        print(f"{case.name}: exit {code}, {len(out)}B stdout, {len(err)}B stderr, {state}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
