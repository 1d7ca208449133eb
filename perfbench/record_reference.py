"""Record the reference answers the benchmark checks against.

    python3 perfbench/record_reference.py

Run it from the root of a checkout of the commit whose answers are taken
as correct.  It writes ``reference/certify-all.json`` (the canonical
``verify all`` report, seed normalised, one digest per check) and
``reference/rep-queries.txt`` (one answer digest per item of the
rep-queries universe).  ideal-queries needs no reference: its oracle is
exact.
"""

from __future__ import annotations

import json
import sys

from run import SRC, fresh_import
from workloads import (REFERENCE_DIR, REP_UNIVERSE, ask_rep_item, certify, rep_answer_digest,
                       rep_item, rep_oracle_errors, report_reference)


def main() -> int:
    sys.path.insert(0, str(SRC))
    REFERENCE_DIR.mkdir(exist_ok=True)
    lib = fresh_import()
    digests = []
    for index in range(REP_UNIVERSE):
        item = rep_item(index)
        ans = ask_rep_item(lib, item)
        errors = rep_oracle_errors(lib, item, ans)
        if errors:
            print(f"item {index} {item.expr.text!r} fails its oracle: {errors}", file=sys.stderr)
            return 1
        digests.append(rep_answer_digest(ans))
    (REFERENCE_DIR / "rep-queries.txt").write_text("\n".join(digests) + "\n")

    ref = report_reference(certify(fresh_import(), seed=0))
    if ref["summary"]["fail"]:
        print(f"verify all reports failures: {ref['summary']}", file=sys.stderr)
        return 1
    (REFERENCE_DIR / "certify-all.json").write_text(json.dumps(ref, indent=1, sort_keys=True)
                                                    + "\n")
    print(f"recorded {len(digests)} rep-queries digests and {len(ref['checks'])} checks "
          f"({ref['summary']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
