"""The frozen cost class of each of the paper's 30 statements.

Derived once from the seed program's plans over the benchmark's data:

* ``eligible`` -- the plan probes a value index (``index.probes`` > 0);
* ``join``     -- Q4 and Q13-Q16, the paper's join queries (Q16's
  semi-join probes an index too, but it is timed as a join);
* ``scan``     -- everything else: ineligible predicates (Sections
  3.1-3.10) that fall back to a collection scan.  Q28 and Q29 are
  answered by a static prune in the seed plan; they have no probe, so
  they stay here.

The table is frozen on purpose.  A change that makes a statement
eligible shows up as a faster ``scan`` class, never as a statement
quietly moving to ``eligible``.  The statement texts come from the
program (``repro.workload.paperqueries``) and are pinned by digest, so
an edited query text stops the benchmark instead of changing it.
"""

from __future__ import annotations

import hashlib
import json

CLASSES: dict[int, str] = {
    1: "eligible", 2: "scan", 3: "scan", 4: "join", 5: "scan",
    6: "eligible", 7: "eligible", 8: "eligible", 9: "scan",
    10: "eligible", 11: "eligible", 12: "scan", 13: "join", 14: "join",
    15: "join", 16: "join", 17: "eligible", 18: "scan", 19: "scan",
    20: "eligible", 21: "eligible", 22: "eligible", 23: "scan",
    24: "scan", 25: "scan", 26: "scan", 27: "scan", 28: "scan",
    29: "scan", 30: "eligible",
}

#: Statements whose canonical answer is an engine error the paper
#: predicts (Q25: XPDY0050, a leading '/' over a constructed node).
EXPECTED_ERRORS = frozenset({25})

#: sha256 of the 30 statement texts plus the paper's index DDL.
STATEMENTS_DIGEST = (
    "0febbfb8aa640a07463cb4b13721e4f93003af9aeb8175bb857958422af3b592")


def statements_digest(queries: dict, index_ddl: list[str]) -> str:
    blob = json.dumps([[number, *queries[number]]
                       for number in sorted(queries)] + [index_ddl])
    return hashlib.sha256(blob.encode()).hexdigest()
