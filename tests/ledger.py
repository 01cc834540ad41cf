"""The verdict ledger: one row per check of every preset at seeds 0-2, with
the experiment, seed, check, both printed sides and the verdict.

    PYTHONPATH=src python tests/ledger.py

rewrites ``tests/ledger.csv`` from the current code; ``test_ledger.py``
recomputes the rows and compares them with the file.  A change that moves
a printed side rewrites the file, so its diff is the record of old -> new.
"""

import csv
import io
import pathlib

from difflab import preset_names, run_experiment

PATH = pathlib.Path(__file__).with_name("ledger.csv")
HEADER = ["experiment", "seed", "check", "lhs", "rhs", "pass"]
SEEDS = (0, 1, 2)


def rows() -> list[list]:
    """The ledger's rows, computed: sides as floats, verdicts as bools."""
    out = []
    for name in preset_names():
        for seed in SEEDS:
            report = run_experiment({"experiment": name, "seed": seed})
            out += [[name, seed, c.check, float(c.lhs), float(c.rhs),
                     bool(c.passed)] for c in report.checks]
    return out


def render(table: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    for name, seed, check, lhs, rhs, passed in table:
        writer.writerow([name, seed, check, repr(lhs), repr(rhs),
                         int(passed)])
    return buf.getvalue()


def read() -> list[list]:
    """The committed rows, parsed back to the types ``rows`` returns."""
    with PATH.open(newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == HEADER
        return [[name, int(seed), check, float(lhs), float(rhs),
                 passed == "1"]
                for name, seed, check, lhs, rhs, passed in reader]


if __name__ == "__main__":
    PATH.write_text(render(rows()))
