"""The verdict ledger: one row per check of every preset at seeds 0-2, with
the experiment, seed, check, both printed sides and the verdict, then the
two checks of the ``interp`` benchmark's geometry and of a forced
``oscdecay`` at a0 = 1/2, at q = inf and at q = 4, and the six checks of
``general`` running the quadratic quartet, each at seeds 0-2.

    PYTHONPATH=src python tests/ledger.py

rewrites ``tests/ledger.csv`` from the current code; ``test_ledger.py``
recomputes the rows and compares them with the file.  A change that moves
a printed side rewrites the file, so its diff is the record of old -> new.
"""

import csv
import io
import pathlib

import numpy as np

from difflab import (GridSpec, cut_ball_check, full_mask,
                     interpolation_check, preset_names,
                     random_admissible_pair, run_experiment)

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
    return (out + bench_interp_rows() + oscdecay_time_unit_rows()
            + general_quad4_rows())


def bench_interp_rows() -> list[list]:
    """The ``interp`` benchmark's 32^3 box, domain (0.15, 0.85)^3, p = 2,
    q = 2 (3 - alpha)/(2 - alpha), alpha = 0.3 and r0 = 0.15:
    interpolation_check at C = 1, whose rhs pins the core and lhs/rhs the
    fitted constant, and cut_ball_check at R = 0.3 around the center."""
    mask = full_mask(GridSpec.make((1.0, 1.0, 1.0), 32))
    coords = mask.node_coords()
    domain = np.all((coords > 0.15) & (coords < 0.85), axis=1)
    alpha = 0.3
    q = 2.0 * (3.0 - alpha) / (2.0 - alpha)
    out = []
    for seed in SEEDS:
        u, w = random_admissible_pair(mask, domain,
                                      np.random.default_rng(seed))
        checks = [
            interpolation_check(u, w, p=2.0, q=q, alpha=alpha, r0=0.15,
                                domain=domain, C=1.0),
            cut_ball_check(u, w, (0.5, 0.5, 0.5), 0.3, p=2.0, q=q,
                           alpha=alpha, domain=domain)]
        out += [["bench_interp", seed, c.check, float(c.lhs), float(c.rhs),
                 bool(c.passed)] for c in checks]
    return out


def oscdecay_time_unit_rows() -> list[list]:
    """``oscdecay`` under its random forcing at ``estimate.a0`` = 1/2: the
    rows that read the time unit a0, at the preset's q = inf and at q = 4,
    where the kernel prefactor each check fits depends on its span."""
    out = []
    for name, estimate in (("oscdecay_forced_a0_half", {"a0": 0.5}),
                           ("oscdecay_forced_a0_half_q4",
                            {"a0": 0.5, "q": 4})):
        for seed in SEEDS:
            report = run_experiment({"experiment": "oscdecay", "seed": seed,
                                     "estimate": estimate,
                                     "system": {"forcing": "random"}})
            out += [[name, seed, c.check, float(c.lhs), float(c.rhs),
                     bool(c.passed)] for c in report.checks]
    return out


def general_quad4_rows() -> list[list]:
    """``general`` running the quadratic quartet (``system.name`` quad4)
    on 32^2 to t = 0.5 with 33 frames."""
    out = []
    for seed in SEEDS:
        report = run_experiment({"experiment": "general", "seed": seed,
                                 "grid": {"n": 32},
                                 "time": {"t_end": 0.5, "n_frames": 33},
                                 "system": {"name": "quad4"}})
        out += [["general_quad4", seed, c.check, float(c.lhs), float(c.rhs),
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
