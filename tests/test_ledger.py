"""Every preset at seeds 0-2, the ``interp`` benchmark's geometry and a
forced ``oscdecay`` at a0 = 1/2, each at seeds 0-2, prints the sides and
verdicts the committed ledger holds: verdicts exactly, sides to a
relative 1e-9, which admits last-digit moves but no change of a check's
data.

A side that is itself at rounding level, such as ``transform_roundtrip``
(about 1e-16) or ``quad_mass_conservation`` (about 2.6e-16), is a sum of
rounding errors: any reordering of the arithmetic behind it moves it by
far more than 1e-9 of itself, so a refactor keeps that order rather than
a looser tolerance here."""

import math

import ledger


def test_ledger_matches_every_preset_at_seeds_0_to_2():
    committed = ledger.read()
    fresh = ledger.rows()
    assert len(committed) == 81
    assert [r[:3] for r in fresh] == [r[:3] for r in committed]
    for new, old in zip(fresh, committed):
        where = "/".join(map(str, old[:3]))
        assert new[5] == old[5], f"{where}: verdict {old[5]} -> {new[5]}"
        for side, a, b in zip(("lhs", "rhs"), new[3:5], old[3:5]):
            assert math.isclose(a, b, rel_tol=1e-9), \
                f"{where}: {side} {b!r} -> {a!r}"
