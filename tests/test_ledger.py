"""Every preset at seeds 0-2 prints the sides and verdicts the committed
ledger holds: verdicts exactly, sides to a relative 1e-9, which admits
last-digit moves but no change of a check's data."""

import math

import ledger


def test_ledger_matches_every_preset_at_seeds_0_to_2():
    committed = ledger.read()
    fresh = ledger.rows()
    assert len(committed) == 69
    assert [r[:3] for r in fresh] == [r[:3] for r in committed]
    for new, old in zip(fresh, committed):
        where = "/".join(map(str, old[:3]))
        assert new[5] == old[5], f"{where}: verdict {old[5]} -> {new[5]}"
        for side, a, b in zip(("lhs", "rhs"), new[3:5], old[3:5]):
            assert math.isclose(a, b, rel_tol=1e-9), \
                f"{where}: {side} {b!r} -> {a!r}"
