"""Every preset at seeds 0-2, the ``interp`` benchmark's geometry, a
forced ``oscdecay`` at a0 = 1/2 (at q = inf and at q = 4) and ``general``
running the quadratic quartet, each at seeds 0-2, prints the sides and
verdicts the committed ledger holds: verdicts exactly, sides to a relative
1e-9, which admits last-digit moves but no change of a check's data.

A side that is itself at rounding level, such as ``transform_roundtrip``
(about 1e-16) or ``quad_mass_conservation`` (about 2.6e-16), is a sum of
rounding errors: any reordering of the arithmetic behind it moves it by
far more than 1e-9 of itself, so a refactor keeps that order rather than
a looser tolerance here."""

import collections
import inspect
import math

import difflab.rough as rough
import ledger

# constant functions ``rough`` defines (every ``*_constant``) that no ledger
# row applies, each with its reason
UNPINNED = {
    "k2_constant": "not wired in yet: initial_oscillation_check, its only "
                   "caller, is in no preset",
    "k3_constant": "as k2_constant",
}


def _spy_on_the_constants(monkeypatch) -> collections.Counter:
    """Count the calls of each constant function ``rough`` defines; each
    wrapper returns what the function returns."""
    calls = collections.Counter()
    for name, func in vars(rough).items():
        if (name.endswith("_constant") and inspect.isfunction(func)
                and func.__module__ == rough.__name__):
            def spy(*args, func=func, name=name):
                calls[name] += 1
                return func(*args)
            calls[name] = 0
            monkeypatch.setattr(rough, name, spy)
    return calls


def test_ledger_matches_every_preset_at_seeds_0_to_2(monkeypatch):
    committed = ledger.read()
    calls = _spy_on_the_constants(monkeypatch)
    fresh = ledger.rows()
    # a wrong constant that moves no ledger side is invisible here, so each
    # one is applied while the rows are built, or says why not; an entry
    # that gains a caller, or names no constant, leaves the list
    assert {"forcing_constant", "k2_constant", "k3_constant"} <= set(calls)
    assert {name for name, n in calls.items() if n == 0} == set(UNPINNED)
    assert all(reason.strip() for reason in UNPINNED.values())
    assert len(committed) == 96
    assert [r[:3] for r in fresh] == [r[:3] for r in committed]
    for new, old in zip(fresh, committed):
        where = "/".join(map(str, old[:3]))
        assert new[5] == old[5], f"{where}: verdict {old[5]} -> {new[5]}"
        for side, a, b in zip(("lhs", "rhs"), new[3:5], old[3:5]):
            assert math.isclose(a, b, rel_tol=1e-9), \
                f"{where}: {side} {b!r} -> {a!r}"
