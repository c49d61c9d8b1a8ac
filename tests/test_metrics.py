"""Tests for the cost-ledger accounting primitives."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.metrics import UNITS, CostLedger, checked_runs, geometric_mean, merge_ledgers, units


class TestCostLedger:
    def test_charge_accumulates_cycles_and_energy(self):
        ledger = CostLedger()
        ledger.charge("a", cycles=10, energy_pj=5)
        ledger.charge("a", cycles=2, energy_pj=1)
        ledger.charge("b", cycles=3)
        assert ledger.cycles == 15
        assert ledger.energy_pj == 6
        assert ledger.cycle_breakdown == {"a": 12, "b": 3}

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().charge("a", cycles=-1)

    def test_merge_combines_breakdowns(self):
        a, b = CostLedger(), CostLedger()
        a.charge("x", cycles=1, energy_pj=2)
        b.charge("x", cycles=3, energy_pj=4)
        b.charge("y", cycles=5)
        a.merge(b)
        assert a.cycles == 9
        assert a.cycle_breakdown == {"x": 4, "y": 5}

    def test_snapshot_is_immutable_copy(self):
        ledger = CostLedger()
        ledger.charge("x", cycles=1)
        snap = ledger.snapshot()
        ledger.charge("x", cycles=1)
        assert snap.cycles == 1
        assert ledger.cycles == 2

    def test_prefix_aggregation(self):
        ledger = CostLedger()
        ledger.charge("dce.add", cycles=5, energy_pj=1)
        ledger.charge("dce.xor", cycles=3, energy_pj=1)
        ledger.charge("ace.mvm", cycles=7, energy_pj=2)
        cycles, energy = ledger.cycle_breakdown, ledger.energy_breakdown
        assert sum(v for k, v in cycles.items() if k.startswith("dce.")) == 8
        assert sum(v for k, v in energy.items() if k.startswith("ace.")) == 2


class TestMergeAndGeomean:
    def test_merge_ledgers(self):
        ledgers = []
        for i in range(3):
            ledger = CostLedger()
            ledger.charge("x", cycles=i + 1)
            ledgers.append(ledger)
        assert merge_ledgers(ledgers).cycles == 6

    def test_geometric_mean_simple(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)

    def test_geometric_mean_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=20))
    def test_geometric_mean_bounded_by_min_max(self, values):
        mean = geometric_mean(values)
        assert min(values) <= mean * (1 + 1e-9)
        assert mean <= max(values) * (1 + 1e-9)


@given(
    st.lists(
        st.tuples(st.floats(min_value=0, max_value=1e6), st.floats(min_value=0, max_value=1e6)),
        max_size=30,
    )
)
def test_ledger_totals_match_breakdown_sum(charges):
    """Property: total cycles/energy always equal the breakdown sums."""
    ledger = CostLedger()
    for index, (cycles, energy) in enumerate(charges):
        ledger.charge(f"cat{index % 3}", cycles=cycles, energy_pj=energy)
    assert ledger.cycles == pytest.approx(sum(ledger.cycle_breakdown.values()))
    assert ledger.energy_pj == pytest.approx(sum(ledger.energy_breakdown.values()))
    assert ledger.cycle_units == sum(ledger.cycle_parts.values())
    assert ledger.energy_units == sum(ledger.energy_parts.values())


_cost = st.one_of(
    st.floats(min_value=0, max_value=1e9, allow_nan=False),
    st.integers(min_value=0, max_value=10**9).map(float),  # whole cycles and pJ
)
_run = st.tuples(
    st.integers(min_value=0, max_value=2).map("cat{}".format),
    st.integers(min_value=0, max_value=300),
    _cost,
    _cost,
)


def _looped(runs, ledger=None):
    """The oracle: one ``charge`` per unit of every run."""
    ledger = CostLedger() if ledger is None else ledger
    for category, count, cycles, energy in runs:
        for _ in range(count):
            ledger.charge(category, cycles=cycles, energy_pj=energy)
    return ledger


def _assert_same_ledger(replayed, looped):
    assert replayed == looped
    for name in ("cycle_parts", "energy_parts"):
        assert list(getattr(replayed, name).items()) == list(getattr(looped, name).items())


@given(st.lists(_run, max_size=12), st.lists(_run, max_size=3))
def test_charge_run_equals_looped_charges_bit_for_bit(runs, earlier):
    """Property: a run list leaves the ledger ``==`` to one charge per unit.

    Totals, both breakdowns *and their key order*, compared with ``==``,
    zero cycles or zero energy included: each cost is put on the grid once,
    and ``count`` times that int is the sum of ``count`` charges of it.
    """
    replayed = _looped(earlier)
    replayed.charge_stream(checked_runs(runs))
    _assert_same_ledger(replayed, _looped(runs, _looped(earlier)))


def test_charge_run_is_a_multiplication():
    """A run is ``count`` times its cost on the grid, once: ten charges of
    0.1 pJ are 1 pJ, where adding 0.1 ten times in floats is not."""
    replayed = CostLedger()
    replayed.charge_stream(checked_runs([("x", 10, 0.0, 0.1)]))
    assert replayed.energy_units == 10 * units(0.1) == UNITS
    assert replayed.energy_pj == _looped([("x", 10, 0.0, 0.1)]).energy_pj == 1.0
    assert sum([0.1] * 10) != 1.0


@pytest.mark.parametrize("earlier, run", [
    # The total straddles 2**53 halfway through the run.
    ([("x", 1, 2.0 ** 53 - 10, 0.0)], ("x", 8, 3.0, 0.0)),
    # An integral total over a non-integral category part, and the reverse.
    ([("x", 1, 1 / 3, 0.0), ("y", 1, 2 / 3, 0.0)], ("x", 2, 3.0, 0.0)),
    ([("x", 1, 1 / 3, 0.0)], ("y", 2, 3.0, 0.0)),
    # A non-integral value.
    ([], ("x", 10, 0.1, 0.0)),
], ids=["straddles_2**53", "fractional_part", "fractional_total", "fractional_value"])
def test_charge_stream_is_exact_wherever_the_float_loop_rounds(earlier, run):
    """Where adding the float costs one by one rounds, the ledger does not:
    every total and part is the exact sum of the charges' grid values."""
    charges = earlier + [run]
    replayed = _looped(earlier)
    replayed.charge_stream(checked_runs([run]))
    _assert_same_ledger(replayed, _looped([run], _looped(earlier)))
    exact = sum(count * units(cycles) for _, count, cycles, _ in charges)
    assert replayed.cycle_units == exact and replayed.cycles == exact / UNITS
    for category, part in replayed.cycle_parts.items():
        assert part == sum(count * units(cycles)
                           for name, count, cycles, _ in charges if name == category)
    float_loop = 0.0
    for _, count, cycles, _ in charges:
        for _ in range(count):
            float_loop += cycles
    assert Fraction(float_loop) != sum(count * Fraction(cycles) for _, count, cycles, _ in charges)


def test_charge_stream_multiplies_an_integral_cycle_run_exactly():
    earlier, run = [("x", 1, 7.0, 0.5), ("y", 1, 2.0, 0.0)], ("x", 10 ** 6, 192.0, 0.0)
    replayed = _looped(earlier)
    replayed.charge_stream(checked_runs([run]))
    _assert_same_ledger(replayed, _looped([run], _looped(earlier)))
    assert replayed.cycle_breakdown == {"x": 7.0 + 192.0e6, "y": 2.0}


@pytest.mark.parametrize("kwargs", [{"cycles": -1.0}, {"energy_pj": -0.5}])
def test_charge_run_rejects_negatives_like_charge(kwargs):
    ledger = CostLedger()
    with pytest.raises(ValueError) as looped:
        ledger.charge("x", **kwargs)
    with pytest.raises(ValueError) as replayed:
        ledger.charge_stream(checked_runs(
            [("x", 3, kwargs.get("cycles", 0.0), kwargs.get("energy_pj", 0.0))]
        ))
    assert str(replayed.value) == str(looped.value)
    assert ledger.snapshot() == CostLedger().snapshot()


@pytest.mark.parametrize("kwargs", [{"cycles": float("nan")}, {"energy_pj": float("nan")},
                                    {"cycles": 1.0, "energy_pj": float("nan")}])
def test_nan_cost_is_refused_before_it_poisons_the_ledger(kwargs):
    """``nan < 0`` is false, so the guard has to ask for ``>= 0`` instead."""
    ledger = CostLedger()
    ledger.charge("x", cycles=3.0, energy_pj=0.5)
    before = ledger.snapshot()
    with pytest.raises(ValueError, match="non-negative"):
        ledger.charge("x", **kwargs)
    with pytest.raises(ValueError, match="non-negative"):
        checked_runs([("x", 3, kwargs.get("cycles", 0.0), kwargs.get("energy_pj", 0.0))])
    assert ledger.snapshot() == before


_INFINITE_CHARGES = {
    "charge_cycles": lambda ledger: ledger.charge("x", cycles=float("inf")),
    "charge_energy": lambda ledger: ledger.charge("x", cycles=1.0, energy_pj=float("inf")),
    "checked_runs_cycles": lambda ledger: checked_runs([("x", 3, float("inf"), 0.0)]),
    "checked_runs_energy": lambda ledger: checked_runs([("x", 3, 0.0, float("inf"))]),
}


@pytest.mark.parametrize("label", sorted(_INFINITE_CHARGES))
def test_infinite_cost_is_refused_like_nan(label):
    """An infinite cost has no place on the grid: refused as NaN is, before
    anything moves, not taken as a total of ``inf``."""
    ledger = CostLedger()
    ledger.charge("x", cycles=3.0, energy_pj=0.5)
    before = ledger.snapshot()
    with pytest.raises(ValueError, match="finite and non-negative"):
        _INFINITE_CHARGES[label](ledger)
    assert ledger.snapshot() == before


_charge = st.tuples(st.integers(min_value=0, max_value=2).map("cat{}".format), _cost, _cost)


def _values(ledger):
    return (ledger.cycles, ledger.energy_pj,
            sorted(ledger.cycle_breakdown.items()), sorted(ledger.energy_breakdown.items()))


@given(st.lists(_charge, max_size=24), st.randoms(use_true_random=False),
       st.integers(min_value=1, max_value=5))
def test_ledger_is_order_free(charges, random, pieces):
    """Property: any permutation of a charge list, and any partition of it
    into sub-ledgers merged in any order, leave equal totals and breakdown
    values."""
    in_order, shuffled = CostLedger(), CostLedger()
    for category, cycles, energy in charges:
        in_order.charge(category, cycles=cycles, energy_pj=energy)
    permuted = list(charges)
    random.shuffle(permuted)
    parts = [CostLedger() for _ in range(pieces)]
    for category, cycles, energy in permuted:
        shuffled.charge(category, cycles=cycles, energy_pj=energy)
        random.choice(parts).charge(category, cycles=cycles, energy_pj=energy)
    random.shuffle(parts)
    assert _values(shuffled) == _values(in_order)
    assert _values(merge_ledgers(parts)) == _values(in_order)
    nested = CostLedger()
    for part in parts:
        part.merge(nested)
        nested = part
    assert _values(nested) == _values(in_order)


class TestPercentileSorted:
    def test_matches_percentile_on_sorted_input(self):
        import random

        from repro.metrics import percentile, percentile_sorted

        rng = random.Random(7)
        values = [rng.uniform(-50, 50) for _ in range(257)]
        ordered = sorted(values)
        for q in (0, 12.5, 50, 95, 99, 100):
            assert percentile_sorted(ordered, q) == percentile(values, q)

    def test_validation_matches_percentile(self):
        import pytest

        from repro.metrics import percentile_sorted

        with pytest.raises(ValueError):
            percentile_sorted([], 50)
        with pytest.raises(ValueError):
            percentile_sorted([1.0], 101)
