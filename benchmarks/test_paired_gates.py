"""The paired gates at toy sizes, one pair each: the arms' equality
assertions run in tier-1.  No timing is asserted."""

import pytest

import paired_gates

TOY = [
    (paired_gates.vector_gate, {"n_fact": 60, "n_hub": 4}),
    (paired_gates.wcoj_gate, {"n_pairs": 4, "n_mid": 3}),
    (paired_gates.incremental_gate, {"n": 8, "deltas": 2}),
    (paired_gates.wal_gate, {"n": 8, "width": 2, "deltas": 2}),
    (paired_gates.governed_gate, {"n": 20}),
]


@pytest.mark.parametrize("gate,sizes", TOY, ids=[g.__name__ for g, _ in TOY])
def test_gate_arms_agree_at_toy_size(gate, sizes):
    assert gate.__name__.startswith(gate(pairs=1, **sizes).gate)


def test_diverging_arms_fail_before_timing():
    with pytest.raises(AssertionError, match="different results"):
        paired_gates.paired("toy", lambda: (0.0, 1), lambda: (0.0, 2), pairs=3)


def test_main_names_every_failed_gate(monkeypatch, capsys):
    verdicts = [("a", True), ("b", False), ("c", False)]
    monkeypatch.setattr(paired_gates, "GATES", [
        lambda v=v: paired_gates.Verdict(*v, "toy") for v in verdicts
    ])
    assert paired_gates.main() == 1
    assert "paired gates failed: b, c" in capsys.readouterr().out
