"""The parity ledger: the conftest bodies keep the values in ``tests/data/ledger.json``."""

import copy

import pytest

import ledger


@pytest.fixture(scope="module")
def current(
    hinge_profile,
    hinge_schedule,
    assembled,
    support_first,
    second_profile,
    second_schedule,
    assembled_second,
    support_second,
):
    return ledger.entries(
        {
            "first": (hinge_profile.f, hinge_schedule, assembled, support_first),
            "second": (second_profile.f, second_schedule, assembled_second, support_second),
        }
    )


def test_ledger_entries_keep_their_values(current):
    stored, stored_hashes = ledger.load()
    entries, hashes = current
    moved, missing, added = ledger.compare(entries, stored)
    beyond = [f"{name}: {old!r} -> {new!r}" for name, old, new, out in moved if out]
    assert not beyond, "ledger entries moved: " + "; ".join(beyond)
    assert not missing and not added
    assert set(hashes) == set(stored_hashes)


def _find(stored, suffix):
    return next(name for name in stored if name.endswith(suffix))


def test_a_certificate_moved_by_1e_9_relative_is_caught():
    stored, _ = ledger.load()
    name = _find(stored, ".cert.window_weight_upper.measured")
    moved = copy.deepcopy(stored)
    moved[name]["value"] *= 1.0 + 1e-9
    (hit,) = ledger.compare(moved, stored)[0]
    assert hit[0] == name and hit[3]


def test_a_flipped_verdict_and_a_count_change_are_caught():
    stored, _ = ledger.load()
    verdict = _find(stored, ".cert.slope_bound.passed")
    count = _find(stored, ".zero_set.Z_components")
    moved = copy.deepcopy(stored)
    moved[verdict]["value"] = not moved[verdict]["value"]
    moved[count]["value"] += 1
    hits = ledger.compare(moved, stored)[0]
    assert sorted(h[0] for h in hits) == sorted([verdict, count])
    assert all(h[3] for h in hits)


def test_a_move_at_rounding_level_stays_within_tolerance():
    stored, _ = ledger.load()
    name = _find(stored, ".level1.b_eps")
    moved = copy.deepcopy(stored)
    moved[name]["value"] *= 1.0 + 4e-16
    (hit,) = ledger.compare(moved, stored)[0]
    assert hit[0] == name and not hit[3]


def test_diff_summarizes_moves_by_family():
    moved = [
        ("first.level1.gamma", 1.0, 1.0 + 1e-12, False),
        ("second.level3.gamma", 2.0, 2.0 + 8e-12, False),
        ("first.support.dh.sum", 1e-5, 1.1e-5, True),
    ]
    assert ledger.family("second.level3.cert.slope_bound.measured") == "cert.slope_bound.measured"
    fams = ledger.families(moved)
    assert set(fams) == {"gamma", "support.dh.sum"}
    assert fams["gamma"][0] == 2 and fams["gamma"][1] == pytest.approx(4e-12 / (1 + 4e-12))
    assert fams["support.dh.sum"] == (1, pytest.approx(1 / 11))
