"""Tests of the benchmark's own logic.

    python3 -m pytest bench/test_bench.py -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from known_answers import EXISTS, KNOWN_ANSWERS, MISSES, dimension_bound, known_answer
from stats import count_errors, module_self_times, outermost, self_times, tail_percentile


class TestTailPercentile:
    def test_ten_samples_beyond(self):
        samples = [float(i) for i in range(100, 0, -1)]
        value, pct, n = tail_percentile(samples)
        assert n == 100
        assert sum(1 for s in samples if s > value) == 10
        assert value == 90.0 and pct == pytest.approx(90.0)

    def test_smallest_sample_count(self):
        value, pct, n = tail_percentile([5.0] + [10.0] * 10)
        assert (value, n) == (5.0, 11)
        assert pct == pytest.approx(100 / 11)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            tail_percentile([1.0] * 10)

    def test_pooled_passes_keep_the_percentile(self):
        one_pass = [float(i) for i in range(1, 57)]
        value, pct, _ = tail_percentile(one_pass)
        pooled_value, pooled_pct, n = tail_percentile(one_pass + one_pass, beyond=2 * 10)
        assert n == 112 and pooled_value == value == 46.0
        assert pooled_pct == pytest.approx(pct)

    def test_ties_keep_the_rank(self):
        value, _, _ = tail_percentile([1.0] * 30 + [2.0] * 10)
        assert value == 1.0


class TestSelfTime:
    # (name, task, parent, start, end, failed)
    SPANS = [
        ("cli.main", 0, -1, 0.0, 10.0, False),
        ("oqr.certify", 0, 0, 1.0, 7.0, False),
        ("metrology.qfi_quadratic_form", 0, 1, 2.0, 3.0, False),
        ("metrology.averaged_inverse_qfi", 0, 1, 3.0, 6.5, True),
        ("io.load_state", 0, 0, 0.5, 1.0, False),
    ]

    def test_duration_minus_children(self):
        assert self_times(self.SPANS) == pytest.approx([10.0 - 6.0 - 0.5, 6.0 - 4.5, 1.0, 3.5, 0.5])

    def test_overlapping_children_count_once(self):
        spans = [("a.x", 0, -1, 0.0, 4.0), ("b.y", 0, 0, 1.0, 3.0), ("b.z", 0, 0, 2.0, 3.5)]
        assert self_times(spans)[0] == pytest.approx(4.0 - 2.5)

    def test_children_clipped_to_parent(self):
        spans = [("a.x", 0, -1, 1.0, 2.0), ("b.y", 0, 0, 0.5, 1.5)]
        assert self_times(spans)[0] == pytest.approx(0.5)

    def test_module_self_times_add_up_to_root_durations(self):
        per_module = module_self_times(self.SPANS)
        assert per_module == pytest.approx({"cli": 3.5, "oqr": 1.5, "metrology": 4.5, "io": 0.5})
        assert sum(per_module.values()) == pytest.approx(10.0)

    def test_outermost_skips_same_name_nesting(self):
        spans = [("a.x", 0, -1, 0.0, 4.0), ("b.y", 0, 0, 1.0, 3.0), ("a.x", 0, 1, 1.5, 2.0)]
        assert outermost(spans) == [True, True, False]


class TestErrorCounting:
    def test_failures_against_attempts(self):
        outcomes = [
            {"ok": True},
            {"ok": False, "known_defect": True},
            {"ok": False, "known_defect": False},
            {"ok": True},
        ]
        counts = count_errors(outcomes)
        assert (counts["attempted"], counts["failed"], counts["unexpected"]) == (4, 2, 1)
        assert counts["error_rate"] == pytest.approx(0.5)

    def test_no_failures(self):
        counts = count_errors([{"ok": True}] * 3)
        assert counts["failed"] == 0 and counts["error_rate"] == 0.0


class TestKnownAnswers:
    def test_every_row_cites_a_source(self):
        for row in KNOWN_ANSWERS:
            assert row.source.strip(), row
            assert any(word in row.source for word in ("catalog", "family_dimension", "tests/", "bound")), row

    def test_no_cell_both_exists_and_misses(self):
        for hit in EXISTS:
            for miss in MISSES:
                same = hit.two_j == miss.two_j
                assert not (same and miss.k <= hit.k and miss.t <= hit.t), (hit, miss)

    def test_every_settled_scan_cell_names_its_row(self):
        for two_j in range(2, 11):
            for t in (1, 2):
                for k in range(1, dimension_bound(two_j, t) + 2):
                    row = known_answer(two_j, k, t)
                    if row is not None:
                        assert row.source.strip()

    def test_bound_rejects_larger_k(self):
        row = known_answer(4, 3, 1)
        assert row is not None and not row.exists and "bound" in row.source

    def test_cited_catalog_and_family_rows_hold(self):
        from rotosense.spin_core import SpinLabel
        from rotosense.subspaces import catalog, one_ac_family_dimension, verify_subspace

        entries = catalog()
        for row in EXISTS:
            if row.source.startswith("catalog"):
                name = row.source.split()[2].rstrip(";")
                entry = entries[name]
                assert entry.frame.spin.two_j == row.two_j and entry.frame.k >= row.k
                assert entry.order_t >= row.t and verify_subspace(entry.frame, entry.order_t).verified
            if "one_ac_family_dimension" in row.source:
                assert one_ac_family_dimension(SpinLabel(row.two_j)) >= row.k and row.t == 1
