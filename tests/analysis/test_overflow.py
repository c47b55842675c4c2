"""MP401 k-mer shift-overflow checker: trip and pass fixtures."""

from repro.analysis.checkers.overflow import check_kmer_overflow


def rules(findings):
    return sorted(f.rule for f in findings)


class TestTrips:
    def test_unguarded_shift_by_k_trips(self, make_project):
        project = make_project(
            {
                "kmers/pack.py": """
                    import numpy as np

                    def mask(k):
                        return np.uint64(1 << (2 * k))
                """
            }
        )
        findings = check_kmer_overflow(project)
        assert rules(findings) == ["MP401"]
        assert "64-bit limb" in findings[0].message

    def test_unguarded_power_of_four_trips(self, make_project):
        project = make_project(
            {
                "sort/ranges.py": """
                    def n_bins(k):
                        return 4 ** k
                """
            }
        )
        assert rules(check_kmer_overflow(project)) == ["MP401"]

    def test_attribute_k_in_shift_amount_trips(self, make_project):
        project = make_project(
            {
                "index/plan.py": """
                    def span(cfg, x):
                        return x << (2 * cfg.k)
                """
            }
        )
        assert rules(check_kmer_overflow(project)) == ["MP401"]


class TestGuards:
    def test_check_in_range_guard_passes(self, make_project):
        project = make_project(
            {
                "kmers/pack.py": """
                    from repro.util.validation import check_in_range

                    def mask(k):
                        check_in_range("k", k, 1, 31)
                        return 1 << (2 * k)
                """
            }
        )
        assert check_kmer_overflow(project) == []

    def test_max_k_constant_guard_passes(self, make_project):
        project = make_project(
            {
                "kmers/pack.py": """
                    from repro.kmers.codec import MAX_K_ONE_LIMB
                    from repro.util.validation import check_in_range

                    def mask(k):
                        check_in_range("k", k, 1, MAX_K_ONE_LIMB)
                        return 1 << (2 * k)
                """
            }
        )
        assert check_kmer_overflow(project) == []

    def test_comparison_guard_passes(self, make_project):
        project = make_project(
            {
                "kmers/pack.py": """
                    def mask(k):
                        if k > 31:
                            raise ValueError("two-limb path required")
                        return 1 << (2 * k)
                """
            }
        )
        assert check_kmer_overflow(project) == []

    def test_limb_count_reference_passes(self, make_project):
        project = make_project(
            {
                "kmers/codec.py": """
                    class Codec:
                        def mask(self, k, x):
                            if limb_count(k) > 1:
                                return self._mask_limbs(x)
                            return x << (2 * k)
                """
            }
        )
        assert check_kmer_overflow(project) == []

    def test_unguarded_message_names_the_limb_count(self, make_project):
        project = make_project(
            {"kmers/pack.py": "def mask(x, k):\n    return x << (2 * k)\n"}
        )
        (finding,) = check_kmer_overflow(project)
        assert "limb_count(k)" in finding.message
        assert "two-limb" not in finding.message

    def test_class_level_guard_covers_methods(self, make_project):
        project = make_project(
            {
                "kmers/codec.py": """
                    class Codec:
                        def __init__(self, k):
                            if k > 31:
                                raise ValueError("one limb only")
                            self.k = k

                        def mask(self, x):
                            return x << (2 * self.k)
                """
            }
        )
        assert check_kmer_overflow(project) == []


class TestExemptions:
    def test_python_int_operand_exempt(self, make_project):
        project = make_project(
            {
                "assembly/unitigs.py": """
                    def decode(value: int, k1: int):
                        return value >> (2 * (k1 - 1))
                """
            }
        )
        assert check_kmer_overflow(project) == []

    def test_int_conversion_operand_exempt(self, make_project):
        project = make_project(
            {
                "assembly/unitigs.py": """
                    def decode(value, k1):
                        return int(value) >> (2 * (k1 - 1))
                """
            }
        )
        assert check_kmer_overflow(project) == []

    def test_module_outside_numeric_scope_ignored(self, make_project):
        project = make_project(
            {
                "service/store.py": """
                    def mask(k):
                        return 1 << (2 * k)
                """
            }
        )
        assert check_kmer_overflow(project) == []

    def test_shift_without_k_ignored(self, make_project):
        project = make_project(
            {
                "sort/radix.py": """
                    def digit(x, shift):
                        return (x >> shift) & 0xFF
                """
            }
        )
        assert check_kmer_overflow(project) == []
