"""Verification sweep tests: determinism, coverage, pass/fail wiring."""

import numpy as np
import pytest

from fiberalg import algebra
from fiberalg.verify import run_verification


def names(report):
    return [p.name for p in report.properties]


class TestCoverage:
    def test_fiber_suite(self):
        report = run_verification("++", 500, 7, 1e-10)
        assert report.passed
        assert names(report) == [
            "product_laws",
            "projector_algebra",
            "embed_homomorphism",
            "sector_completeness",
            "norm_identities",
            "max_speed",
            "cross_square_identities",
            "min_action_equivalence",
            "min_action_rate",
            "boost_invariance",
            "oracle_equivalence",
            "lift_round_trip",
        ]

    def test_tangent_suite(self):
        report = run_verification("+", 500, 7, 1e-10)
        assert report.passed
        assert "boost_invariance" in names(report)
        assert "oracle_equivalence" in names(report)
        assert "min_action_equivalence" not in names(report)

    def test_euclidean_plane_suite(self):
        report = run_verification("-", 500, 7, 1e-10)
        assert report.passed
        assert "rotation_invariance" in names(report)

    def test_euclidean_fiber_suite(self):
        report = run_verification("-+", 500, 7, 1e-10)
        assert report.passed
        assert "rotation_invariance" in names(report)
        assert "oracle_equivalence" in names(report)

    def test_generic_signature_runs_base_properties(self):
        report = run_verification("+++", 200, 7, 1e-10)
        assert report.passed
        assert names(report) == ["product_laws", "projector_algebra", "embed_homomorphism"]


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_verification("++", 300, 123, 1e-10)
        b = run_verification("++", 300, 123, 1e-10)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_changes_residuals(self):
        a = run_verification("++", 300, 1, 1e-10)
        b = run_verification("++", 300, 2, 1e-10)
        residuals_a = [p.max_rel_residual for p in a.properties]
        residuals_b = [p.max_rel_residual for p in b.properties]
        assert residuals_a != residuals_b


class TestFailureWiring:
    def test_unachievable_tolerance_fails(self):
        report = run_verification("++", 200, 7, 1e-30)
        assert not report.passed
        failing = [p.name for p in report.properties if not p.passed]
        assert failing

    def test_bad_samples_rejected(self):
        with pytest.raises(ValueError, match="samples must be"):
            run_verification("++", 0, 7, 1e-10)

    def test_too_many_generators_rejected_before_tables(self):
        cached = algebra._product_tables.cache_info().currsize
        with pytest.raises(ValueError, match="at most 6 generators, got 7"):
            run_verification("+++++++", 10, 0, 1e-10)
        assert algebra._product_tables.cache_info().currsize == cached


class TestReportShape:
    def test_dict_layout(self):
        payload = run_verification("+", 100, 3, 1e-10).to_dict()
        assert payload["config"] == {
            "signature": "+",
            "samples": 100,
            "seed": 3,
            "tol": 1e-10,
        }
        assert isinstance(payload["pass"], bool)
        for record in payload["properties"]:
            assert set(record) == {
                "name",
                "samples",
                "max_abs_residual",
                "max_rel_residual",
                "tolerance",
                "pass",
            }

    def test_residuals_are_finite_floats(self):
        report = run_verification("++", 200, 5, 1e-10)
        for p in report.properties:
            assert np.isfinite(p.max_abs_residual)
            assert np.isfinite(p.max_rel_residual)
