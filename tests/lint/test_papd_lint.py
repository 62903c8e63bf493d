#!/usr/bin/env python3
"""Unit tests for tools/papd_lint.py (the tokenizer-backed rule engine).

Each test installs fixture files (tests/lint/fixtures/*.txt — stored with a
.txt suffix so the repo's own lint run never scans them) into a temporary
tree shaped like the repo, runs the engine against that root, and asserts
on the findings.  Registered as the `papd_lint_unittest` ctest target.

Run directly:  python3 -m unittest discover -s tests/lint -v
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import papd_lint  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def lint_tree(files: dict[str, str]) -> list[papd_lint.Finding]:
    """Installs {relpath: fixture name or literal text} into a temp tree and
    lints it.  Values ending in .txt name a fixture file; anything else is
    written verbatim."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, src in files.items():
            dest = root / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            text = (FIXTURES / src).read_text() if src.endswith(".txt") else src
            dest.write_text(text)
        findings, scanned = papd_lint.run(root)
        assert scanned == len(files), (scanned, len(files))
        return findings


def rules_hit(findings: list[papd_lint.Finding]) -> set[str]:
    return {f.rule for f in findings}


class TokenizerTest(unittest.TestCase):
    def test_comments_and_strings_are_not_code(self):
        toks = papd_lint.tokenize('int a; // std::mutex\nconst char* s = "x++";\n')
        code = [t.text for t in toks if t.kind not in ("comment", "string")]
        self.assertNotIn("mutex", code)
        self.assertNotIn("x++", "".join(code))
        self.assertIn("int", code)

    def test_line_numbers_survive_multiline_comments(self):
        toks = papd_lint.tokenize("/* line1\nline2\n*/\nint x;\n")
        ident = [t for t in toks if t.kind == "ident" and t.text == "int"][0]
        self.assertEqual(ident.line, 4)

    def test_compound_operators_are_single_tokens(self):
        texts = [t.text for t in papd_lint.tokenize("a == b; c += d; e <<= f;")]
        self.assertIn("==", texts)
        self.assertIn("+=", texts)
        self.assertIn("<<=", texts)
        self.assertNotIn("=", texts)


class UnitSuffixTest(unittest.TestCase):
    def test_flags_raw_double_with_unit_name(self):
        findings = lint_tree({"src/a.cc": "unit_suffix_bad.txt"})
        msgs = [f for f in findings if f.rule == "unit-suffix"]
        self.assertEqual(len(msgs), 2)  # limit_w and period_s; c_per_w exempt
        self.assertTrue(all(f.path == "src/a.cc" for f in msgs))

    def test_strong_types_pass(self):
        findings = lint_tree({"src/a.cc": "unit_suffix_good.txt"})
        self.assertNotIn("unit-suffix", rules_hit(findings))


class IncludeGuardTest(unittest.TestCase):
    def test_wrong_guard_flagged_with_expected_name(self):
        findings = lint_tree({"src/x/y.h": "guard_bad.txt"})
        msgs = [f for f in findings if f.rule == "include-guard"]
        self.assertEqual(len(msgs), 2)  # #ifndef and #define both wrong
        self.assertIn("SRC_X_Y_H_", msgs[0].message)

    def test_correct_guard_passes(self):
        text = "#ifndef SRC_X_Y_H_\n#define SRC_X_Y_H_\n#endif\n"
        findings = lint_tree({"src/x/y.h": text})
        self.assertNotIn("include-guard", rules_hit(findings))


class NakedDoubleTest(unittest.TestCase):
    def test_policy_header_with_double_param_flagged(self):
        findings = lint_tree({"src/policy/api.h": "naked_double_bad.txt"})
        self.assertIn("naked-double", rules_hit(findings))

    def test_same_file_outside_policy_ignored(self):
        # Guard name must match the new location to isolate the rule.
        text = (FIXTURES / "naked_double_bad.txt").read_text()
        text = text.replace("SRC_POLICY_API_H_", "SRC_CPUSIM_API_H_")
        findings = lint_tree({"src/cpusim/api.h": text})
        self.assertNotIn("naked-double", rules_hit(findings))


class HotPathTest(unittest.TestCase):
    def test_alloc_and_log_in_hot_function_flagged(self):
        findings = lint_tree({"src/a.cc": "hot_bad.txt"})
        self.assertIn("hot-alloc", rules_hit(findings))
        self.assertIn("hot-log", rules_hit(findings))

    def test_scratch_growth_and_hot_allow_pass(self):
        findings = lint_tree({"src/a.cc": "hot_good.txt"})
        self.assertNotIn("hot-alloc", rules_hit(findings))


class RawMutexTest(unittest.TestCase):
    def test_std_mutex_outside_common_flagged(self):
        findings = lint_tree({"src/policy/a.cc": "raw_mutex_bad.txt"})
        msgs = [f for f in findings if f.rule == "raw-mutex"]
        # std::mutex decl, lock_guard, and its <std::mutex> argument.
        self.assertGreaterEqual(len(msgs), 2)
        self.assertIn("papd::Mutex", msgs[0].message)

    def test_src_common_is_exempt(self):
        findings = lint_tree({"src/common/mutex_impl.cc": "raw_mutex_bad.txt"})
        self.assertNotIn("raw-mutex", rules_hit(findings))

    def test_suppression_comment_waives_the_line(self):
        findings = lint_tree({"src/policy/a.cc": "raw_mutex_suppressed.txt"})
        self.assertNotIn("raw-mutex", rules_hit(findings))


class RawAssertTest(unittest.TestCase):
    def test_assert_calls_under_src_flagged(self):
        findings = lint_tree({"src/policy/a.cc": "raw_assert_bad.txt"})
        lines = [f.line for f in findings if f.rule == "raw-assert"]
        # Both calls; not static_assert, the comment or the string.
        self.assertEqual(lines, [6, 7])

    def test_outside_src_is_exempt(self):
        findings = lint_tree({"tests/a_test.cc": "raw_assert_bad.txt"})
        self.assertNotIn("raw-assert", rules_hit(findings))

    def test_suppression_comment_waives_the_line(self):
        text = "void F(int x) { assert(x); }  // papd-lint: allow(raw-assert)\n"
        findings = lint_tree({"src/a.cc": text})
        self.assertNotIn("raw-assert", rules_hit(findings))


class TraceSideEffectTest(unittest.TestCase):
    def test_mutating_args_flagged(self):
        findings = lint_tree({"src/a.cc": "trace_side_effect_bad.txt"})
        msgs = [f for f in findings if f.rule == "trace-side-effect"]
        self.assertEqual(len(msgs), 2)  # x++ and y -= 1

    def test_pure_args_and_comment_mentions_pass(self):
        findings = lint_tree({"src/a.cc": "trace_side_effect_good.txt"})
        self.assertNotIn("trace-side-effect", rules_hit(findings))

    def test_macro_definition_lines_exempt(self):
        text = "#define PAPD_TRACE_EVENT(a) (tmp = (a))\n"
        findings = lint_tree({"src/obs/t.h": text})
        self.assertNotIn("trace-side-effect", rules_hit(findings))


class ValueUnwrapTest(unittest.TestCase):
    def test_unwrap_outside_whitelist_flagged(self):
        findings = lint_tree({"src/policy/a.cc": "value_unwrap_bad.txt"})
        self.assertIn("value-unwrap", rules_hit(findings))

    def test_msr_boundary_is_whitelisted(self):
        findings = lint_tree({"src/msr/a.cc": "value_unwrap_bad.txt"})
        self.assertNotIn("value-unwrap", rules_hit(findings))

    def test_tests_tree_not_scanned(self):
        findings = lint_tree({"tests/a.cc": "value_unwrap_bad.txt"})
        self.assertNotIn("value-unwrap", rules_hit(findings))

    def test_arrow_value_is_not_the_escape_hatch(self):
        text = "namespace papd {\nint F(C* c) { return c->value(); }\n}\n"
        findings = lint_tree({"src/policy/a.cc": text})
        self.assertNotIn("value-unwrap", rules_hit(findings))


class RegistryCompletenessTest(unittest.TestCase):
    def test_missing_enumerator_flagged(self):
        findings = lint_tree(
            {
                "src/policy/policy_registry.h": "registry_header.txt",
                "src/policy/policy_registry.cc": "registry_impl_incomplete.txt",
            }
        )
        msgs = [f for f in findings if f.rule == "registry-completeness"]
        self.assertEqual(len(msgs), 1)
        self.assertIn("kExperimental", msgs[0].message)

    def test_complete_registry_passes(self):
        impl = (FIXTURES / "registry_impl_incomplete.txt").read_text().replace(
            "    static_cast<int>(PolicyKind::kStatic),",
            "    static_cast<int>(PolicyKind::kStatic),\n"
            "    static_cast<int>(PolicyKind::kExperimental),",
        )
        findings = lint_tree(
            {
                "src/policy/policy_registry.h": "registry_header.txt",
                "src/policy/policy_registry.cc": impl,
            }
        )
        self.assertNotIn("registry-completeness", rules_hit(findings))

    def test_missing_cluster_fault_handler_flagged(self):
        # ClusterFaultKind has an enum base (`: uint8_t`); the enum regex
        # must still find it.
        findings = lint_tree(
            {
                "src/cluster/budget_tree.h": "cluster_fault_header.txt",
                "src/cluster/budget_tree.cc": "cluster_fault_impl_incomplete.txt",
            }
        )
        msgs = [f for f in findings if f.rule == "registry-completeness"]
        self.assertEqual(len(msgs), 1)
        self.assertIn("ClusterFaultKind::kExperimental", msgs[0].message)
        self.assertIn("kClusterFaultHandlers", msgs[0].message)

    def test_complete_fault_handler_table_passes(self):
        impl = (FIXTURES / "cluster_fault_impl_incomplete.txt").read_text().replace(
            '    {ClusterFaultKind::kBreakerTrip, "breaker-trip"},',
            '    {ClusterFaultKind::kBreakerTrip, "breaker-trip"},\n'
            '    {ClusterFaultKind::kExperimental, "experimental"},',
        )
        findings = lint_tree(
            {
                "src/cluster/budget_tree.h": "cluster_fault_header.txt",
                "src/cluster/budget_tree.cc": impl,
            }
        )
        self.assertNotIn("registry-completeness", rules_hit(findings))

    def test_specs_are_independent(self):
        # A tree with only the policy subsystem must not be flagged for the
        # missing cluster registry (and vice versa): the gate prefix skips
        # specs whose subsystem is absent.
        findings = lint_tree(
            {
                "src/policy/policy_registry.h": "registry_header.txt",
                "src/policy/policy_registry.cc": "registry_impl_incomplete.txt",
            }
        )
        msgs = [f for f in findings if f.rule == "registry-completeness"]
        self.assertEqual(len(msgs), 1)
        self.assertIn("PolicyKind::kExperimental", msgs[0].message)

    def test_moved_registry_fails_loudly(self):
        findings = lint_tree(
            {
                "src/cluster/budget_tree.h": "cluster_fault_header.txt",
                # Impl renamed out from under the spec.
                "src/cluster/faults.cc": "cluster_fault_impl_incomplete.txt",
            }
        )
        msgs = [f for f in findings if f.rule == "registry-completeness"]
        self.assertEqual(len(msgs), 1)
        self.assertIn("REGISTRY_SPECS", msgs[0].message)

    def test_real_repo_registry_is_complete(self):
        findings, _ = papd_lint.run(REPO_ROOT)
        self.assertEqual(
            [f.render() for f in findings if f.rule == "registry-completeness"], []
        )


class SimdGuardTest(unittest.TestCase):
    def test_intrinsics_outside_simd_dir_flagged(self):
        findings = lint_tree({"src/policy/fast.cc": "simd_outside_bad.txt"})
        msgs = [f for f in findings if f.rule == "simd-guard"]
        # One for the intrinsic identifier, one for the <immintrin.h> include.
        self.assertEqual(len(msgs), 2)
        self.assertTrue(all(f.path == "src/policy/fast.cc" for f in msgs))

    def test_intrinsics_inside_simd_dir_pass(self):
        findings = lint_tree(
            {"src/cpusim/simd/k_avx2.cc": "simd_outside_bad.txt"}
        )
        self.assertNotIn("simd-guard", rules_hit(findings))

    def test_avx2_kernel_without_scalar_twin_flagged(self):
        findings = lint_tree(
            {"src/cpusim/simd/kernels.cc": "simd_kernel_orphan.txt"}
        )
        msgs = [f for f in findings if f.rule == "simd-guard"]
        self.assertEqual(len(msgs), 1)
        self.assertIn("ClampAvx2", msgs[0].message)
        self.assertIn("ClampScalar", msgs[0].message)

    def test_kernel_of_any_return_type_needs_scalar_twin(self):
        src = (
            "namespace papd {\nnamespace simd {\n\n"
            "PriceResult PriceAvx2(const double* in, size_t n) { return {}; }\n"
            "PriceResult PriceScalar(const double* in, size_t n) { return {}; }\n"
            "Celsius SettleAvx2(const double* in, size_t n) { return in[n]; }\n"
            "void Caller(const double* in) {\n  SettleAvx2(in, 1);\n}\n\n"
            "}  // namespace simd\n}  // namespace papd\n"
        )
        findings = lint_tree({"src/cpusim/simd/kernels.cc": src})
        msgs = [f for f in findings if f.rule == "simd-guard"]
        self.assertEqual(len(msgs), 1)
        self.assertIn("SettleAvx2", msgs[0].message)
        self.assertIn("SettleScalar", msgs[0].message)

    def test_real_repo_kernels_all_have_scalar_twins(self):
        findings, _ = papd_lint.run(REPO_ROOT)
        self.assertEqual(
            [f.render() for f in findings if f.rule == "simd-guard"], []
        )


class DriverTest(unittest.TestCase):
    def test_repo_tree_is_lint_clean(self):
        findings, scanned = papd_lint.run(REPO_ROOT)
        self.assertGreater(scanned, 100)
        self.assertEqual([f.render() for f in findings], [])

    def test_json_report_shape(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "src").mkdir()
            (root / "src" / "a.cc").write_text(
                (FIXTURES / "unit_suffix_bad.txt").read_text()
            )
            out = root / "report.json"
            rc = papd_lint.main(["papd_lint.py", str(root), f"--json={out}"])
            self.assertEqual(rc, 1)
            report = json.loads(out.read_text())
            self.assertEqual(report["files_scanned"], 1)
            self.assertIn("unit-suffix", report["rules"])
            self.assertEqual(
                {f["rule"] for f in report["findings"]}, {"unit-suffix"}
            )
            for key in ("rule", "path", "line", "message"):
                self.assertIn(key, report["findings"][0])


if __name__ == "__main__":
    unittest.main()
