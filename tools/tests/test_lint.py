#!/usr/bin/env python3
"""Unit tests for tools/lint.py (stdlib unittest only; wired into ctest).

The fixture corpus under fixtures/lint/ is linted at *virtual* paths —
lint.py's rules are path-scoped (src/util/ may alias, src/obs/ may read
clocks), so the same bytes must flag or pass depending on where they
nominally live. The corpus directory itself sits in lint.py's
EXCLUDED_PREFIXES so the repo-wide sweep never trips over it.
"""

import importlib.util
import os
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"

spec = importlib.util.spec_from_file_location("lint", TOOLS_DIR / "lint.py")
lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(lint)


def rules_of(findings):
    return [rule for _lineno, rule, _msg in findings]


def lint_text(virtual_path, text, fallback=True):
    return lint.lint_file(Path(virtual_path), text=text, fallback=fallback)


class FallbackWireRules(unittest.TestCase):
    def setUp(self):
        self.violations = (FIXTURES / "wire_violations.cpp").read_text()
        self.clean = (FIXTURES / "wire_clean.cpp").read_text()

    def test_all_four_rules_fire_in_src(self):
        rules = rules_of(lint_text("src/graphene/wire_violations.cpp", self.violations))
        self.assertIn("unbounded-wire-length", rules)
        self.assertIn("unchecked-resize-from-reader", rules)
        self.assertIn("raw-reinterpret-cast", rules)
        self.assertIn("raw-chrono-clock", rules)

    def test_clean_fixture_has_no_findings_anywhere(self):
        for virtual in ("src/graphene/x.cpp", "src/util/x.cpp", "tests/x.cpp"):
            self.assertEqual(lint_text(virtual, self.clean), [])

    def test_src_util_may_alias_and_read_varint(self):
        rules = rules_of(lint_text("src/util/wire_violations.cpp", self.violations))
        self.assertNotIn("raw-reinterpret-cast", rules)
        self.assertNotIn("unbounded-wire-length", rules)
        # The resize-from-reader and clock rules still apply in util.
        self.assertIn("unchecked-resize-from-reader", rules)
        self.assertIn("raw-chrono-clock", rules)

    def test_src_obs_may_read_clocks(self):
        rules = rules_of(lint_text("src/obs/wire_violations.cpp", self.violations))
        self.assertNotIn("raw-chrono-clock", rules)

    def test_outside_src_only_cast_and_clock_rules_apply(self):
        rules = rules_of(lint_text("bench/wire_violations.cpp", self.violations))
        self.assertNotIn("unbounded-wire-length", rules)
        self.assertNotIn("unchecked-resize-from-reader", rules)
        self.assertIn("raw-reinterpret-cast", rules)
        self.assertIn("raw-chrono-clock", rules)

    def test_fallback_tier_retires_when_ast_checks_own_the_rules(self):
        findings = lint_text("src/graphene/wire_violations.cpp", self.violations,
                             fallback=False)
        self.assertEqual(findings, [])  # fixture has no NOLINTs

    def test_block_comments_do_not_flag(self):
        text = "/*\n reinterpret_cast<const char*>(p);\n*/\nint x;\n"
        self.assertEqual(lint_text("src/graphene/x.cpp", text), [])


class NolintHygiene(unittest.TestCase):
    def findings(self, text):
        return lint_text("src/graphene/x.cpp", text)

    def test_bare_nolint_flagged(self):
        (lineno, rule, msg), = self.findings("int x; // NOLINT\n")
        self.assertEqual((lineno, rule), (1, "nolint-hygiene"))
        self.assertIn("bare NOLINT", msg)

    def test_bare_nolintnextline_flagged(self):
        findings = self.findings("// NOLINTNEXTLINE\nint x;\n")
        self.assertEqual(rules_of(findings), ["nolint-hygiene"])
        self.assertIn("NOLINTNEXTLINE(check-name)", findings[0][2])

    def test_empty_check_list_flagged(self):
        findings = self.findings("int x; // NOLINT()\n")
        self.assertEqual(rules_of(findings), ["nolint-hygiene"])
        self.assertIn("empty check list", findings[0][2])

    def test_scoped_without_justification_flagged(self):
        findings = self.findings("int x; // NOLINT(some-check)\n")
        self.assertEqual(rules_of(findings), ["nolint-hygiene"])
        self.assertIn("without a justification", findings[0][2])

    def test_scoped_with_trailing_justification_ok(self):
        text = "int x; // NOLINT(some-check) third-party macro expands here\n"
        self.assertEqual(self.findings(text), [])

    def test_scoped_with_comment_above_ok(self):
        text = ("// The cast is required by the C API contract.\n"
                "// NOLINTNEXTLINE(some-check)\n"
                "int x;\n")
        self.assertEqual(self.findings(text), [])

    def test_nolint_line_above_is_not_a_justification(self):
        text = ("// NOLINTNEXTLINE(other-check) reason for the other one\n"
                "int x; // NOLINT(some-check)\n")
        self.assertEqual(rules_of(self.findings(text)), ["nolint-hygiene"])

    def test_hygiene_enforced_even_without_fallback_tier(self):
        findings = lint_text("src/graphene/x.cpp", "int x; // NOLINT\n",
                             fallback=False)
        self.assertEqual(rules_of(findings), ["nolint-hygiene"])


class ConfinedIntrinsics(unittest.TestCase):
    """Intrinsic headers and raw vector calls live only in src/util/simd/."""

    HEADER = "#include <immintrin.h>\n"
    CALL = "auto v = _mm256_loadu_si256(p);\n"
    NEON = "auto v = vld1q_u8(p);\n"
    TYPE = "__m256i acc;\n"

    def test_header_flagged_outside_kernel_dir(self):
        for path in ("src/bloom/bloom_filter.cpp", "src/iblt/iblt.cpp",
                     "bench/hotpath.cpp", "src/util/bytes.hpp"):
            rules = rules_of(lint_text(path, self.HEADER))
            self.assertEqual(rules, ["confined-intrinsics"], path)

    def test_calls_and_types_flagged_outside_kernel_dir(self):
        for text in (self.CALL, self.NEON, self.TYPE):
            rules = rules_of(lint_text("src/net/frame.cpp", text))
            self.assertEqual(rules, ["confined-intrinsics"], text)

    def test_kernel_dir_is_exempt(self):
        for text in (self.HEADER, self.CALL, self.NEON, self.TYPE):
            self.assertEqual(lint_text("src/util/simd/avx2.cpp", text), [], text)

    def test_commented_mention_is_ignored(self):
        text = "// dispatch confines _mm256_xor_si256 to the kernel TU\nint x;\n"
        self.assertEqual(lint_text("src/net/frame.cpp", text), [])

    def test_enforced_even_without_fallback_tier(self):
        rules = rules_of(lint_text("src/net/frame.cpp", self.HEADER,
                                   fallback=False))
        self.assertEqual(rules, ["confined-intrinsics"])


class TierSelection(unittest.TestCase):
    def test_env_var_retires_fallback(self):
        old = os.environ.pop("GRAPHENE_TIDY_PLUGIN_ENFORCED", None)
        try:
            self.assertFalse(lint.fallback_enforced_elsewhere())
            os.environ["GRAPHENE_TIDY_PLUGIN_ENFORCED"] = "1"
            self.assertTrue(lint.fallback_enforced_elsewhere())
            os.environ["GRAPHENE_TIDY_PLUGIN_ENFORCED"] = "0"
            self.assertFalse(lint.fallback_enforced_elsewhere())
        finally:
            os.environ.pop("GRAPHENE_TIDY_PLUGIN_ENFORCED", None)
            if old is not None:
                os.environ["GRAPHENE_TIDY_PLUGIN_ENFORCED"] = old

    def test_fixture_corpora_excluded_from_default_sweep(self):
        for rel in lint.tracked_cpp_files():
            self.assertFalse(str(rel).startswith("tools/tidy-plugin/test/fixtures/"),
                             f"{rel} should be excluded from the sweep")
            self.assertFalse(str(rel).startswith("tools/tests/fixtures/"),
                             f"{rel} should be excluded from the sweep")


class ExportedTree(unittest.TestCase):
    """Outside a git work tree (a source export), file discovery walks the
    tree and must find exactly the files `git ls-files` lists."""

    def test_walk_finds_the_tracked_set(self):
        repo = Path(lint.REPO_ROOT)
        tracked = [rel for rel in lint.tracked_cpp_files() if (repo / rel).is_file()]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "export"
            extras = [
                # Files a checkout carries that the sweep must still skip.
                "tools/tests/fixtures/lint/wire_violations.cpp",
                "tools/tidy-plugin/test/fixtures/raw-clock/violation.cpp",
                "README.md",
            ]
            for rel in [*map(str, tracked), *extras]:
                dst = root / rel
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(repo / rel, dst)
            # Build output: a CMake build tree and a hidden directory.
            (root / "build" / "CMakeFiles").mkdir(parents=True)
            (root / "build" / "CMakeCache.txt").write_text("")
            (root / "build" / "CMakeFiles" / "CMakeCXXCompilerId.cpp").write_text("")
            (root / ".bench_build").mkdir()
            (root / ".bench_build" / "stray.cpp").write_text("")
            self.assertFalse((root / ".git").exists())
            self.assertEqual(lint.tracked_cpp_files(root), tracked)
            self.assertEqual([Path(p) for p in sorted(lint._walk_cpp_files(root))], tracked)


class RepoIsClean(unittest.TestCase):
    """The tree itself must lint clean — the same invariant CI enforces,
    surfaced locally through ctest."""

    def test_full_sweep_clean(self):
        for rel in lint.tracked_cpp_files():
            if not (Path(lint.REPO_ROOT) / rel).is_file():
                continue
            self.assertEqual(lint.lint_file(rel), [], f"findings in {rel}")


if __name__ == "__main__":
    sys.exit(unittest.main())
