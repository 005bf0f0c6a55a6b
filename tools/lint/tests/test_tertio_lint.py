#!/usr/bin/env python3
"""Unit tests for tertio_lint v2 (ISSUE 9 satellite).

Each test builds a throwaway repo tree in a tempdir and runs the linter's
main() against it with --root, asserting on findings and exit codes. Run
directly (`python3 test_tertio_lint.py`) or via ctest (`lint_selftest`).
"""

import contextlib
import io
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import tertio_lint  # noqa: E402


class LintTree(contextlib.AbstractContextManager):
    """A scratch repo tree: write(relpath, text), then run(*argv)."""

    def __enter__(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self._tmp.name)
        return self

    def __exit__(self, *exc):
        self._tmp.cleanup()
        return False

    def write(self, rel: str, text: str) -> pathlib.Path:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def run(self, *argv: str):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = tertio_lint.main(["--root", str(self.root), *argv])
        return code, out.getvalue()


class UnitsRawParamTest(unittest.TestCase):
    def test_flags_raw_param_in_header(self):
        with LintTree() as tree:
            tree.write("src/foo/foo.h",
                       "void Transfer(std::uint64_t count_blocks);\n")
            code, out = tree.run("--rules=units")
            self.assertEqual(code, 1)
            self.assertIn("units-raw-param", out)
            self.assertIn("count_blocks", out)
            self.assertIn("Blocks", out)

    def test_seconds_param_suggests_simseconds(self):
        with LintTree() as tree:
            tree.write("src/foo/foo.h", "void Wait(double delay_seconds);\n")
            code, out = tree.run("--rules=units")
            self.assertEqual(code, 1)
            self.assertIn("SimSeconds", out)

    def test_cc_files_are_not_scanned(self):
        with LintTree() as tree:
            tree.write("src/foo/foo.cc",
                       "void Transfer(std::uint64_t count_blocks);\n")
            code, out = tree.run("--rules=units")
            self.assertEqual(code, 0, out)

    def test_waiver_suppresses(self):
        with LintTree() as tree:
            tree.write("src/foo/foo.h",
                       "// tertio-lint: allow(units-raw-param)\n"
                       "void Transfer(std::uint64_t count_blocks);\n")
            code, out = tree.run("--rules=units")
            self.assertEqual(code, 0, out)

    def test_units_h_is_exempt(self):
        with LintTree() as tree:
            tree.write("src/util/units.h",
                       "void Convert(std::uint64_t raw_blocks);\n")
            code, out = tree.run("--rules=units")
            self.assertEqual(code, 0, out)

    def test_mentions_in_comments_ignored(self):
        with LintTree() as tree:
            tree.write("src/foo/foo.h",
                       "// takes std::uint64_t count_blocks for legacy reasons\n"
                       "void Transfer(Blocks count);\n")
            code, out = tree.run("--rules=units")
            self.assertEqual(code, 0, out)


class UnitsFixTest(unittest.TestCase):
    def test_fix_rewrites_parameter_type(self):
        with LintTree() as tree:
            path = tree.write("src/foo/foo.h",
                              "void Transfer(std::uint64_t count_blocks, "
                              "std::uint64_t size_bytes);\n")
            code, out = tree.run("--rules=units", "--fix")
            self.assertEqual(code, 0, out)
            fixed = path.read_text()
            self.assertIn("Blocks count_blocks", fixed)
            self.assertIn("Bytes size_bytes", fixed)
            self.assertNotIn("std::uint64_t", fixed)

    def test_fix_rewrites_seconds_to_simseconds(self):
        with LintTree() as tree:
            path = tree.write("src/foo/foo.h",
                              "void Wait(double delay_seconds);\n")
            code, out = tree.run("--rules=units", "--fix")
            self.assertEqual(code, 0, out)
            self.assertIn("SimSeconds delay_seconds", path.read_text())


class UnitsUnwrapTest(unittest.TestCase):
    def test_flags_header_unwrap(self):
        with LintTree() as tree:
            tree.write("src/foo/foo.h",
                       "inline double S(Blocks b) { return b.value(); }\n")
            code, out = tree.run("--rules=units")
            self.assertEqual(code, 1)
            self.assertIn("units-unwrap", out)

    def test_cc_unwrap_is_free(self):
        with LintTree() as tree:
            tree.write("src/foo/foo.cc",
                       "double S(Blocks b) { return b.value(); }\n")
            code, out = tree.run("--rules=units")
            self.assertEqual(code, 0, out)

    def test_waiver_on_line_above(self):
        with LintTree() as tree:
            tree.write("src/foo/foo.h",
                       "// tertio-lint: allow(units-unwrap)\n"
                       "inline double S(Blocks b) { return b.value(); }\n")
            code, out = tree.run("--rules=units")
            self.assertEqual(code, 0, out)


class UnitsArgOrderTest(unittest.TestCase):
    def test_block_count_as_bytes_argument(self):
        with LintTree() as tree:
            tree.write("src/foo/foo.cc",
                       "auto n = BytesToBlocks(r_blocks, block_bytes);\n")
            code, out = tree.run("--rules=units")
            self.assertEqual(code, 1)
            self.assertIn("units-arg-order", out)

    def test_byte_count_as_blocks_argument(self):
        with LintTree() as tree:
            tree.write("src/foo/foo.cc",
                       "auto n = BlocksToBytes(total_bytes, block_bytes);\n")
            code, out = tree.run("--rules=units")
            self.assertEqual(code, 1)
            self.assertIn("units-arg-order", out)

    def test_correct_order_is_clean(self):
        with LintTree() as tree:
            tree.write("src/foo/foo.cc",
                       "auto n = BytesToBlocks(total_bytes, block_bytes);\n"
                       "auto m = BlocksToBytes(r_blocks, kDefaultBlockBytes);\n")
            code, out = tree.run("--rules=units")
            self.assertEqual(code, 0, out)

    def test_suspicious_second_argument(self):
        with LintTree() as tree:
            tree.write("src/foo/foo.cc",
                       "auto n = BytesToBlocks(total_bytes, memory_blocks);\n")
            code, out = tree.run("--rules=units")
            self.assertEqual(code, 1)
            self.assertIn("block size", out)


class DriveLeaseTest(unittest.TestCase):
    def test_flags_direct_lease_outside_exec(self):
        with LintTree() as tree:
            tree.write("tools/cli.cc",
                       "auto lease = site.LeaseDrives(2, tag, want);\n")
            tree.write("bench/b.cc",
                       "auto got = site->AcquireDrives(1, \"bench\");\n")
            code, out = tree.run("--rules=encapsulation")
            self.assertEqual(code, 1)
            self.assertIn("tools/cli.cc:1: [drive-lease]", out)
            self.assertIn("bench/b.cc:1: [drive-lease]", out)

    def test_src_exec_is_exempt(self):
        with LintTree() as tree:
            tree.write("src/exec/query_session.cc",
                       "auto lease = site->LeaseDrives(2, tag, want);\n")
            code, out = tree.run("--rules=encapsulation")
            self.assertEqual(code, 0, out)

    def test_waiver_suppresses(self):
        with LintTree() as tree:
            tree.write("tools/cli.cc",
                       "auto lease = site.AcquireDrives(1, \"cli\");"
                       "  // tertio-lint: allow(drive-lease)\n")
            code, out = tree.run("--rules=encapsulation")
            self.assertEqual(code, 0, out)

    def test_mentions_in_comments_ignored(self):
        with LintTree() as tree:
            tree.write("src/disk/d.h",
                       "// Prefer LeaseDrives(...) over AcquireDrives(...).\n")
            code, out = tree.run("--rules=encapsulation")
            self.assertEqual(code, 0, out)


class JoinAdmissionTest(unittest.TestCase):
    ACQUIRE = ("auto lease = mem::BudgetLease::Acquire(ctx.memory, blocks, "
               "\"gh/memory\");\n")

    def test_flags_an_executor_taking_its_own_lease(self):
        with LintTree() as tree:
            tree.write("src/join/gh_methods.cc", "// GH\n" + self.ACQUIRE)
            code, out = tree.run("--rules=encapsulation")
            self.assertEqual(code, 1)
            self.assertIn("src/join/gh_methods.cc:2: [join-admission]", out)

    def test_waiver_suppresses(self):
        with LintTree() as tree:
            tree.write("src/join/tt_methods.cc",
                       "// tertio-lint: allow(join-admission)\n" + self.ACQUIRE)
            code, out = tree.run("--rules=encapsulation")
            self.assertEqual(code, 0, out)

    def test_the_admission_step_and_other_directories_are_exempt(self):
        with LintTree() as tree:
            tree.write("src/join/join_method.cc", self.ACQUIRE)
            tree.write("src/exec/query_session.cc", self.ACQUIRE)
            tree.write("src/join/join_common.h",
                       "// Only BudgetLease::Acquire(...) in join_method.cc.\n")
            code, out = tree.run("--rules=encapsulation")
            self.assertEqual(code, 0, out)


class SpanRegistryTest(unittest.TestCase):
    REGISTRY = ('constexpr std::string_view kRegisteredSpans[] = {\n'
                '    "hash-flush",\n    "tape-scan",\n};\n')

    def tree_with(self, tree: LintTree, code: str) -> None:
        tree.write("src/sim/span_registry.h", self.REGISTRY)
        tree.write("src/sim/trace_report.cc", "")
        tree.write("src/exec/report.cc", "")
        tree.write("src/join/j.cc", code)

    def test_flush_phase_and_scan_and_probe_labels_are_uses(self):
        with LintTree() as tree:
            self.tree_with(tree,
                           'HashTapeToDisk(run, {.flush_phase = "hash-flush"});\n'
                           'ScanAndProbe(pipe, "tape-scan", source);\n'
                           'ScanDiskAndProbe(ctx, pipe, "tape-scan", extents);\n')
            code, out = tree.run("--rules=span-registry")
            self.assertEqual(code, 0, out)

    def test_unregistered_labels_in_those_forms_are_flagged(self):
        with LintTree() as tree:
            self.tree_with(tree,
                           'HashTapeToDisk(run, {.flush_phase = "hash-flush"});\n'
                           'ScanAndProbe(pipe, "tape-scan", source);\n'
                           'HashTapeToDisk(run, {.flush_phase = "hash-flsh"});\n'
                           'ScanAndProbe(pipe, "tape-scn", source);\n'
                           'ScanDiskAndProbe(ctx, pipe, "disk-scn", extents);\n')
            code, out = tree.run("--rules=span-registry")
            self.assertEqual(code, 1)
            self.assertIn('src/join/j.cc:3: [span-registry] phase label "hash-flsh"', out)
            self.assertIn('src/join/j.cc:4: [span-registry] phase label "tape-scn"', out)
            self.assertIn('src/join/j.cc:5: [span-registry] phase label "disk-scn"', out)


class PackSelectionTest(unittest.TestCase):
    def test_units_pack_skips_hot_path_rules(self):
        with LintTree() as tree:
            tree.write("src/join/hot.cc", "std::unordered_map<int, int> m;\n")
            code, out = tree.run("--rules=units")
            self.assertEqual(code, 0, out)

    def test_hot_path_pack_still_fires(self):
        with LintTree() as tree:
            tree.write("src/join/hot.cc", "std::unordered_map<int, int> m;\n")
            code, out = tree.run("--rules=hot-path")
            self.assertEqual(code, 1)
            self.assertIn("unordered-map", out)

    def test_unknown_pack_is_usage_error(self):
        with LintTree() as tree:
            code, out = tree.run("--rules=nonsense")
            self.assertEqual(code, 2)


class StripCommentsTest(unittest.TestCase):
    def test_line_and_block_comments_blanked(self):
        stripped = tertio_lint.strip_comments(
            "int a; // std::unordered_map\n/* std::rand( */ int b;\n")
        self.assertNotIn("unordered_map", stripped)
        self.assertNotIn("rand", stripped)
        self.assertEqual(stripped.count("\n"), 2)

    def test_string_literals_survive(self):
        stripped = tertio_lint.strip_comments('auto s = "a // b";\n')
        self.assertIn('"a // b"', stripped)


class RealRepoTest(unittest.TestCase):
    """The shipped repo itself must be lint-clean (acceptance criterion)."""

    def test_units_pack_clean_on_src(self):
        repo = pathlib.Path(__file__).resolve().parents[3]
        if not (repo / "src" / "util" / "units.h").exists():
            self.skipTest("not running inside the tertio repo")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = tertio_lint.main(["--root", str(repo), "--rules=units"])
        self.assertEqual(code, 0, out.getvalue())


if __name__ == "__main__":
    unittest.main()
