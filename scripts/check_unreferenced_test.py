#!/usr/bin/env python3
"""Tests for scripts/check_unreferenced.py on temporary fixture trees.

Each fixture holds a src/ header declaring a function that only a tests/
file calls, next to one that bench/ calls. The gate must fail on the first
unless the allowlist keeps it, and must fail on a stale allowlist entry.
The last test runs the gate on this repository with its real allowlist.

Usage: python3 scripts/check_unreferenced_test.py [CASE ...]
CASE names one test, e.g. CheckUnreferencedTest.test_this_repository_passes;
ctest registers each case as its own test under that name.
"""

import contextlib
import io
import pathlib
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import check_unreferenced  # noqa: E402

FIXTURE = {
    "src/lib/lib.hpp": """
        #pragma once
        namespace lib {
        int only_tested(int x);
        int product(int x);
        }  // namespace lib
    """,
    "src/lib/lib.cpp": """
        #include "lib/lib.hpp"
        namespace lib {
        int only_tested(int x) { return x + 1; }
        int product(int x) { return x * 2; }
        }  // namespace lib
    """,
    "bench/bench_lib.cpp": """
        #include "lib/lib.hpp"
        int main() { return lib::product(3) == 6 ? 0 : 1; }
    """,
    "tests/lib_test.cpp": """
        #include "lib/lib.hpp"
        int main() { return lib::only_tested(1) + lib::product(1) == 4 ? 0 : 1; }
    """,
}


class CheckUnreferencedTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self.tmp.name)
        for rel, text in FIXTURE.items():
            path = self.root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(text))
        self.saved_allowlist = check_unreferenced.ALLOWLIST

    def tearDown(self):
        check_unreferenced.ALLOWLIST = self.saved_allowlist
        self.tmp.cleanup()

    def run_gate(self, allowlist, root=None):
        """Runs the script's entry point; returns (exit code, stderr)."""
        check_unreferenced.ALLOWLIST = allowlist
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = check_unreferenced.main(["--root", str(root or self.root)])
        return code, err.getvalue()

    def test_function_with_only_a_test_caller_fails(self):
        code, err = self.run_gate({})
        self.assertEqual(code, 1)
        self.assertIn("src/lib/lib.hpp:4: 'only_tested'", err)
        self.assertNotIn("'product'", err)

    def test_allowlisted_test_only_function_passes(self):
        code, err = self.run_gate({"only_tested": "a reason"})
        self.assertEqual(code, 0, err)

    def test_allowlist_entry_without_a_reason_fails(self):
        code, err = self.run_gate({"only_tested": " "})
        self.assertEqual(code, 1)
        self.assertIn("allowlist entry 'only_tested' has no reason", err)

    def test_stale_allowlist_entries_fail(self):
        # `product` has a product caller; `gone` is declared nowhere.
        code, err = self.run_gate({"only_tested": "a reason",
                                   "product": "a reason",
                                   "gone": "a reason"})
        self.assertEqual(code, 1)
        self.assertIn("allowlist entry 'product' is stale", err)
        self.assertIn("allowlist entry 'gone' is stale", err)
        self.assertNotIn("'only_tested'", err)

    def test_this_repository_passes(self):
        code, err = self.run_gate(self.saved_allowlist,
                                  pathlib.Path(__file__).resolve().parent.parent)
        self.assertEqual(code, 0, err)


if __name__ == "__main__":
    unittest.main()
