"""Tests of the unrun-statement lister on a canned module and hit set."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "unrun_lines", os.path.join(ROOT, "scripts", "unrun_lines.py")
)
unrun_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unrun_lines)

MODULE = '''"""Docstring."""
import math


def check(x):
    """Docstring."""
    if x < 0:
        raise ValueError(
            "negative"
        )
    try:
        y = math.sqrt(x)
    except ValueError:
        y = 0.0
    for _ in range(2):
        y += 1
    return y


class Box:
    size = 1
'''


def test_unrun_lists_each_statement_no_hit_line_reached():
    # a run of check(1.0) after import: the raise and the except body never ran
    hits = {5, 7, 11, 12, 15, 16, 17, 20, 21}
    assert unrun_lines.unrun(MODULE, hits) == [(8, "raise ValueError("), (14, "y = 0.0")]


def test_a_statement_counts_as_run_by_any_of_its_lines_and_a_header_by_its_own():
    hits = {5, 7, 9, 11, 12, 14, 15, 16, 17, 21}
    # line 9 runs the raise; the loop's body does not run its header
    assert unrun_lines.unrun(MODULE, hits - {15}) == [(15, "for _ in range(2):")]
    assert unrun_lines.unrun(MODULE, hits) == []
    # nothing run: no def, class, import or docstring is listed
    every = [line for line, _ in unrun_lines.unrun(MODULE, set())]
    assert every == [7, 8, 11, 12, 14, 15, 16, 17, 21]
