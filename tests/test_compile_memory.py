"""The parser's peak memory on each keflow module.

With bytecode writing off (PYTHONDONTWRITEBYTECODE=1), every process that
imports keflow compiles its sources, so the largest compile peak of one
module is part of that process's peak RSS. CPython 3.11's peak steps up
by about 0.46 MB once a module passes about 8,192 tokens (2.79 MB at
8,189 tokens, 3.25 MB at 8,193, traced around compile()). The bound keeps
every module below that step; a module that would cross it is split.
"""

import sys
import tracemalloc
from pathlib import Path

import pytest

import keflow

COMPILE_PEAK_BOUND = 3_000_000  # bytes

SOURCES = sorted(Path(keflow.__file__).parent.glob("*.py"))


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] != (3, 11),
                    reason="the bound is CPython 3.11's parser step")
@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_each_module_compiles_below_the_parser_step(path):
    source = path.read_text()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < COMPILE_PEAK_BOUND, f"{path.name}: {peak:,} B"
