"""EXPERIMENTS.md quotes what CI regenerates.

Every fenced block in EXPERIMENTS.md is a verbatim excerpt of the
results file named nearest above it in the same section: the file's
column-header row and then chosen rows, in file order, compared with
trailing blanks stripped.  CI's tables step regenerates every results
file and fails on drift, so together the two keep the quoted rows
current.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "EXPERIMENTS.md"
_RESULTS_FILE = re.compile(r"benchmarks/results/[\w.-]+\.txt")


def _excerpts(text):
    """``(results file or None, block lines)`` per fenced block, in order."""
    out = []
    source = None
    lines = iter(text.splitlines())
    for line in lines:
        if line.startswith("#"):
            source = None
        elif line.startswith("```"):
            block = []
            for inner in lines:
                if inner.startswith("```"):
                    break
                block.append(inner.rstrip())
            out.append((source, block))
            continue
        named = _RESULTS_FILE.findall(line)
        if named:
            source = named[-1]
    return out


EXCERPTS = _excerpts(DOC.read_text(encoding="utf-8"))


def test_every_quoted_table_names_its_results_file():
    assert [source for source, _ in EXCERPTS] == [
        "benchmarks/results/tab1_features.txt",
        "benchmarks/results/fig5_mm_dedicated.txt",
        "benchmarks/results/fig7_mm_loaded.txt",
        "benchmarks/results/fig8_sor_loaded.txt",
    ]


@pytest.mark.parametrize(
    "source, block", EXCERPTS, ids=[str(source) for source, _ in EXCERPTS]
)
def test_quoted_rows_are_in_results_file(source, block):
    assert source is not None, f"fenced block names no results file: {block[:1]}"
    rows = [
        line.rstrip() for line in (ROOT / source).read_text().splitlines()
    ]
    header = rows[2] if set(rows[1]) == {"="} else rows[0]
    assert block[0] == header, f"{source}: excerpt does not start at the header"
    missing = [line for line in block if line not in rows]
    assert not missing, f"{source}: quoted rows not in the file: {missing}"
    positions = [rows.index(line) for line in block]
    assert positions == sorted(positions), f"{source}: rows out of file order"
