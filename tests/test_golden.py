"""Canonical CLI output, replayed byte for byte against tests/golden/.

cases.json lists each case's argv and exit code; <name>.stdout holds the
exact bytes the command printed. In argv, {chain} stands for a file with
the three-clause chain formula and {golden} for this directory, so the
solve cases read the formulas that the recorded gen cases printed.
"""

import json
from pathlib import Path

import pytest

from ppszlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
CHAIN = "p cnf 3 3\n1 0\n-1 2 0\n-2 3 0\n"


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_output_matches_golden(case, capsys, tmp_path):
    chain = tmp_path / "chain.cnf"
    chain.write_text(CHAIN)
    argv = [
        arg.replace("{chain}", str(chain)).replace("{golden}", str(GOLDEN))
        for arg in case["argv"]
    ]
    code = main(argv)
    out = capsys.readouterr().out.encode()
    assert (code, out) == (case["exit"], (GOLDEN / f"{case['name']}.stdout").read_bytes())
