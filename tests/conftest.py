import pytest

_lines: list[str] = []


def _start_state(engine, literals):
    """The (amask, avals) state of the engine fixing the literals, or None
    when they falsify a clause of its formula, by a loop over every
    clause. Reads no memo."""
    bit_of = engine.index.bit_of
    amask = sum(bit_of[abs(lit)] for lit in literals)
    avals = sum(bit_of[lit] for lit in literals if lit > 0)
    fixed = set(literals)
    for clause in engine.formula.clauses:
        if all(-lit in fixed for lit in clause):
            return None
    return amask, avals


@pytest.fixture
def start_state():
    """The reference start state of a restriction: start_state(engine,
    literals) is (amask, avals), or None when the literals falsify a clause."""
    return _start_state


@pytest.fixture
def acceptance():
    """Collector for the one-line verdicts of the acceptance tests."""
    return _lines.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _lines:
        terminalreporter.section("acceptance")
        for line in _lines:
            terminalreporter.write_line(line)
