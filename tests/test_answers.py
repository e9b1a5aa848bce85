"""``tools/answers.py`` prints one line per answer, the same on every run."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "answers.py"
spec = importlib.util.spec_from_file_location("answers", TOOL)
answers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(answers)


def test_one_line_per_answer(capsys):
    assert answers.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == answers.answers()  # seeded: a second run prints the same
    assert len(set(lines)) == len(lines)
    # an element: the value's parts and the bound as float.hex, j_pq, P and Q
    first = "unit.element alpha=0.5 tol=1e-06 (0,0) "
    element = next(line for line in lines if line.startswith(first))
    _, im, bound, j_pq, p, q = element.split()[-6:]
    assert float.fromhex(im) == 0.0 and float.fromhex(bound) <= 1e-6
    assert int(j_pq) >= 1 and int(p) == int(q) == int(j_pq)
    best = "unit.element alpha=0.5 tol=1e-06 (0,0) max_dim=65.best "
    assert any(line.startswith(best) for line in lines)
    assert any(line.startswith("banded.solve l=3 complex") for line in lines)
    assert any(line.startswith("rows.solve l=3 complex") for line in lines)
    assert "c0.solve DivergentSeriesError: " in "\n".join(lines)
    # every call that raises ends in a FinpowError, by its class name
    errors = [line.split(": ", 1)[0].rsplit(" ", 1)[1] for line in lines if ": " in line]
    assert set(errors) <= {
        "DivergentSeriesError", "DomainError", "ConfigError", "MalformedSpecError",
        "NotConvergedError", "NumericalFailureError",
    }
