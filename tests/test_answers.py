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


def _perturbed(answer: str, by: float) -> str:
    """``answer`` with the real part of its value moved by ``by``."""
    fields = answer.split()
    fields[0] = (float.fromhex(fields[0]) + by).hex()
    return " ".join(fields)


def test_agree_within_round_off_of_the_scale():
    # a value may move by VALUE_ULPS eps times its scale (w**alpha for an
    # element, sum |f_n| / w for a solve component); every other field, and
    # an error's class, must be equal; an error's message may differ
    grid = answers._grid()
    element = next(g for g in grid if g[0] == "unit.element alpha=0.5 tol=1e-06 (0,0)")
    component = next(g for g in grid if g[0].startswith("banded.solve l=1 real"))
    error = next(g for g in grid if g[0] == "wrong.element")
    assert element[2] == 5.0**0.5 and component[2] > 0.0
    for _, answer, scale in (element, component):
        step = answers.VALUE_ULPS * answers._EPS * scale
        assert answers._agree(answer, answer, scale)
        assert answers._agree(answer, _perturbed(answer, step / 2), scale)
        assert not answers._agree(answer, _perturbed(answer, 2 * step), scale)
        fields = answer.split()
        for i in range(2, len(fields)):  # the bound, then j_pq, P and Q
            other = fields[:i] + [fields[i] + "0" if i == 2 else str(int(fields[i]) + 1)]
            assert not answers._agree(answer, " ".join(other + fields[i + 1:]), scale)
    _, answer, scale = error
    assert answer.startswith("MalformedSpecError: ")
    assert answers._agree(answer, "MalformedSpecError: another message", scale)
    assert not answers._agree(answer, "NotConvergedError: " + answer.split(": ", 1)[1], scale)
    assert not answers._agree(answer, element[1], scale)
    assert not answers._agree(element[1], answer, element[2])


def test_compare_exits_1_on_a_difference(tmp_path, capsys):
    lines = answers.answers()
    same = tmp_path / "same.txt"
    same.write_text("\n".join(lines) + "\n")
    assert answers.main(["--compare", str(same)]) == 0
    assert capsys.readouterr().out == "every answer agrees\n"
    # a renamed id, a bound moved by one ulp, and a line this grid dropped;
    # the answers the other output lacks are this grid's new ones
    changed = list(lines)
    changed[0] = changed[0].replace("unit.element", "unit.elements", 1)
    i = next(i for i, line in enumerate(changed) if line.startswith("banded.element"))
    fields = changed[i].split()
    bound = float.fromhex(fields[-4])
    fields[-4] = (bound + bound * answers._EPS).hex()
    changed[i] = " ".join(fields)
    dropped = "unit.dropped alpha=0.5 DomainError: an answer only the other output has"
    changed.append(dropped)
    different = tmp_path / "different.txt"
    different.write_text("\n".join(changed) + "\n")
    assert answers.main(["--compare", str(different)]) == 1
    report = capsys.readouterr().out.splitlines()
    assert report == [f"- {changed[0]}", f"- {changed[i]}", f"+ {lines[i]}", f"- {dropped}",
                      f"new {lines[0]}"]


def test_compare_lists_new_answers_without_failing(tmp_path, capsys):
    # an answer appended to the grid, and one inserted mid-grid: every line
    # after the inserted one still pairs with its own answer, by id
    lines = answers.answers()
    # the id "... (0,0)" is the start of "... (0,0) max_dim=65", the next
    # one: with the first gone, the second still pairs with its own answer
    ids = [name for name, _, _ in answers._grid()]
    k = next(k for k, name in enumerate(ids) if name.endswith(" max_dim=65"))
    assert ids[k] == ids[k - 1] + " max_dim=65"
    older = [line for j, line in enumerate(lines) if j not in (k - 1, len(lines) - 1)]
    path = tmp_path / "older.txt"
    path.write_text("\n".join(older) + "\n")
    assert answers.main(["--compare", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"new {lines[k - 1]}", f"new {lines[-1]}", "every shared answer agrees"]
