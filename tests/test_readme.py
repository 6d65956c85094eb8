"""The README's quick tour runs as written.

The first python block of README.md is run line by line in one namespace.
An expression line whose trailing comment parses as a Python literal states
its result, and the expression must equal that literal.
"""

import ast
import io
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _first_python_block() -> list[tuple[int, str]]:
    """(line number, text) of each line of the first python block."""
    lines = README.read_text().splitlines()
    start = lines.index("```python") + 1
    end = lines.index("```", start)
    return [(number + 1, lines[number]) for number in range(start, end)]


def _stated_result(line: str):
    """(code, literal) when ``line`` is an expression whose trailing comment
    is a Python literal, else None."""
    tokens = list(tokenize.generate_tokens(io.StringIO(line).readline))
    comments = [tok for tok in tokens if tok.type == tokenize.COMMENT]
    if not comments:
        return None
    code = line[: comments[0].start[1]]
    try:
        ast.parse(code, mode="eval")
        return code, ast.literal_eval(comments[0].string[1:].strip())
    except (SyntaxError, ValueError):
        return None


def test_the_quick_tour_states_its_results():
    namespace: dict = {}
    checked = []
    for number, line in _first_python_block():
        stated = _stated_result(line)
        if stated is None:
            exec(line, namespace)
            continue
        code, literal = stated
        assert eval(code, namespace) == literal, f"README.md line {number}: {line}"
        checked.append(number)
    assert len(checked) == 7
