"""The README's Library example runs, and each commented value is what
the line evaluates to."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    return block


def test_library_example_values():
    namespace: dict = {}
    statement = ""
    checked = 0
    for line in library_block().splitlines():
        code, _, comment = line.partition("  # ")
        statement += code + "\n"
        if statement.count("(") != statement.count(")"):
            continue  # a statement continued on the next line
        if comment:
            shown = repr(eval(statement, namespace))
            expected = comment.strip()
            assert expected == shown or expected.startswith(shown + ":"), line
            checked += 1
        else:
            exec(statement, namespace)
        statement = ""
    assert statement == "" and checked >= 8
