"""README's library example runs, and the calls it documents match the
package's signatures."""

import inspect
import re
from pathlib import Path

import braidalg

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_library_example_runs(capsys):
    library = README[README.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    # its one print shows the value its comment gives
    assert capsys.readouterr().out == "[1, 4, 10, 20]\n"
    assert "# [1, 4, 10, 20]" in block


def test_documented_calls_match_the_signatures():
    calls = re.findall(r"`(\w+)\(([^`()]*)\)`", README)
    checked = set()
    for name, args in calls:
        f = getattr(braidalg, name, None)
        if inspect.isfunction(f):
            inspect.signature(f).bind(*args.split(", "))  # TypeError on drift
            checked.add(name)
    assert {"verify_homomorphism", "reduce_mod_ideal", "ideal_membership",
            "span_membership"} <= checked
