"""The README's library example prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_its_comments(capsys):
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    want = [line.partition("#")[2].strip() for line in block.splitlines() if line.startswith("print(")]
    assert want
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == want
