"""README's examples run as written against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block in README's ``## heading`` section."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_use_runs_as_written(capsys):
    exec(compile(readme_block("Library use", "python"), str(README), "exec"), {})
    best, backprops = capsys.readouterr().out.splitlines()[0].split()
    assert 0.0 <= float(best) <= 1.0 and int(backprops) > 0
