"""Documentation tests: every Python block in the docs must run.

Extracts fenced ``python`` code blocks from README.md and
docs/tutorial.md and executes them in order within one namespace per
file (later tutorial blocks build on earlier ones).  Comment-marked
shell/text blocks are skipped.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

_BLOCK_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def python_blocks(path: pathlib.Path) -> list[str]:
    return _BLOCK_RE.findall(path.read_text())


@pytest.mark.parametrize("doc", ["README.md", "docs/tutorial.md"])
def test_doc_blocks_execute(doc):
    path = ROOT / doc
    blocks = python_blocks(path)
    assert blocks, f"{doc} has no python blocks?"
    namespace: dict = {}
    for index, block in enumerate(blocks):
        try:
            exec(compile(block, f"{doc}[block {index}]", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - the assert reports
            pytest.fail(f"{doc} block {index} failed: {exc}\n{block}")


def test_readme_mentions_every_subpackage():
    readme = (ROOT / "README.md").read_text()
    src = ROOT / "src" / "repro"
    for package in sorted(p.name for p in src.iterdir() if p.is_dir()):
        if package.startswith("__"):
            continue
        assert package in readme, f"README does not mention {package!r}"


def test_design_lists_every_benchmark():
    design = (ROOT / "DESIGN.md").read_text()
    benches = sorted(
        p.name
        for p in (ROOT / "benchmarks").glob("test_bench_*.py")
    )
    for bench in benches:
        assert bench in design, f"DESIGN.md does not index {bench}"


def test_experiments_covers_every_benchmark():
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    benches = sorted(
        p.name
        for p in (ROOT / "benchmarks").glob("test_bench_*.py")
    )
    for bench in benches:
        assert bench in experiments, f"EXPERIMENTS.md does not record {bench}"


def _knobs_table() -> list[list[str]]:
    """The cells of the Knobs table in docs/performance.md, one row each."""
    text = (ROOT / "docs" / "performance.md").read_text()
    section = text.split("\n## Knobs\n", 1)[1].split("\n## ", 1)[0]
    rows = [
        line for line in section.splitlines() if line.startswith("| ")
    ][2:]  # skip the header and its separator
    return [
        [cell.strip() for cell in re.split(r"(?<!\\)\|", row)[1:-1]]
        for row in rows
    ]


def test_knobs_table_matches_perf_config():
    import dataclasses

    from repro.perf.config import PerfConfig

    rows = _knobs_table()
    documented = [row[1].strip("`") for row in rows]
    assert documented == [f.name for f in dataclasses.fields(PerfConfig)]
    env_column = " ".join(row[0] for row in rows)
    source = (ROOT / "src" / "repro" / "perf" / "config.py").read_text()
    for name in sorted(set(re.findall(r"REPRO_[A-Z_]+", source))):
        assert name in env_column, f"Knobs table omits {name}"


# A docs ``perf`` dict: after a ``"perf":`` key, or in the comment line
# that follows a ``.perf`` attribute.
_PERF_DICT_RE = re.compile(r'(?:"perf":\s*|\.perf\b[^\n]*\n[^\n{]*)\{([^}]*)\}')


def test_docs_perf_dicts_name_real_counters():
    source = "\n".join(
        path.read_text() for path in (ROOT / "src").rglob("*.py")
    )
    bumped = set(re.findall(r'COUNTERS\["([^"]+)"\]', source))
    docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    named = {
        (path.name, key)
        for path in docs
        for body in _PERF_DICT_RE.findall(path.read_text())
        for key in re.findall(r'"([^"]+)"\s*:', body)
    }
    assert named, "no perf dict found in the docs"
    unknown = sorted(entry for entry in named if entry[1] not in bumped)
    assert not unknown, f"docs name counters nothing bumps: {unknown}"
