import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_as_written():
    # the python block of the README's "Library" section, run as a user would
    # paste it, so a renamed export or per-block function fails here
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], f"{README.name}: Library", "exec"), namespace)
    assert [r.snr_db for r in namespace["records"]] == [0.0, 10.0, 20.0]
    design = namespace["design"]
    assert namespace["y"].shape == (design.M, design.T)
    assert len(namespace["decided"]) == design.K
