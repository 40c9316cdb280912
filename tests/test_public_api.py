import pathlib
import re

import cbsel

PUBLIC = [
    "CbselError", "FeatureStore", "RunConfig", "RunReport", "Selection",
    "SessionPlan", "SessionSpec", "WorldConfig", "cbs_select", "generate",
    "load_config", "load_features", "load_report", "run", "save_features",
    "save_report",
]
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_all_lists_exactly_the_public_names():
    assert sorted(cbsel.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(cbsel, name).__module__.startswith("cbsel.")


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    exec(compile("".join(blocks), str(README), "exec"), namespace)
    assert len(namespace["selection"].ids) == 100
