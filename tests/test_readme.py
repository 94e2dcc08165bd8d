"""The README's library session runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_session_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    labels, scores = namespace["labels"], namespace["scores"]
    assert labels.shape == (len(namespace["test_features"]),)
    assert scores.shape == (len(labels), namespace["target_train"].num_classes)
