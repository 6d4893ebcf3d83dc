"""The declared-change check of tests/data/output_record.py, which CI runs
on a pull request's default outputs against its merge base's."""

import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location("output_record", Path(__file__).parent / "data" / "output_record.py")
output_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_record)

BASE = {f"file_{i:02d}.out": f"{i:064x}" for i in range(output_record.FILES)}
DIFF = """\
--- a/CHANGES.md
+++ b/CHANGES.md
@@ -1,2 +1,4 @@
 - DECLARED: file_09.out
-- DECLARED: file_08.out
+- A change.
+- DECLARED: file_01.out,file_02.out , file_01.out
"""


def changed(*names: str) -> dict[str, str]:
    return {**BASE, **{name: "f" * 64 for name in names}}


def test_declared_names_are_those_of_added_lines():
    assert output_record.declared(DIFF) == {"file_01.out", "file_02.out"}
    assert output_record.declared("") == set()


@pytest.mark.parametrize("differing, diff, status", [
    ((), "", 0),
    (("file_01.out", "file_02.out"), DIFF, 0),
    (("file_01.out",), "", 1),
    (("file_01.out",), DIFF, 1),
    (("file_01.out", "file_02.out", "file_03.out"), DIFF, 1),
    ((), DIFF, 1),
], ids=["none", "declared", "undeclared", "declared-but-equal", "one-undeclared", "nothing-moved"])
def test_passes_only_the_declared_set(capsys, differing, diff, status):
    assert output_record.check(changed(*differing), BASE, diff) == status
    out = capsys.readouterr().out
    for name in differing:
        assert f": {name}\n" in out
    assert f"{len(differing)} of {output_record.FILES} files differ" in out


def test_other_files_fail():
    fewer = dict(list(BASE.items())[1:])
    assert output_record.check(fewer, fewer, "") == 1
    assert output_record.check({**fewer, "other.out": "0" * 64}, BASE, "") == 1
