"""The deterministic outputs recorded in ``tests/golden/outputs.json``.

A change that moves any of them rewrites the file with
``tests/golden/write_outputs.py`` in the same commit and says which entries
moved and why.
"""
import json

from conftest import TABLES
from golden.write_outputs import GOLDEN, differences, outputs


def test_deterministic_outputs_match_the_golden_file(request, tmp_path):
    """The four N = 60 tables, the seed-1 benchmark fingerprints, the
    N = 4 CLI uniform study and the other CLI runs, recomputed, equal the
    recorded entries: integers exactly, floats to 1e-10 relative."""
    want = json.loads(GOLDEN.read_text())
    tables = {name: request.getfixturevalue(name)[0] for name in TABLES}
    got = outputs(tables, tmp_path)
    recorded, running = want.pop("versions"), got.pop("versions")
    found = differences(want, got)
    assert not found, (
        f"{len(found)} outputs differ from {GOLDEN.name}, written with "
        f"numpy {recorded['numpy']} and scipy {recorded['scipy']}; running "
        f"numpy {running['numpy']} and scipy {running['scipy']}:\n"
        + "\n".join(found[:20]))
