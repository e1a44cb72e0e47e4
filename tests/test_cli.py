"""Every CLI subcommand, run in-process at a small size, writes a JSON
report that parses and passes."""

import json

import pytest

from prodsys import cli

CASES = [
    (["euler", "--n-max", "6"], "pass"),
    (["roots", "--g", "2", "--depth", "3"], "match"),
    # (4^8 + ... + 4) x 4 seed constraints: a full SVD would need 114 GiB.
    (["roots", "--g", "4", "--depth", "8"], "match"),
    (["index", "--g", "3"], None),
    (["amalgam", "--g1", "2", "--g2", "3", "--trials", "10"], "pass"),
    (["cluster", "--g", "4", "--depth", "8"], "pass"),
    (["thm52", "--g", "2", "--cells", "3"], "pass"),
    (["thm52", "--g", "3", "--cells", "3", "--state", "diag", "--level1-dim", "2"], "pass"),
    # g^cells = 1024, the largest fiber the CLI accepts.
    (["thm52", "--g", "2", "--cells", "10"], "pass"),
    (["hausdorff", "--denominator", "16", "--trials", "20"], "pass"),
    (["selftest"], "pass"),
]


@pytest.mark.parametrize("argv,flag", CASES, ids=[" ".join(a) for a, _ in CASES])
def test_subcommand_writes_passing_json(argv, flag, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["command"] == argv[0]
    if flag is None:
        assert report["index"] == 2
    else:
        assert report[flag] is True


# The dense thm52 state is g^cells x g^cells, so 4^12 would ask for 4 PiB.
OVERSIZED = [
    ["thm52", "--g", "4", "--cells", "12"],
    ["thm52", "--g", "2", "--cells", "11"],
]


@pytest.mark.parametrize("argv", OVERSIZED, ids=[" ".join(a) for a in OVERSIZED])
def test_oversized_fiber_is_rejected(argv, tmp_path):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit):
        cli.main(argv + ["--out", str(out)])
    assert not out.exists()
