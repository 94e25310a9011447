"""tests/same_bytes.py's digests and verdicts, in-process on the tiny config."""

import pathlib

import same_bytes
import workloads
from test_subprocess import tiny_config


def split_configs() -> dict:
    """The tiny config with each compared workload's split."""
    configs = {}
    for w in same_bytes.WORKLOADS:
        train, offline, online = workloads.WORKLOADS[w][1]
        configs[w] = {**tiny_config(), "split": {"train": train, "offline": offline,
                                                 "online": online, "shuffle": False}}
    return configs


def test_the_same_tree_reads_identical_and_a_changed_file_differs(tmp_path, capsys):
    configs = split_configs()
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        same_bytes.run(configs, str(tmp_path / name))
        runs.append(same_bytes.file_digests(str(tmp_path / name), configs))
    old, new = runs
    assert len(old) == 1 + 3 * len(same_bytes.WORKLOADS)
    capsys.readouterr()
    assert same_bytes.compare(old, new)
    assert capsys.readouterr().out.count(": identical\n") == len(old)

    changed = pathlib.Path(tmp_path, "b", "localize", "weights.csv")
    changed.write_bytes(changed.read_bytes() + b"\n")
    new = same_bytes.file_digests(str(tmp_path / "b"), configs)
    assert not same_bytes.compare(old, new)
    differs = [line for line in capsys.readouterr().out.splitlines() if "differs" in line]
    assert differs == ["localize/weights.csv: differs"]
