"""Generated inputs are a pure function of the seed."""

import hashlib

import numpy as np
import pytest

from inputs import TABLES, churn_stream, make_table, request_stream, write_table


def _digest(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _requests(workload, seed):
    columns = make_table(workload, seed)
    index, lows, highs = request_stream(workload, seed, columns, 64)
    churn = list(churn_stream(seed, columns, 12, 100))
    return index, lows, highs, churn


@pytest.mark.parametrize("workload", sorted(TABLES))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    write_table(make_table(workload, 5), tmp_path / "a")
    write_table(make_table(workload, 5), tmp_path / "b")
    assert _digest(tmp_path / "a") == _digest(tmp_path / "b")
    first, second = _requests(workload, 5), _requests(workload, 5)
    for one, two in zip(first[:3], second[:3]):
        assert one.tobytes() == two.tobytes()
    assert [(p, op, codes.tobytes()) for p, op, codes in first[3]] == [
        (p, op, codes.tobytes()) for p, op, codes in second[3]
    ]


@pytest.mark.parametrize("workload", sorted(TABLES))
def test_different_seed_gives_different_inputs(workload, tmp_path):
    write_table(make_table(workload, 5), tmp_path / "a")
    write_table(make_table(workload, 6), tmp_path / "b")
    assert _digest(tmp_path / "a") != _digest(tmp_path / "b")
    assert _requests(workload, 5)[1].tobytes() != _requests(workload, 6)[1].tobytes()


def test_churn_deletes_never_underflow():
    columns = make_table("churn", 3)
    counts = [c.freqs.copy() for c in columns]
    for position, op, codes in churn_stream(3, columns, 200, 500):
        np.add.at(counts[position], codes, 1 if op == "insert" else -1)
        assert (counts[position] >= columns[position].freqs).all()
