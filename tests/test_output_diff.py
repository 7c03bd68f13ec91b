"""`output_diff.py` on dumps of `output_hashes.py`'s desk-forward line: the
one line that needs no data set or fit, so the check takes about a second."""

import shutil

import numpy as np
import pytest

import output_diff
import output_hashes


@pytest.fixture(scope="module")
def dumped(tmp_path_factory):
    root = tmp_path_factory.mktemp("dump")
    output_hashes.dump(output_hashes.forward_outputs(), root)
    return root


def diff_rows(a, b, capsys) -> list:
    output_diff.main([str(a), str(b)])
    return capsys.readouterr().out.splitlines()


def test_the_dump_holds_every_kind_of_array(dumped):
    assert {p.stem for p in (dumped / "desk_forward").glob("*.npy")} == {
        "logits", "modulator", "classes", "masks"}
    assert np.load(dumped / "desk_forward" / "masks.npy").shape == (4, 5, 96, 96)
    assert (dumped / "hashes.txt").read_text().startswith("desk_forward ")


def test_a_dump_against_itself_prints_zeros(dumped, capsys):
    assert diff_rows(dumped, dumped, capsys) == [
        "desk_forward equal max_abs 0 max_rel 0 classes_changed 0/4 mask_cells_changed 0"]


def test_one_perturbed_logit_prints_its_difference(dumped, tmp_path, capsys):
    shutil.copytree(dumped, tmp_path / "b")
    path = tmp_path / "b" / "desk_forward" / "logits.npy"
    logits = np.load(path)
    bumped = logits.copy()
    bumped[2, 1] += np.float32(0.25)
    np.save(path, bumped)
    d = float(bumped[2, 1]) - float(logits[2, 1])
    rel = d / float(np.abs(logits).max())
    # the hashes file is the dumped one, so the hashes still read equal
    assert diff_rows(dumped, tmp_path / "b", capsys) == [
        f"desk_forward equal max_abs {d:.3g} max_rel {rel:.3g} classes_changed 0/4 "
        "mask_cells_changed 0"]
