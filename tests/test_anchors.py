"""Default outputs against the anchors in ``anchors.json``.

The anchors were made with ``tests/anchors.py``; a change that moves
them on purpose regenerates the file with that script.
"""

import pytest

import anchors

RECORDED = anchors.load()


@pytest.fixture(autouse=True)
def _same_environment():
    mismatch = anchors.environment_mismatch(RECORDED["environment"])
    if mismatch:
        pytest.fail("anchors need the recorded environment:\n" + "\n".join(mismatch))


def test_bit_anchors():
    moved = anchors.moved(RECORDED["bits"], anchors.bit_anchors())
    assert not moved, "\n".join(moved)


def test_cli_anchors(tmp_path):
    moved = anchors.moved(RECORDED["cli"], anchors.cli_anchors(str(tmp_path)))
    assert not moved, "\n".join(moved)


def test_environment_mismatch_names_the_difference():
    recorded = dict(RECORDED["environment"], numpy="0.0")
    assert anchors.environment_mismatch(recorded) == [
        f"numpy: anchors made under '0.0', running {anchors.environment()['numpy']!r}"
    ]
