"""The service certification matrix (DESIGN §10).

One test per row of :data:`certify.MATRIX` — host x wire protocol x
perturbation x resume host — except the :data:`certify.OWNED` rows,
which certification tests that predate the matrix run under their own
ids.  A certified row's perturbed run must land manifests that agree
with a calm run's; a refused row asserts the refusal; a gap is a
reasoned skip or a strict xfail, so

    pytest -rsx tests/test_certification.py

lists everything that is not certified.
"""

import glob
import os

import pytest

import certify


def _param(row):
    marks = ()
    if isinstance(row.state, str):
        marks = (pytest.mark.skip(reason=f"{row.id}: {row.state}"),)
    elif isinstance(row.state, tuple):
        reason = f"{row.id}: {row.state[1]}"
        marks = (pytest.mark.xfail(strict=True, reason=reason),)
    return pytest.param(row.id, id=row.id, marks=marks)


def test_every_owned_row_is_certified_by_its_owner():
    sources = "".join(
        open(path, encoding="utf-8").read()
        for path in glob.glob(os.path.join(os.path.dirname(__file__), "*.py"))
        if not path.endswith(("certify.py", "test_certification.py"))
    )
    for row_id in certify.OWNED:
        assert certify.ROWS[row_id].state is certify.OK, row_id
        assert f'"{row_id}"' in sources, f"no test runs {row_id}"


@pytest.mark.parametrize(
    "row_id",
    [_param(row) for row in certify.MATRIX if row.id not in certify.OWNED],
)
def test_cell(row_id, tmp_path, calm_root):
    certify.certify(row_id, tmp_path, calm_root)
