"""The criterion-10 run against its pinned numbers in tests/data."""

import importlib.util
from pathlib import Path

import numpy as np

from cvarvi.tables import read_table

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("write_criterion10", DATA / "write_criterion10.py")
writer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(writer)


def pinned(table) -> list[list[str]]:
    name, header = table
    return read_table((DATA / name).read_text(), header, name)


def test_criterion_10_run_matches_its_pin(tmp_path):
    """Rerun criterion10.cfg at workers = 1, as write_criterion10.py does.

    Row order (n_samples, rep) and statuses must match exactly, deviations
    and kappa_ref within 1e-9 relative, and h_ref within 1e-9 of its
    largest entry, as its idle paths carry rounding-sized flows. The
    tolerance is on purpose: another numpy, SciPy or BLAS build may round
    the last bits differently, and byte identity is the job of checks on
    one machine (the CI's cmp of --jobs 1 against --jobs 2). A change at
    the level of rounding passes; a change in the kappa-hat stream, the
    reference or the solve fails, and a change that means to move these
    numbers reruns the script and says so, with the largest change.
    """
    got = writer.run_tables(tmp_path)
    want = pinned(writer.RESULTS)
    rows = got[writer.RESULTS[0]]
    assert [(n, rep, status) for n, rep, _, status in rows] == \
        [(int(n), int(rep), status) for n, rep, _, status in want]
    np.testing.assert_allclose([row[2] for row in rows], [float(row[2]) for row in want], rtol=1e-9)

    want = np.array(pinned(writer.REFERENCE), dtype=float)
    got = np.array(got[writer.REFERENCE[0]])
    assert got[:, 0].tolist() == want[:, 0].tolist()
    np.testing.assert_allclose(got[:, 1], want[:, 1], rtol=1e-9)
    np.testing.assert_allclose(got[:, 2], want[:, 2], rtol=0, atol=1e-9 * np.abs(want[:, 2]).max())
