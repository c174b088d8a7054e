"""Tests of the frozen golden-value file and its toolchain.

The stored file is the contract: the fast library must reproduce every row
to 1e-12, and regenerating the file from the oracle must give back the
stored bytes, so neither side can drift silently.
"""

from procasphere.oracle.goldens import (
    _default_grid,
    _parse_param,
    check_goldens,
    generate_goldens,
    golden_path,
    load_goldens,
)


def test_golden_file_exists_and_is_big_enough():
    path = golden_path()
    assert path.is_file()
    rows = load_goldens()
    assert len(rows) >= 200
    ops = {op for op, _, _ in rows}
    # Every public numerical surface has frozen rows.
    assert {"s", "e", "sp", "ep", "st", "et", "log_delta_te", "log_delta_tm",
            "log_delta_tm_massless", "l_term"} <= ops


def test_fast_library_reproduces_goldens():
    n, worst, failures = check_goldens()
    assert failures == []
    assert n >= 200
    assert worst <= 1e-12


def test_rows_are_sorted_and_unique():
    text = golden_path().read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    assert lines == sorted(lines)
    assert len(lines) == len(set(lines))
    assert text.endswith("\n")


def test_regeneration_is_byte_identical():
    """Re-deriving every value from the oracle reproduces the stored file."""
    fresh = generate_goldens()
    stored = golden_path().read_text(encoding="utf-8")
    assert fresh == stored


def test_default_grid_covers_modes():
    grid = _default_grid()
    ops = {entry[0] for entry in grid}
    assert "l_term" in ops and "log_delta_tm_massless" in ops


def test_param_parsing():
    assert _parse_param("3") == 3 and isinstance(_parse_param("3"), int)
    assert _parse_param("2.5") == 2.5 and isinstance(_parse_param("2.5"), float)
    assert _parse_param("te") == "te"


def test_check_goldens_flags_a_corrupt_row(tmp_path):
    text = golden_path().read_text(encoding="utf-8")
    lines = text.splitlines()
    # Flip the mantissa of the first growing-solution row.
    for i, ln in enumerate(lines):
        if ln.startswith("s\t"):
            op, params, val = ln.split("\t")
            lines[i] = "\t".join((op, params, "1.5" + val.split(".", 1)[1]))
            break
    bad = tmp_path / "goldens.txt"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    n, worst, failures = check_goldens(path=bad)
    assert len(failures) == 1
    assert worst > 1e-12
