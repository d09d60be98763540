"""The caps in force: one setting, read by `current_caps` and set for a
block by `limits`."""

import pytest

from transferlab.caps import DEFAULT_CAPS, CapExceeded, Caps, current_caps, limits
from transferlab.catalog import dihedral
from transferlab.iso import automorphism_group


def test_default_caps_are_in_force_outside_any_block():
    assert current_caps() is DEFAULT_CAPS


def test_limits_nest_and_restore_after_an_exception():
    outer, inner = Caps(aut_cap=8), Caps(aut_cap=7)
    with limits(outer) as in_force:
        assert in_force is outer and current_caps() is outer
        with pytest.raises(CapExceeded, match="cap is 7"), limits(inner):
            assert current_caps() is inner
            automorphism_group(dihedral(8))
        assert current_caps() is outer
        assert len(automorphism_group(dihedral(8))) == 8
    assert current_caps() is DEFAULT_CAPS

