"""Inputs rejected before any work: a prime that does not divide |G| is
never factored, and a catalog label must be a non-empty string."""

import pytest

from transferlab import cli, sylow
from transferlab.catalog import load_catalog, symmetric
from transferlab.cli import main
from transferlab.sylow import sylow_subgroup

HUGE_PRIME = 1000000000000000003  # factoring it by trial division runs to 10^9


def _refuse_factoring(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(cli, "prime_divisors", refuse)
    monkeypatch.setattr(sylow, "prime_divisors", refuse)


@pytest.mark.parametrize("p", [HUGE_PRIME, 0, -2, 1, 25])
def test_a_prime_not_dividing_the_order_is_rejected_unfactored(monkeypatch, capsys, p):
    _refuse_factoring(monkeypatch)
    assert main(["analyze", "S4", "--prime", str(p)]) == 2
    assert "--prime must be a prime dividing the group order 24" in capsys.readouterr().err
    with pytest.raises(ValueError, match="not a prime dividing"):
        sylow_subgroup(symmetric(4), p)


@pytest.mark.parametrize("p", [4, 6, 12])
def test_the_cli_rejects_a_composite_divisor(capsys, p):
    """A divisor of |G| reaches the primality test, the last one."""
    assert main(["analyze", "S4", "--prime", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: --prime must be a prime")


def test_an_empty_catalog_label_is_rejected_with_its_line(tmp_path):
    """An empty label would have `run_checker` name the group by its
    degree, "group(deg 3)", which another entry may use as its label."""
    path = tmp_path / "cat.jsonl"
    path.write_text(
        '{"label": "group(deg 3)", "degree": 3, "generators": [[1, 2, 0]]}\n'
        '{"label": "", "degree": 3, "generators": [[1, 0, 2]]}\n'
    )
    with pytest.raises(ValueError, match=r"cat.jsonl:2: .*label must be a non-empty string"):
        load_catalog(str(path))
