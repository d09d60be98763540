"""Pins the subgroup lattices: every subgroup that `all_subgroups`,
`normal_subgroups` and `characteristic_subgroups_above` return, with the
chain it carries, and bounds the chain builds that make them.

The checkers read these subgroups in list order, but no record prints a
lattice subgroup's generators or elements: the one record field that
prints an element is `aux_gruen_instance`'s `conjugator`, at p = 2 for
A6, PSL(2,7), PSL(2,17), S4, S5 and S6, and it comes from the Sylow
subgroup and a right transversal, not from the lattice.  So a lattice
rework that picks another join for a subgroup, or builds its chain
another way, fails these pins even when every element set and every
record is unchanged.  Each digest (first 16 hex digits
of a sha256) covers, for every subgroup in list order, its gens, each
chain level's base point, level generators and sorted transversal
points, and its elements() order.  The digests were taken before the
lattice closure found each join's element set by cosets, while every
(subgroup, atom) join still built a chain of its own.
"""

import hashlib
import sys

import pytest

from transferlab import group as group_module
from transferlab.catalog import default_corpus
from transferlab.group import PermGroup
from transferlab.iso import all_subgroups, normal_subgroups, prime_divisors
from transferlab.sylow import characteristic_subgroups_above, sylow_subgroup


def lattice_digest(subgroups) -> str:
    h = hashlib.sha256()
    for sub in subgroups:
        h.update(repr([tuple(g.images) for g in sub.gens]).encode())
        for lvl in sub.chain:
            level = (lvl.base, [tuple(s.images) for s in lvl.gens], sorted(lvl.transversal))
            h.update(repr(level).encode())
        for x in sub.elements():
            h.update(repr(tuple(x.images)).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


CORPUS = {e.label: e for e in default_corpus()}

# "<label>-p<prime>": (all, normal, characteristic) subgroups of the Sylow
PINNED_SYLOWS = {
    "S2-p2": ("560c99c434a00ba5", "560c99c434a00ba5", "560c99c434a00ba5"),
    "S3-p2": ("d985b3644364d4d6", "d985b3644364d4d6", "d985b3644364d4d6"),
    "S3-p3": ("a52d8032d7137623", "a52d8032d7137623", "a52d8032d7137623"),
    "S4-p2": ("7943fc34516cf3b6", "a49386471ddae136", "15e5b443a901e48a"),
    "S4-p3": ("ea1eac79ba88cd12", "ea1eac79ba88cd12", "ea1eac79ba88cd12"),
    "S5-p2": ("24b13b7da8bf2a59", "4fa6d03bce40d648", "576d59683212f873"),
    "S5-p3": ("8003fc6f641d25f4", "8003fc6f641d25f4", "8003fc6f641d25f4"),
    "S5-p5": ("72dcac5bd9fafb48", "72dcac5bd9fafb48", "72dcac5bd9fafb48"),
    "S6-p2": ("8e1b5144736ce17d", "5eaa1cbcd45a6189", "e190cc55ee92187c"),
    "S6-p3": ("314bd1a3f04d6f30", "314bd1a3f04d6f30", "c58b93dcd5975e2c"),
    "S6-p5": ("b1cfd3574c112ab5", "b1cfd3574c112ab5", "b1cfd3574c112ab5"),
    "A3-p3": ("a52d8032d7137623", "a52d8032d7137623", "a52d8032d7137623"),
    "A4-p2": ("23ded6d66faab053", "23ded6d66faab053", "7e42c2d2ee5efbb7"),
    "A4-p3": ("ea1eac79ba88cd12", "ea1eac79ba88cd12", "ea1eac79ba88cd12"),
    "A5-p2": ("923f9ff9b1a43c66", "923f9ff9b1a43c66", "bf74914f14ac381c"),
    "A5-p3": ("f17faf22a2356b69", "f17faf22a2356b69", "f17faf22a2356b69"),
    "A5-p5": ("ae78e81a8b54aa1d", "ae78e81a8b54aa1d", "ae78e81a8b54aa1d"),
    "A6-p2": ("edb15f6fafc6bd15", "bf109289523ea3cf", "159fdc2d0daeae51"),
    "A6-p3": ("314bd1a3f04d6f30", "314bd1a3f04d6f30", "c58b93dcd5975e2c"),
    "A6-p5": ("b1cfd3574c112ab5", "b1cfd3574c112ab5", "b1cfd3574c112ab5"),
    "C2-p2": ("560c99c434a00ba5", "560c99c434a00ba5", "560c99c434a00ba5"),
    "C3-p3": ("a52d8032d7137623", "a52d8032d7137623", "a52d8032d7137623"),
    "C4-p2": ("304d1cde79f994a6", "304d1cde79f994a6", "304d1cde79f994a6"),
    "C5-p5": ("72dcac5bd9fafb48", "72dcac5bd9fafb48", "72dcac5bd9fafb48"),
    "C6-p2": ("78c326b4237e5c68", "78c326b4237e5c68", "78c326b4237e5c68"),
    "C6-p3": ("c6d93c17c90f1d1a", "c6d93c17c90f1d1a", "c6d93c17c90f1d1a"),
    "C8-p2": ("bf0d2635c196b65d", "bf0d2635c196b65d", "bf0d2635c196b65d"),
    "C9-p3": ("290c31e8c47f4687", "290c31e8c47f4687", "290c31e8c47f4687"),
    "C12-p2": ("33165eaf81898590", "33165eaf81898590", "33165eaf81898590"),
    "C12-p3": ("e5b8b5fef1ad6bd5", "e5b8b5fef1ad6bd5", "e5b8b5fef1ad6bd5"),
    "D6-p2": ("d985b3644364d4d6", "d985b3644364d4d6", "d985b3644364d4d6"),
    "D6-p3": ("a52d8032d7137623", "a52d8032d7137623", "a52d8032d7137623"),
    "D8-p2": ("76c3a5c7e1ccb13d", "38fe1442e62d56bc", "2d9d1926d27ed6b6"),
    "D10-p2": ("6abe6eacc25eb116", "6abe6eacc25eb116", "6abe6eacc25eb116"),
    "D10-p5": ("72dcac5bd9fafb48", "72dcac5bd9fafb48", "72dcac5bd9fafb48"),
    "D12-p2": ("ff1056beaa6f4a01", "ff1056beaa6f4a01", "a6d3093ccee59179"),
    "D12-p3": ("c6d93c17c90f1d1a", "c6d93c17c90f1d1a", "c6d93c17c90f1d1a"),
    "D16-p2": ("08be2dc853e6ba08", "dd75360d30949cb7", "19d78494c8a2fc65"),
    "Q8-p2": ("0ae3cbd5e84c5ae1", "0ae3cbd5e84c5ae1", "c4413681a3bb2135"),
    "Q16-p2": ("9cd1ebeb062380f1", "79243dacd0f7a809", "76c21ae8ffcc7034"),
    "Q32-p2": ("8bfe3e4c0a76f27c", "c25eb7ac416b1d10", "909426afc92c4a6a"),
    "E2^2-p2": ("358f290da82ca0e2", "358f290da82ca0e2", "4b04cd98efe0b165"),
    "E2^3-p2": ("e97eb2a978d63095", "e97eb2a978d63095", "527f5d07c13f8aae"),
    "E3^2-p3": ("314bd1a3f04d6f30", "314bd1a3f04d6f30", "c58b93dcd5975e2c"),
    "E5^2-p5": ("b927386283d5d230", "b927386283d5d230", "edf2a9a42e925d12"),
    "Z2wrZ2-p2": ("7943fc34516cf3b6", "a49386471ddae136", "15e5b443a901e48a"),
    "Z3wrZ3-p3": ("80b9035fbb2a4002", "21efe0f53c48a64f", "9522735a0ec877a4"),
    "PSL(2,5)-p2": ("3df9668240c4cffe", "3df9668240c4cffe", "50a61e6c0a671c46"),
    "PSL(2,5)-p3": ("ee53273804e05e77", "ee53273804e05e77", "ee53273804e05e77"),
    "PSL(2,5)-p5": ("69ecad9af1114820", "69ecad9af1114820", "69ecad9af1114820"),
    "PSL(2,7)-p2": ("3730d40ad5a8a010", "9482c8507047da82", "d51354c90c8fcadc"),
    "PSL(2,7)-p3": ("bfc92cfb7f968dab", "bfc92cfb7f968dab", "bfc92cfb7f968dab"),
    "PSL(2,7)-p7": ("d520c0f711f5c3f3", "d520c0f711f5c3f3", "d520c0f711f5c3f3"),
    "PSL(2,17)-p2": ("4919d450f55db0be", "19a309fd438f354c", "5b4d47984db35066"),
    "PSL(2,17)-p3": ("54117b595041d81e", "54117b595041d81e", "54117b595041d81e"),
    "PSL(2,17)-p17": ("ec604fa6a9a5e241", "ec604fa6a9a5e241", "ec604fa6a9a5e241"),
    "SL(2,3)-p2": ("0530a658e0890aaa", "0530a658e0890aaa", "2e4f1572b4c666fb"),
    "SL(2,3)-p3": ("1fd9518ec9fbe5c3", "1fd9518ec9fbe5c3", "1fd9518ec9fbe5c3"),
    "C2xC4-p2": ("a85cd9eec2caf8a2", "a85cd9eec2caf8a2", "28b0b706fed009f2"),
    "C2xD8-p2": ("d1fd8234f5b5942e", "381c29a887438d90", "7fb76c7e31f2799a"),
    "C2xQ8-p2": ("2513a2868615a04b", "196b4254cc939fe2", "d092d4361888a56b"),
    "S3xS3-p2": ("b83e7f0b027c3c47", "b83e7f0b027c3c47", "e5be89c788183506"),
    "S3xS3-p3": ("314bd1a3f04d6f30", "314bd1a3f04d6f30", "c58b93dcd5975e2c"),
    "A4xC2-p2": ("9022fb52834d3f99", "9022fb52834d3f99", "7968ebb4f6be3ff6"),
    "A4xC2-p3": ("27a8b2f73c11d34b", "27a8b2f73c11d34b", "27a8b2f73c11d34b"),
    "D6xC3-p2": ("3a6fdf4a0d6b7e1d", "3a6fdf4a0d6b7e1d", "3a6fdf4a0d6b7e1d"),
    "D6xC3-p3": ("314bd1a3f04d6f30", "314bd1a3f04d6f30", "c58b93dcd5975e2c"),
    "C3xC9-p3": ("7e357f4c6c98caf4", "7e357f4c6c98caf4", "b95335d36f571d96"),
}

# all_subgroups of a few non-p-groups, whose lattices have many joins
PINNED_GROUPS = {
    "PSL(2,7)": "ff618b1c51fc6f52",
    "S5": "c20372f79c61fa10",
    "Z3wrZ3": "50f2be1081ee75b2",
}


def test_pin_covers_corpus_sylows():
    pairs = [
        f"{label}-p{p}" for label, e in CORPUS.items() for p in prime_divisors(e.expected_order)
    ]
    assert sorted(PINNED_SYLOWS) == sorted(pairs)


@pytest.mark.parametrize("pair", sorted(PINNED_SYLOWS))
def test_sylow_lattices_pinned(pair):
    label, p = pair.rsplit("-p", 1)
    p_syl = sylow_subgroup(CORPUS[label].build(), int(p))
    trivial = PermGroup(p_syl.degree, [])
    found = (
        lattice_digest(all_subgroups(p_syl)),
        lattice_digest(normal_subgroups(p_syl)),
        lattice_digest(characteristic_subgroups_above(p_syl, trivial)),
    )
    assert found == PINNED_SYLOWS[pair]


@pytest.mark.parametrize("label", sorted(PINNED_GROUPS))
def test_all_subgroups_pinned(label):
    assert lattice_digest(all_subgroups(CORPUS[label].build())) == PINNED_GROUPS[label]


@pytest.mark.parametrize("label", ["PSL(2,7)", "S5"])
def test_all_subgroups_builds_a_chain_only_for_each_new_subgroup(monkeypatch, label):
    """An atom's and a join's element set come first, and a new subgroup
    keeps that set and builds its chain only on first use, so listing the
    lattice builds no chain at all.  A chain per (subgroup, atom) join made
    14,309 builds for PSL(2,7)'s 179 subgroups, a chain per new subgroup
    268, and a chain per atom (the span of one element) one per element.
    Every module that holds `_build_chain` under its own name is counted,
    and reading one subgroup's chain shows that the count sees a build."""
    g = CORPUS[label].build()
    g.elements()
    real = group_module._build_chain
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("transferlab") and getattr(module, "_build_chain", None) is real:
            monkeypatch.setattr(module, "_build_chain", counting)
    subs = all_subgroups(g)
    assert calls == []
    subs[1].chain
    assert len(calls) == 1
