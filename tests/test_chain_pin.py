"""Pins the stabilizer chain output of every corpus group.

Each digest covers the base points and the elements() order.  Sylow
subgroups start from the first p-singular element in that order, and
some scan records print literal conjugators, so a chain rework that
reorders elements changes answers even when every order is right.  The
digests were taken before the chain and coset rework.
"""

import hashlib

import pytest

from transferlab.catalog import default_corpus


def chain_digest(g) -> str:
    h = hashlib.sha256()
    h.update(repr([lvl.base for lvl in g.chain]).encode())
    for p in g.elements():
        h.update(repr(tuple(p.images)).encode())
    return h.hexdigest()


PINNED = {
    "S2": "f09220afcc63e69c243d24bcf258f464033816c7bb80bea14956516ebee47a24",
    "S3": "fea9f4ef321411ee867041dd045a996b149ce2cdcaac37d2f8506ec097c61eed",
    "S4": "605c47efc8b30ff346e46e095291a1109ef1b1eb59e4d2864d346e9c56a488cf",
    "S5": "f771931d544078ebd9bdef52035307372bddcf4e894834fa07c1ec385b79ca93",
    "S6": "b8bac3949c1ea292419a61940a287c951f3081cd16f5e46d612276008d32b59f",
    "A3": "982a4ed0b8554046d187d5bf3b23e2f428d42969ffdaf0a183c82af4b9c5e5d7",
    "A4": "63fc7504e618dbdd71c07b3602f3be9a0db170b572672c3c8fa0c2fdfa815a73",
    "A5": "3e439a5e119fc7bbb2302621d485f877cb5b5202a7dee906c948ca954d14dccd",
    "A6": "b0512448235d5c18fe121f53aff41dd33afddf85d14039da0f1dea714e2a1853",
    "C2": "f09220afcc63e69c243d24bcf258f464033816c7bb80bea14956516ebee47a24",
    "C3": "982a4ed0b8554046d187d5bf3b23e2f428d42969ffdaf0a183c82af4b9c5e5d7",
    "C4": "980bb935fd7db28a5b3461d33c1697fb68af5231fe1e8c09e946645abfc0c3f4",
    "C5": "51ea000ade871b9183b2dda7fc5204e094800bc4959216895da64c96f98e5363",
    "C6": "f43667bd663edfc1cab364700d37810fcea3fd1ab4c9b97c8256d253f6d74782",
    "C8": "28d2feb8a5e9610ac3812efdce11c00d344de80355d9b381def2813d4f734b0b",
    "C9": "a42e1125f4678d367ee9753326c82243b36f7ddea96dbb9f45fd762a60598fd4",
    "C12": "aca863e378a72ec4b0f3f218a8d43abda8e9bceab3a2f21f720b25dc9e755674",
    "D6": "22dd76a572ed887d3c6ef19672bafee3e4438f6ec9507ff18fb4c34f6f51da89",
    "D8": "31157e6db590c52354e2312e089e5e8e2388d8b33c26db40aa7bbeb15fa2b1fc",
    "D10": "37ed37175468343329dcb0c00c3df8bfa9f1ac8cd75634f40c12ba7c04ae10bd",
    "D12": "e0a8186d58b446f5a65a2b92128ab77a5508f04a64ebf625ff1afdacbc3a637b",
    "D16": "0437aa533b045f4ec180bde8a7755272d90562ddf2fe13a46714cf31201cc87d",
    "Q8": "46b4bdadb804cfe7827c5fad33aed31bf563c898c427e737d51a7c77921eeb12",
    "Q16": "e3c8c4f558afb005bd903985475595b912b098693a7687473f39bf1e6fbdcc74",
    "Q32": "3c2f94e871249e1baeb9b2e499636fe9933b67f673acd312549cec0527c0af47",
    "E2^2": "f67e4df05a8c105e23f1d766580c4bedcbbe6bcc7a8923ba3b4a2a103dfdaf1d",
    "E2^3": "884f274bc2843d30ff1e121b29309d9ca7fa3ec87f46da99857b75e715fd4b62",
    "E3^2": "98284a9a0fc6139e4b04a7d94ed4cdfb90f43137d96e2728e5c1106058b65d3e",
    "E5^2": "83b5d3b563771a9a177b1fdb433fc175fc743e0fbf93f45ec9d9dfbb96586a07",
    "Z2wrZ2": "fa288d14da0dd1acada43a27b3a340856c56e13b9d76d1bd23fbe37e64f95fee",
    "Z3wrZ3": "c495f2f1b1075a38dd9e8616e08f3a148efa8e2a2e6be165877a5fa812ab82b1",
    "PSL(2,5)": "b04470b4ed04c64dcc0cd729fa8f5e06e6ea4d2d3e457c15b84f47f7a46abe23",
    "PSL(2,7)": "1022ce72705e70a77b7e357e333fd15e3e9d88246bde049836e56f8caacca4fa",
    "PSL(2,17)": "f0b41cf79628f2a79610e7214a6d211958c7a6cde954e015557d1b289961caf4",
    "SL(2,3)": "1e86b0f97672bd31c98632a4addbeb55415a9e8f517887922ffad452e845ee67",
    "C2xC4": "7bc97a044d1af482646d98c12317af30c6c59c5b4e64464c80a16b7ff30bdd6e",
    "C2xD8": "5f5ab08e2c92d557f7088f031d58b3f27effd4c81313f872b56eafda113cc0fc",
    "C2xQ8": "705bc95b402f8fd9a779fdf4bf8ed80a5ed1e09ed604c8b9eeb657f666930ed3",
    "S3xS3": "cacad0bc8c8374e7415c4b61a7bb5a8f4377932e736e42d9a23c6fa10bb57e2f",
    "A4xC2": "5ea95563c44c14675c789a0b464fdf77002dc6c96aeaa8d7df015e7906861f88",
    "D6xC3": "4988947a8fe696c0c91a1d47ee1ebea928e361ea47561c16952ee6d6318e077c",
    "C3xC9": "cfb066863a33ac6ef39ac70712190b74c7000b561236d78aa023e3a85036bad8",
}


def test_pin_covers_corpus():
    assert sorted(PINNED) == sorted(e.label for e in default_corpus())


@pytest.mark.parametrize("entry", default_corpus(), ids=lambda e: e.label)
def test_chain_digest_pinned(entry):
    assert chain_digest(entry.build()) == PINNED[entry.label]
