"""Known-answer vectors for the sponge hash, the MAC and the MMIO engine.

Every digest below is a literal pinned from the original, unoptimised
permutation (a loop of ``_quarter_round`` calls).  Self-consistency
tests cannot catch a rewrite of the permutation that changes every
digest the same way; these can.  Inputs come from seeded
``random.Random`` streams, so they are fixed bytes.
"""

import random

import pytest
from hypothesis import given, strategies as st

from repro.crypto import SpongeHash, mac, sponge_hash
from repro.crypto.sponge import _ROUND_CONSTANTS, _permute
from repro.machine.devices import crypto_engine as ce

#: Shared 72-byte input; ``sponge_hash(BASE[:n])`` is ``SHORT[n]``.
BASE = random.Random(14).randbytes(72)

SHORT = (
    "46bfda69a653d17b13f89e6542159b60",  # 0
    "624af3800aa0c6fd52c9c1ae6b9238a2",  # 1
    "57401619f922dca3e150d0b492b05591",  # 2
    "40a2f1465a8f18e91950e81be72d2537",  # 3
    "ad42801210fe191aa57ef2574840b19a",  # 4
    "50e20be362c6cdbadfb3d22f3badd7ef",  # 5
    "6632ef219dd8014248d9aa988e08662c",  # 6
    "e6bd63f5f480d826128ec608ee813348",  # 7
    "1c820ea907597bd6ec3e2b92e148a266",  # 8
    "4f7d379d2d7e249fa4898d2f2f4f87d6",  # 9
    "37c25698d8420cd2610006a48169193f",  # 10
    "0dc245d7e4941946dce839e765f82911",  # 11
    "23ffe506303a9c139b31f56e34d04ddb",  # 12
    "e726bd6c1b9d218f8a8fdcee1904f740",  # 13
    "9e57b7652a175da10be30176492f8c54",  # 14
    "09abf3914df5d1e1e677a5110b89d5ff",  # 15
    "2f9ed9bb9b983f8a0126b1e261fa63ce",  # 16
    "48feb83aef13743bd310df299a0c8bce",  # 17
    "6fad50a12c25a6cc1c67868ea04c7426",  # 18
    "bd9679372904a3e7ca2311e5e64590ff",  # 19
    "1607af9c03b4e76cdea30905777df4fa",  # 20
    "d3b6be284c3bcea3b180461af0f0aab5",  # 21
    "d5e75e276ce22aafb76e7ffde4f51d58",  # 22
    "44582323ab1cd7f775a03e157c0959de",  # 23
    "5a7cfa9be65c995ad7175d4429550daf",  # 24
    "1747ec4695a4c910ddba88521d26d2f1",  # 25
    "31163778c7523e099f09e9fb8e0ed780",  # 26
    "9b71ff0c1c41847d6c1dac1f43c8ddcd",  # 27
    "1b7e56fb3fb9181ca5935202c9555587",  # 28
    "855324343566dcf1774fca555f602294",  # 29
    "8d553a9028938fa841468b97f204dd64",  # 30
    "c3602a81862280501732f938f4148c11",  # 31
    "adfefb535e8ccdba0009c9d43de315d7",  # 32
    "b776b559519c496f33ec99725fbc8260",  # 33
    "b02c42d09135e78429b626c211540cbf",  # 34
    "e80158edba926a891882d0f3582f0671",  # 35
    "a1dcb555ace1c7e923dc140cb05bac84",  # 36
    "650b0cdc8a66a1618ed610fd13d90f09",  # 37
    "d750fa0a391df0851a3dedecaf2ff374",  # 38
    "a63a78ef01b62f448e440ddb26882721",  # 39
    "54ea8d3c9142f598a4d406c6236b8bf5",  # 40
    "2fdd853f1aee77e345cd110b4ae89e03",  # 41
    "da3d03d8fe35ced2ae7618df7bfaadc9",  # 42
    "9f968a76663d4622d6a0937e336ed3cd",  # 43
    "91bca33ac3fb819e4150586a93851296",  # 44
    "7c64e3cfbc2d52dd82e9582276ef7a8f",  # 45
    "4ae2f083192faabb4daf865f15871da9",  # 46
    "f9a2471652ee426cd564ca2c2378f518",  # 47
    "c2a5494ac15f08f444ae04781c683e9d",  # 48
    "bfffd837111a3328ae32bff2bfd65bad",  # 49
    "b7062c3b3d914a413e770d7e28bd2773",  # 50
    "2358fe4ce77555c346b90a37aa54f617",  # 51
    "99e9e9b12852afc9b0de280ef435057c",  # 52
    "b9307c173fab577d657c6db48e617338",  # 53
    "db073873fce66b291f50157e115927ad",  # 54
    "7456a669033bd38fba90986802ef99cc",  # 55
    "a37e33d25aec2374499f76351e2b7b9e",  # 56
    "41b7ea9d835e10c829618c00d19941f9",  # 57
    "5c0341d5d4683ddfaa803078b62590b9",  # 58
    "c30ced2419057f178c8c31c5fb99bca5",  # 59
    "9ecb765a421a8d27a17ae82af7ef3c31",  # 60
    "36b7585f2f09eb9608e156528de3b073",  # 61
    "60e754bf68c4dd2ca5299411da96e3ed",  # 62
    "eeb3dc87fe3b720a7706e5955c8e12d2",  # 63
    "959777d87ab6b1237cbb03971d995f9f",  # 64
    "18b431e65c8e53a9e8be54ea66c965fc",  # 65
    "2eeeac6485be6c58d08013150ef1ab52",  # 66
    "f84ce10b694f3c84ef2cfa897036190b",  # 67
    "bd5c30d2353f5ad87ac463f0a351b887",  # 68
    "8518ac71844e526d1c5595fbc7273c1d",  # 69
    "124ff848b9181a318347b1f4d6511a19",  # 70
    "ac238f8317cc5665eac64bf4de082861",  # 71
    "ba8333adbec24c1236b4f5487f3a4765",  # 72
)

KIB_DIGEST = "2108f567accdc62d5fc5622881cf2afe"
K64_DIGEST = "db95eb18e1ac9476c9266a1baa37d0be"

#: ``BASE[:24]``: exactly three rate blocks.
THREE_BLOCK_DIGEST = "5a7cfa9be65c995ad7175d4429550daf"

#: ``mac(key, BASE[:40])`` for keys of 0, 16 and 33 bytes.
MAC_DIGESTS = {
    0: "ba86ef112ddfb19927acac3c031cf542",
    16: "7f1a6c2f62f6bd48c59eab3822aaf932",
    33: "3d096d6ff9e0eaa7477bc859abd9ec82",
}

#: The engine absorbing ``BASE[:40]`` word by word, with
#: ``BASE[40:56]`` in the key slot for FINALIZE_MAC.
ENGINE_HASH_DIGEST = "54ea8d3c9142f598a4d406c6236b8bf5"
ENGINE_MAC_DIGEST = "337b07a4e98cf4b0aa9fc5d107e6e183"


@pytest.mark.parametrize("length", range(len(SHORT)))
def test_short_inputs(length):
    assert sponge_hash(BASE[:length]).hex() == SHORT[length]


def test_one_kib():
    data = random.Random(1024).randbytes(1024)
    assert sponge_hash(data).hex() == KIB_DIGEST


def test_sixty_four_kib():
    data = random.Random(65536).randbytes(65536)
    assert sponge_hash(data).hex() == K64_DIGEST


def test_incremental_update_at_every_split():
    data = BASE[:24]
    assert SpongeHash().update(data).digest().hex() == THREE_BLOCK_DIGEST
    for first in range(len(data) + 1):
        for second in range(first, len(data) + 1):
            hasher = SpongeHash()
            hasher.update(data[:first])
            hasher.update(data[first:second])
            hasher.update(data[second:])
            assert hasher.digest().hex() == THREE_BLOCK_DIGEST, (first, second)


def test_update_accepts_bytearray_and_memoryview():
    data = BASE[:24]
    assert SpongeHash().update(bytearray(data)).digest().hex() == \
        THREE_BLOCK_DIGEST
    assert SpongeHash().update(memoryview(data)).digest().hex() == \
        THREE_BLOCK_DIGEST


@pytest.mark.parametrize("key_len", sorted(MAC_DIGESTS))
def test_mac(key_len):
    key = random.Random(key_len + 100).randbytes(key_len)
    assert mac(key, BASE[:40]).hex() == MAC_DIGESTS[key_len]


def _engine_digest(command, key=None):
    engine = ce.CryptoEngine()
    if key is not None:
        for index in range(0, len(key), 4):
            engine.write(ce.KEY + index, 4,
                         int.from_bytes(key[index:index + 4], "little"))
    engine.write(ce.CTRL, 4, ce.CTRL_RESET)
    for index in range(0, 40, 4):
        engine.write(ce.DATA_IN, 4,
                     int.from_bytes(BASE[index:index + 4], "little"))
    engine.write(ce.CTRL, 4, command)
    assert engine.read(ce.STATUS, 4) == ce.STATUS_READY
    return b"".join(
        engine.read(ce.DIGEST + index, 4).to_bytes(4, "little")
        for index in range(0, 16, 4)
    )


def test_engine_finalize():
    assert _engine_digest(ce.CTRL_FINALIZE).hex() == ENGINE_HASH_DIGEST


def test_engine_finalize_mac():
    digest = _engine_digest(ce.CTRL_FINALIZE_MAC, key=BASE[40:56])
    assert digest.hex() == ENGINE_MAC_DIGEST


# -- the original permutation, kept as the reference ------------------------

def _rotl(value, amount):
    return ((value << amount) | (value >> (32 - amount))) & 0xFFFF_FFFF


def _quarter_round(state, a, b, c, d):
    state[a] = (state[a] + state[b]) & 0xFFFF_FFFF
    state[d] = _rotl(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & 0xFFFF_FFFF
    state[b] = _rotl(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & 0xFFFF_FFFF
    state[d] = _rotl(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & 0xFFFF_FFFF
    state[b] = _rotl(state[b] ^ state[c], 7)


def reference_permute(state):
    for constant in _ROUND_CONSTANTS:
        state[0] ^= constant
        _quarter_round(state, 0, 1, 2, 3)
        _quarter_round(state, 4, 5, 6, 7)
        _quarter_round(state, 0, 5, 2, 7)
        _quarter_round(state, 4, 1, 6, 3)


@given(st.lists(st.integers(0, 0xFFFF_FFFF), min_size=8, max_size=8))
def test_permutation_matches_the_reference(words):
    fast, slow = list(words), list(words)
    _permute(fast)
    reference_permute(slow)
    assert fast == slow
