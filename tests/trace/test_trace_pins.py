"""Identity pins of the ten benchmark traces.

Each kernel has one emitter, its chunked ``emit_chunk``, so these pins
are what holds a benchmark's stream in place: a calibration edit that
moves any column, or that consumes a different number of draws, shows
up here.  Each pin is the SHA-256 of all ten ``TRACE_COLUMN_NAMES``
(each gathered per instruction as ``int64``) followed by the final
bit-generator state of the generator the trace was drawn from.  A
deliberate change to a stream re-pins the table by printing
``trace_digest(name, length, seed)`` for every key.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.trace.records import TRACE_COLUMN_NAMES
from repro.trace.workloads import generate_trace, get_profile, trace_rng

#: ``(benchmark, trace length, seed) -> sha256``.
PINNED = {
    ("applu", 4000, 1):
        "8722edbda10b32e5d4fe626b25dee49ffdc15caecf98b57e6c08407bddc7f15c",
    ("applu", 4000, 2):
        "5a1fd0a29d39fc8ced542dcf18ad8e99ca94ff050298403cc781bebd31dbf9c4",
    ("applu", 20000, 1):
        "81e257f4f22ca55e046e206fee61c4bd046d2086487ef8b64021bd2e61332e14",
    ("applu", 20000, 2):
        "98c7e643a1f468e55dda186453a0210e0aa62bb0e4d950738adbef14e6cfa9aa",
    ("compress", 4000, 1):
        "134bc31c105e13783e79606026a54d825c4a627c53793eee377e5c358cc80dd6",
    ("compress", 4000, 2):
        "8ef4e0fa88b0c21b9a47415d72fe4fdacac138888c1ab1916deaf597ce5a5163",
    ("compress", 20000, 1):
        "bd46061e36d2e4eba85992de173cf8f53625cd98cf89794013499a5a18b19774",
    ("compress", 20000, 2):
        "7bb1bf13f05b779e709f3b016adddf1ddf2eb83201617f3c34b9961282304045",
    ("gcc", 4000, 1):
        "5c0a78156132f6ec6fe6adfb41b883a752135d4a008ceb2cc66d4e008b3810db",
    ("gcc", 4000, 2):
        "af3c6ac9c0165c9a03bf6240b3b80c60d43e62bbf35bb55d56dbe02916e8b84d",
    ("gcc", 20000, 1):
        "c8f218aed48812b165fe7f10b20ee235866381a9c3404ededfda19e80f8d91b7",
    ("gcc", 20000, 2):
        "45abbd485d5dd87f102223ed757460c62a4a7b7b6a514ca73eb044b970942b2a",
    ("go", 4000, 1):
        "0317126e0009c9fe80e93a362f53a945eacf20badfe7a426099c87c0cfbc71ff",
    ("go", 4000, 2):
        "a194619b39df96fad16faebc664beb3751036831e6a9a904946f23d090127f60",
    ("go", 20000, 1):
        "b0aaf81ae4be32b7e5a6052e14016024abfa7fb47b8296d03090351a3b2506e5",
    ("go", 20000, 2):
        "001fe85a3896060add70a859da7e1d01aad78c551c77255d78cbc4f54782dab5",
    ("hydro2d", 4000, 1):
        "f521b73ee5ba132c929cc0a4f6d42e3c62bfc7fb2f3f2be57419cb093a40b16e",
    ("hydro2d", 4000, 2):
        "dc5252006c261d1bbf01d6b60e526fb2d612a47994b817f2bfa1f1234919835a",
    ("hydro2d", 20000, 1):
        "40cbdc254a23a838331fb9ed448837834af6af9f14c3281698a6389ace265fe3",
    ("hydro2d", 20000, 2):
        "52dcd262bfb7e3d8892e0e2d5444bf97a7212f8ecd14a3e886f7fcfcd30e42cc",
    ("li", 4000, 1):
        "16243f15e361896b2f16dbb8d6a5378d16d1ded65918e4e7265f43d67e224716",
    ("li", 4000, 2):
        "94eb3030ac6d4796c22bb806aa31c8c600ea8f75c63144f3d2e6b5cd33702d2d",
    ("li", 20000, 1):
        "6696bff62653015691731d91e8927e88f11a57318b1cfac87fe49d69a73d25c5",
    ("li", 20000, 2):
        "2cd22e4e75034bcdf409219e316845dd9861378a8a7faff1049e6c0de0480f7f",
    ("mgrid", 4000, 1):
        "26b8f6d9ffb3c350d0f9251d7e051afc60067379f7702d8e2fa431f2f1395147",
    ("mgrid", 4000, 2):
        "b480ebe8dc8a87463ed609f67ef3c6bb74cd2e6a1331952f0aa2a2c25a2d4a8e",
    ("mgrid", 20000, 1):
        "b941e30404c6a70a1b2e3d0520ae4cfbab9aa4a4d86a99a00da6033cf61c21a4",
    ("mgrid", 20000, 2):
        "4261dc383cd4d60ed4153d0e7d28e259f9de7f487cb65733299248d62b834273",
    ("perl", 4000, 1):
        "9dc00735b7ad0a14b40196ee38d63a30963fda252e8684c49e71353eab4d079a",
    ("perl", 4000, 2):
        "381b49d6391fc6e0cd08ef6aa369b9e0db2fefbd91aea1a2dc743aef9d07549f",
    ("perl", 20000, 1):
        "c9efbe5ddf181827590bb5dc74aacad8ac1814c044a7f68e0c54003b79c1ed74",
    ("perl", 20000, 2):
        "614e69c948b70ebd3fadde31a4bd3bad33cce5f8fb8be4aabed2c96d7c52eed1",
    ("swim", 4000, 1):
        "e2b0ee862e562a249547664db9f98ae3756353b29b0fc206bbcbdffc8c79550b",
    ("swim", 4000, 2):
        "41aa900660bda011fc68697192c48f8d57be8ce0d556c98fee36a125a8456226",
    ("swim", 20000, 1):
        "57e860306ff61e791a0d3842ec8e51ea2bd70a82161b5d8f00ab603bc0a2909c",
    ("swim", 20000, 2):
        "f1afa8d6a85647247f04cee7fdc2dbeafdbfa1378269d25c102b51452d4cb37d",
    ("tomcatv", 4000, 1):
        "4955eeff36f1a99f747a510596df59024b70ee6ef52ad19f32c9085380d8d06c",
    ("tomcatv", 4000, 2):
        "56117cac801901b252eda1c3db5a8d4b646cf6dbaf732c1b3d2c225aec8cfae2",
    ("tomcatv", 20000, 1):
        "19e6c4c0b275aab072b07117ca9cda90d9e39656fde85a1013daff58464df9d0",
    ("tomcatv", 20000, 2):
        "217180aef23bf3f444a8d30ad6fd491e642082e6ddf3e63b82f93f9d87b40feb",
}


def trace_digest(name: str, length: int, seed: int) -> str:
    """SHA-256 of the ten columns and the final bit-generator state."""
    profile = get_profile(name)
    rng = trace_rng(profile, seed)
    columns = generate_trace(profile, length, seed=seed, rng=rng).columns
    digest = hashlib.sha256()
    for column in TRACE_COLUMN_NAMES:
        digest.update(column.encode())
        digest.update(np.ascontiguousarray(columns.gather(column),
                                           dtype=np.int64).tobytes())
    digest.update(json.dumps(rng.bit_generator.state,
                             sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name,length,seed", sorted(PINNED))
def test_benchmark_trace_is_pinned(name, length, seed):
    assert trace_digest(name, length, seed) == PINNED[(name, length, seed)]
