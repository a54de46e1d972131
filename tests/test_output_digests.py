"""Pinned CLI outputs: the sha256 of stdout and the exit code of a fixed set
of invocations.  A refactor must leave every one of them unchanged."""

import hashlib

import pytest

from confcoh import cli

DIGESTS = [
    ("verify --format json --m-range 2..12", 0, "1e8072123c211196a7ac2da80ca3531e197e81ca233ce1f6a0ab0db7deedec85"),
    ("verify --m-range 2..10 --verbose", 0, "2031df610e5840676baec23309f13e8144f5429089fa798607161de2e4de0a0f"),
    ("verify --m-range 2..32 --verbose", 0, "c7067559db022e49ac47ef744a596b9a514a8f7c436f2147deb13ae63bc13bcc"),
    ("groups --space B --m 7 --coefficients Z --format table", 0, "485155acdfc16ac2096ed01bbecb3ecdc6338642a7899d1219091f8c17dd5387"),
    ("groups --space B --m 7 --coefficients Z --format csv", 0, "ea94e91aff69353b9cf6b46b0116bdc89329babd3b67c4e01a49a8ad920465f3"),
    ("groups --space B --m 7 --coefficients Z --format json", 0, "ee3d76b07bd71d490b38ce54b0bbfe965f184cdad02aade8347f4b77b7684bed"),
    ("groups --space B --m 7 --coefficients twisted --format table", 0, "168ebf65d2301b39e12ef645a92eba2a099d1e2db311402363f35dc6af29831f"),
    ("groups --space B --m 7 --coefficients twisted --format csv", 0, "62c3e087fdd055fdad0ece38758bb15059a506dc574ab23b309e707a34565a5c"),
    ("groups --space B --m 7 --coefficients twisted --format json", 0, "eb2a1a8805879d39840d92c01e880573ccaa346cdd05ad9a54a3af8991d774c8"),
    ("groups --space B --m 7 --coefficients F2 --format table", 0, "018b64db2f2fec9eae07633eeb3a65fe22aabad26e7248146ead4539396a1747"),
    ("groups --space B --m 7 --coefficients F2 --format csv", 0, "2ecdbb9c9e68cf886b25fcc4d07d4233a8bd22d6c35320b1615e7c300fdc31e6"),
    ("groups --space B --m 7 --coefficients F2 --format json", 0, "acd066b68e4cf39e1ad3888a1e14eb48aa164ccedf062a7fcd898f07417f9634"),
    ("groups --space B --m 7 --homology --format table", 0, "a4ce1d1ed0cdc09cae5d83fc3dfdcd3b984a3cb439f67bd8cf08519df935de4b"),
    ("groups --space B --m 7 --homology --format csv", 0, "5d534be7e348b41f2a675995533b162b43553bd088d0614ea05e284b60a8cf87"),
    ("groups --space B --m 7 --homology --format json", 0, "28b588bdbe905cb0700635fd82a0130b6419dccfceeadf560648c3f9c221bccc"),
    ("groups --space F --m 7 --coefficients Z --format table", 0, "ec6b10b14c61fde2cd2b207e8b3469b3e5f08b8efd8969f7f72a4d9ea5e06c6c"),
    ("groups --space F --m 7 --coefficients Z --format csv", 0, "2746eaf5acce00dd59a7f6c94882d09364ddc635c7fc9c218eadc28feac541f8"),
    ("groups --space F --m 7 --coefficients Z --format json", 0, "26b71f948dbd46dbe5fbe02c97e8c5280bf94e398cb26b425c485d243e7807f1"),
    ("groups --space F --m 7 --coefficients twisted --format table", 0, "f637aa86862a45aa407e73222584bbcfd8f8ee078f5a584bf461ebc21ca60461"),
    ("groups --space F --m 7 --coefficients twisted --format csv", 0, "ec7f146e09c2b85c844056cf982ab5eb5639e84e5df62c661a3cd790507fb442"),
    ("groups --space F --m 7 --coefficients twisted --format json", 0, "5d365fee6bebba77bccdbea178990e4e1358b23b215bee91ee5a459d2b6def5f"),
    ("groups --space F --m 7 --coefficients F2 --format table", 0, "577a8b85d88248d266ff06b3059425c6724729d23b30f20536d8073c57117de8"),
    ("groups --space F --m 7 --coefficients F2 --format csv", 0, "2ecdbb9c9e68cf886b25fcc4d07d4233a8bd22d6c35320b1615e7c300fdc31e6"),
    ("groups --space F --m 7 --coefficients F2 --format json", 0, "91f9884002b7a3c7fc90f264527e4f10acb71274fa861c142f9b36c0b13776da"),
    ("groups --space F --m 7 --homology --format table", 0, "bfb4947e8109d52645158502236925ab49315a1aeaecbb0efdfa06ecbd669b15"),
    ("groups --space F --m 7 --homology --format csv", 0, "5d27cd15b2eb430b2fbd5987e7757d9ecc868e4f5c0909b59f7c5bb9b2542386"),
    ("groups --space F --m 7 --homology --format json", 0, "c9e577c475060834ad92916861511af28b1bf4cdca797056e863b37a9a6eacdb"),
    ("groups --space B --m 301 --format csv", 0, "ae1773031c168941e34d4698b9fd4662d55743d7cc35f49aaf0fdee75c31f771"),
    ("groups --space B --m 302 --format csv", 0, "5a9fd2ac95c887654b0de76fb5af2796c8b1ae40af0de0194fba1b5b0eafc1f5"),
    ("groups --space B --m 303 --format csv", 0, "5beffeeaed39c14b4e4a66610b6b082f46f962e54ac6e58beacbfdd8a3d78752"),
    ("groups --space B --m 304 --format csv", 0, "eb3f8e4cfcc4dae936142df324b2535f72a24607457892d736cae1c61e1df570"),
    ("groups --space F --m 301 --format csv", 0, "27b164550a4d8bb3bd97f5c58708c6171ae76c13cd916c8dcf44f99b6880eb82"),
    ("groups --space F --m 302 --format csv", 0, "a4b9c896ebd86bbc4242f8380362ef3736404a24dd391d6ad30aee744b36ed3d"),
    ("groups --space F --m 303 --format csv", 0, "27d929dc7076d15ced1ef1ad3e46609c9d70a61e0ee741e0d0f3c33e87d23436"),
    ("groups --space F --m 304 --format csv", 0, "531390cd46a87ad4338aee66e910eab361f2ff386ce3041889223428c0c36080"),
    ("table1", 0, "19a44d9cd565c267daa8ba0e8f7021ce3939665fe0f469d0efa8676b751e5775"),
    ("table1 --format csv", 0, "c03e8825826717779258bc78dd1f4b35ec5040a23ff80f81d95f7d8ae4cf856e"),
    ("table1 --format json", 0, "6d762e85bb5c685f2b2db398d338209eb9a5623436139cc988eb4aeb976a5690"),
]


@pytest.mark.parametrize("argv, code, digest", DIGESTS, ids=[a for a, _, _ in DIGESTS])
def test_output_digest(capsys, argv, code, digest):
    got_code = cli.main(argv.split())
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (got_code, got) == (code, digest), (
        f"`confcoh {argv}` changed its output or exit code. Update the pinned "
        "digest only for an intended output change, and record that change "
        "in CHANGES.md."
    )
