"""Bundles stay byte for byte what the recorded digests say.

Each digest is the sha256 of one bundle file written by `treeflow build`.
A change to the engine that alters any stored table, edge, aggregate,
provenance row or report shows up here as a mismatch. Depth 48 is where
`hyperimmune` first draws discard records, so both depths are pinned.
If a change is meant to alter bundles, record the new digests together
with the reason.
"""

import hashlib
import json

import pytest

from treeflow.cli import main

MULTI_NETWORK = {"family", "hyperimmune"}

DIGESTS = {
    ("nonstochastic", 12): {
        "config.json": "95ca5f0ab48d5c763294857bcc190a9760f38487fbe0be91c81d44cd2e26eca4",
        "levels.jsonl": "9d35b23fc14853abf88d838bedc913842ff3ce883b058236ee3a3b77f97ec8a2",
        "edges.jsonl": "ca7fbb13acd62591f034e7eb9be9cffb26889f7af893f9160531d4e1313a8a10",
        "aggregates.jsonl": "bcf816bc2c6ace9916fc0b4b2e101a8d8b527dcf9697f25551bdd1707b21c069",
        "provenance.jsonl": "cab7249f64b1300b3184f1fa76d208fc7fb165a408438a463a40fca2a239fd47",
        "report.json": "7416b31310bc20aad4022c94af64eccc2ea319e8fb23d14ed5d782050c52e4ba",
    },
    ("nonstochastic", 48): {
        "config.json": "38bc7a5ea9e9836319e5f5915e661df347df49ef1024d3f56c89dc6f8c508012",
        "levels.jsonl": "e639c68096ddd510d2d4ad8ff24f14777d9054122eff648b1b0196cf5d79de68",
        "edges.jsonl": "2a656195364bc814941568584b04569c71482b9dfe830543c8a7f3ad5c032e50",
        "aggregates.jsonl": "87d5512006e13383f1e75defb987f23d2d8ec09a6812ad6797dc54cd440c30a4",
        "provenance.jsonl": "e0d4b60fce492d40195fccaa79e25137addd4eded8a30beec7d6fe57017cfce1",
        "report.json": "bf5918ebd413c58c3bc394516f656c3a6e42402adf66ec967cd500da337529f0",
    },
    ("divisible", 12): {
        "config.json": "c9a63901199db27c66857e3cb2d8856025c6f13cc8a753a860c1a379907764de",
        "levels.jsonl": "083e8d1b3bc43ea303a3c8eac79bb2ddc29f4a23dead40fad6d6f782082a6176",
        "edges.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "aggregates.jsonl": "f15b4b5fd2bf8adb83767932c4cbe8e299370ae1655eb6329b596cb119103fbd",
        "provenance.jsonl": "a8db1c1e3e18703f2053e6d565cf23e5366bb8d1614b37640023fa249b0306ad",
        "report.json": "0031ca841fc92f3fb973a546aaeea0c2ab42fbe01b75a7bb34343e8cf86d1115",
    },
    ("divisible", 48): {
        "config.json": "1118d8a25400ac6686051b9861dc8f88d57e25bc3d06610ba4ef2a7f31c9a254",
        "levels.jsonl": "c157c4b353f4232c60b6ba7dd816f30b83e1a91b112125e8d0e8dad0998ca695",
        "edges.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "aggregates.jsonl": "74a1b7767f5bfd9570766769a5f5ba93293357b1bc810660213ce5491b702c01",
        "provenance.jsonl": "50d4b5c4f2570a02cff0423d4946f184a001d0c5f1ae3a14868cb82002c97d7c",
        "report.json": "e55b395aaedc11db014ee41927757bb1beecfde83d2ad9d8ce6efb83b7b6ec61",
    },
    ("atom", 12): {
        "config.json": "2c0ffab6d12fe2f98745f51fa995090c25233f0c1e708a8f4ff510804adb5cd1",
        "levels.jsonl": "d38e7e8f6f7c1ce3127c9f101b672909c7d04f8b51c9a7a8cf4754455aa5d9c7",
        "edges.jsonl": "83f9fec9aea9454e342cad249daaae6e9425882857d3b42e1cdda5d3929a4904",
        "aggregates.jsonl": "7051684c5e95f59fdd49a8070362d1115f00b8762853ad42e16308be83a5e74b",
        "provenance.jsonl": "d0efc57e58f97a8dd6da81d0d23fb99a876c73f07cf400305bc120882115fb3a",
        "report.json": "f18cd7e2801dfc3cf6ddb3c5e2bbdc13d7f82ef1c9b493fcbbcfc53396528afe",
    },
    ("atom", 48): {
        "config.json": "1a1538d65ad720dc40a6be7e59f2118348b7169560bf15eeccd25cfb6e5fb145",
        "levels.jsonl": "f5bec282b4e1d4fb67c08e1c3df41ce28c88564819aae239749c748e6f80767b",
        "edges.jsonl": "83f9fec9aea9454e342cad249daaae6e9425882857d3b42e1cdda5d3929a4904",
        "aggregates.jsonl": "0f31cb3d6db3ce1450fdca92f16322f54ccda6e81de591faaf2bdd62c5039004",
        "provenance.jsonl": "087291b659dc45d4b1b1dc58bfcdc68b5ca2d4265423ba5b2b6993758a5a21d0",
        "report.json": "a3013e5d7ba5484a95b488d745829625f3f96ba86e4004c35e6f6e9b5d160e9e",
    },
    ("family", 12): {
        "config.json": "a4d36d20e248e5e37d27835a4eb1932721a5802e9152f8e7de4a73572386fd8e",
        "levels.jsonl": "a979a082de1479bad469a7681d0f49b03c3ef7f595b80d4e96fda16e13c2030b",
        "edges.jsonl": "83f9fec9aea9454e342cad249daaae6e9425882857d3b42e1cdda5d3929a4904",
        "aggregates.jsonl": "6addb2c544910f3d8810a2ae58acf8713884954de65f48ee77346eed4f732d81",
        "provenance.jsonl": "1d4c51fd8171c799e7ecdcab58c9749cee50dd09d11c46b1faaf068f3005f45d",
        "report.json": "5574c65c33df724a57520a133da035f50f73fb441834f47a4655149b401c11fc",
    },
    ("family", 48): {
        "config.json": "491925b4cc55fa83adf55b6626b62a1ef7c0e18aab7fd737b498a945fb65a512",
        "levels.jsonl": "54fb58e1f7a0c453e0b1fef13e0ffe9e7fc494644c1dcf6ad22e0ea17b337739",
        "edges.jsonl": "83f9fec9aea9454e342cad249daaae6e9425882857d3b42e1cdda5d3929a4904",
        "aggregates.jsonl": "61424e78f4da4c2ffa78efdd86b94252dd44dee4daaa2c4727c7f79f5a65e734",
        "provenance.jsonl": "880a41ddc0ccd08b19313ef77f0a3b3348663da04da08a07b12865dcf9e6ff1c",
        "report.json": "574aa414125a38331892e6296efae40bf0d4ea6fe7cc8d3f78cf7390659b354e",
    },
    ("hyperimmune", 12): {
        "config.json": "f2d354c82ca5a68e1dca7814a8e3fdcb8f50f42f6d26ed08568e3fba7e4d9af6",
        "levels.jsonl": "578bd13f804c5496742ff1042053830f0c864e5d4b1860787ce21a27b0b316c5",
        "edges.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "aggregates.jsonl": "3c578ace9493af7d1a75f77e41b7490cb6f4db29b26471da47653f7c3ebdf3d8",
        "provenance.jsonl": "fc800d7ef346e824debd00e6605ee15b233cbc116de8378f811f67bbf1dc050c",
        "report.json": "e2fb4cf5441c48fd26e22f29ae49e7f406bdad9571da8c0be4ee34b653b4ba21",
    },
    ("hyperimmune", 48): {
        "config.json": "919250f57c97b241029b40c5017c9854d9e2d407c40f205d6e5b2c91a6f43b0d",
        "levels.jsonl": "25b2195a92318b0abbcb773b2b29ce472f2c306e921bad7986aace403ca7e5f7",
        "edges.jsonl": "4cca032516a78a354756cae59fe8825f4cac9d10998e4393ba21a95d6f92d134",
        "aggregates.jsonl": "4b75cbd38d2fc5eb714c0bb148016931bd1c9474a4690d7e5644a46e076c1e75",
        "provenance.jsonl": "db6f4a49d553fab256dd4985f2af3ae4afe77f1efc7b53e2f61909ac7e35c4dd",
        "report.json": "579078dae612cb0aa670e3864191ff6a74203fc8a6f14fb85d7e9d08976f3e77",
    },
    ("hyperimmune", 64): {
        "config.json": "1e20c1ab3f683f501763680769d9d5e147f14ebfd9e9d1e1222473dd4c7b6053",
        "levels.jsonl": "319d0f40117cd6f47c92ac6d979e65a09c5cbf1ed9c5bf0086f93c5e104fab53",
        "edges.jsonl": "4cca032516a78a354756cae59fe8825f4cac9d10998e4393ba21a95d6f92d134",
        "aggregates.jsonl": "25f63f8a7a707b5c9e2b04013bcfd51706060f3523b081834227326f3a11af89",
        "provenance.jsonl": "619a25055ec2d46c271f5de0e515476721ccebd2eedee0169ab2aa350a853315",
        "report.json": "b5cf178354d0815c4b8cc8f243a169629ceea5a4567befe39aeec690bd441214",
    },
    ("hyperimmune", 72): {
        "config.json": "3d15e0ff5d3363f6713c6409b58e4d224264eb4f7866f540400b3a85c1324a7f",
        "levels.jsonl": "f4bab5523e66414400886230d0838a0bed583f2bc4c8ed857ca4a1d2c918d00d",
        "edges.jsonl": "4cca032516a78a354756cae59fe8825f4cac9d10998e4393ba21a95d6f92d134",
        "aggregates.jsonl": "bb6c1a1a32160ee8154243378df801a5f2d8fc14d9ce1f4a0763eeb5ebd8bf80",
        "provenance.jsonl": "6d560f3c19b1f74394a0a00ee49d030fc67c188a96533682fdb5023e91a45cb9",
        "report.json": "a8fad5cf15aa061660837362e6acec988287c500b15ec2dc2497001c49fb13f6",
    },
}


# The reference roster's `divisible` draws no edge, so the runs above
# never reach its discard path. The flip-first roster of test_dense draws
# 2 edges and writes 2 discards by depth 12; flip's images are
# incomparable with their sources, so both discard modes write the same
# bundle apart from config.json.
FLIP_ROSTERS = {
    "operators": [
        {"kind": "flip", "name": "flip"},
        {"kind": "silent", "name": "silent"},
        {"kind": "echo", "name": "echo"},
    ],
    "functions": [{"kind": "linear", "name": "double-plus-two", "a": 2, "b": 2}],
}

FLIP_DIGESTS = {
    "exclude": {
        "config.json": "67b7589eb1a3efe98e1f0b6d5adfda2e24ed6de6409abfa061217c2108d40c13",
        "levels.jsonl": "e75a9a0386130b4ca156df887fd3edc6db02ee19183979d222f5e22335c90a11",
        "edges.jsonl": "40e94aea7440faf61bd30adeb7cc60cda5049909ba86e760953d23988db4c851",
        "aggregates.jsonl": "a06c0c19d07764aa9787b65c44d15c7e25793ebb937da250ba4717d73680f9e9",
        "provenance.jsonl": "4ebdd664d9fe1d45560ba76d82b373a11776b78a89f2c7693631606db79968a2",
        "report.json": "8a324e73b5e47246c60dc2a6dbcbeecf3a47ff14f6697030d859160f103cba0c",
    },
    "reject": {
        "config.json": "d8f1c92f4b8b65edbe524741c10993bb37a16a5e52ec0d91053748f0437dcbc5",
        "levels.jsonl": "e75a9a0386130b4ca156df887fd3edc6db02ee19183979d222f5e22335c90a11",
        "edges.jsonl": "40e94aea7440faf61bd30adeb7cc60cda5049909ba86e760953d23988db4c851",
        "aggregates.jsonl": "a06c0c19d07764aa9787b65c44d15c7e25793ebb937da250ba4717d73680f9e9",
        "provenance.jsonl": "4ebdd664d9fe1d45560ba76d82b373a11776b78a89f2c7693631606db79968a2",
        "report.json": "8a324e73b5e47246c60dc2a6dbcbeecf3a47ff14f6697030d859160f103cba0c",
    },
}


def _digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("preset,depth", sorted(DIGESTS))
def test_bundle_bytes_match_recorded_digests(tmp_path, preset, depth):
    out = tmp_path / f"{preset}-d{depth}"
    extra = ["--networks", "3"] if preset in MULTI_NETWORK else []
    argv = ["build", "--preset", preset, "--depth", str(depth), *extra]
    assert main([*argv, "--out", str(out)]) == 0
    assert _digests(out, DIGESTS[(preset, depth)]) == DIGESTS[(preset, depth)]


@pytest.mark.parametrize("mode", sorted(FLIP_DIGESTS))
def test_flip_roster_divisible_bytes_match_recorded_digests(tmp_path, mode):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {"preset": "divisible", "depth": 12, "discard_mode": mode, "rosters": FLIP_ROSTERS}
        )
    )
    out = tmp_path / f"divisible-flip-{mode}"
    assert main(["build", "--config", str(config), "--out", str(out)]) == 0
    assert _digests(out, FLIP_DIGESTS[mode]) == FLIP_DIGESTS[mode]
