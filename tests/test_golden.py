"""Bundles stay byte for byte what the recorded digests say.

Each digest is the sha256 of one bundle file written by `treeflow build`.
A change to the engine that alters any stored table, edge, aggregate,
provenance row or report shows up here as a mismatch. Depth 48 is where
`hyperimmune` first draws discard records, so both depths are pinned.
If a change is meant to alter bundles, record the new digests together
with the reason.

The output of `treeflow trace` with no filter is pinned beside the
files, under "trace". Provenance rows once repeated their level's tables
and the edges drawn at their step; the provenance digests were recorded
anew when the copies were dropped, and `trace`, which joins them back
from levels.jsonl and edges.jsonl, still prints the bytes that
provenance.jsonl held before, so each "trace" digest is that old one.

The verify reports are pinned the same way, as one digest per run over
every report's payload without its runtime, and so are the deep
`atom`-240, `family`-240 and `hyperimmune`-72 bundles, with one digest
over every frame of the built networks and one over every frame of their
reload. The verify reports of the deep `atom`-240 bundle are pinned too.
"""

import hashlib
import json

import pytest

from treeflow.cli import main, read_bundle
from treeflow.constructions import RunConfig, build
from treeflow.verify import dense_oracle, run_checks

MULTI_NETWORK = {"family", "hyperimmune"}

DIGESTS = {
    ("nonstochastic", 12): {
        "config.json": "95ca5f0ab48d5c763294857bcc190a9760f38487fbe0be91c81d44cd2e26eca4",
        "levels.jsonl": "9d35b23fc14853abf88d838bedc913842ff3ce883b058236ee3a3b77f97ec8a2",
        "edges.jsonl": "ca7fbb13acd62591f034e7eb9be9cffb26889f7af893f9160531d4e1313a8a10",
        "aggregates.jsonl": "bcf816bc2c6ace9916fc0b4b2e101a8d8b527dcf9697f25551bdd1707b21c069",
        "provenance.jsonl": "aa3a4daf3609208418d89ca6fe15e992adca4a888730cfa7bc7fdf8935085356",
        "trace": "cab7249f64b1300b3184f1fa76d208fc7fb165a408438a463a40fca2a239fd47",
        "report.json": "7416b31310bc20aad4022c94af64eccc2ea319e8fb23d14ed5d782050c52e4ba",
    },
    ("nonstochastic", 48): {
        "config.json": "38bc7a5ea9e9836319e5f5915e661df347df49ef1024d3f56c89dc6f8c508012",
        "levels.jsonl": "e639c68096ddd510d2d4ad8ff24f14777d9054122eff648b1b0196cf5d79de68",
        "edges.jsonl": "2a656195364bc814941568584b04569c71482b9dfe830543c8a7f3ad5c032e50",
        "aggregates.jsonl": "87d5512006e13383f1e75defb987f23d2d8ec09a6812ad6797dc54cd440c30a4",
        "provenance.jsonl": "dbf9bc927c4b3bf5d9720ae7549e51a956fa78e1e071c2bac2a62b80ca85bc38",
        "trace": "e0d4b60fce492d40195fccaa79e25137addd4eded8a30beec7d6fe57017cfce1",
        "report.json": "bf5918ebd413c58c3bc394516f656c3a6e42402adf66ec967cd500da337529f0",
    },
    ("divisible", 12): {
        "config.json": "c9a63901199db27c66857e3cb2d8856025c6f13cc8a753a860c1a379907764de",
        "levels.jsonl": "083e8d1b3bc43ea303a3c8eac79bb2ddc29f4a23dead40fad6d6f782082a6176",
        "edges.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "aggregates.jsonl": "f15b4b5fd2bf8adb83767932c4cbe8e299370ae1655eb6329b596cb119103fbd",
        "provenance.jsonl": "cc3035b736c53707d3313ec59924a4aaa1417bdc64487dc13ae0cfd1f3aae13e",
        "trace": "a8db1c1e3e18703f2053e6d565cf23e5366bb8d1614b37640023fa249b0306ad",
        "report.json": "0031ca841fc92f3fb973a546aaeea0c2ab42fbe01b75a7bb34343e8cf86d1115",
    },
    ("divisible", 48): {
        "config.json": "1118d8a25400ac6686051b9861dc8f88d57e25bc3d06610ba4ef2a7f31c9a254",
        "levels.jsonl": "c157c4b353f4232c60b6ba7dd816f30b83e1a91b112125e8d0e8dad0998ca695",
        "edges.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "aggregates.jsonl": "74a1b7767f5bfd9570766769a5f5ba93293357b1bc810660213ce5491b702c01",
        "provenance.jsonl": "baf47aa82e08e1f927ef4744bf365aef5f56d24c117199f202e7c3f97905c15b",
        "trace": "50d4b5c4f2570a02cff0423d4946f184a001d0c5f1ae3a14868cb82002c97d7c",
        "report.json": "e55b395aaedc11db014ee41927757bb1beecfde83d2ad9d8ce6efb83b7b6ec61",
    },
    ("atom", 12): {
        "config.json": "2c0ffab6d12fe2f98745f51fa995090c25233f0c1e708a8f4ff510804adb5cd1",
        "levels.jsonl": "d38e7e8f6f7c1ce3127c9f101b672909c7d04f8b51c9a7a8cf4754455aa5d9c7",
        "edges.jsonl": "83f9fec9aea9454e342cad249daaae6e9425882857d3b42e1cdda5d3929a4904",
        "aggregates.jsonl": "7051684c5e95f59fdd49a8070362d1115f00b8762853ad42e16308be83a5e74b",
        "provenance.jsonl": "857ecf84ef501200e7522fe584aba42aa23badda0304da50ca1604f847ddaf18",
        "trace": "d0efc57e58f97a8dd6da81d0d23fb99a876c73f07cf400305bc120882115fb3a",
        "report.json": "f18cd7e2801dfc3cf6ddb3c5e2bbdc13d7f82ef1c9b493fcbbcfc53396528afe",
    },
    ("atom", 48): {
        "config.json": "1a1538d65ad720dc40a6be7e59f2118348b7169560bf15eeccd25cfb6e5fb145",
        "levels.jsonl": "f5bec282b4e1d4fb67c08e1c3df41ce28c88564819aae239749c748e6f80767b",
        "edges.jsonl": "83f9fec9aea9454e342cad249daaae6e9425882857d3b42e1cdda5d3929a4904",
        "aggregates.jsonl": "0f31cb3d6db3ce1450fdca92f16322f54ccda6e81de591faaf2bdd62c5039004",
        "provenance.jsonl": "07392fef9002fe82ebf4f6969ecce9c65b81ad935e742d36d4b438ec9b42dea1",
        "trace": "087291b659dc45d4b1b1dc58bfcdc68b5ca2d4265423ba5b2b6993758a5a21d0",
        "report.json": "a3013e5d7ba5484a95b488d745829625f3f96ba86e4004c35e6f6e9b5d160e9e",
    },
    ("family", 12): {
        "config.json": "a4d36d20e248e5e37d27835a4eb1932721a5802e9152f8e7de4a73572386fd8e",
        "levels.jsonl": "a979a082de1479bad469a7681d0f49b03c3ef7f595b80d4e96fda16e13c2030b",
        "edges.jsonl": "83f9fec9aea9454e342cad249daaae6e9425882857d3b42e1cdda5d3929a4904",
        "aggregates.jsonl": "6addb2c544910f3d8810a2ae58acf8713884954de65f48ee77346eed4f732d81",
        "provenance.jsonl": "a3173f06a63e54eac51b6eba55ac5cf1778beb8a5ef1fa4c59257dc9237c1e8e",
        "trace": "1d4c51fd8171c799e7ecdcab58c9749cee50dd09d11c46b1faaf068f3005f45d",
        "report.json": "5574c65c33df724a57520a133da035f50f73fb441834f47a4655149b401c11fc",
    },
    ("family", 48): {
        "config.json": "491925b4cc55fa83adf55b6626b62a1ef7c0e18aab7fd737b498a945fb65a512",
        "levels.jsonl": "54fb58e1f7a0c453e0b1fef13e0ffe9e7fc494644c1dcf6ad22e0ea17b337739",
        "edges.jsonl": "83f9fec9aea9454e342cad249daaae6e9425882857d3b42e1cdda5d3929a4904",
        "aggregates.jsonl": "61424e78f4da4c2ffa78efdd86b94252dd44dee4daaa2c4727c7f79f5a65e734",
        "provenance.jsonl": "bfb376e43b16269a926894a15e6344468d6dfcde020377a6f027e00d57c71c0e",
        "trace": "880a41ddc0ccd08b19313ef77f0a3b3348663da04da08a07b12865dcf9e6ff1c",
        "report.json": "574aa414125a38331892e6296efae40bf0d4ea6fe7cc8d3f78cf7390659b354e",
    },
    ("hyperimmune", 12): {
        "config.json": "f2d354c82ca5a68e1dca7814a8e3fdcb8f50f42f6d26ed08568e3fba7e4d9af6",
        "levels.jsonl": "578bd13f804c5496742ff1042053830f0c864e5d4b1860787ce21a27b0b316c5",
        "edges.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "aggregates.jsonl": "3c578ace9493af7d1a75f77e41b7490cb6f4db29b26471da47653f7c3ebdf3d8",
        "provenance.jsonl": "ead9cdd175dd1f8e8cc39041aa310458171b24e46ad0d402ff0b30103995144e",
        "trace": "fc800d7ef346e824debd00e6605ee15b233cbc116de8378f811f67bbf1dc050c",
        "report.json": "e2fb4cf5441c48fd26e22f29ae49e7f406bdad9571da8c0be4ee34b653b4ba21",
    },
    ("hyperimmune", 48): {
        "config.json": "919250f57c97b241029b40c5017c9854d9e2d407c40f205d6e5b2c91a6f43b0d",
        "levels.jsonl": "25b2195a92318b0abbcb773b2b29ce472f2c306e921bad7986aace403ca7e5f7",
        "edges.jsonl": "4cca032516a78a354756cae59fe8825f4cac9d10998e4393ba21a95d6f92d134",
        "aggregates.jsonl": "4b75cbd38d2fc5eb714c0bb148016931bd1c9474a4690d7e5644a46e076c1e75",
        "provenance.jsonl": "d6f45c0d0b02d539ecc83ce2fa71da1cb6833b03d171d656e50d3d5fd88a97b1",
        "trace": "db6f4a49d553fab256dd4985f2af3ae4afe77f1efc7b53e2f61909ac7e35c4dd",
        "report.json": "579078dae612cb0aa670e3864191ff6a74203fc8a6f14fb85d7e9d08976f3e77",
    },
    ("hyperimmune", 64): {
        "config.json": "1e20c1ab3f683f501763680769d9d5e147f14ebfd9e9d1e1222473dd4c7b6053",
        "levels.jsonl": "319d0f40117cd6f47c92ac6d979e65a09c5cbf1ed9c5bf0086f93c5e104fab53",
        "edges.jsonl": "4cca032516a78a354756cae59fe8825f4cac9d10998e4393ba21a95d6f92d134",
        "aggregates.jsonl": "25f63f8a7a707b5c9e2b04013bcfd51706060f3523b081834227326f3a11af89",
        "provenance.jsonl": "43e0389392d903a4cfc6b4caf3da79090c8d072338a910022e929d7604937452",
        "trace": "619a25055ec2d46c271f5de0e515476721ccebd2eedee0169ab2aa350a853315",
        "report.json": "b5cf178354d0815c4b8cc8f243a169629ceea5a4567befe39aeec690bd441214",
    },
    ("hyperimmune", 72): {
        "config.json": "3d15e0ff5d3363f6713c6409b58e4d224264eb4f7866f540400b3a85c1324a7f",
        "levels.jsonl": "f4bab5523e66414400886230d0838a0bed583f2bc4c8ed857ca4a1d2c918d00d",
        "edges.jsonl": "4cca032516a78a354756cae59fe8825f4cac9d10998e4393ba21a95d6f92d134",
        "aggregates.jsonl": "bb6c1a1a32160ee8154243378df801a5f2d8fc14d9ce1f4a0763eeb5ebd8bf80",
        "provenance.jsonl": "fe5750c0bebdc03202634902561c37501446e7dffaba1e61eda6a01ba96ff207",
        "trace": "6d560f3c19b1f74394a0a00ee49d030fc67c188a96533682fdb5023e91a45cb9",
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
        "provenance.jsonl": "2dc5211fcb4570187b7d50e43259528fc2fdc6b7367be60127cb393d72cc66b3",
        "trace": "4ebdd664d9fe1d45560ba76d82b373a11776b78a89f2c7693631606db79968a2",
        "report.json": "8a324e73b5e47246c60dc2a6dbcbeecf3a47ff14f6697030d859160f103cba0c",
    },
    "reject": {
        "config.json": "d8f1c92f4b8b65edbe524741c10993bb37a16a5e52ec0d91053748f0437dcbc5",
        "levels.jsonl": "e75a9a0386130b4ca156df887fd3edc6db02ee19183979d222f5e22335c90a11",
        "edges.jsonl": "40e94aea7440faf61bd30adeb7cc60cda5049909ba86e760953d23988db4c851",
        "aggregates.jsonl": "a06c0c19d07764aa9787b65c44d15c7e25793ebb937da250ba4717d73680f9e9",
        "provenance.jsonl": "2dc5211fcb4570187b7d50e43259528fc2fdc6b7367be60127cb393d72cc66b3",
        "trace": "4ebdd664d9fe1d45560ba76d82b373a11776b78a89f2c7693631606db79968a2",
        "report.json": "8a324e73b5e47246c60dc2a6dbcbeecf3a47ff14f6697030d859160f103cba0c",
    },
}


def _digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def _bundle_digests(out, want, tmp_path) -> dict:
    """The digest of each bundle file that want names, and of what
    `treeflow trace` prints for the bundle with no filter."""
    trace = tmp_path / "trace.jsonl"
    assert main(["trace", str(out), "--out", str(trace)]) == 0
    files = _digests(out, [name for name in want if "." in name])
    return {**files, "trace": hashlib.sha256(trace.read_bytes()).hexdigest()}


@pytest.mark.parametrize("preset,depth", sorted(DIGESTS))
def test_bundle_bytes_match_recorded_digests(tmp_path, preset, depth):
    out = tmp_path / f"{preset}-d{depth}"
    extra = ["--networks", "3"] if preset in MULTI_NETWORK else []
    argv = ["build", "--preset", preset, "--depth", str(depth), *extra]
    assert main([*argv, "--out", str(out)]) == 0
    want = DIGESTS[(preset, depth)]
    assert _bundle_digests(out, want, tmp_path) == want


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
    assert _bundle_digests(out, FLIP_DIGESTS[mode], tmp_path) == FLIP_DIGESTS[mode]


def _payload_digest(payloads) -> str:
    """sha256 of the canonical JSON of report payloads without runtime."""
    kept = [{k: v for k, v in p.items() if k != "runtime"} for p in payloads]
    text = json.dumps(kept, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _reports_digest(config) -> str:
    return _payload_digest(r.to_payload() for r in run_checks(build(config)))


REPORT_DIGESTS = {
    ("atom", 10): "1809f6a500bdb795c7d0bf2f940412044d366aa319e6bc18616cd93074bbeb34",
    ("atom", 20): "c64e2dff07db9e55c5f0ed28d9f530f5231a8804370888dcbaa15603abbf9fb1",
    ("divisible", 10): "45540c631a12f86f59bb1cfd633ad3819054d828d521b325b565dfd3772f5b59",
    ("divisible", 20): "3068d108d3e6263c5c6f4fc06814ad966df8e9a4cb65e74a8da3a57ae5861b55",
    ("family", 10): "9a3d01b0d1f437ff7211205a30256267280a0cfe49f97c9708cfa63db4948025",
    ("family", 20): "1b8e76e8e8f0779a78a0c29c79525a4bb41a57ac740a03846109b55f7d6f7175",
    ("hyperimmune", 10): "2ed8f83b258644acfbbaef3b23bd5acab8d0f21d0f91a252dd9f8a4b1c9a705b",
    ("hyperimmune", 20): "9a4d8b7a309a9cd723af25a968f635d266c52e50ef5846c479985b47a741aedf",
    ("hyperimmune", 48): "8e04e789b65c7661752ae295acb313cbbefdbea72a5585df2c31d3748bc90f07",
    ("nonstochastic", 10): "c24841252bcbaec108f47eb65fb4a8ea19ed9ad5af991c6e2334d2b6f8bca805",
    ("nonstochastic", 20): "762867dc185c848ab615d5c9631ddc87325ab79ba6407a2dd9bef4e837a2b40a",
}

FLIP_REPORT_DIGESTS = {
    "exclude": "e438ab9e85eb8d3247502856f1159fd5c4aea5dbb5273ecb2b57207317381c8c",
    "reject": "e438ab9e85eb8d3247502856f1159fd5c4aea5dbb5273ecb2b57207317381c8c",
}

ORACLE_DIGESTS = {
    "atom": "9715f99a8c47c0ea1a394d87654a9ca5cb16f86e9be1e95bbbc21a9b12dd0f1b",
    "divisible": "460d703feda154c8458d4510c4914a00019545e9394592c47a45dbdd0fbb1104",
    "family": "80bb42c3f4868f4aa1bfcc01d3fc5f3e029eadd53c5cbe02f5a7678bbb52500f",
    "hyperimmune": "8231a27b26f2fdf2895d8b4760dc8bcab9d7a57ec7398f59f58f901ee39bbd89",
    "nonstochastic": "e23071b52365208418fd1e2420eac45aa6e0cba06f0e7d18f35bd33537d64ae2",
}


@pytest.mark.parametrize("preset,depth", sorted(REPORT_DIGESTS))
def test_verify_reports_match_recorded_digests(preset, depth):
    config = RunConfig(preset=preset, depth=depth)
    assert _reports_digest(config) == REPORT_DIGESTS[(preset, depth)]


@pytest.mark.parametrize("mode", sorted(FLIP_REPORT_DIGESTS))
def test_flip_roster_divisible_reports_match_recorded_digests(mode):
    config = RunConfig(
        preset="divisible", depth=12, discard_mode=mode, rosters=FLIP_ROSTERS
    )
    assert _reports_digest(config) == FLIP_REPORT_DIGESTS[mode]


@pytest.mark.parametrize("preset", sorted(ORACLE_DIGESTS))
def test_dense_oracle_reports_match_recorded_digests(preset):
    report = dense_oracle(RunConfig(preset=preset, depth=10))
    assert _payload_digest([report.to_payload()]) == ORACLE_DIGESTS[preset]


# The deep bundles: level 232 of atom-240 holds the largest suffix table
# and frames of any preset, and family-240 the same shapes on three
# networks. hyperimmune-72, the deepest build of that preset under the
# default caps, prunes most candidates by target-network floors and draws
# sparse edges too. Frame digests cover the built push and the reloaded one.
DEEP_DIGESTS = {
    ("atom", 240): {
        "config.json": "d92e0117ca457681acea1e3f5710337d8c1abbf5d46a256f629c6b490e5d8220",
        "levels.jsonl": "8f6180d8584c1eef33a41562181bbd5679748691c41dccbb25149f9e87386562",
        "edges.jsonl": "ce460dd3eed875c213642e69fe087eabe08d017c8d4e7a291d8c965e3c029a05",
        "aggregates.jsonl": "4754433848e62e940160f031d88e94ccf938e7ca1748ef80c2534a694f04d5fe",
        "provenance.jsonl": "46cb0db062b0789dfd16fc68a1a2edac7e4113f06e10ee04d8a4c90c158dd53d",
        "trace": "65bd2559f766b310b46ac2d333cdfcd93412362e9f3063f3b4ac9ca624ddaaa6",
        "report.json": "6efd888ef48bc6a2b72e24cd8dd672e3acd0f016a703eeea69a0082ece28a908",
        "built frames": "1d22179cfd9dc8b235f2dde760edee098401ab046a5afa28aa2ec9be8fd2e11e",
        "reloaded frames": "1d22179cfd9dc8b235f2dde760edee098401ab046a5afa28aa2ec9be8fd2e11e",
    },
    ("family", 240): {
        "config.json": "b4c279c436c2a731d9f068693c56df414fe684d3a3c3b228f5ce4bcf22139553",
        "levels.jsonl": "54e5e7283f5aabcc568ee192153cc1e542c62dc4012b90e0f5f9b1e63025578f",
        "edges.jsonl": "ce460dd3eed875c213642e69fe087eabe08d017c8d4e7a291d8c965e3c029a05",
        "aggregates.jsonl": "dfe66ce9f24b675d28a877f9bbf9dc69a290d4fd8bf69778d66c42f7b7b821bb",
        "provenance.jsonl": "186c5bc5e7e35c7cfc244e0874d467e94f1e5265eb2d36ce0a70f900399bc2d5",
        "trace": "215d4c4104bb792511ec6584abe5919f312b35e971caa204934ce60df4929af8",
        "report.json": "295322b99fe3b884c24d9d20cf943b98eb3f4415cd8e40bcf0080229d1ee556a",
        "built frames": "f5f84f45f214ee3255c416bcc1189bd4115876dc8c5fabe1b3971ec565bdb758",
        "reloaded frames": "f5f84f45f214ee3255c416bcc1189bd4115876dc8c5fabe1b3971ec565bdb758",
    },
    ("hyperimmune", 72): {
        "config.json": "3d15e0ff5d3363f6713c6409b58e4d224264eb4f7866f540400b3a85c1324a7f",
        "levels.jsonl": "f4bab5523e66414400886230d0838a0bed583f2bc4c8ed857ca4a1d2c918d00d",
        "edges.jsonl": "4cca032516a78a354756cae59fe8825f4cac9d10998e4393ba21a95d6f92d134",
        "aggregates.jsonl": "bb6c1a1a32160ee8154243378df801a5f2d8fc14d9ce1f4a0763eeb5ebd8bf80",
        "provenance.jsonl": "fe5750c0bebdc03202634902561c37501446e7dffaba1e61eda6a01ba96ff207",
        "trace": "6d560f3c19b1f74394a0a00ee49d030fc67c188a96533682fdb5023e91a45cb9",
        "report.json": "a8fad5cf15aa061660837362e6acec988287c500b15ec2dc2497001c49fb13f6",
        "built frames": "9a356e37ad6d2fafab3618051604925e2a89196176fe7cde460071f018565d74",
        "reloaded frames": "9a356e37ad6d2fafab3618051604925e2a89196176fe7cde460071f018565d74",
    },
}


def _frames_digest(bundle) -> str:
    """sha256 over every frame item, in order, of every network."""
    h = hashlib.sha256()
    for net in bundle.networks:
        for n in range(bundle.depth + 1):
            for c, v in net.frames[n]:
                h.update(f"{net.network_id} {n} {c.pattern()} {v}\n".encode())
    return h.hexdigest()


@pytest.fixture(params=sorted(DEEP_DIGESTS), ids=lambda key: f"{key[0]}-{key[1]}")
def deep_bundle(request, deep_bundles):
    """(preset, depth, built bundle, its folder), built once per session."""
    preset, depth = request.param
    return (preset, depth, *deep_bundles(preset, depth))


def test_deep_bundle_bytes_match_recorded_digests(tmp_path, deep_bundle):
    preset, depth, _bundle, out = deep_bundle
    want = {k: v for k, v in DEEP_DIGESTS[(preset, depth)].items() if "frames" not in k}
    assert _bundle_digests(out, want, tmp_path) == want


def test_deep_built_frames_match_recorded_digest(deep_bundle):
    preset, depth, bundle, _out = deep_bundle
    assert _frames_digest(bundle) == DEEP_DIGESTS[(preset, depth)]["built frames"]


def test_deep_reloaded_frames_match_recorded_digest(deep_bundle):
    preset, depth, _bundle, out = deep_bundle
    want = DEEP_DIGESTS[(preset, depth)]["reloaded frames"]
    assert _frames_digest(read_bundle(out)) == want


# verify --checks all on atom-240 makes every frame of its largest tables.
DEEP_REPORT_DIGESTS = {
    ("atom", 240): "53903d0a6c8d7a731ce007ecdfa451e7f1707856261c1438be6e61a3ca6d5ea1",
}


@pytest.mark.parametrize("preset,depth", sorted(DEEP_REPORT_DIGESTS))
def test_deep_reports_match_recorded_digest(deep_bundles, preset, depth):
    bundle, _out = deep_bundles(preset, depth)
    payloads = (r.to_payload() for r in run_checks(bundle))
    assert _payload_digest(payloads) == DEEP_REPORT_DIGESTS[(preset, depth)]
