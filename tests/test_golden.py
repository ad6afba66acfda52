"""Golden digests: every shipped scenario's artifacts, byte for byte.

The sha256 of ``metrics.csv`` and ``report.json`` for each shipped
scenario fixture at its own seed, and of the ``--persist-blobs`` tree of
one immediate, one batched and one cloud scenario. A change that is not
meant to alter any output must leave every digest here unchanged; one
that alters outputs on purpose re-pins them and says why.
"""

import hashlib
from pathlib import Path

import pytest

from edgebench.config import list_fixtures, load_fixture
from edgebench.runner import run_scenario, write_artifacts

GOLDEN = {
    "acceptance-10k": ("f7cef3f37bdad302ae81b9433f1932b35950dca020ebf56a07af8ae324773f7c",
                       "16864400a7f567f6a1e8d7f096d7583b73ac6952aa55674c466b88c7b539b2de"),
    "aws-cloud-audio": ("65ca8cdfbcd1665518330224236c1a9102ebcd90d9664bcf5aaa32333767b3fe",
                        "2cc47920104a10b9d79f9f615b41e286ff680a7655d009343a02ee919614a55a"),
    "aws-cloud-image": ("577f375d6db2c13ed21dd7d21d00de518bbfadc9b830f9a8747e32fd84636e2c",
                        "f74107a8e899b5f008de4393a813800e58da57d8a47a922790f37ba561efff2b"),
    "aws-cloud-scalar": ("9bd609c30ce465fea0f771d6e3985e6f5a0aa04b42666653204e08830c29a620",
                         "851daa9926dfd7576ca9c9c111b8cce9d6bf3587c322b5dc3bb557169c25cf0e"),
    "azure-cloud-audio": ("c75c708c4d3f8317093c4ccc57a50cb7d8e868f5b966f4917b258b806aadca16",
                          "5c72c098c2e707e8022abf76e74ce6758a3c5b87a5820f708d99f761e5464315"),
    "azure-cloud-image": ("66497ff2d59766ddf564b8aa63c27897f4c4c50a85745e9a285624e92cc132cd",
                          "b2f01b82a53ca0c4f437e54bdc3be4b578194239ff0ef27688d604bfa2441f53"),
    "azure-cloud-scalar": ("fb2e37d005f62639cff5c045e99bbf27b9e6dab40f0e96ded458516a64350bc0",
                           "fe9483f7deb14d5ea882494396f1c4e4e89289b5944ac0cfe5d74ae038841992"),
    "azureedge-audio": ("159fc1c9427ce7a5d599425e65c85408e1a559244243e00b1dbdaf7532b6acf4",
                        "7726ca5fd8819bb9dd52aa18160151c523f80987aef659b4338e00033181a6c2"),
    "azureedge-image": ("8b315b2aae45eabb3355dbb3b7100de73e9da73d5b1a947bba4d5f0d7cd56f88",
                        "f5448d90d6cab0c4a6033e9779179b7ac462e7d390d0389660e19b5fc589c85b"),
    "azureedge-scalar": ("9d7df7bfb089e8d055aeea8f604f18cfc8f1d41c21c79657b58bf72809b53d8a",
                         "a621210ec781d9fd69d53664a29369175951092833ff87f17ca866897847469f"),
    "batch-window-60": ("b3587eb16be2f922e8d655285d03cc30afc7be952598050c9a96253328c91f78",
                        "e6774b1a703d6411976d278ab4b76fb0b516377f48561feb6a699118a0a7a37d"),
    "batch-window-90": ("dcfb744790f33838ab980fe900f82f2e0c66567db05dd6abd2b6192b8f1d7ccd",
                        "7f18aa6583c3d76e9c9598c1210837697eaa7d91384e49a869863b2a3eb6a926"),
    "greengrass-audio": ("6bf219cc1ad92cc6df4302b65171c82a0c99d741e51f331257700b02b61248bd",
                         "fa1ae959705a4f362f179bcaf3c1ebffcce3a75fac924f4e75284bcdb2fd6710"),
    "greengrass-image": ("10292cc522570c1cbb650d47922c24d2586bec784f96d948e725080c39216e1b",
                         "8caed61a14f9ce3e12a0c93a40cecb5950e0caa20d909642ed02dedb4e2f42d7"),
    "greengrass-scalar": ("5dce42ed670adc8f69b82d491f849e2ee701e1764b7edbb590e5ca96649eab52",
                          "b836dacbdfa5c2d2b176523cdafede606f64aaa6e82a8c074ffcc0c942522f61"),
}


def test_every_shipped_scenario_is_pinned():
    assert sorted(GOLDEN) == [name.split("/", 1)[1] for name in list_fixtures("scenarios")]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digests(name, tmp_path):
    paths = write_artifacts(run_scenario(load_fixture(f"scenarios/{name}")), tmp_path, charts=False)
    digests = tuple(hashlib.sha256(paths[key].read_bytes()).hexdigest() for key in ("csv", "json"))
    assert digests == GOLDEN[name]


# sha256 over each blob file's path (relative to the tree) and the sha256 of its bytes, in path order
BLOB_TREES = {
    "aws-cloud-image": "1d0abd4bb42a300f25807da8aafd9b5291b44d98d2b4e650aa23846dc6b269e3",
    "batch-window-60": "a161c47c75a9288f18a212c0bb604714fa268cd951b53f5103a1c4c71460e34d",
    "greengrass-scalar": "5e58ae2ccf1fb288a89f382220b296ea0f0063638d87fbc7dc57005286733448",
}


def tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(BLOB_TREES))
def test_persisted_blob_digests(name, tmp_path):
    run_scenario(load_fixture(f"scenarios/{name}"), persist_blobs=tmp_path)
    assert tree_digest(tmp_path) == BLOB_TREES[name]
