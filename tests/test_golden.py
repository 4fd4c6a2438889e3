"""Golden outputs: the SHA-256 of every command's yu-oh text and JSON report.

Each command runs in-process through ``cli.main`` with ``--out``, so the
digests cover the exact bytes a user would get in a file.  The two
``report`` digests are the ones ``perfbench/pinned.json`` pins as well.
The text of every command is also checked to be a function of its JSON
document alone.  yu-oh has no blocking flat of rank 1, so the ``states``
and ``report`` digests of the 32-ray box-d3-m2 prefix, with 13
undetermined families, pin those sections too, and the ``states`` digests
of the 32-ray box-d4-m1 prefix (189 states, 56 undetermined families)
pin the flat scan in d = 4, where flats of rank 2 block.  The ``check`` and
``paradoxes`` digests of three states on the 32-ray prefixes pin the
blockers and the paradox derivation beyond yu-oh: the pure state
(0,1,2) with 21 paradoxes and a rank-2 mixture with 23 on box-d3-m2, and
a rank-2 mixture with 4 on box-d4-m1.  On each, the verdict and the
marginal oracle agree.  The ``contexts`` and ``report`` digests of the
Gaussian image of yu-oh pin the printed complex coordinates and complex
matrix entries, which no rational scenario reaches.  On that image the
``check`` and ``paradoxes`` digests of two densities with imaginary
entries pin their models and SPs: a rank-2 density, with no paradoxes, as
no mixed state of the image is contextual, and the rank-1 density of the
image of vD, with three.  yu-oh is rational and refuses their literals.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from ctxkit import cli
from ctxkit.report import render_text

from test_cli import box_prefix_text
from test_contextuality import gaussian_image_text

COMMANDS = {
    "contexts": ["contexts"],
    "assignments": ["assignments"],
    "states": ["states"],
    "report": ["report"],
    "check 1,1,1": ["check", "--state", "1,1,1"],
    "check 1,0,0": ["check", "--state", "1,0,0"],
    "paradoxes 1,1,1": ["paradoxes", "--state", "1,1,1"],
    "paradoxes 1,0,0": ["paradoxes", "--state", "1,0,0"],
    "paradoxes": ["paradoxes"],
    "observables 1,1,1": ["observables", "--state", "1,1,1"],
    "observables 1,0,0": ["observables", "--state", "1,0,0"],
    "observables": ["observables"],
    "simulate -1,1,1 vD": ["simulate", "--state=-1,1,1", "--witness", "vD", "--shots", "1000"],
}

GOLDEN = {
    ("contexts", "text"): "2f08e5dc22dd7e19faa9bb520011e716ed5bb8956912fa09eae7c1d7e9e8835a",
    ("contexts", "json"): "d71e91674eb3be3525833544054375b5c8260370f6f6852ce84ed5c564faabf2",
    ("assignments", "text"): "a11c3fc182d35848d1a531bc282e5039a3c9d7c942684b9243002b4dde58a5a0",
    ("assignments", "json"): "5f28e639044788fc9d61a3418b4bd5244d3398025819ffad673dbc9c87ee24a2",
    ("states", "text"): "c5d97d7287f10091fa59bf40f2185c15838727487be8ce15390ba39b1532945f",
    ("states", "json"): "61204ba0828ce9ee8b6ee6be2acaa30c75bcf1d14dbd0003709f4e60ca618518",
    ("report", "text"): "e7c69948c4e87d61df5018e94265264dda0d3ca21e99ee0fffd706976691adf0",
    ("report", "json"): "f44415efd56d0f61145dcbcb19261fae0f416bdcf222b697029ec2515ce62a3d",
    ("check 1,1,1", "text"): "e11287854d32054a4861edbf15a502183e394a5b116e92f4bf8b1c021a9ec62e",
    ("check 1,1,1", "json"): "fde136de0c29e7379a831e0ffed07d8f39bfef6e13fca3279eaa5ae8e922246d",
    ("check 1,0,0", "text"): "e60daecba096188acd386533dfe73f52a6cb419ef2d4a4c69e43a89896b811c9",
    ("check 1,0,0", "json"): "d2a7a29b3a35b98e457c9f4cec3d26cae11d970934b122f0cc554ed99345205b",
    ("paradoxes 1,1,1", "text"): "f73d8f7c0b34c3a77369ee730dea23275aa6db43c097b18368e3b1d99ec4f200",
    ("paradoxes 1,1,1", "json"): "fbbc1f782c7facd51bf928ebe38d1c9b8eb63d9298676cbc191dd7404f4d30b3",
    ("paradoxes 1,0,0", "text"): "c91234d2a6a7e67902268362cb4197e9b04aff17c940df9afa54e1d2c1a24a46",
    ("paradoxes 1,0,0", "json"): "c07e2bacb277dee7c95767583f4913b4bfd6243289af964088e28c061a9a6dfd",
    ("paradoxes", "text"): "5ef233e18a4b13aff233d915403bf2158fc64ee81c9c4ef3a0e414accee7a9e4",
    ("paradoxes", "json"): "a17f938d97c834291afc3320496fe926ca02ad195fbd55fa7c8ff7f19fb5472e",
    ("observables 1,1,1", "text"): "f4f56e312a7adf046a4f08ed1c821e68d7b87a4c908a5d55bf2919b04d5f07d2",
    ("observables 1,1,1", "json"): "b0446296778db24d2815d2314d4c11c09d9fcc0457ae4f4ea343eb49e0a5add8",
    ("observables 1,0,0", "text"): "175fabb99e605608cb9e4e7256114030d4dba6fa993635f4b114907208acba08",
    ("observables 1,0,0", "json"): "8ce33e74cc2855dadfe4de6e44dd29e96f70ced82fa9ffc529f8f4edb4ba3c7b",
    ("observables", "text"): "e31bba770dfd6c02d6269a02cfa9e7e281ed85bc35e8fe872e59a478a5900522",
    ("observables", "json"): "d89dff8ee38d7ddb40ca05dfac6e7fb94f2e7551db7535747e76119f4972803c",
    ("simulate -1,1,1 vD", "text"): "4a8eb616a64fcdbd8ea29210995d1b2dafc44e557d1dc17af77a879e803e12d3",
    ("simulate -1,1,1 vD", "json"): "f6183c728c26d110c1fce0a97373577b70d14b8df71e9ad3ad9acb2bfe273def",
}


# density files by name, each a mixture 1/3 |a><a| + 2/3 |b><b| of two unit rays
BOX_DENSITIES = {
    "mixture-d3": "0 0 0\n0 13/15 4/15\n0 4/15 2/15\n",  # a = (0,1,0), b = (0,2,1)/sqrt(5)
    "mixture-d4": "1/6 1/6 0 0\n1/6 1/6 0 0\n0 0 1/3 1/3\n0 0 1/3 1/3\n",  # a = (1,1,0,0), b = (0,0,1,1), normalised
}

# (d, m) of the 32-ray box prefix each command runs on, and its arguments
BOX_COMMANDS = {
    "states": ((3, 2), ["states"]),
    "report": ((3, 2), ["report"]),
    "states d4": ((4, 1), ["states"]),
    "check 0,1,2": ((3, 2), ["check", "--state", "0,1,2"]),
    "paradoxes 0,1,2": ((3, 2), ["paradoxes", "--state", "0,1,2"]),
    "check mixture-d3": ((3, 2), ["check", "--density", "mixture-d3"]),
    "paradoxes mixture-d3": ((3, 2), ["paradoxes", "--density", "mixture-d3"]),
    "check mixture-d4": ((4, 1), ["check", "--density", "mixture-d4"]),
    "paradoxes mixture-d4": ((4, 1), ["paradoxes", "--density", "mixture-d4"]),
}

BOX_GOLDEN = {
    ("states", "text"): "5b2d34b7146fd15a7ba047fda0893471815849e4067b2e35458509e2f09a7c93",
    ("states", "json"): "efe99655d3e7a6844207ab94f366b1a1fd01c39dd2a7f997af248593ffedd70e",
    ("report", "text"): "a35ab26a9064c7fe215f5de6847d3ad6411b7b9f7dff3246cbf2029fba3ad9aa",
    ("report", "json"): "f514a229b7bc5f31c249b6d17ca1ad35bedcf0c9e8f0cc4c32b14e4c8f62833e",
    ("states d4", "text"): "44a103c389c294190f553bc3cf880dfac74d0ef0a8217c1bf95a207821547331",
    ("states d4", "json"): "12d450951861db2f32ff316679e1f75f72e9d9b814d8da89f0a46533d6b48b5d",
    ("check 0,1,2", "text"): "b94c157c478863f8a08c99820f44c00e960330dcbc2c8151da51922e54c5c218",
    ("check 0,1,2", "json"): "38c648f307025feb2f92ecc165b38a8cdb944dd5c11cf648032aea25f8133ec2",
    ("paradoxes 0,1,2", "text"): "c3ebee04a954c90a8860202397315d8d54c22a454a23c9c11f98f2c4cbb2d26f",
    ("paradoxes 0,1,2", "json"): "313bcb6530ac78aada43763af0ffe9294b6d139d69cfb944b7d35205e45cc22d",
    ("check mixture-d3", "text"): "72ebf6795ef5f35c4a02ecfa6a75fdf361e090fe7cd4b9dbf5b943d683e9b965",
    ("check mixture-d3", "json"): "5b35a3b1b07f3d933e0225389e5ed28cbce9e76f9b0e05ca051a990a096c4b1a",
    ("paradoxes mixture-d3", "text"): "057650015dbbd638eb87305e63fd54ada3dbd80622197cbc4dbca345687b49e4",
    ("paradoxes mixture-d3", "json"): "ee480211abbeeaf03d5faee10e96210fb306216af4f22cb13e9555272214c307",
    ("check mixture-d4", "text"): "9a980a6406dec73f2ad5f863baa7a9931dd9ffb46d2aa41fe52a2031f4cabb04",
    ("check mixture-d4", "json"): "9b693d356c6ecadb49367ea7df5b825de64f0428834dc7cafdd164d617de4473",
    ("paradoxes mixture-d4", "text"): "eba2b67c0959c8c5ef5e6031b0417c936d3ca9a1ff7cf2ba32503ecd661cb18d",
    ("paradoxes mixture-d4", "json"): "3c5a2820f096b46f1f8377c53b64b9b2187327ed35d204d1b8601aad498e6566",
}

# complex densities by name: 3/4 |a><a| + 1/4 |b><b| for a, b = (1, +-i, 0)/sqrt(2), whose kernel is v3 on yu-oh
# and on its Gaussian image, and |vD><vD| / 15 for the image of vD, (2+i, 2+i, 2-i)
COMPLEX_DENSITIES = {
    "rank-2": "1/2 0-1/4i 0\n0+1/4i 1/2 0\n0 0 0\n",
    "vD": "1/3 1/3 1/5+4/15i\n1/3 1/3 1/5+4/15i\n1/5-4/15i 1/5-4/15i 1/3\n",
}

GAUSSIAN_COMMANDS = {
    "contexts": ["contexts"],
    "report": ["report"],
    "check rank-2": ["check", "--density", "rank-2"],
    "paradoxes rank-2": ["paradoxes", "--density", "rank-2"],
    "check vD": ["check", "--density", "vD"],
    "paradoxes vD": ["paradoxes", "--density", "vD"],
}

GAUSSIAN_GOLDEN = {
    ("contexts", "text"): "5aefa3483a95c25bf7352569725a8e016d9cb0e3b084d8019e07749bbd625480",
    ("contexts", "json"): "f12a3edcf8c20e0279fc0273da5762b7df85a4a5adb5159bf0c3d919092651ef",
    ("report", "text"): "21e2374318714e58e1c7749cce78ae855673f6e6ce336824ed9fe051827e2f4b",
    ("report", "json"): "a1fcd6cc06d584cb7289f241cf54214485ef806345f969271d1f26a5de0d4ab4",
    ("check rank-2", "text"): "5a9bd802a1da05c0d0aa0a9eac2dec4493eab3807d78a4ab534635fe7fd6d4f0",
    ("check rank-2", "json"): "caa3037e09a7456e6a835685ca0c1660f4c5f39766bf0d9961655b70f0e05a8a",
    ("paradoxes rank-2", "text"): "a52eee65699913c233da1377d9a3f8f1d74eb96aa8dc0128a0cdafd951241829",
    ("paradoxes rank-2", "json"): "2cff4d468129199ab3479446cc1668ccef1b843137a1308cd8e7fcafda70ad99",
    ("check vD", "text"): "d2be684f08c23b5fe6f211e276387a6c6cfff5ccd249fdb726af83cd12806883",
    ("check vD", "json"): "6929343a593c477bcc01f2fc13a70171e7acf11ecea13edb9e96e0c43dd55cbd",
    ("paradoxes vD", "text"): "82476212e34fdfaab38cf728762b3cb2ceaebea82a5d759b43558e382a2e7b6a",
    ("paradoxes vD", "json"): "999d9df011a6f046abcc7ca13677646ac425bde45d92a689c9ed628bf6554076",
}


def run(tmp_path, args: list[str], fmt: str, scenario: str = "yu-oh") -> bytes:
    """The bytes ``ctxkit ARGS --scenario SCENARIO --format FMT`` writes to its ``--out`` file."""
    out = tmp_path / f"out.{fmt}"
    assert cli.main([*args, "--scenario", scenario, "--format", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_yu_oh_output_is_pinned(tmp_path, name, fmt):
    assert hashlib.sha256(run(tmp_path, COMMANDS[name], fmt)).hexdigest() == GOLDEN[name, fmt]


@pytest.mark.parametrize("name", list(COMMANDS))
def test_text_is_rendered_from_the_json_document(tmp_path, name):
    document = json.loads(run(tmp_path, COMMANDS[name], "json"))
    assert render_text(document).encode("utf-8") == run(tmp_path, COMMANDS[name], "text")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", list(BOX_COMMANDS))
def test_box_prefix_output_is_pinned(tmp_path, command, fmt):
    (d, m), args = BOX_COMMANDS[command]
    path = tmp_path / "box.scenario"
    path.write_text(box_prefix_text(d, m, 32), encoding="utf-8")
    for name, rows in BOX_DENSITIES.items():
        (tmp_path / name).write_text(rows, encoding="utf-8")
    args = [str(tmp_path / a) if a in BOX_DENSITIES else a for a in args]
    digest = hashlib.sha256(run(tmp_path, args, fmt, str(path))).hexdigest()
    assert digest == BOX_GOLDEN[command, fmt]


def write_complex_densities(tmp_path) -> dict[str, str]:
    for name, rows in COMPLEX_DENSITIES.items():
        (tmp_path / name).write_text(rows, encoding="utf-8")
    return {name: str(tmp_path / name) for name in COMPLEX_DENSITIES}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", list(GAUSSIAN_COMMANDS))
def test_gaussian_image_output_is_pinned(tmp_path, yu_oh, command, fmt):
    path = tmp_path / "yu-oh-u.scenario"
    path.write_text(gaussian_image_text(yu_oh), encoding="utf-8")
    files = write_complex_densities(tmp_path)
    args = [files.get(a, a) for a in GAUSSIAN_COMMANDS[command]]
    digest = hashlib.sha256(run(tmp_path, args, fmt, str(path))).hexdigest()
    assert digest == GAUSSIAN_GOLDEN[command, fmt]


@pytest.mark.parametrize("name", list(COMPLEX_DENSITIES))
def test_rational_yu_oh_refuses_complex_densities(tmp_path, capsys, name):
    density = write_complex_densities(tmp_path)[name]
    for command in ("check", "paradoxes"):
        assert cli.main([command, "--scenario", "yu-oh", "--density", density]) == 2
        assert "not allowed in a rational context" in capsys.readouterr().err
