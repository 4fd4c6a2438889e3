"""Golden outputs: the SHA-256 of every command's yu-oh text and JSON report.

Each command runs in-process through ``cli.main`` with ``--out``, so the
digests cover the exact bytes a user would get in a file.  The two
``report`` digests are the ones ``perfbench/pinned.json`` pins as well.
"""

from __future__ import annotations

import hashlib

import pytest

from ctxkit import cli

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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_yu_oh_output_is_pinned(tmp_path, name, fmt):
    out = tmp_path / "out"
    argv = [*COMMANDS[name], "--scenario", "yu-oh", "--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name, fmt]
