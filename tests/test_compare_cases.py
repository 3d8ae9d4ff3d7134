"""The 31 comparison cases of ``tools/compare_cases.py``, pinned bit for bit."""

import importlib.util
from pathlib import Path

from fdsl4 import PrecisionContext

# sha256 per quantity of ``compare_cases.digests(compare_cases.record(...))`` at
# 300 digits, recorded with mpmath 1.3.0.  A change that moves values on
# purpose records new digests here and says so in CHANGES.md.
PINNED = {
    "lambda": "37ced42100f85e61946d40498a0e3d51e493a1cb7f8380a54e5bf55e7cf80b0a",
    "omega": "143b265666a98373d03c59fb9f1b013ce0c699c04375c3a8e956e867b5c8a951",
    "lambda_j": "826a310f20d1987d902be3fde01fe23d7c9bebe1fd56079e5c41877556c9376e",
    "terms": "2663d97b97a1b09b11a2aa16c82329c455565a151fcbd4dd660edc2b789a17dc",
    "u_values": "47f11dc0e8f910fdd21e785b61176b02c5354ed90127788025dcb8104acae004",
    "residuals": "5e003011f4a74ccf2d5e19ca2a62a50b1878fc685a2eb1662a4653caf746d295",
    "oracle": "7aa5be1049ea7f10908794022a7f6e5cae708ef60decf003ce0cf749c9d3f81f",
}


def _compare_cases():
    path = Path(__file__).resolve().parents[1] / "tools" / "compare_cases.py"
    spec = importlib.util.spec_from_file_location("compare_cases", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_comparison_cases_are_bit_identical():
    tool = _compare_cases()
    got = tool.digests(tool.record(PrecisionContext(digits=tool.DIGITS)))
    assert got.keys() == PINNED.keys()
    moved = [quantity for quantity in PINNED if got[quantity] != PINNED[quantity]]
    assert not moved, (
        f"bits moved in {', '.join(moved)}; to see which entries and by how much, run "
        f"`python tools/compare_cases.py --out new.json --against old.json` with old.json "
        f"made by the same script in the parent's checkout")
