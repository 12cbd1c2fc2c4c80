"""Bit-identity of every benchmark output.

`tools/result_digest.py` hashes the JSON result of every command over
`bench/inputs`, the kind, structure matrix and x-action of every Matlis
dual and double dual there, the fixed basis and dimensions of Sol over
GF(q), GF(q^2) and GF(q^3) of every Artinian Frobenius module there, and
the crystal class of every Artinian module and torsion part there, with
the Sol attainment degree of the Frobenius ones.  The digests below pin
those outputs, so a
change that alters any result or structure matrix fails here, also where
no verdict shows it.  Change them only with a deliberate change of output,
and say why.
"""

import hashlib
import importlib.util
from pathlib import Path

from cartierforge import cli

TOOL = Path(__file__).resolve().parent.parent / "tools" / "result_digest.py"
_spec = importlib.util.spec_from_file_location("result_digest", TOOL)
result_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(result_digest)


def combined(lines_of):
    """(line count, SHA-256) over all workloads, as the tool's `combined`
    lines print them."""
    digest, n = hashlib.sha256(), 0
    for workload in result_digest.WORKLOADS:
        for line in lines_of(cli, workload):
            digest.update(line.encode())
            n += 1
    return n, digest.hexdigest()


def test_command_results_are_pinned():
    assert combined(result_digest.result_lines) == (
        1604, "11815f137a0cb34b6aa3d4e7f8bc4e4cc0cd406064e367d0b95942af2ac1e25f")


def test_matlis_duals_are_pinned():
    assert combined(result_digest.matlis_lines) == (
        148, "3083e81e8c35021bd7a98cb2245a07ee462f65aa193c393061c9687bef0722af")


def test_sol_bases_are_pinned():
    assert combined(result_digest.sol_lines) == (
        90, "72405230ad51645c75c7365ae9921a71881436dbf106930aa183bea5bdc1ef15")


def test_crystal_classes_are_pinned():
    assert combined(result_digest.crystal_lines) == (
        334, "be2169cd928c03b5d24cd3a20c1e064297a814325587dad16bdb0f0580d20a82")
