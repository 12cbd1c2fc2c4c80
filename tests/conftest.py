"""Every test starts with every memo empty (`artinian.MEMOS`).

Several tests plant a fault in a function under a memo and check that a
verdict fails; an entry left warm by an earlier test would return the
unfaulted answer, and the outcome would depend on test order.  The field
tables (`GF`, `canonical_modulus`, `_embedding_table`, `twisted._frame`)
stay warm: their entries depend on nothing a test can plant, and
rebuilding GF(2039^2) takes about a second.
"""

import pytest

import cartierforge  # noqa: F401  (imports every module, so every memo is in MEMOS)
from cartierforge.artinian import MEMOS


@pytest.fixture(autouse=True)
def cold_memos():
    for memo in MEMOS:
        memo.cache_clear()
