"""Every test starts with empty memos: the Hom-system memo, the D memo,
the reduced kappa stacks and the nilpotency indices.

Several tests plant a fault in a function under those memos and check
that a verdict fails; an entry left warm by an earlier test would return
the unfaulted answer, and the outcome would depend on test order.  The
`GF` cache stays warm: its entries depend on nothing a test can plant,
and rebuilding GF(2039^2) takes about a second.
"""

import pytest

from cartierforge.artinian import _intertwiner_kernel
from cartierforge.duality import _dual
from cartierforge.structures import _kappa_stack, _nil_index


@pytest.fixture(autouse=True)
def cold_memos():
    _intertwiner_kernel.cache_clear()
    _dual.cache_clear()
    _kappa_stack.cache_clear()
    _nil_index.cache_clear()
