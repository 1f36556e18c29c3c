from __future__ import annotations

import pytest

from fiqs import enumerate_all


@pytest.fixture(scope="session")
def surfaces_by_rho():
    """All (key, matrix) pairs with Gorenstein index <= 50, keyed by rho."""
    return {
        rho: [pair for iota in range(1, 51) for pair in enumerate_all(rho, iota)]
        for rho in (1, 2, 3)
    }


def up_to(surfaces, iota_max):
    return [(k, m) for k, m in surfaces if k.iota <= iota_max]


def reference_pair_ok(rho: int, tag: str, ip: int, im: int) -> bool:
    """The per-tag ladder of parity/divisibility and ordering constraints on (iota+, iota-)."""
    if rho == 1:
        if tag == "s11":
            return ip % 2 == 1 and im % 2 == 1 and ip <= im
        if tag == "s12":
            return ip % 2 == 1 and im % 4 == 0 and 2 * ip <= im
        if tag == "s21":
            return ip % 4 == 0 and im % 2 == 1 and ip <= 2 * im
        return ip % 4 == 0 and im % 4 == 0 and ip <= im
    if rho == 2:
        if ip % 2 == 0 or im % 2 == 0:
            return False
        if tag == "s11":
            return ip % 3 != 0 and im % 3 != 0 and ip <= im
        if tag == "s12":
            return ip % 3 != 0 and ip <= 3 * im
        if tag == "s21":
            return im % 3 != 0 and 3 * ip <= im
        return ip <= im
    if tag == "s11":
        return ip % 2 == 1 and im % 2 == 1 and ip <= im
    if tag == "s12":
        return ip % 2 == 1 and ip <= 2 * im
    if tag == "s21":
        return im % 2 == 1 and 2 * ip <= im
    return ip <= im
