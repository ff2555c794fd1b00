import numpy as np
import pytest

from eisenlab.corering import build_dlog_table, is_power


def test_small_tables():
    d7 = build_dlog_table(7)
    assert d7.g == 3
    assert d7.table[3] == 1
    assert d7.table[2] == 2  # 3^2 = 2 mod 7
    assert build_dlog_table(5).table[1] == 0
    d11 = build_dlog_table(11)
    assert d11.g == 2
    assert d11.table[10] == 5  # 2^5 = 32 = 10 mod 11


def test_round_trip_and_injectivity():
    for N in (13, 101, 181):
        d = build_dlog_table(N)
        seen = set()
        for x in range(1, N):
            assert pow(d.g, d.table[x], N) == x
            seen.add(d.table[x])
        assert seen == set(range(N - 1))


def _per_residue_table(N, g):
    """The table and powers by one multiplication per residue."""
    table, powers, acc = [0] * N, [], 1
    for k in range(N - 1):
        table[acc] = k
        powers.append(acc)
        acc = acc * g % N
    return table, powers


@pytest.mark.parametrize("N", [5, 7, 11, 181, 2003, 9907])
def test_table_matches_per_residue_loop(N):
    d = build_dlog_table(N)
    table, powers = _per_residue_table(N, d.g)
    assert type(d.table) is list and d.table == table and d.table[0] == 0
    assert d.powers.dtype == np.int64 and d.powers.tolist() == powers
    assert not d.powers.flags.writeable


def test_not_prime_rejected():
    with pytest.raises(ValueError):
        build_dlog_table(15)


def _log_mod(d, x, modulus):
    """log as a homomorphism F_N^* -> Z/modulus (modulus | N-1)."""
    if (d.N - 1) % modulus != 0:
        raise ValueError(f"{modulus} does not divide N-1 = {d.N - 1}")
    return d.table[x % d.N] % modulus


def test_log_mod_homomorphism():
    d = build_dlog_table(31)
    for x in (2, 5, 7):
        for y in (3, 11):
            assert (_log_mod(d, x, 5) + _log_mod(d, y, 5)) % 5 == _log_mod(d, x * y % 31, 5)
    with pytest.raises(ValueError):
        _log_mod(d, 2, 7)  # 7 does not divide 30


def test_is_power_examples():
    assert is_power(227, 337, 7) is False
    assert is_power(1, 31, 5) is True
    assert is_power(4, 5, 2) is True
    # brute force comparison mod 31, q = 5
    fifth_powers = {pow(x, 5, 31) for x in range(1, 31)}
    for x in range(1, 31):
        assert is_power(x, 31, 5) == (x in fifth_powers)
    with pytest.raises(ValueError):
        is_power(2, 31, 7)
