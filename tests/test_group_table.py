"""GroupTable against a BFS keyed on full root permutations."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxmin import coxeter
from coxmin.conjugacy import TwistedCoset
from coxmin.coxeter import (GroupTable, build_system, enumerate_twists,
                            named_matrix)
from coxmin.eigen import elliptic_parabolic_certificate
from oracles import (descent_stripping_certificate, reference_table,
                     to_word_by_descents)

TYPES = ["A1", "A3", "B3", "H3", "D4", "F4", "H4", "E6", "I2(129)"]


@functools.lru_cache(maxsize=1)
def _built(name):
    system = build_system(named_matrix(name))
    return system, system.table()


@pytest.mark.parametrize("name", TYPES)
def test_table_matches_permutation_keyed_reference(name):
    system, t = _built(name)
    perms, index, right, left, length = reference_table(system)
    assert t.size == len(perms)
    assert list(t.perms) == perms
    assert all(t.index[p] == x for p, x in index.items())
    assert t.right == right
    assert t.left == left
    assert t.length == length
    npos, n = system.npos, system.rank
    assert t.rdesc == [sum(1 << i for i in range(n) if p[i] >= npos) for p in perms]
    assert t.ldesc == [sum(1 << i for i in range(n) if length[left[i][x]] < length[x])
                       for x in range(t.size)]
    assert t.w0 == max(range(t.size), key=length.__getitem__)


@pytest.mark.parametrize("name", [name for name in TYPES if name != "A1"])
def test_index_rejects_a_permutation_with_a_stored_key(name):
    # Swapping two entries >= n keeps where the simple roots sit, hence the
    # key, so only the row check tells the permutation from the element's.
    # (A1 has a single root index >= n, so it has no such swap.)
    system, t = _built(name)
    n = system.rank
    for x in range(0, t.size, max(1, t.size // 50)):
        perm = list(t.perms[x])
        a, b = [r for r, v in enumerate(perm) if v >= n][:2]
        perm[a], perm[b] = perm[b], perm[a]
        perm = tuple(perm)
        assert t.index.get(perm) is None
        with pytest.raises(KeyError):
            t.index[perm]
        assert t.index.get(t.perms[x]) == x


@pytest.mark.parametrize("name", TYPES)
def test_support_is_the_letter_set_of_a_reduced_word(name):
    system, t = _built(name)
    # Every element against to_word.
    for x in range(t.size):
        assert t.support[x] == sum({1 << i for i in t.element(x).to_word()})
    # On all of W: s_j x and x differ by the letter j in a reduced word, so
    # their supports agree once j is added; with support[0] = 0 this fixes
    # the support of every element by induction on length.
    assert t.support[0] == 0
    for j in range(system.rank):
        bit = 1 << j
        assert all(t.support[x] | bit == t.support[y] | bit
                   for x, y in enumerate(t.left[j]))


@pytest.mark.parametrize("name", TYPES)
def test_to_word_matches_descent_stripping(name):
    # The table walk against one group product per letter: every element up
    # to F4, every 64th of H4 and E6 (the oracle is O(l N) a word).
    system, t = _built(name)
    stride = 1 if t.size <= 2000 else 64
    for x in range(0, t.size, stride):
        g = t.element(x)
        word = g.to_word()
        assert word == to_word_by_descents(g)
        assert len(word) == t.length[x]
        assert system.element_from_word(word) == g


@pytest.mark.parametrize("name", ["B3", "H3", "D4", "F4"])
def test_to_word_without_a_table_matches_the_table_walk(name):
    # to_word strips descents on the inverse root permutation and reads no
    # table; every element gives the word of the walk down the table's
    # left-descent masks and left multiplication.
    _, t = _built(name)
    fresh = build_system(named_matrix(name))
    for x in range(t.size):
        word, y = [], x
        while t.ldesc[y]:
            i = (t.ldesc[y] & -t.ldesc[y]).bit_length() - 1
            word.append(i)
            y = t.left[i][y]
        assert coxeter.GroupElement(fresh, t.perms[x]).to_word() == word
    assert fresh._table is None


@pytest.mark.parametrize("name", TYPES)
def test_support_certificate_matches_descent_stripping(name):
    system, t = _built(name)
    for twist in enumerate_twists(system.matrix):
        coset = TwistedCoset(system, twist)
        for els in coset.classes():
            rep = coset.element(els[0])
            assert (elliptic_parabolic_certificate(rep, els, t)
                    == descent_stripping_certificate(rep, els, t))


def test_table_build_composes_once_per_element(monkeypatch):
    # A build that multiplies permutations to find its elements would make
    # 2 * rank * |W| products.  Up to 256 roots the rows are byte
    # translations of earlier rows, so H4 makes none; above 256 roots
    # (I2(129), the 16-bit rows) each element but the identity takes
    # exactly one product, which also shows the counter counts.
    calls = 0
    real = coxeter.compose

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    monkeypatch.setattr(coxeter, "compose", counting)
    for name, size, products in (("H4", 14400, 0), ("I2(129)", 258, 257)):
        system = build_system(named_matrix(name))
        calls = 0
        t = GroupTable(system)
        assert t.size == size
        assert calls == products, (name, calls)


# A child exec'd from this process starts with this process's peak RSS in
# its ru_maxrss (Linux keeps the peak across exec), which hides any growth
# below it.  The child runs under a small launcher instead, so its peak
# starts from the launcher's.
_LAUNCH = ("import subprocess, sys\n"
           "sys.exit(subprocess.call([sys.executable, '-c', sys.argv[1]]))\n")


def _run_fresh(script: str) -> list[int]:
    """The integers `script` prints, run in a fresh interpreter under the
    launcher."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _LAUNCH, script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [int(v) for v in proc.stdout.split()]


def test_e6_table_build_stays_within_its_memory_budget():
    """The E6 table build raises the process's peak RSS by under 35 MB.

    A fresh interpreter builds the E6 root system, reads its own ru_maxrss,
    builds the table and reads it again.  With one 72-entry tuple per
    element and a dict keyed by them the build grew the peak by 48.8 MB;
    with packed rows indexed by the search key, by 22.0 MB; with the rows
    kept in the bytearray the translations fill and the search keyed by
    bytes, by 20.0 MB (CPython 3.11, x86-64 Linux).
    """
    size, grown_kb = _run_fresh(
        "import resource\n"
        "from coxmin.coxeter import build_system, named_matrix\n"
        "system = build_system(named_matrix('E6'))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "table = system.table()\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(table.size, after - before)\n")
    assert size == 51840
    assert grown_kb < 35 * 1024, f"the table build grew the peak by {grown_kb} KB"


def test_e6_class_layer_stays_within_its_memory_budget():
    """The E6 table, both class enumerations and path_graph on the identity
    class (W_w is all of W) raise the peak RSS by under 21.5 MB.

    A fresh interpreter builds the E6 root system, reads its own ru_maxrss,
    runs the class layer and reads it again.  With one 16-bit step row per
    generator and class lists that hold the table's own ints, the peak grew
    by 19.7 MB (20,152 KB), all of it before path_graph: its byte mask over
    W and its list of more than half of Z_W(w) = W left the peak where the
    class scan had set it.  When path_graph kept a dense list of conjugates
    over W (a BFS over all of W_w), the peak grew by 20,208 KB on the same
    host and day, and 20,892 KB on an earlier one; with a dict of the
    conjugates and no step rows by 22.0 MB, and with step rows as lists and
    class lists of the ints the row reads make, by 23.6 MB (CPython 3.11,
    x86-64 Linux).
    """
    twists, size, reached, grown_kb = _run_fresh(
        "import resource\n"
        "from coxmin.conjugacy import enumerate_classes, path_graph\n"
        "from coxmin.coxeter import build_system, enumerate_twists, named_matrix\n"
        "system = build_system(named_matrix('E6'))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "system.table()\n"
        "records = [enumerate_classes(system, twist)\n"
        "           for twist in enumerate_twists(system.matrix)]\n"
        "identity = records[0][0]\n"
        "graph = path_graph(identity.representative, identity.coset)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(len(records), identity.size, graph.num_reached, after - before)\n")
    assert (twists, size, reached) == (2, 1, 51840)
    assert grown_kb < 21.5 * 1024, f"the class layer grew the peak by {grown_kb} KB"
