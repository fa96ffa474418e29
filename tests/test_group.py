"""Word arithmetic, the octagon relator, and small-cancellation reduction."""

import numpy as np
import pytest

from todalab import group as G
from todalab.errors import DisconnectedCoverError
from todalab.mesh import CoverSpec


def test_word_string_round_trip():
    assert G.word_str(()) == ""
    assert G.word_str((1, -2, 3, -4)) == "aBcD"
    assert G.parse_word("aBcD") == (1, -2, 3, -4)
    assert G.parse_word("") == ()
    for word in [(), (1,), (4, -3, 2, -1), (2, 2, -1)]:
        assert G.parse_word(G.word_str(word)) == word


def test_parse_word_rejects_garbage():
    with pytest.raises(ValueError):
        G.parse_word("ax")


def test_free_reduction_and_inverse():
    assert G.free_reduce((1, -1)) == ()
    assert G.free_reduce((1, 2, -2, -1)) == ()
    assert G.free_reduce((1, 2, -2, 3)) == (1, 3)
    assert G.inverse_word((1, -2, 3)) == (-3, 2, -1)
    w = (4, -3, 2, -1)
    assert G.free_reduce(G.concat(w, G.inverse_word(w))) == ()


def test_relator_shape():
    # Boundary word of the regular octagon with opposite sides glued by
    # pure translations.
    assert G.RELATOR == (4, -3, 2, -1, -4, 3, -2, 1)
    sums = {letter: 0 for letter in range(1, 5)}
    for letter in G.RELATOR:
        sums[abs(letter)] += 1 if letter > 0 else -1
    # Zero exponent sums: the relator lies in the commutator subgroup, so
    # any abelian permutation assignment automatically satisfies it.
    assert all(s == 0 for s in sums.values())


def test_relator_small_cancellation():
    # Every two-letter cyclic subword of the relator determines its
    # position uniquely (C'(1/8)), which is what makes the greedy
    # replacement reduction below a complete decision procedure.
    subwords = set()
    for word in (G.RELATOR, G.inverse_word(G.RELATOR)):
        for i in range(len(word)):
            pair = (word[i], word[(i + 1) % len(word)])
            assert pair not in subwords
            subwords.add(pair)


def test_dehn_reduce_kills_relator_conjugates():
    R = G.RELATOR
    assert G.dehn_reduce(R) == ()
    assert G.dehn_reduce(G.inverse_word(R)) == ()
    for k in range(8):
        rotated = R[k:] + R[:k]
        assert G.dehn_reduce(rotated) == ()
    for conj in [(1,), (2, -3), (1, 2, 3)]:
        word = G.concat(G.concat(conj, R), G.inverse_word(conj))
        assert G.is_identity(word)
        # R squared also dies (two successive replacements).
        word2 = G.concat(R, G.concat(conj, G.concat(R, G.inverse_word(conj))))
        assert G.is_identity(word2)


def test_dehn_reduce_keeps_nontrivial_words():
    for word in [(1,), (1, 2), (4, -3, 2), (-4, 3, -1), (1, -2, 4),
                 (-3, 2, -1), (1, 2, 3, 4)]:
        assert not G.is_identity(word)
    # Two words name the same element iff w1 w2^-1 reduces to ().
    assert G.is_identity(G.concat((1, 2), G.inverse_word((1, 2))))
    assert not G.is_identity(G.concat((1, 2), G.inverse_word((2, 1))))
    # g and g . relator name the same group element.
    g = (2, -3)
    assert G.is_identity(G.concat(g, G.inverse_word(G.concat(g, G.RELATOR))))


def test_permutation_action_is_right_composition():
    n = 5
    perms = {1: [1, 2, 3, 4, 0], 2: [0, 2, 1, 3, 4],
             3: list(range(n)), 4: [4, 3, 2, 1, 0]}
    G.check_permutations(perms, n)
    w1, w2 = (1, 2), (-4, 3)
    p1 = list(G.perm_of_word(perms, w1, n))
    p2 = list(G.perm_of_word(perms, w2, n))
    composed = list(G.perm_of_word(perms, G.concat(w1, w2), n))
    # Acting by w1 then w2 equals acting by the concatenation.
    assert composed == [p2[p1[s]] for s in range(n)]
    assert list(G.perm_of_word(perms, (), n)) == list(range(n))
    inv = list(G.perm_of_word(perms, G.inverse_word(w1), n))
    assert [inv[p1[s]] for s in range(n)] == list(range(n))


def test_permutation_validation():
    with pytest.raises(ValueError):
        G.check_permutations({1: [0, 0], 2: [0, 1], 3: [0, 1], 4: [0, 1]}, 2)
    with pytest.raises(ValueError):
        G.check_permutations({1: [0, 1]}, 2)



def test_transitivity():
    shift = {1: [1, 2, 0], 2: [0, 1, 2], 3: [0, 1, 2], 4: [0, 1, 2]}
    assert CoverSpec(degree=3, generator_images=shift).validate()
    trivial = {k: [0, 1, 2] for k in range(1, 5)}
    with pytest.raises(DisconnectedCoverError, match="not transitive"):
        CoverSpec(degree=3, generator_images=trivial).validate()
