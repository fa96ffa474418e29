"""Words in the genus-2 surface group of the octagon side pairings.

The group is generated by the four side-pairing translations a, b, c, d of
the regular hyperbolic octagon (vertex angles pi/4) with opposite sides
identified.  A word is a tuple of nonzero ints: 1,2,3,4 stand for a,b,c,d
and negative values for their inverses.  The string form uses ``a..d`` for
generators, ``A..D`` for inverses, and ``""`` for the identity.

Going around the single vertex class of the quotient octagon reads off the
defining relator

    R = d c^-1 b a^-1 d^-1 c b^-1 a .

All pieces (common subwords of distinct cyclic rotations of R and R^-1)
have length 1, i.e. the presentation satisfies the C'(1/8) small
cancellation condition, so Dehn's algorithm decides the word problem:
free-reduce, and replace any subword that is more than half of a cyclic
rotation of R or R^-1 by the inverse of the complementary part, until no
replacement applies.  The result is empty iff the word is the identity.

Permutation images (for covering-space construction) act on sheets on the
*right*, so that the image of a concatenated word is the left-to-right
composition of the letter images and path words compose homomorphically.
"""

from __future__ import annotations

import numpy as np

#: Defining relator of the octagon presentation, as letters.
RELATOR = (4, -3, 2, -1, -4, 3, -2, 1)

N_GENERATORS = 4

_LETTER_TO_CHAR = {1: "a", 2: "b", 3: "c", 4: "d",
                   -1: "A", -2: "B", -3: "C", -4: "D"}
_CHAR_TO_LETTER = {v: k for k, v in _LETTER_TO_CHAR.items()}


def word_str(word):
    """String form of a word, e.g. (1, -2) -> 'aB'; identity -> ''."""
    return "".join(_LETTER_TO_CHAR[l] for l in word)


def parse_word(s):
    """Inverse of :func:`word_str`."""
    try:
        return tuple(_CHAR_TO_LETTER[ch] for ch in s)
    except KeyError as exc:
        raise ValueError(f"invalid word string {s!r}") from exc


def inverse_word(word):
    return tuple(-l for l in reversed(word))


def free_reduce(word):
    """Cancel adjacent inverse pairs until none remain."""
    out = []
    for l in word:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def concat(*words):
    """Concatenate words and free-reduce the result."""
    joined = []
    for w in words:
        joined.extend(w)
    return free_reduce(joined)


def _build_dehn_table():
    """Map each subword s of a cyclic rotation r = s t of R or R^-1 with
    len(s) >= 5 to the strictly shorter replacement t^-1 (equal in the group)."""
    table = {}
    for base in (RELATOR, inverse_word(RELATOR)):
        n = len(base)
        for shift in range(n):
            rot = base[shift:] + base[:shift]
            for cut in range(5, n + 1):
                head, tail = rot[:cut], rot[cut:]
                table.setdefault(head, inverse_word(tail))
    return table


_DEHN_TABLE = _build_dehn_table()
_DEHN_LENGTHS = sorted({len(k) for k in _DEHN_TABLE}, reverse=True)


def dehn_reduce(word):
    """Dehn-reduce a word; the result is empty iff the word is the identity."""
    w = free_reduce(word)
    changed = True
    while changed:
        changed = False
        for size in _DEHN_LENGTHS:
            if len(w) < size:
                continue
            for start in range(len(w) - size + 1):
                repl = _DEHN_TABLE.get(w[start:start + size])
                if repl is not None:
                    w = free_reduce(w[:start] + repl + w[start + size:])
                    changed = True
                    break
            if changed:
                break
    return w


def is_identity(word):
    return len(dehn_reduce(word)) == 0


# ----------------------------------------------------------------------
# Permutation images (right action on sheets 0..n-1)

def identity_perm(n):
    return np.arange(n, dtype=np.int64)


def check_permutations(images, n):
    """Validate that images maps letters 1..4 to permutations of range(n)."""
    for l in range(1, N_GENERATORS + 1):
        if l not in images:
            raise ValueError(f"missing image for generator {word_str((l,))}")
        p = np.asarray(images[l], dtype=np.int64)
        if p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n)):
            raise ValueError(f"image of generator {word_str((l,))} is not a "
                             f"permutation of 0..{n - 1}")


def letter_perms(images):
    """Permutation array of every letter: the images of the positive
    letters 1..4 and, under the negative letters, their inverses."""
    full = {}
    for l in range(1, N_GENERATORS + 1):
        p = np.asarray(images[l], dtype=np.int64)
        full[l] = p
        full[-l] = np.argsort(p)
    return full


def perm_of_word(images, word, n):
    """Right-action permutation of a word: sheet s goes to perm[s].

    ``images`` maps positive letters to permutation arrays; inverses are
    derived.  Letters apply left to right, matching path concatenation.
    """
    full = letter_perms(images)
    perm = identity_perm(n)
    for l in word:
        perm = full[l][perm]
    return perm
