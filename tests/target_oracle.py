"""The CLI's target parse one item at a time: the oracle for cli._target_table.

Each target is checked on its own.  A subset must be a list of ints (bools
refused), and each is ranked by combinat.rank_subset.  Messages are the CLI's
config-error messages.
"""

from fermishadow.cli import ConfigError
from fermishadow.combinat import rank_subset, validate_subset


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def target_subset(z, n: int, size: int, item) -> tuple:
    """z as a validated size-subset of 1..n; a ConfigError naming item otherwise."""
    try:
        if not (isinstance(z, (list, tuple)) and all(_is_int(m) for m in z)):
            raise TypeError
        z = validate_subset(tuple(z), n)
    except (TypeError, ValueError):
        raise ConfigError(f"bad target {item!r}") from None
    if len(z) != size:
        raise ConfigError(f"target {item!r} needs {size}-subsets of 1..{n}")
    return z


def resolve_pairs(items, n: int, k: int) -> list:
    """List of (p, q) subset pairs, item by item."""
    out = []
    for item in items:
        try:
            p, q = item
        except (TypeError, ValueError):
            raise ConfigError(f"bad target pair {item!r}") from None
        out.append(tuple(target_subset(z, n, k, item) for z in (p, q)))
    return out


def resolve_subsets(items, n: int, size: int) -> list:
    """List of size-subsets, item by item."""
    return [target_subset(q, n, size, q) for q in items]


def ranks(subsets) -> list:
    return [rank_subset(z) for z in subsets]
