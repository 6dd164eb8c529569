"""Statistics and span arithmetic shared by run.py and compare.py.

Quartiles are Python's statistics.quantiles(values, n=4) (the default
"exclusive" method); a spread is the interquartile distance as a share of
the median.  The comparison rule is the one the benchmark's README gives:
a gain needs at least nine tenths of the pairs won and a median gap wider
than the baseline's own interquartile distance.
"""

import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Interquartile distance as a share of the median (0 for a zero median)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def is_better(old, new, better):
    return new < old if better == "lower" else new > old


def win_fraction(base, new, better):
    """Share of (base[i], new[i]) pairs that new wins; ties count for neither."""
    pairs = list(zip(base, new))
    if not pairs:
        return 0.0
    return sum(1 for a, b in pairs if is_better(a, b, better)) / len(pairs)


def worsening(base_median, new_median, better):
    """How much worse new is than base, as a share of base (negative: better)."""
    if base_median == 0:
        return 0.0
    gap = (new_median - base_median) / abs(base_median)
    return gap if better == "lower" else -gap


def verdict(base, new, better, bound):
    """improved / no worse / worse / unresolved, for two lists of run values.

    improved: new wins at least 9/10 of the pairs and the medians differ,
    in new's favour, by more than base's interquartile distance.
    Otherwise, when base's own spread exceeds the bound, the comparison is
    unresolved unless every new run beats every base run.  Else new is no
    worse when its median is within the bound of base's.
    """
    q1, base_med, q3 = quartiles(base)
    new_med = median(new)
    if (win_fraction(base, new, better) >= 0.9
            and is_better(base_med, new_med, better)
            and abs(new_med - base_med) > q3 - q1):
        return "improved"
    if all(is_better(a, b, better) for a in base for b in new):
        return "no worse"
    if spread(base) > bound:
        return "unresolved"
    return "no worse" if worsening(base_med, new_med, better) <= bound else "worse"


def self_times(spans):
    """Map span id -> self time, for spans given as (id, name, t0, t1, parent).

    A span's self time is its duration minus the part of its interval that
    its children cover.  Children recorded on different domains can
    overlap; the covered part is the union of their intervals, clipped to
    the parent's, so overlapping children are not subtracted twice.
    """
    children = {}
    for sid, _name, t0, t1, parent in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _name, t0, t1, _parent in spans:
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(sid, [])):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out
