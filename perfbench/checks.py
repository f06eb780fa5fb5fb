"""Output checks: support per call, Clopper-Pearson on pooled counts."""

#: Family-wise false-alarm bound of one pooled check.
ALPHA = 1e-9

#: Supports larger than this are checked in contiguous bins.
MAX_BINS = 48


def pooled_check(program, counts, reference, other_hi):
    """Failure messages (empty when the pooled samples pass).

    ``counts`` maps observed values to counts; ``reference`` maps values
    to a probability interval ``(lo, hi)``.  Each bin's Clopper-Pearson
    interval, at ``ALPHA`` split over the bins, must meet the reference
    interval; values outside ``reference`` share one bin bounded by
    ``other_hi``.
    """
    from repro.stats.binomial import clopper_pearson

    total = sum(counts.values())
    if total == 0:
        return ["%s: no samples to check" % program]
    values = sorted(reference)
    size = -(-len(values) // MAX_BINS)
    bins = []
    for start in range(0, len(values), size):
        chunk = values[start:start + size]
        bins.append((
            "%r..%r" % (chunk[0], chunk[-1]) if len(chunk) > 1
            else repr(chunk[0]),
            sum(counts.get(value, 0) for value in chunk),
            sum(reference[value][0] for value in chunk),
            sum(reference[value][1] for value in chunk),
        ))
    known = set(values)
    bins.append(("other", sum(count for value, count in counts.items()
                              if value not in known), 0.0, other_hi))
    failures = []
    for label, count, lo, hi in bins:
        cp_lo, cp_hi = clopper_pearson(count, total, ALPHA / len(bins))
        if cp_hi < lo or cp_lo > hi:
            failures.append(
                "%s: P(%s) = %d/%d, CP [%.3g, %.3g] misses [%.3g, %.3g]"
                % (program, label, count, total, cp_lo, cp_hi, lo, hi))
    return failures
