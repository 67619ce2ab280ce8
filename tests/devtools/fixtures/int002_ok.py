"""INT002 known-good: hot functions stay on interned ids; tokens only
materialize in decode-boundary functions outside the hot set."""

PAIR_SHIFT = 32
PAIR_MASK = (1 << PAIR_SHIFT) - 1


def add_ids(pairs, ids):
    for a, b in zip(ids, ids[1:]):
        key = (a << PAIR_SHIFT) | b
        pairs[key] = pairs.get(key, 0) + 1


def _admit(events, memo):
    groups = {}
    for event in events:
        ids = memo[event.peer, event.prefix]
        groups.setdefault(ids[-1], []).append(ids)
    return groups


def top_pair_tokens(pairs, symbols):
    # Decode boundary: tokens may materialize here.
    best, best_count = None, -1
    for key, count in pairs.items():
        if count > best_count:
            best, best_count = key, count
    if best is None:
        return None
    return symbols.token(best >> PAIR_SHIFT), symbols.token(best & PAIR_MASK)


def add_route_ids(edges, edge_ids, pid, pulses):
    grown = 0
    for eid in edge_ids:
        store = edges.setdefault(eid, {})
        if pid not in store:
            pulses[eid] = pulses.get(eid, 0) + 1
            grown += 1
        store[pid] = store.get(pid, 0) + 1
    return grown


def rank_top(winning, best_count):
    # Finalists stay packed pairs; the caller decodes the winner.
    finalists = sorted(winning)
    return finalists[0] if best_count and finalists else None
