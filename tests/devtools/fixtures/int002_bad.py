"""INT002 violations: decoding inside the id-level hot loop."""


def _admit(events, symbols, interner, route_path_tokens):
    groups = {}
    for event in events:
        chain = route_path_tokens(
            event.peer, event.prefix, event.attributes
        )
        ids = tuple(interner.intern(tok) for tok in chain)
        key = symbols.token(ids[-1])
        groups.setdefault(key, []).append(ids)
    return groups


def animate_stream(stream, graph):
    frames = []
    for event in stream:
        for eid in graph.event_ids(event):
            frames.append(graph.decode_pair(eid))
    return frames


def add_route_ids(edges, edge_ids, pid, pulses, graph):
    for eid in edge_ids:
        store = edges.setdefault(eid, {})
        if pid not in store:
            pulses[graph.decode_pair(eid)] = 1
        store[pid] = store.get(pid, 0) + 1


def rank_top(winning, holders, route_path_tokens, router, prefix):
    finalists = []
    for attributes in holders:
        chain = route_path_tokens(router, prefix, attributes)
        if len(chain) > 2:
            finalists.append(chain)
    return min(finalists, default=None)
