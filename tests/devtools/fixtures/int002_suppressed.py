"""INT002 violations carrying justified suppressions."""


def _admit(events, symbols, interner, route_path_tokens):
    groups = {}
    for event in events:
        # repro: allow[INT002] fixture: reference grouper re-renders
        # chains on purpose for the equivalence suite.
        chain = route_path_tokens(
            event.peer, event.prefix, event.attributes
        )
        ids = tuple(interner.intern(tok) for tok in chain)
        # repro: allow[INT002] fixture: reference keys groups by token.
        key = symbols.token(ids[-1])
        groups.setdefault(key, []).append(ids)
    return groups
