"""SRV001 violations carrying justified suppressions."""


def debug_handler(request, shard):
    # repro: allow[SRV001] debug endpoint gated off in production
    stats = shard.live_pipeline.stats()
    return {
        "stats": stats,
        "buffered": shard.live_window.buffered,  # repro: allow[SRV001] fixture justification
    }
