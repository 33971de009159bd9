"""Figure 7: L0 buffers vs MultiVLIW vs the word-interleaved cache."""

from repro.eval import AMEAN, fig7, render_fig7


def test_fig7(ctx):
    series = fig7(ctx)
    print()
    print(render_fig7(series))

    def amean(label):
        return next(r for r in series[label] if r.benchmark == AMEAN).total

    l0 = amean("8-entry L0 buffers")
    multivliw = amean("MultiVLIW")
    inter1 = amean("Interleaved 1")
    inter2 = amean("Interleaved 2")
    # Paper's ranking: the proposed L0 design and MultiVLIW are the two
    # strong configurations; both clearly beat the word-interleaved
    # cache.  (Deviation from the paper: our MultiVLIW model lands a
    # little *behind* L0 rather than marginally ahead — see
    # EXPERIMENTS.md.)
    assert l0 < inter1 and l0 < inter2
    assert multivliw < inter1 and multivliw < inter2
    assert l0 < 1.0
