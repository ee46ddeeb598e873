import numpy as np

from spikelab import kirchhoff_routh, lane_emden, verify


def test_entry_ladder_solves_each_level_once(monkeypatch):
    calls = []
    solve = lane_emden.newton_solve

    def counting_solve(msh, u0, p, **kw):
        calls.append(msh.h)
        return solve(msh, u0, p, **kw)

    monkeypatch.setattr(lane_emden, "newton_solve", counting_solve)
    ctx = verify.AcceptanceContext()
    e128 = ctx.entry("disk", 128, 10.0)
    assert calls == [1.0 / 64, 1.0 / 128]
    assert e128.mesh.h == 1.0 / 128 and len(e128.spikes) == 1

    # the coarse level is the plain ansatz solve at the disk's centre
    msh = ctx.mesh("disk", 64)
    u, _ = solve(msh, lane_emden.ansatz(msh, kirchhoff_routh.psi_eval(msh, [(0.0, 0.0)]), 10.0),
                 10.0)
    assert np.array_equal(ctx.entry("disk", 64, 10.0).u, u)

    assert ctx.entry("disk", 128, 10.0) is e128
    assert len(calls) == 2


def test_release_drops_an_entry_with_its_mesh():
    ctx = verify.AcceptanceContext()
    ctx.entry("disk", 64, 10.0)
    ctx.oracle(20.0)
    ctx.release(("entry", "disk", 64, 10.0, False))
    assert set(ctx._cache) == {("kr", "disk"), ("oracle", 20.0)}
