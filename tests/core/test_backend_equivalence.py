"""Batch-body backend equivalence (ISSUE 8).

Every body behind ``SwitchMLProgram.handle_batch`` -- the pure-NumPy
vectorized path, the optional compiled C kernel, and the per-packet
replay a traced or invariant-checking program takes -- must match the
per-packet :meth:`handle` reference *bit for bit*: identical decision
sequences (action, destination, payload), identical register contents
after every batch, identical protocol counters.

The driver below replays a protocol-plausible but adversarial traffic
mix -- interleaved first contributions, retransmitted duplicates (both
in-flight and post-completion shadow reads), same-slot version overlap,
and multi-batch slot reuse -- through a backend-under-test program and
a reference program in lockstep, comparing after every batch.

The compiled-backend cases skip cleanly when no C compiler is on PATH
(the kernel build is fail-soft; see ``repro.core.backend``).
"""

import numpy as np
import pytest

from repro.core.backend import load_switch_kernel, unavailable_reason
from repro.core.packet import SwitchMLPacket
from repro.core.switch_program import SwitchAction, SwitchMLProgram
from repro.obs import Observability

N = 4  # workers
S = 8  # pool slots
K = 4  # elements per packet


def _needs_kernel():
    if load_switch_kernel("c") is None:
        pytest.skip(f"compiled backend unavailable: {unavailable_reason()}")


def _make_program(backend: str, **kwargs) -> SwitchMLProgram:
    prog = SwitchMLProgram(N, S, K, backend=backend, **kwargs)
    if backend == "c":
        assert prog.backend == "c"
    # exercise the batch bodies at every size, not just >= BATCH_MIN
    prog.BATCH_MIN = 2
    return prog


def _packet(wid, ver, idx, chunk, retx=False):
    off = chunk * K
    vec = (np.arange(K, dtype=np.int64) + off * 131 + wid * 7 + ver) % 10_000
    return SwitchMLPacket(
        wid=wid, ver=ver, idx=idx, off=off, num_elements=K,
        vector=vec, is_retransmission=retx,
    )


def _drive(rng, num_batches=60, max_batch=24):
    """Yield protocol-plausible batches from a miniature worker model.

    Each worker keeps one outstanding (ver, chunk) per slot; a batch is
    a random multiset of outstanding packets (duplicates model
    retransmissions -- including of chunks that completed in an earlier
    batch, which the switch must answer as shadow reads).
    """
    ver = np.zeros((N, S), dtype=int)
    chunk = np.zeros((N, S), dtype=int)
    done: list[tuple[int, int]] = []  # (wid, idx) of completed chunks
    for _ in range(num_batches):
        batch = []
        for _ in range(rng.integers(2, max_batch + 1)):
            w = int(rng.integers(N))
            i = int(rng.integers(S))
            if done and rng.random() < 0.15:
                # retransmit a long-gone chunk: unicast shadow read
                w, i = done[int(rng.integers(len(done)))]
                batch.append(
                    _packet(w, 1 - ver[w, i], i, max(0, chunk[w, i] - 1),
                            retx=True)
                )
                continue
            batch.append(
                _packet(w, ver[w, i], i, chunk[w, i],
                        retx=bool(rng.random() < 0.2))
            )
        yield batch, ver, chunk, done


def _advance(model, decisions):
    """Apply the switch's completions to the worker model."""
    ver, chunk, done = model
    for d in decisions:
        if d.action is SwitchAction.MULTICAST:
            idx = d.packet.idx
            for w in range(N):
                done.append((w, idx))
                ver[w, idx] = 1 - ver[w, idx]
                chunk[w, idx] += 1


def _snapshot(prog):
    return {
        "pool": prog._pool.snapshot(),
        "count": prog._count.snapshot(),
        "seen": prog._seen.snapshot(),
        "pop": prog._seen_pop.copy(),
        "multicasts": prog.multicasts,
        "unicasts": prog.unicast_retransmits,
        "dups": prog.ignored_duplicates,
        "processed": prog.packets_processed,
    }


def _assert_decisions_match(got, want, tag):
    assert len(got) == len(want), f"{tag}: {len(got)} vs {len(want)} decisions"
    for j, (g, w) in enumerate(zip(got, want)):
        assert g.action is w.action, f"{tag}[{j}]: action"
        assert g.unicast_wid == w.unicast_wid, f"{tag}[{j}]: wid"
        for f in ("idx", "ver", "off", "wid", "from_switch"):
            assert getattr(g.packet, f) == getattr(w.packet, f), f"{tag}[{j}]: {f}"
        np.testing.assert_array_equal(
            g.packet.vector, w.packet.vector, err_msg=f"{tag}[{j}]: vector"
        )


def _run_lockstep(backend: str, seed: int, **kwargs):
    rng = np.random.default_rng(seed)
    prog = _make_program(backend, **kwargs)
    ref = _make_program("numpy")
    for b, batch_model in enumerate(_drive(rng)):
        batch, ver, chunk, done = batch_model
        got = prog.handle_batch(list(batch))
        want = []
        for p in batch:
            d = ref.handle(p)
            if d.action is not SwitchAction.DROP:
                want.append(d)
        _assert_decisions_match(got, want, f"batch {b}")
        gs, ws = _snapshot(prog), _snapshot(ref)
        for key in gs:
            np.testing.assert_array_equal(
                gs[key], ws[key], err_msg=f"batch {b}: register {key}"
            )
        _advance((ver, chunk, done), want)
    return prog


class TestNumpyBodyMatchesReference:
    @pytest.mark.parametrize("seed", [1, 42, 1234])
    def test_lockstep(self, seed):
        _run_lockstep("numpy", seed)


class TestCompiledBodyMatchesReference:
    @pytest.mark.parametrize("seed", [1, 42, 1234])
    def test_lockstep(self, seed):
        _needs_kernel()
        _run_lockstep("c", seed)

    def test_backend_label(self):
        _needs_kernel()
        assert _make_program("c").backend == "c"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            SwitchMLProgram(N, S, K, backend="fortran")


class TestSpecReplayMatchesReference:
    """With the tracer or ``check_invariants`` on, ``handle_batch`` runs
    the spec loop itself plus one aggregate record per drain."""

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    def test_traced_lockstep(self, backend):
        if backend == "c":
            _needs_kernel()
        obs = Observability()
        prog = _run_lockstep(backend, 42, obs=obs)
        drains = [dict(e.args) for e in obs.tracer.select(name="burst.switch")]
        assert len(drains) == 60  # one per batch the driver yields
        assert sum(d["packets"] for d in drains) == prog.packets_processed
        assert sum(d["emissions"] for d in drains) == (
            prog.multicasts + prog.unicast_retransmits
        )
        assert obs.tracer.count("slot.release") == prog.multicasts

    def test_check_invariants_lockstep(self):
        _run_lockstep("numpy", 42, check_invariants=True)


class TestFailSoftFallback:
    def test_numpy_label_without_kernel(self):
        prog = _make_program("numpy")
        assert prog.backend == "numpy"
        assert prog._kernel is None
