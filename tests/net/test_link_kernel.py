"""Compiled link-kernel lockstep.

``Link.send_bodies`` hands >=64-frame clean-link trains to the compiled
``link_train_bodies`` kernel (repro.core.backend).  The kernel must
reproduce the Python body loop bit for bit: same busy chain, same
per-frame busy_time accumulation order, same Bernoulli draws from the
same block buffer with the same refill boundaries.  Which body runs is
decided by what the code can see (compiler present, train length, clean
link), so these tests select each implementation in turn by patching
the module-level kernel cache, run identical named RNG substreams, and
compare records, stats, and the buffer cursor exactly.

Skips cleanly when no C compiler is on PATH (the build is fail-soft).
"""

import pytest

import repro.net.link as linkmod
from repro.core.backend import load_link_kernel
from repro.net.link import _BERN_BLOCK, Link, LinkSpec
from repro.net.loss import BernoulliLoss, NoLoss
from repro.net.packet import Frame
from repro.sim.engine import Simulator


def _needs_kernel():
    kernel = load_link_kernel()
    if kernel is None:
        pytest.skip("compiled link kernel unavailable")
    return kernel


def _force(monkeypatch, kernel):
    # the module-level cache: False = unprobed, None = disabled
    monkeypatch.setattr(linkmod, "_TRAIN_KERNEL", kernel)


def _run_bodies(n_frames, loss_p, *, preconsume=0):
    """Build a link, optionally burn part of the draw block via
    per-frame sends, then run one big train through send_bodies."""
    sim = Simulator()
    spec = LinkSpec(rate_gbps=10.0, propagation_s=5e-7)
    delivered = []
    link = Link(
        sim, spec, "kernel-eq",
        deliver=lambda f: delivered.append(f),
        loss=BernoulliLoss(loss_p) if loss_p else NoLoss(),
    )
    for i in range(preconsume):
        link.send(Frame(wire_bytes=100, flow_key=-1 - i))
    pairs = [
        (i * 1e-7, Frame(wire_bytes=1250, flow_key=i))
        for i in range(n_frames)
    ]
    records, accepted = link.send_bodies(pairs)
    fp = [(arrival, frame.flow_key) for arrival, frame in records]
    return {
        "records": fp,
        "accepted": accepted,
        "sent": link.stats.frames_sent,
        "lost": link.stats.frames_lost,
        "bytes": link.stats.bytes_sent,
        "busy_time": link.stats.busy_time,
        "busy_until": link._busy_until,
        "u_i": link._u_i,
        "u_buf": None if link._u_buf is None else list(link._u_buf),
    }


class TestKernelMatchesPythonLoop:
    @pytest.mark.parametrize("loss_p", [0.0, 0.05, 0.5])
    def test_train_bit_exact(self, monkeypatch, loss_p):
        kernel = _needs_kernel()
        _force(monkeypatch, None)
        want = _run_bodies(300, loss_p)
        _force(monkeypatch, kernel)
        got = _run_bodies(300, loss_p)
        assert got == want

    def test_refill_mid_train_bit_exact(self, monkeypatch):
        # burn most of the block first so the kernel has to stop at the
        # block boundary, refill, and re-enter exactly where the
        # per-frame draw would have
        kernel = _needs_kernel()
        pre = _BERN_BLOCK - 10
        _force(monkeypatch, None)
        want = _run_bodies(2 * _BERN_BLOCK, 0.3, preconsume=pre)
        _force(monkeypatch, kernel)
        got = _run_bodies(2 * _BERN_BLOCK, 0.3, preconsume=pre)
        assert got == want

    def test_small_trains_skip_the_kernel(self, monkeypatch):
        # below the marshalling break-even the Python loop must run even
        # with a kernel loaded; outcome identical either way
        kernel = _needs_kernel()
        _force(monkeypatch, kernel)
        with_kernel = _run_bodies(32, 0.2)
        _force(monkeypatch, None)
        without = _run_bodies(32, 0.2)
        assert with_kernel == without


class TestKernelOptional:
    def test_disabled_kernel_still_bit_exact(self, monkeypatch):
        # the full send path with the kernel forced off matches the
        # default path (which may or may not have a kernel): protocol
        # behavior cannot depend on compiler availability
        _force(monkeypatch, None)
        a = _run_bodies(128, 0.1)
        _force(monkeypatch, False)  # re-probe, use whatever loads
        b = _run_bodies(128, 0.1)
        assert a == b
