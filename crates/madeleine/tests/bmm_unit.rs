//! Direct unit tests of the Buffer Management Modules against a recording
//! mock TM — the policies' contracts in isolation from any driver.

use bytes::Bytes;
use madeleine::bmm::{RecvBmm, SendBmm, SendPolicy};
use madeleine::config::HostModel;
use madeleine::stats::Stats;
use madeleine::tm::{StaticBuf, TmCaps, TransmissionModule};
use madeleine::MadResult;
use madsim_net::time::{self, ClockHandle};
use madsim_net::NodeId;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// What the mock TM saw, in order.
#[derive(Debug, PartialEq, Eq, Clone)]
enum Op {
    Send(Vec<u8>),
    SendGroup(Vec<Vec<u8>>),
    SendGather(Vec<Vec<u8>>),
    SendStatic(Vec<u8>),
    Obtain,
    Release,
}

struct MockTm {
    ops: Mutex<Vec<Op>>,
    /// Queue of buffers `receive_*` will produce.
    rx: Mutex<VecDeque<Vec<u8>>>,
    static_buffers: bool,
    cap: usize,
    gather: bool,
}

impl MockTm {
    fn new(static_buffers: bool, cap: usize) -> Arc<Self> {
        Self::with_gather(static_buffers, cap, true)
    }

    fn with_gather(static_buffers: bool, cap: usize, gather: bool) -> Arc<Self> {
        Arc::new(MockTm {
            ops: Mutex::new(Vec::new()),
            rx: Mutex::new(VecDeque::new()),
            static_buffers,
            cap,
            gather,
        })
    }

    fn ops(&self) -> Vec<Op> {
        self.ops.lock().clone()
    }

    fn queue_rx(&self, data: &[u8]) {
        self.rx.lock().push_back(data.to_vec());
    }
}

impl TransmissionModule for MockTm {
    fn name(&self) -> &'static str {
        "mock"
    }

    fn caps(&self) -> TmCaps {
        TmCaps {
            static_buffers: self.static_buffers,
            buffer_cap: self.cap,
            gather: self.gather,
        }
    }

    fn send_buffer(&self, _dst: NodeId, data: &[u8]) -> MadResult<()> {
        self.ops.lock().push(Op::Send(data.to_vec()));
        Ok(())
    }

    fn send_buffer_group(&self, _dst: NodeId, bufs: &[&[u8]]) -> MadResult<()> {
        // One group either way; the mock records whether it advertised a
        // native gather for it.
        let bufs = bufs.iter().map(|b| b.to_vec()).collect();
        let op = if self.gather {
            Op::SendGather(bufs)
        } else {
            Op::SendGroup(bufs)
        };
        self.ops.lock().push(op);
        Ok(())
    }

    fn send_static_buffer(&self, _dst: NodeId, buf: StaticBuf) -> MadResult<()> {
        self.ops.lock().push(Op::SendStatic(buf.filled().to_vec()));
        Ok(())
    }

    fn receive_buffer(&self, _src: NodeId, dst: &mut [u8]) -> MadResult<()> {
        let mut rx = self.rx.lock();
        let mut filled = 0;
        while filled < dst.len() {
            let front = rx.front_mut().expect("mock rx underrun");
            let take = front.len().min(dst.len() - filled);
            dst[filled..filled + take].copy_from_slice(&front[..take]);
            front.drain(..take);
            if front.is_empty() {
                rx.pop_front();
            }
            filled += take;
        }
        Ok(())
    }

    fn receive_static_buffer(&self, _src: NodeId) -> MadResult<StaticBuf> {
        let data = self.rx.lock().pop_front().expect("mock rx underrun");
        Ok(StaticBuf::shared(Bytes::from(data), 0))
    }

    fn obtain_static_buffer(&self) -> StaticBuf {
        self.ops.lock().push(Op::Obtain);
        StaticBuf::owned(self.cap, 0)
    }

    fn release_static_buffer(&self, _buf: StaticBuf) {
        self.ops.lock().push(Op::Release);
    }
}

/// All BMM paths advance the clock; give the test thread one.
fn with_clock<T>(f: impl FnOnce() -> T) -> T {
    let prev = time::install_clock(ClockHandle::new());
    let out = f();
    time::restore_clock(prev);
    out
}

fn send_bmm(policy: SendPolicy, tm: &Arc<MockTm>) -> SendBmm<'static> {
    SendBmm::new(
        policy,
        Arc::clone(tm) as Arc<dyn TransmissionModule>,
        1,
        HostModel::default(),
        Stats::new(),
    )
}

fn recv_bmm(policy: SendPolicy, tm: &Arc<MockTm>) -> RecvBmm<'static> {
    RecvBmm::new(
        policy,
        Arc::clone(tm) as Arc<dyn TransmissionModule>,
        0,
        HostModel::default(),
        Stats::new(),
    )
}

// ---------------- Eager policy ----------------

#[test]
fn eager_sends_each_block_immediately() {
    with_clock(|| {
        let tm = MockTm::new(false, usize::MAX);
        let mut bmm = send_bmm(SendPolicy::Eager, &tm);
        bmm.pack(b"one", madeleine::SendMode::Cheaper).unwrap();
        assert_eq!(tm.ops(), vec![Op::Send(b"one".to_vec())]);
        bmm.pack(b"two", madeleine::SendMode::Cheaper).unwrap();
        bmm.flush().unwrap();
        assert_eq!(
            tm.ops(),
            vec![Op::Send(b"one".to_vec()), Op::Send(b"two".to_vec())]
        );
    });
}

#[test]
fn eager_defers_later_blocks_and_preserves_order() {
    with_clock(|| {
        let tm = MockTm::new(false, usize::MAX);
        let mut bmm = send_bmm(SendPolicy::Eager, &tm);
        bmm.pack(b"a", madeleine::SendMode::Cheaper).unwrap();
        bmm.pack(b"L", madeleine::SendMode::Later).unwrap();
        // A block behind a LATER block must not overtake it.
        bmm.pack(b"b", madeleine::SendMode::Cheaper).unwrap();
        assert_eq!(tm.ops(), vec![Op::Send(b"a".to_vec())]);
        bmm.flush().unwrap();
        assert_eq!(
            tm.ops(),
            vec![
                Op::Send(b"a".to_vec()),
                Op::Send(b"L".to_vec()),
                Op::Send(b"b".to_vec())
            ]
        );
    });
}

// ---------------- Aggregate policy ----------------

#[test]
fn aggregate_groups_blocks_into_one_flush() {
    with_clock(|| {
        let tm = MockTm::new(false, usize::MAX);
        let mut bmm = send_bmm(SendPolicy::Aggregate, &tm);
        bmm.pack(b"aa", madeleine::SendMode::Cheaper).unwrap();
        bmm.pack(b"bbb", madeleine::SendMode::Cheaper).unwrap();
        assert!(tm.ops().is_empty(), "nothing leaves before commit");
        bmm.flush().unwrap();
        assert_eq!(
            tm.ops(),
            vec![Op::SendGather(vec![b"aa".to_vec(), b"bbb".to_vec()])]
        );
    });
}

#[test]
fn aggregate_flush_counts_native_gathers_only() {
    with_clock(|| {
        // Gather-capable TM: the flush is one native scatter/gather.
        let tm = MockTm::new(false, usize::MAX);
        let stats = Stats::new();
        let mut bmm = SendBmm::new(
            SendPolicy::Aggregate,
            Arc::clone(&tm) as Arc<dyn TransmissionModule>,
            1,
            HostModel::default(),
            Arc::clone(&stats),
        );
        bmm.pack(b"one", madeleine::SendMode::Cheaper).unwrap();
        bmm.pack(b"two", madeleine::SendMode::Cheaper).unwrap();
        bmm.flush().unwrap();
        assert_eq!(stats.gathers(), 1);
        assert_eq!(stats.borrowed_bytes(), 6, "both blocks read in place");
        assert_eq!(stats.copied_bytes(), 0);

        // Same traffic on a TM without native gather: the same buffer
        // group call, and no gather counted.
        let tm = MockTm::with_gather(false, usize::MAX, false);
        let stats = Stats::new();
        let mut bmm = SendBmm::new(
            SendPolicy::Aggregate,
            Arc::clone(&tm) as Arc<dyn TransmissionModule>,
            1,
            HostModel::default(),
            Arc::clone(&stats),
        );
        bmm.pack(b"one", madeleine::SendMode::Cheaper).unwrap();
        bmm.pack(b"two", madeleine::SendMode::Cheaper).unwrap();
        bmm.flush().unwrap();
        assert_eq!(stats.gathers(), 0);
        assert_eq!(
            tm.ops(),
            vec![Op::SendGroup(vec![b"one".to_vec(), b"two".to_vec()])]
        );
    });
}

#[test]
fn aggregate_copies_safer_blocks() {
    with_clock(|| {
        let tm = MockTm::new(false, usize::MAX);
        let stats = Stats::new();
        let mut bmm = SendBmm::new(
            SendPolicy::Aggregate,
            Arc::clone(&tm) as Arc<dyn TransmissionModule>,
            1,
            HostModel::default(),
            Arc::clone(&stats),
        );
        bmm.pack(b"capture-me", madeleine::SendMode::Safer).unwrap();
        assert_eq!(stats.copies(), 1, "SAFER under aggregation must copy");
        assert_eq!(
            stats.pool_misses(),
            1,
            "the defensive copy is captured into pool memory"
        );
        bmm.flush().unwrap();
        assert_eq!(tm.ops(), vec![Op::SendGather(vec![b"capture-me".to_vec()])]);
    });
}

#[test]
fn aggregate_flush_on_empty_is_harmless() {
    with_clock(|| {
        let tm = MockTm::new(false, usize::MAX);
        let mut bmm = send_bmm(SendPolicy::Aggregate, &tm);
        bmm.flush().unwrap();
        bmm.flush().unwrap();
        assert!(tm.ops().is_empty());
    });
}

// ---------------- StaticCopy policy ----------------

#[test]
fn static_copy_fills_buffers_tightly() {
    with_clock(|| {
        let tm = MockTm::new(true, 8);
        let mut bmm = send_bmm(SendPolicy::StaticCopy, &tm);
        bmm.pack(b"abc", madeleine::SendMode::Cheaper).unwrap();
        bmm.pack(b"defgh", madeleine::SendMode::Cheaper).unwrap(); // exactly fills 8
                                                                   // A full buffer ships immediately.
        assert_eq!(
            tm.ops(),
            vec![Op::Obtain, Op::SendStatic(b"abcdefgh".to_vec())]
        );
        bmm.pack(b"xy", madeleine::SendMode::Cheaper).unwrap();
        bmm.flush().unwrap();
        assert_eq!(
            tm.ops(),
            vec![
                Op::Obtain,
                Op::SendStatic(b"abcdefgh".to_vec()),
                Op::Obtain,
                Op::SendStatic(b"xy".to_vec()),
            ]
        );
    });
}

#[test]
fn static_copy_splits_oversized_blocks() {
    with_clock(|| {
        let tm = MockTm::new(true, 4);
        let mut bmm = send_bmm(SendPolicy::StaticCopy, &tm);
        bmm.pack(b"0123456789", madeleine::SendMode::Cheaper)
            .unwrap();
        bmm.flush().unwrap();
        assert_eq!(
            tm.ops(),
            vec![
                Op::Obtain,
                Op::SendStatic(b"0123".to_vec()),
                Op::Obtain,
                Op::SendStatic(b"4567".to_vec()),
                Op::Obtain,
                Op::SendStatic(b"89".to_vec()),
            ]
        );
    });
}

#[test]
fn static_copy_charges_copies() {
    with_clock(|| {
        let tm = MockTm::new(true, 64);
        let stats = Stats::new();
        let mut bmm = SendBmm::new(
            SendPolicy::StaticCopy,
            Arc::clone(&tm) as Arc<dyn TransmissionModule>,
            1,
            HostModel::default(),
            Arc::clone(&stats),
        );
        bmm.pack(&[1u8; 40], madeleine::SendMode::Cheaper).unwrap();
        bmm.flush().unwrap();
        assert_eq!(stats.copied_bytes(), 40);
    });
}

#[test]
fn static_copy_exact_fill_leaves_no_residue() {
    with_clock(|| {
        let tm = MockTm::new(true, 8);
        let mut bmm = send_bmm(SendPolicy::StaticCopy, &tm);
        bmm.pack(b"12345678", madeleine::SendMode::Cheaper).unwrap();
        // The exactly-full buffer ships on the spot...
        assert_eq!(
            tm.ops(),
            vec![Op::Obtain, Op::SendStatic(b"12345678".to_vec())]
        );
        // ...and the flush must not obtain, send, or release anything:
        // no empty trailing buffer exists.
        bmm.flush().unwrap();
        assert_eq!(
            tm.ops(),
            vec![Op::Obtain, Op::SendStatic(b"12345678".to_vec())]
        );
    });
}

#[test]
fn static_copy_exact_multiple_spans_three_full_buffers() {
    with_clock(|| {
        let tm = MockTm::new(true, 4);
        let mut bmm = send_bmm(SendPolicy::StaticCopy, &tm);
        bmm.pack(b"0123456789ab", madeleine::SendMode::Cheaper)
            .unwrap();
        let full = vec![
            Op::Obtain,
            Op::SendStatic(b"0123".to_vec()),
            Op::Obtain,
            Op::SendStatic(b"4567".to_vec()),
            Op::Obtain,
            Op::SendStatic(b"89ab".to_vec()),
        ];
        assert_eq!(tm.ops(), full);
        bmm.flush().unwrap();
        assert_eq!(tm.ops(), full, "no fourth (empty) buffer after flush");
    });
}

#[test]
fn static_copy_later_block_packs_in_order_across_boundary() {
    with_clock(|| {
        let tm = MockTm::new(true, 4);
        let mut bmm = send_bmm(SendPolicy::StaticCopy, &tm);
        bmm.pack(b"ab", madeleine::SendMode::Cheaper).unwrap(); // staged: 2/4
        bmm.pack(b"LMN", madeleine::SendMode::Later).unwrap(); // deferred to flush
        bmm.pack(b"xy", madeleine::SendMode::Cheaper).unwrap(); // queued behind it
                                                                // Nothing shipped: the partial buffer waits for the LATER block.
        assert_eq!(tm.ops(), vec![Op::Obtain]);
        bmm.flush().unwrap();
        // Packing order a < L < b holds even though the LATER block
        // straddles the buffer boundary.
        assert_eq!(
            tm.ops(),
            vec![
                Op::Obtain,
                Op::SendStatic(b"abLM".to_vec()),
                Op::Obtain,
                Op::SendStatic(b"Nxy".to_vec()),
            ]
        );
    });
}

// ---------------- receive side ----------------

#[test]
fn recv_eager_defers_cheaper_until_checkout() {
    with_clock(|| {
        let tm = MockTm::new(false, usize::MAX);
        tm.queue_rx(b"hello");
        let mut buf = [0u8; 5];
        {
            let mut bmm = recv_bmm(SendPolicy::Eager, &tm);
            // Deferred: nothing pulled yet (rx still queued).
            bmm.unpack(&mut buf, madeleine::RecvMode::Cheaper).unwrap();
            assert_eq!(tm.rx.lock().len(), 1);
            bmm.checkout().unwrap();
        }
        assert_eq!(&buf, b"hello");
    });
}

#[test]
fn recv_express_drains_preceding_deferred_in_order() {
    with_clock(|| {
        let tm = MockTm::new(false, usize::MAX);
        tm.queue_rx(b"first");
        tm.queue_rx(b"second");
        let mut a = [0u8; 5];
        let mut b = [0u8; 6];
        {
            let mut bmm = recv_bmm(SendPolicy::Eager, &tm);
            bmm.unpack(&mut a, madeleine::RecvMode::Cheaper).unwrap();
            // EXPRESS on the second block must first satisfy the first.
            bmm.unpack_express_now(&mut b).unwrap();
        }
        assert_eq!(&a, b"first");
        assert_eq!(&b, b"second");
    });
}

#[test]
fn recv_static_extracts_across_buffer_boundaries() {
    with_clock(|| {
        let tm = MockTm::new(true, 4);
        tm.queue_rx(b"0123");
        tm.queue_rx(b"4567");
        tm.queue_rx(b"89");
        let mut buf = [0u8; 10];
        {
            let mut bmm = recv_bmm(SendPolicy::StaticCopy, &tm);
            bmm.unpack(&mut buf, madeleine::RecvMode::Cheaper).unwrap();
            bmm.checkout().unwrap();
        }
        assert_eq!(&buf, b"0123456789");
    });
}

#[test]
#[should_panic(expected = "not fully consumed")]
fn recv_static_detects_asymmetry_at_checkout() {
    with_clock(|| {
        let tm = MockTm::new(true, 8);
        tm.queue_rx(b"12345678");
        let mut bmm = recv_bmm(SendPolicy::StaticCopy, &tm);
        let mut buf = [0u8; 3];
        bmm.unpack(&mut buf, madeleine::RecvMode::Cheaper).unwrap();
        let _ = bmm.checkout(); // 5 bytes left unconsumed: contract violation
    });
}
