//! The paper's headline claims as regression tests: if a change to the
//! simulator or the library breaks a *shape* the paper reports, these fail.
//! (Absolute tolerances are generous; shapes are exact.)

use bench::experiments::{self, ForwardDir};
use madeleine::Protocol;
use madsim_net::perf::mibps;
use madsim_net::time::VDuration;

fn bw_of(t_us: f64, n: usize) -> f64 {
    mibps(n, VDuration::from_micros_f64(t_us))
}

/// Fig. 10: forwarding bandwidth grows with packet size; the 128 kB
/// asymptote lands near the paper's 49.5 MB/s.
#[test]
fn fig10_shape() {
    let msg = 1 << 20;
    let mut prev = 0.0;
    for packet in [8192usize, 32768, 131072] {
        let t = experiments::forwarding_oneway_us(ForwardDir::SciToMyrinet, packet, msg);
        let bw = bw_of(t, msg);
        assert!(
            bw > prev * 0.97,
            "fig10 must not decrease with packet size: {bw:.1} after {prev:.1}"
        );
        prev = bw;
    }
    assert!(
        (43.0..54.0).contains(&prev),
        "fig10 128 kB asymptote {prev:.1} MiB/s outside 43–54 (paper: 49.5)"
    );
}

/// Fig. 11: the Myrinet→SCI direction is distinctly slower than SCI→
/// Myrinet (the DMA-priority asymmetry), and the 8 kB point is near the
/// paper's 29 MB/s.
#[test]
fn fig11_asymmetry() {
    let msg = 1 << 20;
    let fwd = bw_of(
        experiments::forwarding_oneway_us(ForwardDir::SciToMyrinet, 131072, msg),
        msg,
    );
    let rev = bw_of(
        experiments::forwarding_oneway_us(ForwardDir::MyrinetToSci, 131072, msg),
        msg,
    );
    assert!(
        rev < fwd * 0.9,
        "Myrinet->SCI ({rev:.1}) must be clearly slower than SCI->Myrinet ({fwd:.1})"
    );
    let small = bw_of(
        experiments::forwarding_oneway_us(ForwardDir::MyrinetToSci, 8192, 262144),
        262144,
    );
    assert!(
        (24.0..34.0).contains(&small),
        "fig11 8 kB point {small:.1} MiB/s outside 24–34 (paper: 29)"
    );
}

/// §6.2.1: Madeleine/SCI and Madeleine/Myrinet are comparable at 16 kB,
/// with SCI winning below and Myrinet above.
#[test]
fn network_crossover_near_16kb() {
    let sci_8k = experiments::madeleine_oneway_us(Protocol::Sisci, 8192, false);
    let myr_8k = experiments::madeleine_oneway_us(Protocol::Bip, 8192, false);
    assert!(sci_8k < myr_8k, "SCI must win at 8 kB");
    let sci_16k = experiments::madeleine_oneway_us(Protocol::Sisci, 16384, false);
    let myr_16k = experiments::madeleine_oneway_us(Protocol::Bip, 16384, false);
    let ratio = sci_16k / myr_16k;
    assert!(
        (0.8..1.4).contains(&ratio),
        "16 kB should be comparable (ratio {ratio:.2})"
    );
    let sci_64k = experiments::madeleine_oneway_us(Protocol::Sisci, 65536, false);
    let myr_64k = experiments::madeleine_oneway_us(Protocol::Bip, 65536, false);
    assert!(myr_64k < sci_64k, "Myrinet must win at 64 kB");
}

/// Fig. 6: MPICH/Madeleine loses on latency but provides the best
/// bandwidth from 32 kB up.
#[test]
fn fig6_crossover_at_32kb() {
    let sci_mpich = mad_mpi::baselines::sci_mpich_curve();
    let scampi = mad_mpi::baselines::scampi_curve();
    // Latency: baselines faster at 4 B.
    let chmad_4 = experiments::mpi_oneway_us(Protocol::Sisci, 4);
    assert!(sci_mpich.time_for(4).as_micros_f64() < chmad_4);
    assert!(scampi.time_for(4).as_micros_f64() < chmad_4);
    // At 16 kB the baselines still lead.
    let chmad_16k = bw_of(experiments::mpi_oneway_us(Protocol::Sisci, 16384), 16384);
    assert!(sci_mpich.bandwidth_at(16384) > chmad_16k);
    assert!(scampi.bandwidth_at(16384) > chmad_16k);
    // From 32 kB, ch_mad is best (the paper's headline).
    for n in [32768usize, 131072, 1 << 20] {
        let chmad = bw_of(experiments::mpi_oneway_us(Protocol::Sisci, n), n);
        assert!(
            chmad > sci_mpich.bandwidth_at(n) && chmad > scampi.bandwidth_at(n),
            "ch_mad must lead at {n}: {chmad:.1} vs {:.1}/{:.1}",
            sci_mpich.bandwidth_at(n),
            scampi.bandwidth_at(n)
        );
    }
}

/// Fig. 7: Nexus/Mad/SISCI minimal latency below 25 µs; the TCP variant an
/// order of magnitude slower; bulk bandwidth close to raw Madeleine.
#[test]
fn fig7_claims() {
    let sci = experiments::nexus_oneway_us(Protocol::Sisci, 4);
    assert!(sci < 25.0, "Nexus/Mad/SISCI latency {sci:.1} >= 25 us");
    let tcp = experiments::nexus_oneway_us(Protocol::Tcp, 4);
    assert!(tcp > sci * 4.0);
    let bulk = bw_of(
        experiments::nexus_oneway_us(Protocol::Sisci, 1 << 20),
        1 << 20,
    );
    assert!(bulk > 75.0, "Nexus bulk bandwidth {bulk:.1} too low");
}

/// §5.2.1: the SCI DMA mode stays in the paper's measured band and loses
/// to PIO — the reason the TM ships disabled.
#[test]
fn sci_dma_band() {
    let n = 1 << 18;
    let dma = bw_of(
        experiments::madeleine_oneway_us(Protocol::Sisci, n, true),
        n,
    );
    let pio = bw_of(
        experiments::madeleine_oneway_us(Protocol::Sisci, n, false),
        n,
    );
    assert!((26.0..36.0).contains(&dma), "DMA {dma:.1} outside 26–36");
    assert!(pio > dma * 2.0);
}

/// §3.4 buffer aggregation: one message of k 64 B blocks beats k one-block
/// messages over TCP (one grouped `writev`) and SISCI (one PIO stream),
/// and posting that message costs what packing it does.
#[test]
fn aggregation_beats_k_messages() {
    use experiments::{multi_block_oneway_us, KBlocks};
    for protocol in [Protocol::Tcp, Protocol::Sisci] {
        for k in [4usize, 16, 64] {
            let [packed, posted, split] = [KBlocks::Packed, KBlocks::Posted, KBlocks::Split]
                .map(|how| multi_block_oneway_us(protocol, k, 64, how));
            assert!(
                packed < split,
                "{protocol:?}, k = {k}: one message {packed:.2} us, k messages {split:.2} us"
            );
            assert!(
                (posted - packed).abs() <= 1.0,
                "{protocol:?}, k = {k}: posted {posted:.2} us vs packed {packed:.2} us"
            );
        }
    }
}
