//! Property-based tests of the GPU model's functional correctness and
//! timing monotonicity.

use proptest::prelude::*;
use shredder_gpu::coalesce::{classify_half_warp, CoalesceClass};
use shredder_gpu::dram::{AccessModel, AccessPattern, BankArray, Locality};
use shredder_gpu::kernel::{ChunkKernel, KernelVariant};
use shredder_gpu::DeviceConfig;
use shredder_rabin::chunker::raw_cuts;
use shredder_rabin::ChunkParams;

fn config() -> DeviceConfig {
    DeviceConfig::tesla_c2050()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every kernel variant finds exactly its detector's sequential
    /// CPU cuts on arbitrary data, and so do the substreams of its
    /// launch's modeled threads (Rabin variants additionally match the
    /// free-function Rabin scan).
    #[test]
    fn kernels_match_sequential(data in proptest::collection::vec(any::<u8>(), 0..65536)) {
        let params = ChunkParams::paper();
        let rabin_expected = raw_cuts(&data, &params);
        for variant in KernelVariant::ALL {
            let kernel = ChunkKernel::new(params.clone(), variant);
            let expected = kernel.boundary().raw_cuts(&data);
            let threads = kernel.thread_count(&config(), data.len()) as usize;
            prop_assert_eq!(&kernel.boundary().raw_cuts_substreams(&data, threads), &expected);
            let out = kernel.run(&config(), &data).unwrap();
            prop_assert_eq!(&out.raw_cuts, &expected);
            if !variant.is_gear() {
                prop_assert_eq!(out.cut_offsets(), rabin_expected.clone());
            }
        }
    }

    /// Kernel duration is monotone in input size for both variants.
    #[test]
    fn kernel_time_monotone_in_bytes(small in 4096usize..32768, factor in 2usize..8) {
        let params = ChunkParams::paper();
        let a = vec![0xa5u8; small];
        let b = vec![0xa5u8; small * factor];
        for variant in KernelVariant::ALL {
            let k = ChunkKernel::new(params.clone(), variant);
            let ta = k.run(&config(), &a).unwrap().stats.duration;
            let tb = k.run(&config(), &b).unwrap().stats.duration;
            prop_assert!(tb > ta, "{variant}: {tb:?} !> {ta:?}");
        }
    }

    /// The coalescing classifier accepts exactly the §4.3 pattern:
    /// contiguous, aligned, element size in {4,8,16}.
    #[test]
    fn coalescing_rules(base16 in 0u64..4096, elem_pow in 2u32..5, jitter in 0u64..16) {
        let elem = 1usize << elem_pow; // 4, 8, 16
        let base = base16 * 16; // aligned
        let good: Vec<u64> = (0..16).map(|i| base + i * elem as u64).collect();
        prop_assert_eq!(classify_half_warp(&good, elem), CoalesceClass::Coalesced);

        // Any misalignment breaks it.
        if jitter % 16 != 0 {
            let bad: Vec<u64> = good.iter().map(|a| a + jitter).collect();
            prop_assert_eq!(classify_half_warp(&bad, elem), CoalesceClass::Serialized);
        }
    }

    /// DRAM: a sequential walk never conflicts more than one switch per
    /// row, regardless of transaction size.
    #[test]
    fn sequential_walk_rows(txn_pow in 5u32..9, rows in 2u64..64) {
        let cfg = config();
        let txn = 1u64 << txn_pow; // 32..256
        let mut banks = BankArray::new(&cfg);
        let total = rows * cfg.dram_row_bytes as u64;
        let mut addr = 0u64;
        while addr < total {
            banks.access(addr);
            addr += txn;
        }
        prop_assert_eq!(banks.conflicts() + banks.empties(), rows);
    }

    /// The closed-form cost is monotone in transaction count.
    #[test]
    fn cost_monotone_in_transactions(txns in 1u64..1_000_000, factor in 2u64..10) {
        let model = AccessModel::new(&config());
        for locality in [Locality::Streaming, Locality::Scattered] {
            let a = model.cost(AccessPattern { transactions: txns, bytes_per_txn: 32, locality });
            let b = model.cost(AccessPattern { transactions: txns * factor, bytes_per_txn: 32, locality });
            prop_assert!(b.time >= a.time);
            prop_assert_eq!(b.bytes_moved, a.bytes_moved * factor);
        }
    }
}
